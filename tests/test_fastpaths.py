"""The bitset FCA core, the trusted lattice theories and satisfaction
columns against independent references: brute-force concepts and covers,
derivations on sets of pairs, order-scanning meets and joins, closure and
columns by the ground evaluator, the lazy structure space against a list
built by filtering tuple spaces, and the exports written from masks
against renderings of the concept and theory objects."""

from __future__ import annotations

import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_closed_theories,
    brute_concepts,
    brute_covers,
    brute_structures,
    oracle_satisfies,
    order_join,
    order_meet,
    random_context,
    random_sentence,
    reference_concepts_text,
    reference_lattice_dot,
    reference_lattice_text,
    set_derive_instances,
    set_derive_types,
)
from theorylattice.cli import main
from theorylattice.fca import (
    Classification,
    FormalConcept,
    _extent_order,
    concept_lattice,
    derive_instances,
    derive_types,
    lattice_dot,
    lattice_join,
    lattice_meet,
    read_cxt,
    write_cxt,
)
from theorylattice.logic import (
    Atom,
    Const,
    Forall,
    Signature,
    Structure,
    Var,
    count_structures,
    enumerate_structures,
    parse_sentence,
    parse_signature,
)
from theorylattice.truth import build_truth_classification, closure, lattice_text, theory_lattice


def subsets(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def corpus(seed: int, count: int) -> list[Classification]:
    rng = random.Random(seed)
    out = [Classification(*random_context(rng, 5, 5)) for _ in range(count)]
    return out + [Classification.make([], [], []), Classification.make([1], ["a"], [])]


@st.composite
def contexts(draw):
    instances = tuple(range(draw(st.integers(0, 5))))
    types = tuple("abcdef"[: draw(st.integers(0, 5))])
    pairs = [(i, t) for i in instances for t in types]
    incidence = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    return Classification(instances, types, incidence)


def check_against_references(ctx: Classification) -> None:
    lat = concept_lattice(ctx)
    assert {(c.extent, c.intent) for c in lat.concepts} == brute_concepts(
        ctx.instances, ctx.types, ctx.incidence
    )
    assert lat.covers() == brute_covers(lat.concepts)

    for xs in subsets(ctx.instances):
        assert derive_types(ctx, xs) == set_derive_types(ctx.types, ctx.incidence, xs)
    for ys in subsets(ctx.types):
        assert derive_instances(ctx, ys) == set_derive_instances(ctx.instances, ctx.incidence, ys)

    for i in ctx.instances:
        intent = set_derive_types(ctx.types, ctx.incidence, [i])
        extent = set_derive_instances(ctx.instances, ctx.incidence, intent)
        assert lat.instance_concept(i) == FormalConcept(extent, intent)
    for t in ctx.types:
        extent = set_derive_instances(ctx.instances, ctx.incidence, [t])
        intent = set_derive_types(ctx.types, ctx.incidence, extent)
        assert lat.type_concept(t) == FormalConcept(extent, intent)

    assert lattice_meet(lat, []) == lat.top
    assert lattice_join(lat, []) == lat.bottom
    for c in lat.concepts:
        for d in lat.concepts:
            assert lattice_meet(lat, [c, d]) == order_meet(lat.concepts, lat.leq, c, d)
            assert lattice_join(lat, [c, d]) == order_join(lat.concepts, lat.leq, c, d)


def test_fast_paths_on_random_corpus():
    for ctx in corpus(20261017, 150):
        check_against_references(ctx)


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_fast_paths_on_generated_contexts(ctx):
    check_against_references(ctx)


def test_covers_on_a_boolean_lattice():
    # the complement of equality on 5 points: 2^5 concepts, 5 * 2^4 edges
    n = 5
    ctx = Classification.make(range(n), range(n), [(i, j) for i in range(n) for j in range(n) if i != j])
    lat = concept_lattice(ctx)
    assert lat.covers() == brute_covers(lat.concepts)
    assert len(lat.covers()) == n * 2 ** (n - 1)


def reference_unknown_message(known, ids, what):
    unknown = set(ids) - set(known)
    return f"unknown {what} id {sorted(map(repr, unknown))[0]}"


@pytest.mark.parametrize(
    "ids", [[9], [1, 9], ["x", 9, "y"], [(1, 2)], ["b", "a"]]
)
def test_unknown_id_messages_match_the_set_reference(ids):
    ctx = Classification.make([1, 2, 3], ["a", "b", "c"], [(1, "a"), (2, "b")])
    if set(ids) - set(ctx.instances):
        with pytest.raises(ValueError) as exc:
            derive_types(ctx, ids)
        assert str(exc.value) == reference_unknown_message(ctx.instances, ids, "instance")
    if set(ids) - set(ctx.types):
        with pytest.raises(ValueError) as exc:
            derive_instances(ctx, ids)
        assert str(exc.value) == reference_unknown_message(ctx.types, ids, "type")


def random_truth_case(rng: random.Random):
    sig = Signature(("E",), (("P", ("E",)), ("R", ("E", "E"))), ())
    pool = []
    for _ in range(rng.randint(1, 6)):
        s = random_sentence(rng, sig, depth=rng.randint(1, 3))
        if s not in pool:
            pool.append(s)
    carriers = {"E": ["a", "b"][: rng.randint(1, 2)]}
    return build_truth_classification(sig, pool, carriers=carriers)


def test_closure_and_theory_lattice_match_brute_force_on_random_pools():
    rng = random.Random(4242)
    for _ in range(25):
        tc = random_truth_case(rng)
        want = brute_closed_theories(tc.models, tc.pool)
        lat = theory_lattice(tc)
        assert {t.axioms for t in lat.theories} == want
        assert len(lat.theories) == len(want)
        for axioms in subsets(tc.pool):
            closed = closure(tc, axioms)
            brute = [t for t in want if set(axioms) <= t]
            assert closed.axioms == min(brute, key=len)
            assert closed in lat


# ---------------------------------------------------------------------------
# The canonical concept order and the exports written from masks


same_width_masks = st.integers(0, 70).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1)))
)


@given(same_width_masks)
def test_extent_order_is_the_order_of_sorted_positions(case):
    width, masks = case

    def positions(mask):
        return tuple(i for i in range(width) if mask >> i & 1)

    by_positions = sorted(masks, key=lambda e: (len(positions(e)), positions(e)))
    assert sorted(masks, key=lambda e: _extent_order(e, width)) == by_positions


def test_concepts_are_listed_in_the_order_of_sorted_positions():
    for ctx in corpus(5150, 60):
        concepts = concept_lattice(ctx).concepts
        keys = [(len(c.extent), sorted(ctx.instances.index(i) for i in c.extent)) for c in concepts]
        assert keys == sorted(keys)


def export_corpus() -> list[Classification]:
    quoted = Classification.make(
        ['a"b', "c\\d", "e"], ['x"y', "z\\"], [('a"b', 'x"y'), ("e", "z\\")]
    )
    # names whose sorted order is not their declaration order
    unsorted = Classification.make(
        ["b", "a", "10", "9"], ["y", "x", "w"],
        [("b", "y"), ("a", "y"), ("10", "y"), ("a", "x"), ("10", "x"), ("9", "w"), ("10", "w")],
    )
    return corpus(8080, 80) + [quoted, unsorted]


def ctx_concepts_text(tmp_path, capsys, ctx: Classification) -> str:
    path = tmp_path / "ctx.cxt"
    path.write_text(write_cxt(ctx, "corpus"), encoding="utf-8")
    assert main(["ctx", "concepts", "--cxt", str(path), "--format", "text"]) == 0
    return capsys.readouterr().out


def test_concept_exports_match_reference_renderings(tmp_path, capsys):
    for ctx in export_corpus():
        lat = concept_lattice(ctx)
        assert lattice_dot(lat) == reference_lattice_dot(lat)
        assert lattice_dot(lat, "g") == reference_lattice_dot(lat, "g")
        from_file = concept_lattice(read_cxt(write_cxt(ctx)))
        assert ctx_concepts_text(tmp_path, capsys, ctx) == reference_concepts_text(from_file)


@given(contexts())
@settings(max_examples=40, deadline=None)
def test_concept_dot_matches_reference_on_generated_contexts(ctx):
    lat = concept_lattice(ctx)
    assert lattice_dot(lat) == reference_lattice_dot(lat)


def edge_truth_cases():
    """The empty pool, a single model, and a pool whose bottom has no models."""
    sig = parse_signature("entity E\nrelation P(E)\nrelation R(E,E)\n")
    contradiction = parse_sentence(sig, "forall x:E. P(x) & ~P(x)")
    some_p = parse_sentence(sig, "exists x:E. P(x)")
    carriers = {"E": ["a", "b"]}
    one_model = [enumerate_structures(sig, {"E": ["a"]})[1]]
    return [
        build_truth_classification(sig, [], carriers=carriers),
        build_truth_classification(sig, [], models=one_model),
        build_truth_classification(sig, [some_p, contradiction], models=one_model),
        build_truth_classification(sig, [some_p, contradiction], carriers=carriers),
    ]


def test_theory_exports_match_reference_renderings_on_random_pools():
    rng = random.Random(6161)
    for tc in edge_truth_cases() + [random_truth_case(rng) for _ in range(30)]:
        lat = theory_lattice(tc)
        assert lattice_text(lat) == reference_lattice_text(lat)
        assert lattice_dot(lat.lattice) == reference_lattice_dot(lat.lattice)


def test_exports_build_neither_concepts_nor_theories():
    rng = random.Random(99)
    for tc in edge_truth_cases() + [random_truth_case(rng) for _ in range(5)]:
        lat = theory_lattice(tc)
        lattice_text(lat)
        lattice_dot(lat.lattice)
        assert "theories" not in lat.__dict__
        assert "concepts" not in lat.lattice.__dict__


# ---------------------------------------------------------------------------
# Satisfaction columns and the lazy structure space

# Two sorts, a binary relation across them, a unary one, and a constant of
# each sort.
MIXED = Signature(("A", "B"), (("R", ("A", "B")), ("S", ("B",))), (("c", "A"), ("d", "B")))
MIXED_CARRIERS = (
    {"A": ["a"], "B": ["b"]},
    {"A": ["a"], "B": ["b", "b2"]},
    {"A": ["a", "a2"], "B": ["b"]},
    {"A": ["a2", "a"], "B": ["b2", "b"]},
)


def random_sentences(rng: random.Random, count: int) -> list:
    return [
        random_sentence(rng, MIXED, depth=rng.randint(1, 4), equality=True) for _ in range(count)
    ]


def oracle_mask(models, sentence) -> int:
    return sum(1 << i for i, m in enumerate(models) if oracle_satisfies(m, sentence))


def check_columns(tc, sentences) -> None:
    """Pool columns, and the computed columns of any sentence, bit for bit."""
    for s, column in zip(tc.pool, tc.classification._columns):
        assert column == oracle_mask(tc.models, s)
    for s in sentences:
        want = oracle_mask(tc.models, s)
        assert tc.models_of([s]) == {i for i in range(len(tc.models)) if want >> i & 1}


@pytest.mark.parametrize("carriers", MIXED_CARRIERS)
def test_enumerated_columns_match_ground_substitution(carriers):
    rng = random.Random(MIXED_CARRIERS.index(carriers))
    sentences = random_sentences(rng, 40)
    tc = build_truth_classification(MIXED, sentences[:20], carriers=carriers)
    check_columns(tc, sentences[20:])


def test_bound_variable_named_like_a_constant_is_kept_apart():
    sig = Signature(("E",), (("R", ("E", "E")),), (("v0", "E"),))
    sentence = Forall("v0", "E", Atom("R", (Var("v0", "E"), Const("v0"))))
    tc = build_truth_classification(sig, [sentence], carriers={"E": ["a", "b"]})
    check_columns(tc, [sentence])


def test_listed_columns_with_mixed_carriers_match_ground_substitution():
    rng = random.Random(77)
    spaces = [brute_structures(MIXED, c) for c in MIXED_CARRIERS]
    for _ in range(4):
        drawn = (m for space in spaces for m in rng.sample(space, min(12, len(space))))
        models = list(dict.fromkeys(drawn))
        rng.shuffle(models)
        sentences = random_sentences(rng, 30)
        tc = build_truth_classification(MIXED, sentences[:15], models=models)
        check_columns(tc, sentences[15:])


@pytest.mark.parametrize(
    "sig, carriers",
    [
        (MIXED, MIXED_CARRIERS[1]),
        (MIXED, MIXED_CARRIERS[3]),
        (Signature(("E",), (("P", ("E",)), ("R", ("E", "E"))), ()), {"E": ["a", "b"]}),
        (Signature(("E",), (), (("c", "E"), ("d", "E"))), {"E": ["x", "y", "z"]}),
    ],
)
def test_lazy_space_matches_independent_enumeration(sig, carriers):
    want = brute_structures(sig, carriers)
    space = enumerate_structures(sig, carriers)
    assert len(space) == len(want) == count_structures(sig, carriers)
    assert list(space) == want
    for i, m in enumerate(want):
        assert space[i] == m
        assert space[i - len(want)] == m
        assert space.index(m) == i
        assert m in space
    assert space[1:4] == want[1:4]
    with pytest.raises(IndexError):
        space[len(want)]
    with pytest.raises(IndexError):
        space[-len(want) - 1]
    foreign = Structure.make(
        sig, {sort: [*elems, "extra"] for sort, elems in carriers.items()}, {},
        {c: "extra" for c in sig.constant_names},
    )
    assert foreign not in space
    with pytest.raises(ValueError):
        space.index(foreign)
