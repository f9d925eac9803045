"""The bitset FCA core, the trusted lattice theories and satisfaction
columns against independent references: brute-force concepts and covers,
derivations on sets of pairs, order-scanning meets and joins, closure and
columns by the ground evaluator, the lazy structure space against a list
built by filtering tuple spaces, the exports written from masks
against renderings of the concept and theory objects, and the
infomorphism's transfer check, which reads no source column, and its
instance map against one reduct per model, built by ground substitution,
and the comparison of rows; and reducts against that ground-substitution
reduct."""

from __future__ import annotations

import functools
import random
import time
import tracemalloc
from itertools import chain, combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (
    M_POOL,
    M_SIG,
    ST_POOL,
    ST_SIG,
    ST_TO_M,
    brute_closed_theories,
    brute_concepts,
    brute_covers,
    brute_structures,
    oracle_reduct,
    oracle_satisfies,
    order_join,
    order_meet,
    random_context,
    random_interpretation_case,
    random_sentence,
    reference_adjoint_pair,
    reference_check_infomorphism,
    reference_concepts_text,
    reference_instance_map,
    reference_lattice_dot,
    reference_lattice_text,
    reference_next_closure,
    reference_rows,
    set_closure,
    set_derive_instances,
    set_derive_types,
)
from theorylattice import morph
from theorylattice.cli import main
from theorylattice.errors import InfomorphismError, PoolMembershipError, SizeCapError
from theorylattice.fca import (
    _LOW_BIT_FIRST,
    Classification,
    FormalConcept,
    _BlockJoin,
    _concept_records,
    _cxt_records,
    _dot_records,
    _pullbacks,
    _row_classes,
    _select,
    basic_theorem_roundtrip,
    concept_lattice,
    density_report,
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
    format_structure,
    parse_model,
    parse_sentence,
    parse_signature,
    sentence_key,
)
from theorylattice.morph import (
    check_infomorphism,
    concept_morphism,
    parse_interpretation,
    reduct,
    translate,
    truth_infomorphism,
)
from theorylattice.nav import contract, expand, revise
from theorylattice.truth import (
    ClosedTheory,
    _text_records,
    attribute_concept,
    build_truth_classification,
    closure,
    lattice_text,
    object_concept,
    theory_join,
    theory_lattice,
    theory_leq,
    theory_meet,
)


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


def check_lookups(ctx: Classification, other: Classification) -> None:
    """``_closing`` against the set derivations, and ``index`` and ``in``
    against membership in the set of concepts, for this lattice's concepts,
    their extents paired with other intents, intents with an unknown type
    id, and the concepts of another lattice."""
    lat = concept_lattice(ctx)
    assert [lat._closing(intent) for intent in lat._intents] == list(range(len(lat._intents)))
    for ys in subsets(ctx.types):
        mask = sum(1 << ctx.types.index(t) for t in ys)
        xs = set_derive_instances(ctx.instances, ctx.incidence, ys)
        closed = set_derive_types(ctx.types, ctx.incidence, xs)
        assert lat.concepts[lat._closing(mask)] == FormalConcept(xs, closed)

    members = {c: k for k, c in enumerate(lat.concepts)}
    candidates = [FormalConcept(c.extent, d.intent) for c in lat.concepts for d in lat.concepts]
    candidates += [FormalConcept(c.extent, c.intent | {"?"}) for c in lat.concepts]
    candidates += concept_lattice(other).concepts
    for c in candidates:
        assert (c in lat) == (c in members)
        if c in members:
            assert lat.index(c) == members[c]
        else:
            with pytest.raises(ValueError, match="not in this lattice"):
                lat.index(c)


def test_fast_paths_on_random_corpus():
    ctxs = corpus(20261017, 150)
    for ctx, other in zip(ctxs, ctxs[1:] + ctxs[:1]):
        check_against_references(ctx)
        check_lookups(ctx, other)


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_fast_paths_on_generated_contexts(ctx):
    check_against_references(ctx)


@given(contexts(), contexts())
@settings(max_examples=60, deadline=None)
def test_lookups_on_generated_contexts(ctx, other):
    check_lookups(ctx, other)


def test_covers_on_a_boolean_lattice():
    # the complement of equality on 5 points: 2^5 concepts, 5 * 2^4 edges
    n = 5
    ctx = Classification.make(range(n), range(n), [(i, j) for i in range(n) for j in range(n) if i != j])
    lat = concept_lattice(ctx)
    assert lat.covers() == brute_covers(lat.concepts)
    assert len(lat.covers()) == n * 2 ** (n - 1)


def test_covers_over_more_than_8_types_match_the_triple_scan():
    """Covers try the types outside an intent 8 at a time, from per-byte
    tables; contexts of 9 to 24 types with repeated, nested, full and empty
    columns check them against every triple of concepts.  The corpus is
    checked to hold repeated, full and empty columns, and a column strictly
    inside one of another run of 8."""
    rng = random.Random(20261020)
    seen = set()
    for _ in range(600):
        ctx = oracles.random_wide_context(rng)
        lat = concept_lattice(ctx)
        assert lat.covers() == brute_covers(lat.concepts)
        cols, full = ctx._columns, ctx._full
        runs = [(j // 8, c) for j, c in enumerate(cols)]
        found = {
            "repeated": len(set(cols)) < len(cols),
            "full": full != 0 and full in cols,
            "empty": full != 0 and 0 in cols,
            "nested across a byte": any(g != h and c != d and c & d == c for g, c in runs for h, d in runs),
        }
        seen |= {name for name, hit in found.items() if hit}
    assert seen == {"repeated", "full", "empty", "nested across a byte"}


def test_covers_look_up_one_type_per_concept_on_a_chain_of_columns():
    """Covers try only the types outside an intent whose columns lie
    strictly inside no other such column.  On 12 types whose columns form
    a strict chain, in shuffled order, that is one type per concept with a
    type outside its intent: 12 lookups, where trying every type outside
    each intent takes 78."""
    n = 12
    size = random.Random(7).sample(range(1, n + 1), n)
    ctx = Classification.from_columns(range(n + 1), tuple(range(n)), tuple((1 << s) - 1 for s in size))
    lat = concept_lattice(ctx)

    class CountingDict(dict):
        lookups = 0

        def __getitem__(self, key):
            self.lookups += 1
            return super().__getitem__(key)

    lat.__dict__["_by_key"] = by_key = CountingDict(lat._by_key)
    assert lat.covers() == brute_covers(lat.concepts) == tuple((k, k + 1) for k in range(n))
    outside = [c for c in lat.concepts if c.intent != frozenset(ctx.types)]
    assert by_key.lookups == len(outside) == n


# ---------------------------------------------------------------------------
# The intersection closure against NextClosure: same concepts, same order,
# and a SizeCapError for the same (context, cap) pairs


def edge_contexts() -> dict[str, Classification]:
    """Duplicate, empty and full columns, no types, no instances."""
    return {
        "duplicate-columns": Classification.make(
            [1, 2, 3], ["a", "b", "c"], [(1, "a"), (2, "a"), (1, "b"), (2, "b")]
        ),
        "empty-columns": Classification.make([1, 2, 3], ["a", "b", "c"], [(1, "b"), (3, "b")]),
        "full-column": Classification.make([1, 2], ["a", "b"], [(1, "a"), (2, "a"), (1, "b")]),
        "full-and-empty": Classification.make(
            [1, 2, 3], ["a", "b", "c", "d"], [(i, "b") for i in (1, 2, 3)]
        ),
        "no-crosses": Classification.make([1, 2], ["a", "b"], []),
        "all-crosses": Classification.make([1, 2], ["a"], [(1, "a"), (2, "a")]),
        "no-types": Classification.make([1, 2], [], []),
        "no-instances": Classification.make([], ["a", "b"], []),
        "nothing": Classification.make([], [], []),
    }


def check_against_next_closure(ctx: Classification) -> None:
    lat, ref = concept_lattice(ctx), reference_next_closure(ctx)
    assert tuple(map(ctx._extent, lat._intents)) == ref.extents
    assert lat._intents == ref.intents
    n = len(ref.intents)
    for cap in range(n + 2):
        try:
            reference_next_closure(ctx, cap)
        except SizeCapError:
            with pytest.raises(SizeCapError):
                concept_lattice(ctx, cap)
        else:
            assert concept_lattice(ctx, cap)._intents == ref.intents


def test_intersection_closure_matches_next_closure_on_random_corpus():
    for ctx in corpus(1984, 150) + list(edge_contexts().values()):
        check_against_next_closure(ctx)


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_intersection_closure_matches_next_closure_on_generated_contexts(ctx):
    check_against_next_closure(ctx)


@pytest.mark.parametrize("name", edge_contexts())
def test_concept_cap_boundary(name):
    # with no types, the one concept must still be refused by cap 0
    ctx = edge_contexts()[name]
    n = len(concept_lattice(ctx)._intents)
    assert len(concept_lattice(ctx, cap=n)._intents) == n
    with pytest.raises(SizeCapError):
        concept_lattice(ctx, cap=n - 1)


# ---------------------------------------------------------------------------
# The one space: every lattice runs on the classes of equal rows, checked
# against NextClosure and brute force over the instances


@st.composite
def duplicated_contexts(draw):
    """Up to 40 instances, each taking one of at most four rows over at most
    five types; the ids are a range or a tuple of names."""
    m = draw(st.integers(0, 5))
    rows = draw(st.lists(st.integers(0, 2**m - 1), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(rows), max_size=40))
    columns = tuple(sum(1 << p for p, row in enumerate(picks) if row >> j & 1) for j in range(m))
    ids = range(len(picks)) if draw(st.booleans()) else tuple(f"i{p}" for p in range(len(picks)))
    return Classification.from_columns(ids, tuple("abcde"[:m]), columns)


@st.composite
def weighted_contexts(draw):
    """Up to five distinct rows over at most four types, each carried by a
    number of instances drawn from a few values, so that extent sizes tie,
    and up to 513, so that a class weight needs more than 8 slices.  The
    instances are shuffled, so the classes' first instances interleave."""
    m = draw(st.integers(0, 4))
    rows = draw(st.lists(st.integers(0, 2**m - 1), min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.sampled_from((1, 2, 3, 255, 256, 257, 513)), min_size=len(rows), max_size=len(rows)))
    picks = [row for row, w in zip(rows, weights) for _ in range(w)]
    draw(st.randoms(use_true_random=False)).shuffle(picks)
    columns = tuple(sum(1 << p for p, row in enumerate(picks) if row >> j & 1) for j in range(m))
    return Classification.from_columns(range(len(picks)), tuple("abcd"[:m]), columns)


def check_row_classes(ctx: Classification, dot: bool = True) -> None:
    """The row classes are the distinct rows, numbered by their first
    instance, with their instance counts.  The lattice on them gives
    NextClosure's extents, intents and order, the brute concepts and
    covers, the extent order in ``leq``, closing lookups, DOT (when
    ``dot``), the round trip and density, and refuses the caps NextClosure
    refuses."""
    space, weights = _row_classes(ctx)
    rows = reference_rows(ctx)
    assert reference_rows(space) == list(dict.fromkeys(rows))
    assert list(weights) == [rows.count(row) for row in dict.fromkeys(rows)]
    ref = reference_next_closure(ctx)
    lat = concept_lattice(ctx)
    assert lat._space is ctx._classes[0]
    assert [space._intent(key) for key in lat._keys] == list(lat._intents)
    assert (tuple(map(ctx._extent, lat._intents)), lat._intents) == (ref.extents, ref.intents)
    assert {(c.extent, c.intent) for c in lat.concepts} == brute_concepts(ctx.instances, ctx.types, ctx.incidence)
    assert lat.concepts == ref.concepts
    assert lat.covers() == brute_covers(ref.concepts)
    for i, c1 in enumerate(lat.concepts):
        for j, c2 in enumerate(lat.concepts):
            assert lat.leq(c1, c2) == (ref.extents[i] & ~ref.extents[j] == 0)
    assert [lat._closing(i) for i in lat._intents] == list(range(len(lat._intents)))
    for q in range(len(ctx.types)):
        assert lat._intents[lat._closing(1 << q)] == set_closure(ctx, 1 << q)
    if dot:
        assert lattice_dot(lat) == reference_lattice_dot(ref)
    assert basic_theorem_roundtrip(lat) == ctx
    assert density_report(lat) == (True, True)
    n = len(ref.intents)
    for cap in range(n + 2):
        if cap >= n:
            assert concept_lattice(ctx, cap)._intents == ref.intents
        else:
            with pytest.raises(SizeCapError):
                concept_lattice(ctx, cap)


@given(duplicated_contexts())
@settings(max_examples=80, deadline=None)
def test_row_classes_match_the_instances_on_duplicated_rows(ctx):
    check_row_classes(ctx)


@given(weighted_contexts())
@settings(max_examples=40, deadline=None)
def test_row_classes_match_the_instances_on_weighted_rows(ctx):
    check_row_classes(ctx, dot=False)


def test_row_classes_match_the_instances_on_random_corpus():
    for ctx in corpus(1999, 80) + list(edge_contexts().values()):
        check_row_classes(ctx)


@given(contexts())
@settings(max_examples=40, deadline=None)
def test_row_classes_match_the_instances_on_generated_contexts(ctx):
    check_row_classes(ctx)


def test_row_classes_are_counted_by_chunk_of_2_16_instances():
    """Rows met in several chunks are counted across them and numbered by
    their first instance, wherever a chunk starts."""
    n = (1 << 17) + 3
    thirds = int(("100" * n)[:n][::-1], 2)  # every third instance from 0
    cols = (thirds, (1 << n) - 1 ^ 1 << 69999)  # 69999 is a third, alone outside b
    space, weights = _row_classes(Classification.from_columns(range(n), ("a", "b"), cols))
    assert reference_rows(space) == [0b11, 0b10, 0b01]
    assert weights == (len(range(0, n, 3)) - 1, n - len(range(0, n, 3)), 1)


def test_m_and_l10_lattices_run_on_their_row_classes():
    """M (124 classes of 256 models) and L10 (27 of 32768) give the
    NextClosure oracle's intents and extents, in its order."""
    sig = parse_signature(M_SIG)
    pool = [parse_sentence(sig, t) for t in M_POOL]
    m = build_truth_classification(sig, pool, carriers={"E": ["a", "b"]}).classification
    l10 = build_truth_classification(sig, pool[:10], carriers={"E": ["a", "b", "c"]}).classification
    for ctx, classes in ((m, 124), (l10, 27)):
        lat, ref = concept_lattice(ctx), reference_next_closure(ctx)
        assert len(lat._space.instances) == classes
        assert sum(ctx._classes[1]) == len(ctx.instances)
        assert (tuple(map(ctx._extent, lat._intents)), lat._intents) == (ref.extents, ref.intents)


# ---------------------------------------------------------------------------
# Meet tables: every lookup ANDs one table entry per run of 8 types


@st.composite
def table_cases(draw):
    """A context whose type count sits at or next to a run boundary (or is
    60 to 70), over up to 6 distinct rows repeated up to 12 times, with type
    masks: 0, all ones, one with bits in every run, and random ones."""
    m = draw(st.one_of(st.sampled_from((0, 1, 7, 8, 9, 16, 17)), st.integers(60, 70)))
    rows = draw(st.lists(st.integers(0, 2**m - 1), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(rows), max_size=12))
    columns = tuple(sum(1 << p for p, row in enumerate(picks) if row >> j & 1) for j in range(m))
    ctx = Classification.from_columns(range(len(picks)), tuple(f"t{j}" for j in range(m)), columns)
    runs = [draw(st.integers(1, 2 ** min(8, m - g) - 1)) << g for g in range(0, m, 8)]
    randoms = draw(st.lists(st.integers(0, 2**m - 1), max_size=6))
    return ctx, [0, 2**m - 1, sum(runs), *randoms]


@given(table_cases())
@settings(max_examples=80, deadline=None)
def test_closing_reads_the_meet_of_the_selected_columns(case):
    """The key a lookup finds is the classes' extent of the mask, and its
    intent the double-prime closure the set derivations give."""
    ctx, masks = case
    lat = concept_lattice(ctx)
    for mask in masks:
        assert lat._closing(mask) == lat._by_key[lat._space._extent(mask)]
        assert lat._intents[lat._closing(mask)] == set_closure(ctx, mask)


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 16, 17, 65])
def test_meet_tables_have_one_entry_per_subset_of_each_run(m):
    rng = random.Random(m)
    rows = [rng.getrandbits(m) for _ in range(3)]
    picks = [rng.choice(rows) for _ in range(9)]
    columns = tuple(sum(1 << p for p, row in enumerate(picks) if row >> j & 1) for j in range(m))
    lat = concept_lattice(Classification.from_columns(range(9), tuple(range(m)), columns))
    sizes = [256] * (m // 8) + ([2 ** (m % 8)] if m % 8 else [])
    assert [len(table) for table in lat._meets] == sizes
    assert all(table[0] == lat._space._full for table in lat._meets)


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


def test_theory_meet_and_join_match_the_order_on_random_pools():
    """The meet is the closure of the union and the pool theory of the
    common models; the join, the intersection, is closed.  Both are the
    order's bounds."""
    rng = random.Random(1999)
    for _ in range(25):
        tc = random_truth_case(rng)
        lat = theory_lattice(tc)
        theories = lat.theories
        holds = [frozenset(s for s in tc.pool if oracle_satisfies(m, s)) for m in tc.models]
        pairs = [(a, b) for a in theories for b in theories]
        for t1, t2 in rng.sample(pairs, min(40, len(pairs))):
            meet, join = theory_meet(lat, t1, t2), theory_join(lat, t1, t2)
            assert meet == order_meet(theories, lat.leq, t1, t2)
            common = lat.extent(t1) & lat.extent(t2)
            assert meet.axioms == frozenset(tc.pool).intersection(*(holds[m] for m in common))
            assert closure(tc, join.axioms) == join
            assert join.axioms == t1.axioms & t2.axioms
            assert join == order_join(theories, lat.leq, t1, t2)


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
# The derivations against the set references, and the lattice moves, which
# close by one lookup in their own lattice, against the classification's
# double-prime closure


@st.composite
def wide_contexts(draw):
    """A context of 0 to 6 instances and 0 to 6 or 60 to 70 types, built from
    its incidence or from its columns, with type masks of up to three types
    to derive from (more would almost always derive the empty extent)."""
    n = draw(st.integers(0, 6))
    m = draw(st.one_of(st.integers(0, 6), st.integers(60, 70)))
    instances, types = tuple(range(n)), tuple(f"t{j}" for j in range(m))
    columns = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    if draw(st.booleans()):
        ctx = Classification.from_columns(instances, types, tuple(columns))
    else:
        incidence = frozenset((i, t) for t, col in zip(types, columns) for i in instances if col >> i & 1)
        ctx = Classification(instances, types, incidence)
    positions = st.sets(st.integers(0, max(m - 1, 0)), max_size=3 if m else 0)
    return ctx, [sum(1 << j for j in js) for js in draw(st.lists(positions, max_size=8))]


@given(wide_contexts())
@settings(max_examples=150, deadline=None)
def test_derivations_match_the_set_references(case):
    ctx, intents = case
    incidence = ctx.incidence
    for xs in subsets(ctx.instances):
        extent = sum(1 << i for i in xs)
        assert ctx._type_ids(ctx._intent(extent)) == set_derive_types(ctx.types, incidence, xs)
    for intent in intents:
        ys = ctx._type_ids(intent)
        assert ctx._instance_ids(ctx._extent(intent)) == set_derive_instances(ctx.instances, incidence, ys)


def test_extent_is_the_models_the_ground_evaluator_finds():
    """Each theory's extent, computed from its intent, holds the models the
    ground evaluator finds; a theory with an axiom outside the pool is
    refused as foreign."""
    rng = random.Random(2718)
    for _ in range(20):
        tc = random_truth_case(rng)
        stray = random_sentence(rng, tc.signature, depth=2)
        lat = theory_lattice(tc)
        for t in lat.theories:
            holds = (all(oracle_satisfies(m, s) for s in t.axioms) for m in tc.models)
            assert lat.extent(t) == frozenset(i for i, ok in enumerate(holds) if ok)
        if tc._lookup(stray)[1] is None:
            with pytest.raises(ValueError, match="foreign theory"):
                lat.extent(ClosedTheory(tc.signature, frozenset({stray})))


@given(st.integers(0, 2**32), st.lists(st.integers(0, 2**6 - 1), min_size=2, max_size=10))
@settings(max_examples=60, deadline=None)
def test_closure_order_and_attribute_concepts_close_over_the_row_classes(seed, masks):
    """closure, theory_leq and attribute_concept, which read the row
    classes, give the double-prime closure of the set derivations over the
    models, and the order of those closures."""
    tc = random_truth_case(random.Random(seed))
    ctx = tc.classification
    axioms = [list(_select(tc.pool, mask & (1 << len(tc.pool)) - 1)) for mask in masks]
    closed = [set_closure(ctx, tc._mask(a)) for a in axioms]
    assert [closure(tc, a)._intent for a in axioms] == closed
    for (a, ca), (b, cb) in zip(zip(axioms, closed), zip(axioms[1:], closed[1:])):
        assert theory_leq(tc, a, b) == (cb & ~ca == 0)
        assert theory_leq(tc, b, a) == (ca & ~cb == 0)
    for p, s in enumerate(tc.pool):
        assert attribute_concept(tc, s)._intent == set_closure(ctx, 1 << p)


@functools.cache
def closure_cases() -> dict:
    """M, L10, and M over the listed models of E=a,b and of E=a,c (two
    groups of 256), as truth classifications."""
    sig = parse_signature(M_SIG)
    pool = [parse_sentence(sig, t) for t in M_POOL]
    listed = [m for elems in (["a", "b"], ["a", "c"]) for m in enumerate_structures(sig, {"E": elems})]
    return {
        "M": build_truth_classification(sig, pool, carriers={"E": ["a", "b"]}),
        "L10": build_truth_classification(sig, pool[:10], carriers={"E": ["a", "b", "c"]}),
        "two-carriers": build_truth_classification(sig, pool, models=listed),
    }


@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_classification_closure_is_the_double_prime_closure_on_random_contexts(seed):
    ctx = Classification.make(*random_context(random.Random(seed)))
    for mask in range(1 << len(ctx.types)):
        assert ctx._closure(mask) == set_closure(ctx, mask)


@pytest.mark.parametrize("case", ["M", "L10", "two-carriers"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_classification_closure_and_theory_leq_on_truth_classifications(case, data):
    """``_closure`` is the double-prime closure by the set derivations, and
    t1 <= t2 iff that closure of t2 is contained in the one of t1."""
    tc = closure_cases()[case]
    ctx = tc.classification
    masks = data.draw(st.lists(st.integers(0, 2 ** len(tc.pool) - 1), min_size=2, max_size=4))
    closed = [set_closure(ctx, mask) for mask in masks]
    assert list(map(ctx._closure, masks)) == closed
    for (m1, c1), (m2, c2) in zip(zip(masks, closed), zip(masks[1:], closed[1:])):
        t1, t2 = list(_select(tc.pool, m1)), list(_select(tc.pool, m2))
        assert theory_leq(tc, t1, t2) == (c2 & ~c1 == 0)


def test_theory_leq_reports_a_missing_axiom_of_t1_before_one_of_t2():
    tc = closure_cases()["M"]
    texts = ("exists x:E. R(x,x) & ~P(x)", "forall x:E. Q(x) | R(x,x)")
    stray1, stray2 = (parse_sentence(tc.signature, t) for t in texts)
    pooled = tc.pool[0]
    cases = (([stray1], [stray2], stray1), ([pooled], [stray2], stray2), ([stray1], [pooled], stray1))
    for t1, t2, missing in cases:
        with pytest.raises(PoolMembershipError) as exc:
            theory_leq(tc, t1, t2)
        assert exc.value.sentence_key == sentence_key(missing)


def own(lat, theory) -> bool:
    """Whether the theory is one of the lattice's own objects."""
    return any(theory is t for t in lat.theories)


@given(st.integers(0, 2**32), st.lists(st.integers(0, 2**6 - 1), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_closing_step_is_one_lookup_of_the_double_prime_closure(seed, masks):
    tc = random_truth_case(random.Random(seed))
    lat = theory_lattice(tc)
    for mask in masks:
        mask &= (1 << len(tc.pool)) - 1
        closed = lat._closed(mask)
        assert closed is lat.theories[lat.lattice._intents.index(set_closure(tc.classification, mask))]
        axioms = list(_select(tc.pool, mask))
        assert lat.closure(axioms) is closed
        assert closed == closure(tc, axioms)


@given(st.integers(0, 2**32), st.data())
@settings(max_examples=60, deadline=None)
def test_moves_return_the_lattices_own_theories(seed, data):
    """expand, contract, revise, meet and join return theories the lattice holds,
    equal to the closures the classification computes; a theory built by
    hand with the axioms of a lattice theory gives the same results."""
    tc = random_truth_case(random.Random(seed))
    lat = theory_lattice(tc)
    theories, pool = lat.theories, tc.pool
    t1, t2 = data.draw(st.sampled_from(theories)), data.draw(st.sampled_from(theories))
    add = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    delete = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    kept = t1.axioms - set(delete)
    moves = {
        "expand": (lambda t: expand(lat, t, add), closure(tc, [*t1.axioms, *add])),
        "contract": (lambda t: contract(lat, t, delete), closure(tc, kept)),
        "revise": (lambda t: revise(lat, t, delete, add), closure(tc, [*closure(tc, kept).axioms, *add])),
        "meet": (lambda t: theory_meet(lat, t, t2), closure(tc, t1.axioms | t2.axioms)),
        "join": (lambda t: theory_join(lat, t, t2), closure(tc, t1.axioms & t2.axioms)),
    }
    by_hand = ClosedTheory.make(tc.signature, t1.axioms)
    for name, (move, want) in moves.items():
        got = move(t1)
        assert own(lat, got), name
        assert got == want, name
        assert move(by_hand) is got, name
    assert theory_meet(lat, by_hand, ClosedTheory.make(tc.signature, t2.axioms)) is moves["meet"][0](t1)


# ---------------------------------------------------------------------------
# The canonical concept order and the exports written from masks


same_width_masks = st.integers(0, 70).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1)))
)


@given(same_width_masks)
def test_extent_order_is_the_order_of_sorted_positions(case):
    """The key ``_concepts`` sorts by (size, then the mask's little-endian
    bytes translated by ``_LOW_BIT_FIRST``) orders masks as their sorted
    positions do."""
    width, masks = case

    def positions(mask):
        return tuple(i for i in range(width) if mask >> i & 1)

    def key(mask):
        return mask.bit_count(), mask.to_bytes((width + 7) >> 3, "little").translate(_LOW_BIT_FIRST)

    by_positions = sorted(masks, key=lambda e: (len(positions(e)), positions(e)))
    assert sorted(masks, key=key) == by_positions


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


def joined_records(records, header_lines: int, record_lines: int) -> str:
    """Join an export's records after checking their shape: every record
    ends with a newline, the first has ``header_lines`` lines and each
    other one ``record_lines``."""
    records = list(records)
    assert all(r.endswith("\n") for r in records)
    assert records[0].count("\n") == header_lines
    assert all(r.count("\n") == record_lines for r in records[1:])
    return "".join(records)


def reference_cxt(ctx: Classification, name: str) -> str:
    """``write_cxt`` rendered a row at a time: each column's cells as one
    string, first instance first, read across the columns by ``zip``."""
    n = len(ctx.instances)
    # [:n] drops the one digit bin() gives an empty column over no instances
    cells = [bin(col)[2:].zfill(n)[::-1][:n].translate(str.maketrans("01", ".X")) for col in ctx._columns]
    rows = list(map("".join, zip(*cells))) if cells else [""] * n
    head = ["B", name, str(n), str(len(ctx.types)), ""]
    return "\n".join(head + [str(x) for x in (*ctx.instances, *ctx.types)] + rows) + "\n"


def check_concept_records(lat) -> None:
    """DOT, cxt and the ``ctx concepts`` listing of a concept lattice, record
    by record: one per node, cover edge, name, 2^16 rows and concept."""
    ctx, n = lat.classification, len(lat.concepts)
    dot = list(_dot_records(lat, "lattice"))
    assert len(dot) == 1 + n + len(lat.covers()) + 1
    assert joined_records(dot, 3, 1) == reference_lattice_dot(lat)
    cxt = list(_cxt_records(ctx, "corpus"))
    # instances numbered range(n) are named a thousand lines to a record
    width = len(ctx.instances)
    named = [min(1000, width - lo) for lo in range(0, width, 1000)] if ctx.instances == range(width) else [1] * width
    rows = [min(1 << 16, width - lo) for lo in range(0, width, 1 << 16)]
    assert all(r.endswith("\n") for r in cxt)
    assert [r.count("\n") for r in cxt] == [5, *named, *[1] * len(ctx.types), *rows]
    assert "".join(cxt) == reference_cxt(ctx, "corpus")
    listing = joined_records(_concept_records(lat), 1, 1)
    assert listing.count("\n") == 1 + n
    assert listing == reference_concepts_text(concept_lattice(read_cxt("".join(cxt))))


def check_text_records(lat) -> None:
    records = list(_text_records(lat))
    assert len(records) == 1 + len(lat.theories)
    assert all(r.startswith(f"\ntheory {k}\n") for k, r in enumerate(records[1:]))
    assert joined_records(records, 2, 6) == reference_lattice_text(lat)


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
        check_concept_records(lat)


@given(contexts())
@settings(max_examples=40, deadline=None)
def test_concept_dot_matches_reference_on_generated_contexts(ctx):
    lat = concept_lattice(ctx)
    assert lattice_dot(lat) == reference_lattice_dot(lat)
    check_concept_records(lat)


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
        check_text_records(lat)
        check_concept_records(lat.lattice)


def test_exports_build_neither_concepts_nor_theories():
    rng = random.Random(99)
    for tc in edge_truth_cases() + [random_truth_case(rng) for _ in range(5)]:
        lat = theory_lattice(tc)
        lattice_text(lat)
        lattice_dot(lat.lattice)
        assert "theories" not in lat.__dict__
        assert "concepts" not in lat.lattice.__dict__


@pytest.mark.parametrize(
    "pool, carriers, dot",
    [(M_POOL, ["a", "b"], True), (M_POOL[:10], ["a", "b", "c"], False)],
    ids=["M", "L10"],
)
def test_theory_records_match_the_references_on_the_ladder(monkeypatch, pool, carriers, dot):
    """M and L10 against the reference renderings.  The references scan
    every triple of concepts for the covers, which is too slow here, so
    they are given the lattice's own covers: the corpus and generated
    contexts check those against ``brute_covers``, and the digests in
    ``test_cli.py`` pin these exports.  The DOT reference scans all
    instances for each instance's concept, quadratic in the 32768 L10
    models, so the L10 DOT is left to its digest."""
    sig = parse_signature(M_SIG)
    tc = build_truth_classification(
        sig, [parse_sentence(sig, s) for s in pool], carriers={"E": carriers}
    )
    lat = theory_lattice(tc)
    monkeypatch.setattr(oracles, "brute_covers", lambda concepts: lat.lattice.covers())
    check_text_records(lat)
    if dot:
        assert joined_records(_dot_records(lat.lattice, "lattice"), 3, 1) == reference_lattice_dot(
            lat.lattice
        )


def listed_model_files(tmp_path, count: int) -> list:
    """``count`` distinct M models over {a,b,c}, drawn at random from the
    32768 and listed in the drawn order, each written to a model file."""
    rng = random.Random(count)
    space = enumerate_structures(parse_signature(M_SIG), {"E": ["a", "b", "c"]})
    paths = []
    for k, p in enumerate(rng.sample(range(len(space)), count)):
        path = tmp_path / f"m{k}.model"
        path.write_text(format_structure(space[p]), encoding="utf-8")
        paths.append(path)
    return paths


@pytest.mark.parametrize("count", [3, 65, 100])
def test_text_export_over_listed_models_matches_the_reference(tmp_path, capsys, count):
    """Listed models are in no enumeration order, and their counts are
    neither multiples of 8 nor of the 64-model blocks of the ``models:``
    lines: the library text and the CLI ``--model`` text both equal the
    reference rendering."""
    sig = parse_signature(M_SIG)
    paths = listed_model_files(tmp_path, count)
    models = [parse_model(sig, p.read_text(encoding="utf-8"), path=str(p)) for p in paths]
    tc = build_truth_classification(sig, [parse_sentence(sig, s) for s in M_POOL], models=models)
    lat = theory_lattice(tc)
    want = reference_lattice_text(lat)
    assert lattice_text(lat) == want
    check_text_records(lat)
    (tmp_path / "m.sig").write_text(M_SIG, encoding="utf-8")
    (tmp_path / "m.pool").write_text("".join(s + "\n" for s in M_POOL), encoding="utf-8")
    argv = ["lattice", "--sig", str(tmp_path / "m.sig"), "--pool", str(tmp_path / "m.pool")]
    assert main(argv + [arg for p in paths for arg in ("--model", str(p))]) == 0
    assert capsys.readouterr().out == want


def test_records_are_checked_and_built_before_they_are_returned():
    """The record functions refuse and build the covers when called, before
    the first record is asked for, so that the CLI opens no output then."""
    lat = theory_lattice(random_truth_case(random.Random(3)))
    _text_records(lat)
    assert "_covers" in lat.lattice.__dict__
    lat = theory_lattice(random_truth_case(random.Random(3)))
    _dot_records(lat.lattice, "lattice")
    assert "_covers" in lat.lattice.__dict__
    with pytest.raises(ValueError, match="cannot be written as a cxt name"):
        _cxt_records(Classification.make(["a", " c"], [], []), "")
    with pytest.raises(ValueError, match="cannot be written as a cxt name line"):
        _cxt_records(Classification.make([], [], []), "12")


@pytest.mark.parametrize(
    "ids, bad",
    [
        (["a", "", "b\nc"], ""),
        (["a", "b\nc", ""], "b\nc"),
        (["a", "b\u2028c", " d"], "b\u2028c"),
        (["a", " d", "b\rc"], " d"),
        (["a", "d\t"], "d\t"),
    ],
)
def test_cxt_names_refused_name_the_first_bad_id(ids, bad):
    ctx = Classification.make(ids, [], [])
    with pytest.raises(ValueError) as exc:
        write_cxt(ctx)
    assert str(exc.value) == f"id {bad!r} cannot be written as a cxt name"
    with pytest.raises(ValueError) as exc:
        write_cxt(Classification.make(["a"], ids, []))
    assert str(exc.value) == f"id {bad!r} cannot be written as a cxt name"



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


def validated_build(m: Structure) -> Structure:
    """The same structure rebuilt from its parts through every input check."""
    return Structure.make(m.signature, dict(m.carriers), dict(m.relations), dict(m.constants))


@pytest.mark.parametrize(
    "sig, carriers, count",
    [
        (parse_signature(M_SIG), {"E": ["a", "b"]}, None),
        (parse_signature(M_SIG), {"E": ["a", "b", "c"]}, 300),
        (MIXED, MIXED_CARRIERS[3], None),
    ],
    ids=["M", "L", "constants"],
)
def test_decoded_models_equal_validated_builds(sig, carriers, count):
    space = enumerate_structures(sig, carriers)
    positions = range(len(space))
    if count is not None:
        positions = random.Random(31).sample(positions, count)
    for i in positions:
        m = space[i]
        built = validated_build(m)
        assert m == built and hash(m) == hash(built)
        for sort, _ in m.carriers:
            assert m.carrier(sort) == built.carrier(sort)
        for name in sig.relation_names:
            assert m.relation(name) == built.relation(name)
        for name in sig.constant_names:
            assert m.constant(name) == built.constant(name)
        assert space.index(m) == i and m in space


def test_outside_structures_are_still_validated():
    sig = parse_signature(M_SIG)
    with pytest.raises(ValueError, match="leaves the carrier"):
        Structure.make(sig, {"E": ["a"]}, {"R": [("a", "b")]})
    with pytest.raises(ValueError, match="wrong arity"):
        Structure.make(sig, {"E": ["a"]}, {"P": [("a", "a")]})
    with pytest.raises(ValueError, match="duplicate"):
        Structure.make(sig, {"E": ["a", "a"]})
    good = enumerate_structures(sig, {"E": ["a", "b"]})[5]
    with pytest.raises(ValueError, match="leaves the carrier"):
        Structure(sig, good.carriers, (("P", frozenset({("z",)})), *good.relations[1:]), ())


# ---------------------------------------------------------------------------
# The infomorphism in column form against one reduct per model and the row check


def st_to_m(elems: list[str]):
    """ST read into M over the same carrier: (interpretation, source, target)."""
    m_sig, st_sig = parse_signature(M_SIG), parse_signature(ST_SIG)
    h = parse_interpretation(st_sig, m_sig, ST_TO_M)
    tc1 = build_truth_classification(
        st_sig, [parse_sentence(st_sig, s) for s in ST_POOL], carriers={"E": elems}
    )
    tc2 = build_truth_classification(
        m_sig, [parse_sentence(m_sig, s) for s in M_POOL], carriers={"E": elems}
    )
    return h, tc1, tc2


CONST_SRC = "entity X\nentity Y\nrelation R(Y,X)\nrelation V(X)\nconstant k: X\nconstant l: Y\n"
CONST_DST = "entity A\nentity B\nrelation D(A,B)\nconstant c: A\nconstant d: B\nconstant e: B\n"
CONST_CASES = {
    # X and Y swap places with the target sorts; B has three elements, so
    # the constant digits are not binary
    "swapped sorts": (
        "entity X -> B\nentity Y -> A\nconstant k -> d\nconstant l -> c\n"
        "relation R(x1,x2) -> D(x1,x2) | x2 = e\n"
        "relation V(x1) -> exists y:A. D(y,x1) & y = c\n",
        {"X": ["b0", "b1", "b2"], "Y": ["a0", "a1"]},
        ["R(l,k)", "forall x:X. V(x) -> R(l,x)", "exists y:Y. R(y,k)", "V(k)"],
    ),
    # both source sorts read as B
    "two sorts onto one": (
        "entity X -> B\nentity Y -> B\nconstant k -> e\nconstant l -> d\n"
        "relation R(x1,x2) -> x1 = x2 | D(c,x2)\n"
        "relation V(x1) -> ~D(c,x1)\n",
        {"X": ["b0", "b1", "b2"], "Y": ["b0", "b1", "b2"]},
        ["R(l,k)", "forall x:X. V(x) | R(l,x)", "exists y:Y. R(y,k) & ~R(l,k)"],
    ),
}


def constants_case(name: str):
    text, src_carriers, pool = CONST_CASES[name]
    src, dst = parse_signature(CONST_SRC), parse_signature(CONST_DST)
    h = parse_interpretation(src, dst, text)
    pool1 = [parse_sentence(src, s) for s in pool]
    tc1 = build_truth_classification(src, pool1, carriers=src_carriers)
    tc2 = build_truth_classification(
        dst, [translate(h, s) for s in pool1], carriers={"A": ["a0", "a1"], "B": ["b0", "b1", "b2"]}
    )
    return h, tc1, tc2


def interpretation_corpus(seed: int, count: int):
    rng = random.Random(seed)
    return [random_interpretation_case(rng) for _ in range(count)]


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130])
def test_rows_transpose_the_columns(count):
    # the cxt rows are written 2^16 instances to a record: cross its edges
    rng = random.Random(count)
    for n in (0, 1, 70, 65535, 65536, 65537, 131073):
        columns = tuple(rng.getrandbits(n) for _ in range(count))
        ctx = Classification.from_columns(range(n), tuple(range(count)), columns)
        assert write_cxt(ctx) == reference_cxt(ctx, ""), n


def test_pullbacks_read_masks_at_positions():
    rng = random.Random(5)
    for width in (1, 9, 70):
        masks = [rng.getrandbits(width) for _ in range(4)] + [0, (1 << width) - 1]
        for n in (0, 1, 2, 50):
            positions = [rng.randrange(width) for _ in range(n)]
            want = [sum((m >> p & 1) << i for i, p in enumerate(positions)) for m in masks]
            assert _pullbacks(masks, positions, width) == want


def block_join_masks(rng: random.Random, width: int) -> list[int]:
    """Zero, full, random and sparse masks, and one that repeats a random
    64-bit pattern across the width, given twice, so that blocks repeat."""
    full = (1 << width) - 1
    pattern = rng.getrandbits(64)
    periodic = sum(pattern << k for k in range(0, width, 64)) & full
    sparse = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
    return [0, full, periodic, periodic, sparse, *(rng.getrandbits(width) for _ in range(3))]


def check_block_join(ids, masks: list[int]) -> None:
    """The text built from cached blocks equals the join of the selected
    names, whatever the cache may hold, and the cache holds at most its
    budget of characters.  ``masks[2]`` is joined again with room to spare
    and must hit the cache."""
    names, width = tuple(map(str, ids)), len(ids)
    bound = len(masks) * ((width + 7) >> 3)  # the bytes of the masks, as for a lattice
    everything = 3 * sum(map(len, names)) + 2 * width
    for budget in (0, 1, bound, everything):
        for sep in (" ", ", "):
            join = _BlockJoin(ids, sep, budget)
            for mask in masks:
                assert join(mask) == sep.join(_select(names, mask))
                assert sum(map(len, join.blocks.values())) <= budget
            if budget == everything:
                entries = len(join.blocks)
                assert join(masks[2]) == sep.join(_select(names, masks[2]))
                assert len(join.blocks) == entries


@pytest.mark.parametrize("width", [0, 1, 7, 8, 63, 64, 65, 300, 32768])
def test_block_join_matches_joining_the_selected_names(width):
    rng = random.Random(width)
    names = tuple(str(k) * rng.randrange(3) for k in range(width))  # lengths 0 to 10
    check_block_join(names, block_join_masks(rng, width))


def boundary_mask(width: int, period: int) -> int:
    """Bits at each multiple of ``period`` below ``width`` and on either side of it."""
    return sum(1 << p for k in range(0, width + 1, period) for p in (k - 1, k, k + 1) if 0 <= p < width)


@pytest.mark.parametrize("width", [0, 1, 999, 1000, 1001, 9999, 10000, 10001, 32768])
def test_block_join_over_positions_matches_joining_their_numerals(width):
    """Ids ``range(n)`` keep no names table: a block that misses the cache
    is joined from the numeral tables, split at each multiple of 1000, so
    the masks set bits at and next to the multiples of 1000 and of 10000."""
    rng = random.Random(width)
    masks = block_join_masks(rng, width)[:5] + [boundary_mask(width, 1000), boundary_mask(width, 10000)]
    check_block_join(range(width), masks)


@pytest.mark.parametrize(
    "sig, pool",
    [("entity E\nrelation P(E)\nrelation R(E,E)\n", [s for s in M_POOL if "Q(" not in s]), (M_SIG, M_POOL[:10])],
    ids=["PR-4096", "L10-32768"],
)
def test_exports_over_positions_match_the_exports_over_their_names(sig, pool):
    """The text and DOT records and the cxt text of 4096 and of 32768 models
    over E=a,b,c, whose ids are ``range(n)``, equal those over the same
    columns with the ids ``tuple(map(str, range(n)))``, which are rendered
    from a names table."""
    sig = parse_signature(sig)
    sentences = [parse_sentence(sig, s) for s in pool]
    lat = theory_lattice(build_truth_classification(sig, sentences, carriers={"E": ["a", "b", "c"]}))
    ctx = lat.tc.classification
    named = Classification.from_columns(tuple(map(str, ctx.instances)), ctx.types, ctx._columns)
    by_name = SimpleNamespace(tc=SimpleNamespace(classification=named, pool_keys=lat.tc.pool_keys),
                              lattice=concept_lattice(named))
    assert list(_text_records(lat)) == list(_text_records(by_name))
    assert list(_dot_records(lat.lattice, "lattice")) == list(_dot_records(by_name.lattice, "lattice"))
    assert write_cxt(ctx) == write_cxt(named)


def test_building_the_l10_export_records_keeps_no_per_model_table():
    """With the covers built, setting up the text and DOT records of L10
    (32768 models) allocates well under a per-model table of names, which
    alone is about 2 MB."""
    sig = parse_signature(M_SIG)
    pool = [parse_sentence(sig, s) for s in M_POOL[:10]]
    lat = theory_lattice(build_truth_classification(sig, pool, carriers={"E": ["a", "b", "c"]}))
    lat.lattice.covers()
    for build in (lambda: _text_records(lat), lambda: _dot_records(lat.lattice, "lattice")):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, peak


def check_reference_instance_map(h, tc1, tc2, im) -> None:
    """The transfer check reads no column that ``tc1`` stores, so they are
    compared here: read at the positions of the reducts found by ground
    substitution, they equal the target columns of the images; and
    ``map_model`` and ``instance_map`` name those positions."""
    want = reference_instance_map(h, tc1, tc2)
    a, b = tc1.classification, tc2.classification
    assert reference_check_infomorphism(a, b, dict(im.type_map), dict(enumerate(want)))
    assert [im.map_model(j) for j in range(len(want))] == want
    assert list(im.instance_map) == want


def test_column_instance_map_matches_reducts_on_random_interpretations():
    for h, tc1, tc2 in interpretation_corpus(20261018, 40):
        check_reference_instance_map(h, tc1, tc2, truth_infomorphism(h, tc1, tc2))


def test_column_instance_map_matches_reducts_on_st_to_m():
    h, tc1, tc2 = st_to_m(["a", "b"])
    assert len(tc2.models) == 256
    check_reference_instance_map(h, tc1, tc2, truth_infomorphism(h, tc1, tc2))


def test_column_instance_map_matches_reducts_on_seeded_st_to_m_over_three():
    """At 300 seeded target positions of the 32768: ``map_model`` names
    the reduct found by ground substitution, and ``tc1``'s stored row there
    is the target row read through the images.  The map is never listed."""
    h, tc1, tc2 = st_to_m(["a", "b", "c"])
    im = truth_infomorphism(h, tc1, tc2)
    a, b = tc1.classification, tc2.classification
    image = [b._tpos[im._type_map[t]] for t in a.types]
    for j in random.Random(32768).sample(range(32768), 300):
        p = tc1.models.index(oracle_reduct(h, tc2.models[j]))
        assert im.map_model(j) == p
        assert [col >> p & 1 for col in a._columns] == [b._columns[q] >> j & 1 for q in image]
    assert "instance_map" not in vars(im)


def test_column_check_over_listed_models_of_two_carriers():
    """ST into M with listed models over E=a,b and E=a,c on both sides,
    the target's two kinds interleaved: the check runs once per group of
    target models, each over its own positions."""
    h, st, m = st_to_m(["a", "b"])
    sides = []
    for tc, step in ((st, 1), (m, 9)):
        ab, ac = (enumerate_structures(tc.signature, {"E": elems}) for elems in (["a", "b"], ["a", "c"]))
        models = [model for pair in zip(ab[::step], ac[::step]) for model in pair]
        sides.append(build_truth_classification(tc.signature, tc.pool, models=models))
    tc1, tc2 = sides
    assert len(tc2._groups) == 2
    check_reference_instance_map(h, tc1, tc2, truth_infomorphism(h, tc1, tc2))


def test_listed_source_models_are_found_by_hash(monkeypatch):
    """The 4096 ST models over E=a,b,c, then the 64 over E=a,b, listed as
    the source of M over E=a,b: each target model's reduct is looked up by
    its hash, not by a scan of the list, so ``truth_infomorphism`` and
    ``instance_map`` each compare at most one structure per target model,
    and ``object_concept`` of the last listed model compares one."""
    h, st, m = st_to_m(["a", "b"])
    wide = enumerate_structures(st.signature, {"E": ["a", "b", "c"]})
    tc1 = build_truth_classification(st.signature, st.pool, models=[*wide, *st.models])
    want = [len(wide) + st.models.index(reduct(h, model)) for model in m.models]
    last = object_concept(tc1, len(tc1.models) - 1)
    calls = []
    real = Structure.__eq__
    monkeypatch.setattr(Structure, "__eq__", lambda self, other: calls.append(1) or real(self, other))
    im = truth_infomorphism(h, tc1, m)
    assert len(calls) <= len(m.models)
    calls.clear()
    assert list(im.instance_map) == want
    assert len(calls) <= len(m.models)
    calls.clear()
    assert object_concept(tc1, st.models[-1]) == last
    assert len(calls) <= 1


def transfer_failure(h, tc1, tc2) -> str:
    with pytest.raises(InfomorphismError) as info:
        truth_infomorphism(h, tc1, tc2)
    return str(info.value)


def test_a_tampered_target_column_fails_with_the_oracle_witness():
    """One bit of one image's target column flipped: the check names the
    witness that the row check finds over the reducts built by ground
    substitution."""
    rng = random.Random(47)
    for h, tc1, tc2 in interpretation_corpus(20261023, 20) + [st_to_m(["a", "b"])]:
        type_map = dict(truth_infomorphism(h, tc1, tc2).type_map)
        a, b = tc1.classification, tc2.classification
        columns = list(b._columns)
        columns[b._tpos[type_map[rng.choice(a.types)]]] ^= 1 << rng.randrange(len(b.instances))
        tampered = Classification.from_columns(b.instances, b.types, tuple(columns))
        object.__setattr__(tc2, "classification", tampered)
        want = dict(enumerate(reference_instance_map(h, tc1, tc2)))
        j, t = reference_check_infomorphism(a, tampered, type_map, want).witness
        assert transfer_failure(h, tc1, tc2) == f"satisfaction transfer fails at target model {j} and sentence {t!r}"


def test_a_wrong_reduct_atom_fails_with_the_oracle_witness(monkeypatch):
    """T(a,b) read wrong in the reducts of two of the 256 M models: the
    check names the witness that the row check finds at the source
    positions of those wrong reducts."""
    h, tc1, tc2 = st_to_m(["a", "b"])
    type_map = dict(truth_infomorphism(h, tc1, tc2).type_map)
    wrong_at = 1 << 37 | 1 << 200
    positions = {}
    for j, m in enumerate(tc2.models):
        r = oracle_reduct(h, m)
        if wrong_at >> j & 1:
            relations = {"S": r.relation("S"), "T": r.relation("T") ^ {("a", "b")}}
            r = Structure.make(r.signature, {"E": r.carrier("E")}, relations, {})
        positions[j] = tc1.models.index(r)
    j, t = reference_check_infomorphism(tc1.classification, tc2.classification, type_map, positions).witness
    reducts = morph._reducts

    def wrong(h, target):
        group = reducts(h, target)
        atom = group.atom
        group.atom = lambda rel, tup: atom(rel, tup) ^ (wrong_at if (rel, tup) == ("T", ("a", "b")) else 0)
        return group

    monkeypatch.setattr(morph, "_reducts", wrong)
    assert transfer_failure(h, tc1, tc2) == f"satisfaction transfer fails at target model {j} and sentence {t!r}"


def test_reduct_matches_ground_substitution():
    """On the random corpus and the constants cases over their target
    spaces, and on ST into M over models listed from files, over carriers
    that are not the source's."""
    cases = [(h, tc2.models) for h, _, tc2 in interpretation_corpus(20261021, 30)]
    cases += [(h, tc2.models) for h, _, tc2 in map(constants_case, sorted(CONST_CASES))]
    h, _, tc2 = st_to_m(["a", "b"])
    rng, listed = random.Random(15), []
    for elems in (["a"], ["b", "a"], ["a", "b", "c"]):
        space = enumerate_structures(tc2.signature, {"E": elems})
        for p in rng.sample(range(len(space)), min(len(space), 40)):
            listed.append(parse_model(tc2.signature, format_structure(space[p])))
    cases.append((h, listed))
    for h, models in cases:
        for m in models:
            assert reduct(h, m) == oracle_reduct(h, m)


@pytest.mark.parametrize("name", sorted(CONST_CASES))
def test_column_instance_map_with_constants_and_a_sort_map(name):
    h, tc1, tc2 = constants_case(name)
    im = truth_infomorphism(h, tc1, tc2)
    check_reference_instance_map(h, tc1, tc2, im)
    assert len(set(im.instance_map)) > 1


def perturbed_maps(rng: random.Random, a: Classification, b: Classification, type_map, instance_map):
    """The true maps, then random changes to the instance map, the type map
    and both."""
    yield type_map, instance_map
    for _ in range(6):
        tm, imap = dict(type_map), dict(instance_map)
        what = rng.choice(("instances", "types", "both"))
        if what != "types" and imap:
            for j in rng.sample(sorted(imap, key=repr), rng.randint(1, min(3, len(imap)))):
                imap[j] = rng.choice(a.instances)
        if what != "instances" and tm:
            tm[rng.choice(a.types)] = rng.choice(b.types)
        yield tm, imap


def test_column_check_matches_the_row_check_on_random_interpretations():
    rng = random.Random(44)
    for h, tc1, tc2 in interpretation_corpus(20261019, 30):
        im = truth_infomorphism(h, tc1, tc2)
        a, b = tc1.classification, tc2.classification
        for tm, imap in perturbed_maps(
            rng, a, b, dict(im.type_map), dict(enumerate(im.instance_map))
        ):
            want = reference_check_infomorphism(a, b, tm, imap)
            assert check_infomorphism(a, b, tm, imap) == want


def test_column_check_matches_the_row_check_on_random_contexts():
    rng = random.Random(45)
    for _ in range(200):
        a = Classification(*random_context(rng, 5, 4))
        b = Classification(*random_context(rng, 5, 4))
        if not a.types or (b.instances and not a.instances):
            continue
        tm = {t: rng.choice(b.types) for t in a.types} if b.types else {}
        if len(tm) < len(a.types):
            continue
        imap = {j: rng.choice(a.instances) for j in b.instances}
        for tm2, imap2 in perturbed_maps(rng, a, b, tm, imap):
            assert check_infomorphism(a, b, tm2, imap2) == reference_check_infomorphism(
                a, b, tm2, imap2
            )


def test_column_check_matches_the_row_check_on_st_to_m():
    h, tc1, tc2 = st_to_m(["a", "b"])
    im = truth_infomorphism(h, tc1, tc2)
    a, b = tc1.classification, tc2.classification
    rng = random.Random(46)
    for tm, imap in perturbed_maps(rng, a, b, dict(im.type_map), dict(enumerate(im.instance_map))):
        assert check_infomorphism(a, b, tm, imap) == reference_check_infomorphism(a, b, tm, imap)


def test_adjoint_pair_indices_match_the_reference_on_random_interpretations():
    """Each map is its definition computed by set derivations, and the
    pairwise oracle finds the pair adjoint."""
    cases = interpretation_corpus(20261020, 20) + [st_to_m(["a", "b"])]
    for h, tc1, tc2 in cases:
        lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
        cm = concept_morphism(truth_infomorphism(h, tc1, tc2), lat1, lat2)
        direct, inverse = reference_adjoint_pair(
            tc1.classification, tc2.classification, dict(cm.infomorphism.type_map)
        )
        at1 = {frozenset(t.keys()): k for k, t in enumerate(lat1.theories)}
        at2 = {frozenset(t.keys()): k for k, t in enumerate(lat2.theories)}
        assert cm._dir == tuple(at2[direct(frozenset(t.keys()))] for t in lat1.theories)
        assert cm._inv == tuple(at1[inverse(frozenset(t.keys()))] for t in lat2.theories)
        assert oracles.pairwise_adjunction(list(at1), list(at2), direct, inverse) is None


def test_position_in_a_range_is_found_without_a_scan():
    """Over 2^20 ids kept as a range, 5, True and 5.0 are found at their
    positions and "x" and None are not, in under a millisecond for all
    five: a scan of the range would take about a hundred."""
    ctx = Classification.from_columns(range(1 << 20), (), ())
    start = time.perf_counter()
    got = [ctx._position(i) for i in (5, True, 5.0, "x", None)]
    elapsed = time.perf_counter() - start
    assert got == [5, 1, 5, None, None]
    assert elapsed < 1e-3, elapsed


def test_truth_classification_builds_no_position_table():
    tc = build_truth_classification(
        parse_signature(M_SIG), [], carriers={"E": ["a", "b", "c"]}
    )
    ctx = tc.classification
    assert ctx.instances == range(32768)  # kept as a range, not copied
    assert [ctx._position(i) for i in (0, 5, 32767, 32768, -1, "5")] == [0, 5, 32767, None, None, None]
    assert not ctx.holds(5, 0) and not ctx.holds(32768, 0)
    assert derive_types(ctx, [5]) == frozenset()
    assert concept_lattice(ctx).instance_concept(5).intent == frozenset()
    assert "_ipos" not in vars(ctx)
    with pytest.raises(ValueError, match="duplicate instance ids"):
        Classification((1, 2, 1), ("a",), frozenset())
    with pytest.raises(ValueError, match="duplicate instance ids"):
        Classification.from_columns((1, 2, 1), ("a",), (0,))
    ctx = Classification.from_columns(range(3), ("a",), (0b101,))
    assert ctx.instances == range(3) and list(map(ctx._position, range(3))) == [0, 1, 2]
    listed = Classification.from_columns((0, 1, 2), ("a",), (0b101,))
    assert ctx == listed and hash(ctx) == hash(listed)
    assert ctx != Classification.from_columns((0, 1, 3), ("a",), (0b101,))
