"""Derivation operators, concept enumeration, order structure, formats."""

from __future__ import annotations

import random
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from theorylattice.errors import ParseError, SizeCapError
from theorylattice.fca import (
    Classification,
    ConceptLattice,
    FormalConcept,
    basic_theorem_roundtrip,
    concept_lattice,
    density_report,
    derive_instances,
    derive_types,
    is_formal_concept,
    lattice_dot,
    lattice_join,
    lattice_meet,
    read_cxt,
    write_cxt,
)
from theorylattice.logic import parse_sentence, parse_signature
from theorylattice.truth import build_truth_classification

from oracles import (
    M_POOL,
    M_SIG,
    brute_concepts,
    brute_covers,
    order_join,
    order_meet,
    random_context,
    reference_rows,
)


def subsets(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


# ---------------------------------------------------------------------------
# Derivation operators


class TestDerivation:
    def test_types_of_one_instance(self, ctx3):
        assert derive_types(ctx3, {1}) == frozenset({"a", "b"})

    def test_types_of_nothing_is_everything(self, ctx3):
        assert derive_types(ctx3, set()) == frozenset({"a", "b", "c"})

    def test_no_common_type(self, ctx3):
        assert derive_types(ctx3, {1, 2, 3}) == frozenset()

    def test_instances_of_one_type(self, ctx3):
        assert derive_instances(ctx3, {"b"}) == frozenset({1, 2})

    def test_instances_of_nothing_is_everything(self, ctx3):
        assert derive_instances(ctx3, set()) == frozenset({1, 2, 3})

    def test_no_common_instance(self, ctx3):
        assert derive_instances(ctx3, {"a", "c"}) == frozenset()

    def test_unknown_ids_rejected(self, ctx3):
        with pytest.raises(ValueError, match="unknown instance"):
            derive_types(ctx3, {9})
        with pytest.raises(ValueError, match="unknown type"):
            derive_instances(ctx3, {"z"})

    def test_galois_connection_exhaustive(self, ctx3):
        for xs in subsets(ctx3.instances):
            for ys in subsets(ctx3.types):
                left = set(xs) <= derive_instances(ctx3, ys)
                right = set(ys) <= derive_types(ctx3, xs)
                assert left == right

    @pytest.mark.parametrize("source", ["ctx3", "cxt"])
    def test_holds_is_the_incidence(self, ctx3, source):
        ctx = ctx3 if source == "ctx3" else read_cxt("B\n\n3\n2\n\no1\no2\no3\na\nb\nX.\nXX\n..\n")
        for i in ctx.instances:
            for t in ctx.types:
                assert ctx.holds(i, t) == ((i, t) in ctx.incidence)
        i, t = ctx.instances[0], ctx.types[0]
        assert ctx.holds(i, t)
        assert not ctx.holds("nobody", t)
        assert not ctx.holds(i, "nothing")
        assert not ctx.holds("nobody", "nothing")

    def test_derivation_laws_exhaustive(self, ctx3):
        for xs in subsets(ctx3.instances):
            xs = frozenset(xs)
            assert xs <= derive_instances(ctx3, derive_types(ctx3, xs))
            triple = derive_types(ctx3, derive_instances(ctx3, derive_types(ctx3, xs)))
            assert triple == derive_types(ctx3, xs)
        for ys in subsets(ctx3.types):
            ys = frozenset(ys)
            assert ys <= derive_types(ctx3, derive_instances(ctx3, ys))
        for xs1 in subsets(ctx3.instances):
            for xs2 in subsets(ctx3.instances):
                if set(xs1) <= set(xs2):
                    assert derive_types(ctx3, xs2) <= derive_types(ctx3, xs1)


class TestIsFormalConcept:
    def test_positive(self, ctx3):
        assert is_formal_concept(ctx3, {1}, {"a", "b"})

    def test_underfilled_intent(self, ctx3):
        assert not is_formal_concept(ctx3, {1}, {"a"})

    def test_top(self, ctx3):
        assert is_formal_concept(ctx3, {1, 2, 3}, set())


# ---------------------------------------------------------------------------
# Concept lattices


class TestConceptLattice:
    def test_staircase_context_has_six_concepts(self, ctx3):
        lat = concept_lattice(ctx3)
        assert {(c.extent, c.intent) for c in lat.concepts} == brute_concepts(
            ctx3.instances, ctx3.types, ctx3.incidence
        )
        assert len(lat.concepts) == 6

    def test_single_cross(self):
        lat = concept_lattice(Classification.make([1], ["a"], [(1, "a")]))
        assert lat.concepts == (FormalConcept(frozenset({1}), frozenset({"a"})),)

    def test_empty_context(self):
        lat = concept_lattice(Classification.make([], [], []))
        assert lat.concepts == (FormalConcept(frozenset(), frozenset()),)

    def test_canonical_order(self, ctx3):
        lat = concept_lattice(ctx3)
        sizes = [len(c.extent) for c in lat.concepts]
        assert sizes == sorted(sizes)
        assert lat.bottom.extent == frozenset() and lat.top.extent == frozenset({1, 2, 3})

    def test_order_is_extent_inclusion(self, ctx3):
        lat = concept_lattice(ctx3)
        for c in lat.concepts:
            for d in lat.concepts:
                assert lat.leq(c, d) == (c.extent <= d.extent)
                assert lat.leq(c, d) == (d.intent <= c.intent)

    def test_matches_brute_force_on_random_corpus(self):
        rng = random.Random(20260815)
        for _ in range(120):
            instances, types, incidence = random_context(rng)
            ctx = Classification(instances, types, incidence)
            lat = concept_lattice(ctx)
            got = {(c.extent, c.intent) for c in lat.concepts}
            assert got == brute_concepts(instances, types, incidence)
            assert len(got) == len(lat.concepts)

    def test_cap_refusal(self):
        # the complement of equality on 5 points has 2^5 concepts
        n = 5
        ctx = Classification.make(
            range(n), range(n), [(i, j) for i in range(n) for j in range(n) if i != j]
        )
        with pytest.raises(SizeCapError):
            concept_lattice(ctx, cap=10)
        assert len(concept_lattice(ctx).concepts) == 2**n

    def test_foreign_concept_rejected(self, ctx3):
        lat = concept_lattice(ctx3)
        incidence = [(1, "a"), (1, "b"), (2, "b"), (3, "c")]
        other = concept_lattice(Classification.make([1, 2, 3], ["a", "b", "c"], incidence))
        strays = [
            FormalConcept(frozenset({1}), frozenset({"a"})),  # a closed extent, the wrong intent
            FormalConcept(frozenset({1}), frozenset({"a", "b", "z"})),  # an unknown type id
            other.type_concept("c"),  # ({3}, {c}): a concept of another lattice
        ]
        assert strays[2] == FormalConcept(frozenset({3}), frozenset({"c"}))
        for stray in strays:
            assert stray not in lat
            with pytest.raises(ValueError, match="not in this lattice"):
                lattice_meet(lat, [stray])
            with pytest.raises(ValueError, match="not in this lattice"):
                lat.index(stray)
        for k, c in enumerate(lat.concepts):
            assert c in lat and lat.index(c) == k


def test_lookups_build_only_the_concept_they_return():
    """Over P, R on E=a,b,c (4096 models, 241 concepts) the lookups, the
    bottom and the top, the embeddings, meets and joins each return the
    concept that the derivations give, and none builds the concepts view."""
    sig = parse_signature("entity E\nrelation P(E)\nrelation R(E,E)\n")
    pool = [parse_sentence(sig, s) for s in M_POOL if "Q(" not in s]
    ctx = build_truth_classification(sig, pool, carriers={"E": ["a", "b", "c"]}).classification
    view = concept_lattice(ctx).concepts
    assert len(ctx.instances) == 4096 and len(view) == 241

    def closed(intent):
        extent = derive_instances(ctx, intent)
        return FormalConcept(extent, derive_types(ctx, extent))

    lat = concept_lattice(ctx)
    assert (lat.bottom, lat.top) == (view[0], view[-1])
    rng = random.Random(241)
    picks = rng.sample(range(len(view)), 12)
    for k, m in zip(picks, picks[1:]):
        c, d = view[k], view[m]
        assert c in lat and lat.index(c) == k
        assert lat.leq(c, d) == (c.extent <= d.extent)
        assert lattice_meet(lat, [c, d]) == closed(c.intent | d.intent)
        assert lattice_join(lat, [c, d]) == closed(c.intent & d.intent)
    for i in rng.sample(range(4096), 12):
        assert lat.instance_concept(i) == closed(derive_types(ctx, [i]))
    for t in ctx.types:
        assert lat.type_concept(t) == closed([t])
    assert FormalConcept(frozenset(), frozenset()) not in lat
    assert "concepts" not in vars(lat)


class TestMeetJoin:
    def test_meet_examples(self, ctx3):
        lat = concept_lattice(ctx3)
        ta, tb, tc_ = (lat.type_concept(t) for t in "abc")
        assert lattice_meet(lat, [ta, tb]) == FormalConcept(frozenset({1}), frozenset({"a", "b"}))
        assert lattice_meet(lat, []) == lat.top
        assert lattice_meet(lat, [ta, tc_]) == FormalConcept(
            frozenset(), frozenset({"a", "b", "c"})
        )

    def test_join_examples(self, ctx3):
        lat = concept_lattice(ctx3)
        i1, i2, i3 = (lat.instance_concept(i) for i in (1, 2, 3))
        assert lattice_join(lat, [i1, i3]) == lat.top
        assert lattice_join(lat, []) == lat.bottom
        assert lattice_join(lat, [i1, i2]) == FormalConcept(frozenset({1, 2}), frozenset({"b"}))

    def test_agree_with_order_theoretic_inf_sup(self, ctx3):
        lat = concept_lattice(ctx3)
        for c in lat.concepts:
            for d in lat.concepts:
                assert lattice_meet(lat, [c, d]) == order_meet(lat.concepts, lat.leq, c, d)
                assert lattice_join(lat, [c, d]) == order_join(lat.concepts, lat.leq, c, d)

    def test_results_are_concepts(self, ctx3):
        lat = concept_lattice(ctx3)
        for c in lat.concepts:
            for d in lat.concepts:
                m = lattice_meet(lat, [c, d])
                j = lattice_join(lat, [c, d])
                assert is_formal_concept(ctx3, m.extent, m.intent)
                assert is_formal_concept(ctx3, j.extent, j.intent)


class TestEmbeddings:
    def test_instance_embedding(self, ctx3):
        lat = concept_lattice(ctx3)
        assert lat.instance_concept(1) == FormalConcept(frozenset({1}), frozenset({"a", "b"}))

    def test_type_embeddings(self, ctx3):
        lat = concept_lattice(ctx3)
        assert lat.type_concept("c") == FormalConcept(frozenset({2, 3}), frozenset({"c"}))
        assert lat.type_concept("b") == FormalConcept(frozenset({1, 2}), frozenset({"b"}))

    def test_unknown_id(self, ctx3):
        lat = concept_lattice(ctx3)
        with pytest.raises(ValueError, match="unknown"):
            lat.instance_concept(9)


class TestBasicTheorem:
    def test_roundtrip_on_staircase(self, ctx3):
        assert basic_theorem_roundtrip(concept_lattice(ctx3)) == ctx3

    def test_roundtrip_on_degenerate(self):
        ctx = Classification.make([1], ["a"], [(1, "a")])
        assert basic_theorem_roundtrip(concept_lattice(ctx)) == ctx

    def test_roundtrip_and_density_on_random_corpus(self):
        rng = random.Random(9)
        for _ in range(60):
            ctx = Classification(*random_context(rng))
            lat = concept_lattice(ctx)
            assert basic_theorem_roundtrip(lat) == ctx
            assert density_report(lat) == (True, True)

    @pytest.mark.parametrize("tamper", ["intent", "extent"])
    def test_density_fails_on_a_pair_that_is_not_a_concept(self, ctx3, tamper):
        # concept 1 is ({1}, {a, b}): drop b from its intent, or add 3 to its
        # key, its extent over the row classes (one instance each here)
        lat = concept_lattice(ctx3)
        keys, intents = list(lat._keys), list(lat._intents)
        assert (keys[1], intents[1]) == (0b001, 0b011)
        if tamper == "intent":
            intents[1] ^= 0b010
        else:
            keys[1] |= 0b100
        forged = ConceptLattice(ctx3, tuple(intents), tuple(keys))
        assert density_report(forged) == (False, False)

    def test_roundtrip_on_the_m_classification(self):
        # 256 models and 20 sentences; many models share a row
        sig = parse_signature(M_SIG)
        tc = build_truth_classification(
            sig, [parse_sentence(sig, s) for s in M_POOL], carriers={"E": ["a", "b"]}
        )
        ctx = tc.classification
        assert (len(ctx.instances), len(ctx.types)) == (256, 20)
        assert len(set(reference_rows(ctx))) < len(ctx.instances)
        assert basic_theorem_roundtrip(concept_lattice(ctx)) == ctx


@given(st.integers())
def test_lattice_laws_on_random_contexts(seed):
    rng = random.Random(seed)
    ctx = Classification(*random_context(rng, 3, 3))
    lat = concept_lattice(ctx)
    for c in lat.concepts:
        assert lattice_meet(lat, [c, c]) == c
        assert lattice_join(lat, [c, c]) == c
        assert lattice_meet(lat, [c, lat.top]) == c
        assert lattice_join(lat, [c, lat.bottom]) == c


# ---------------------------------------------------------------------------
# Burmeister format


class TestCxt:
    def test_write_golden(self, ctx3):
        assert write_cxt(ctx3, "demo") == (
            "B\ndemo\n3\n3\n\n1\n2\n3\na\nb\nc\nXX.\n.XX\n..X\n"
        )

    def test_roundtrip_bit_exact(self, ctx3):
        text = write_cxt(ctx3, "demo")
        again = write_cxt(read_cxt(text), "demo")
        assert again == text

    def test_reader_accepts_missing_name_line(self):
        ctx = read_cxt("B\n1\n1\n\no\na\nX\n")
        assert ctx.incidence == frozenset({("o", "a")})

    def test_empty_context(self):
        ctx = read_cxt("B\n\n0\n0\n\n")
        assert ctx.instances == () and ctx.types == ()

    def test_bad_header(self):
        with pytest.raises(ParseError, match="first line"):
            read_cxt("A\n1\n1\n")

    def test_bad_row(self):
        with pytest.raises(ParseError, match="characters"):
            read_cxt("B\n\n1\n2\n\no\na\nb\nX\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("B\nname\nx\n", "c.cxt:3: expected object and attribute counts"),
            (
                "B\n\n1\n1\n\no\n",
                "c.cxt:6: expected 1 object names, 1 attribute names and 1 rows",
            ),
            # a duplicate name is reported at its second occurrence
            ("B\n\n2\n1\n\no\no\na\nX\nX\n", "c.cxt:7: duplicate object name 'o'"),
            ("B\n\n1\n2\n\no\na\na\nXX\n", "c.cxt:8: duplicate attribute name 'a'"),
        ],
        ids=["counts", "short", "objects-twice", "attributes-twice"],
    )
    def test_reader_error_message(self, text, message):
        with pytest.raises(ParseError) as exc:
            read_cxt(text, path="c.cxt")
        assert str(exc.value) == message

    def test_numeric_name_is_refused(self, ctx3):
        # the reader would take an all-digit name line for the object count
        with pytest.raises(ValueError, match="cxt name line"):
            write_cxt(ctx3, "42")
        with pytest.raises(ValueError, match="cxt name line"):
            write_cxt(ctx3, " 7 ")

    def test_multiline_name_is_refused(self, ctx3):
        with pytest.raises(ValueError, match="cxt name line"):
            write_cxt(ctx3, "two\nlines")

    # digits outside ASCII are not a count to the reader, so they are a name
    @pytest.mark.parametrize("name", ["", "demo", "4two", "  ", "\u00b2", " \u0661\u0662 "])
    def test_name_roundtrip(self, name):
        ctx = Classification.make(["1", "2"], ["a", "b"], [("1", "a"), ("2", "a"), ("2", "b")])
        assert read_cxt(write_cxt(ctx, name)) == ctx

    @pytest.mark.parametrize("label", [" padded", "two\rlines", ""])
    def test_unreadable_ids_are_refused(self, label):
        ctx = Classification.make([label], ["a"], [])
        with pytest.raises(ValueError, match="cannot be written"):
            write_cxt(ctx)

    def test_random_corpus_roundtrip(self):
        rng = random.Random(7)
        for _ in range(40):
            instances, types, incidence = random_context(rng)
            ctx = Classification(
                tuple(f"o{i}" for i in instances),
                types,
                frozenset((f"o{i}", t) for i, t in incidence),
            )
            assert read_cxt(write_cxt(ctx)) == ctx


class TestDot:
    def test_shape(self, ctx3):
        lat = concept_lattice(ctx3)
        dot = lattice_dot(lat)
        assert dot.startswith("digraph lattice {")
        assert "rankdir=BT;" in dot
        assert dot.count("->") == len(lat.covers())

    def test_reduced_labeling(self, ctx3):
        dot = lattice_dot(concept_lattice(ctx3))
        # the type b sits alone on its concept; instance 3 shares c's node
        assert '[label="t: b"];' in dot
        assert '[label="t: c\\ni: 3"];' in dot

    def test_covers_are_the_hasse_relation(self, ctx3):
        lat = concept_lattice(ctx3)
        assert lat.covers() == brute_covers(lat.concepts)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Classification((1,), ("a",), frozenset({(2, "a")})), "incidence references unknown instance id 2"),
        (lambda: Classification((1,), ("a",), frozenset({(1, "z")})), "incidence references unknown type id 'z'"),
        (lambda: Classification.from_columns((1, 2), ("a", "b"), (1,)),
         "one column per type, over the instance positions, is required"),
        (lambda: Classification.from_columns(range(2), ("a",), (4,)),
         "one column per type, over the instance positions, is required"),
        (lambda: Classification((1,), ("a", "a"), frozenset()), "duplicate type ids"),
    ],
    ids=["unknown-instance", "unknown-type", "column-count", "column-width", "duplicate-types"],
)
def test_classification_refusal(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
