"""Truth classifications, closure, entailment, and the lattice of theories."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

from theorylattice import logic, truth
from theorylattice.errors import PoolMembershipError, SignatureMismatchError
from theorylattice.fca import lattice_join, lattice_meet
from theorylattice.logic import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Structure,
    StructureSpace,
    Var,
    enumerate_structures,
    parse_sentence,
    parse_signature,
    sentence_key,
)
from theorylattice.morph import concept_morphism, identity_morphism, truth_infomorphism
from theorylattice.truth import (
    ClosedTheory,
    Theory,
    TruthClassification,
    attribute_concept,
    build_truth_classification,
    closure,
    entails,
    lattice_text,
    object_concept,
    theory_join,
    theory_lattice,
    theory_leq,
    theory_meet,
)

from oracles import brute_closed_theories


def pool_subsets(pq_pool):
    for r in range(len(pq_pool) + 1):
        yield from combinations(pq_pool, r)


# ---------------------------------------------------------------------------
# Building


@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_model_source_refusal(pq_sig, pq_tc, both):
    kwargs = {"models": pq_tc.models[:1], "carriers": {"E": ["a"]}} if both else {}
    with pytest.raises(ValueError) as exc:
        build_truth_classification(pq_sig, (), **kwargs)
    assert str(exc.value) == "exactly one of models and carriers must be given"


class TestBuild:
    def test_incidence_count(self, pq_tc):
        assert len(pq_tc.models) == 16
        assert len(pq_tc.pool) == 4
        assert len(pq_tc.classification.incidence) == 29

    def test_per_sentence_counts(self, pq_tc, pq):
        counts = {
            name: sum(
                1 for i in range(16) if (i, sentence_key(s)) in pq_tc.classification.incidence
            )
            for name, s in pq.items()
        }
        assert counts == {"s1": 4, "s2": 4, "s3": 12, "s4": 9}

    def test_empty_pool_gives_one_concept(self, pq_sig):
        tc = build_truth_classification(pq_sig, [], carriers={"E": ["a", "b"]})
        assert len(theory_lattice(tc).theories) == 1

    def test_foreign_model_rejected(self, pq_sig):
        other = parse_signature("entity E\nrelation R(E)")
        stray = Structure.make(other, {"E": ["a"]}, {"R": []})
        with pytest.raises(SignatureMismatchError):
            build_truth_classification(pq_sig, [], models=[stray])

    def test_duplicate_models_rejected(self, pq_sig):
        m = Structure.make(pq_sig, {"E": ["a"]}, {})
        with pytest.raises(ValueError, match="duplicate"):
            build_truth_classification(pq_sig, [], models=[m, m])

    def test_empty_model_set_rejected(self, pq_sig):
        with pytest.raises(ValueError, match="empty model set"):
            build_truth_classification(pq_sig, [], models=[])

    @pytest.mark.parametrize(
        "case, error, message",
        [
            ("empty", ValueError, "empty model set; the lattice of theories degenerates"),
            ("duplicate", ValueError, "duplicate structures in the model list"),
            ("foreign-model", SignatureMismatchError, "model over a different signature"),
            ("foreign-space", SignatureMismatchError, "model over a different signature"),
        ],
        ids=["empty", "duplicate", "foreign-model", "foreign-space"],
    )
    def test_constructor_refuses_the_model_sets_the_builder_refuses(self, pq_sig, pq_pool, case, error, message):
        other = parse_signature("entity E\nrelation R(E)")
        m = Structure.make(pq_sig, {"E": ["a"]}, {})
        models = {
            "empty": [],
            "duplicate": [m, m],
            "foreign-model": [m, Structure.make(other, {"E": ["a"]}, {"R": []})],
            "foreign-space": enumerate_structures(other, {"E": ["a"]}),
        }[case]
        # the model set is checked ahead of the pool, whose repeats only the builder drops
        for build in (
            lambda: TruthClassification(pq_sig, models, pq_pool * 2),
            lambda: build_truth_classification(pq_sig, pq_pool * 2, models=models),
        ):
            with pytest.raises(error) as exc:
                build()
            assert (type(exc.value), str(exc.value)) == (error, message)

    def test_a_space_given_as_models_stays_lazy(self, pq_sig, pq_pool, pq_tc):
        space = enumerate_structures(pq_sig, {"E": ["a", "b"]})
        tc = build_truth_classification(pq_sig, pq_pool, models=space)
        assert tc.models is space and isinstance(tc.models, StructureSpace)
        assert tc == pq_tc
        listed = TruthClassification(pq_sig, list(space), pq_pool)
        assert type(listed.models) is tuple and listed.models == tuple(space)
        assert listed.classification == pq_tc.classification

    def test_equality_reads_the_models_in_order_whatever_holds_them(self, pq_sig, pq_pool, pq_tc, pq_lat):
        models = tuple(pq_tc.models)
        listed = build_truth_classification(pq_sig, pq_pool, models=list(models))
        assert isinstance(pq_tc.models, StructureSpace) and type(listed.models) is tuple
        assert listed == pq_tc and pq_tc == listed and hash(listed) == hash(pq_tc)
        for other in (models[::-1], models[:-1], models[1:] + models[:1]):
            changed = build_truth_classification(pq_sig, pq_pool, models=other)
            assert changed != pq_tc and pq_tc != changed
        assert build_truth_classification(pq_sig, pq_pool[1:], models=models) != pq_tc
        wider = build_truth_classification(pq_sig, pq_pool, carriers={"E": ["a", "c"]})
        assert len(wider.models) == len(models) and wider != pq_tc
        # a lattice of the listed models goes with an infomorphism of the space
        ident = identity_morphism(pq_sig)
        cm = concept_morphism(truth_infomorphism(ident, pq_tc, pq_tc), theory_lattice(listed), pq_lat)
        assert cm.source.tc is listed

    def test_pool_deduplicates_alpha_variants(self, pq_sig):
        a = parse_sentence(pq_sig, "forall x:E. P(x)")
        b = parse_sentence(pq_sig, "forall y:E. P(y)")
        tc = build_truth_classification(pq_sig, [a, b], carriers={"E": ["a"]})
        assert len(tc.pool) == 1

    def test_pool_membership_and_lookup_by_key(self, pq_tc, pq, pq_sig):
        for s in pq.values():
            assert pq_tc.in_pool(s)
            assert pq_tc.sentence(sentence_key(s)) == s
        assert pq_tc.in_pool(Forall("y", "E", Atom("P", (Var("y", "E"),))))
        assert not pq_tc.in_pool(parse_sentence(pq_sig, "exists x:E. Q(x)"))
        with pytest.raises(ValueError) as exc:
            pq_tc.sentence("nope")
        assert str(exc.value) == "no pool sentence with key 'nope'"

    def test_constructor_builds_the_classification(self, pq_sig, pq_pool, pq_tc):
        tc = TruthClassification(pq_sig, pq_tc.models, pq_pool)
        assert tc == pq_tc
        assert tc.classification == pq_tc.classification
        assert tc.pool_keys == tuple(map(sentence_key, pq_pool))

    @pytest.mark.parametrize(
        "pool, error, message",
        [
            (
                [Forall("x", "E", Atom("P", (Var("x", "E"),)))],
                ValueError,
                "pool sentence 'forall v0:E. P(v0)' is not canonical",
            ),
            ([Atom("P", (Var("x", "E"),))], ValueError, "sentence 'P(x)' has free variables: ['x']"),
            (
                [Exists("v0", "E", Atom("R", (Var("v0", "E"),)))],
                SignatureMismatchError,
                "sentence 'exists v0:E. R(v0)' does not fit the signature: unknown relation type 'R'",
            ),
            (
                [Exists("v0", "E", Atom("P", (Var("v0", "E"),)))] * 2,
                ValueError,
                "duplicate pool sentences",
            ),
        ],
        ids=["not-canonical", "open", "ill-typed", "duplicate"],
    )
    def test_constructor_checks_the_pool(self, pq_sig, pq_tc, pool, error, message):
        with pytest.raises(error) as exc:
            TruthClassification(pq_sig, pq_tc.models, tuple(pool))
        assert str(exc.value) == message

    def test_each_pool_sentence_is_checked_and_printed_once(self, pq_sig, monkeypatch):
        texts = ("forall x:E. P(x)", "exists x:E. Q(x)", "forall x:E. P(x) -> Q(x)")
        calls = Counter()

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (logic, truth):
            for name in ("validate_formula", "format_formula"):
                if hasattr(module, name):
                    count(module, name)
        pool = [parse_sentence(pq_sig, t) for t in texts]
        assert calls == {"validate_formula": 3}
        calls.clear()
        build_truth_classification(pq_sig, pool, carriers={"E": ["a", "b"]})
        assert calls == {"validate_formula": 3, "format_formula": 3}


# ---------------------------------------------------------------------------
# Closure and entailment


class TestClosure:
    def test_universal_entails_existential(self, pq_tc, pq):
        assert closure(pq_tc, [pq["s1"]]).axioms == {pq["s1"], pq["s3"]}

    def test_empty_theory_closes_to_empty(self, pq_tc):
        assert closure(pq_tc, []).axioms == frozenset()

    def test_full_pool_is_closed(self, pq_tc, pq_pool):
        assert closure(pq_tc, pq_pool).axioms == frozenset(pq_pool)

    def test_axiom_outside_pool_is_named(self, pq_tc, pq_sig):
        stray = parse_sentence(pq_sig, "exists x:E. Q(x)")
        with pytest.raises(PoolMembershipError, match="exists v0:E. Q"):
            closure(pq_tc, [stray])

    def test_laws_exhaustive(self, pq_tc, pq_pool):
        for axioms in pool_subsets(pq_pool):
            c = closure(pq_tc, axioms).axioms
            assert set(axioms) <= c
            assert closure(pq_tc, c).axioms == c
        for a1 in pool_subsets(pq_pool):
            for a2 in pool_subsets(pq_pool):
                if set(a1) <= set(a2):
                    assert closure(pq_tc, a1).axioms <= closure(pq_tc, a2).axioms

    def test_accepts_theory_values(self, pq_tc, pq_sig, pq):
        t = Theory(pq_sig, [pq["s1"]])
        assert closure(pq_tc, t).axioms == {pq["s1"], pq["s3"]}

    def test_alpha_variant_of_a_pool_member_closes_alike(self, pq_tc, pq):
        variant = Forall("y", "E", Atom("P", (Var("y", "E"),)))
        assert variant != pq["s1"]
        assert closure(pq_tc, [variant]) == closure(pq_tc, [pq["s1"]])

    def test_non_pool_axiom_is_named_by_its_canonical_key(self, pq_tc):
        stray = Exists("y", "E", Atom("Q", (Var("y", "E"),)))
        with pytest.raises(PoolMembershipError) as exc:
            closure(pq_tc, [stray])
        assert exc.value.sentence_key == "exists v0:E. Q(v0)"


class TestEntails:
    def test_nonempty_carrier_forces_witness(self, pq_tc, pq):
        assert entails(pq_tc, [pq["s1"]], pq["s3"])

    def test_empty_theory_refuted(self, pq_tc, pq):
        assert not entails(pq_tc, [], pq["s1"])

    def test_extensivity_everywhere(self, pq_tc, pq_pool):
        for axioms in pool_subsets(pq_pool):
            for s in axioms:
                assert entails(pq_tc, axioms, s)

    def test_query_need_not_be_in_pool(self, pq_tc, pq, pq_sig):
        assert entails(pq_tc, [pq["s2"]], parse_sentence(pq_sig, "exists x:E. Q(x)"))

    def test_axioms_need_not_be_in_pool(self, pq_tc, pq_sig):
        outside = parse_sentence(pq_sig, "exists x:E. Q(x)")
        assert entails(pq_tc, [outside], outside)

    def test_signature_mismatch(self, pq_tc):
        other = parse_signature("entity E\nrelation R(E)")
        with pytest.raises(ValueError):
            entails(pq_tc, [], parse_sentence(other, "exists x:E. R(x)"))

    @pytest.mark.parametrize(
        "query",
        [
            Atom("P", (Var("x", "E"),)),
            Exists("x", "E", Atom("P", (Var("x", "E"), Var("x", "E")))),
        ],
        ids=["open", "ill-typed"],
    )
    def test_open_or_ill_typed_query_rejected(self, pq_tc, query):
        with pytest.raises(ValueError):
            entails(pq_tc, [], query)

    def test_non_pool_query_checked_and_canonicalized_once(self, pq_tc, pq_sig, monkeypatch):
        query = parse_sentence(pq_sig, "exists x:E. Q(x)")
        calls = Counter()

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in (
            (logic, "canonicalize"), (truth, "canonicalize"), (logic, "validate_formula"), (logic, "free_vars")
        ):
            count(module, name)
        assert not entails(pq_tc, [], query)
        # the one free_vars walk is canonicalize's; the check walks once
        assert calls == {"canonicalize": 1, "validate_formula": 1, "free_vars": 1}

    def test_alpha_variants_count_as_their_canonical_forms(self, pq_tc, pq):
        all_p = Forall("y", "E", Atom("P", (Var("y", "E"),)))
        some_q = Exists("z", "E", Atom("Q", (Var("z", "E"),)))
        assert entails(pq_tc, [all_p], pq["s3"])
        assert entails(pq_tc, [pq["s2"]], some_q)
        assert not entails(pq_tc, [some_q], all_p)
        assert pq_tc.models_of([all_p]) == pq_tc.models_of([pq["s1"]])

    def test_closed_theory_view_agrees_with_its_axioms(
        self, pq_tc, pq_lat, pq_pool, pq_sig, monkeypatch
    ):
        # a view's models are read off its intent; a theory built by hand
        # from the same axioms goes through their columns
        extra = ("exists x:E. Q(x)", "forall x:E. P(x) | Q(x)")
        queries = [*pq_pool, *(parse_sentence(pq_sig, t) for t in extra)]
        read = []
        real = truth._as_axioms
        monkeypatch.setattr(truth, "_as_axioms", lambda theory: read.append(theory) or real(theory))
        verdicts = set()
        for view in pq_lat.theories:
            by_hand = Theory(pq_sig, map(pq_tc.sentence, view.keys()))
            assert view._tc is pq_tc and view.axioms == by_hand.axioms
            for q in queries:
                verdict = entails(pq_tc, view, q)
                assert verdict == entails(pq_tc, by_hand, q)
                verdicts.add(verdict)
        # only the hand-built theories read their axioms
        assert len(read) == len(pq_lat.theories) * len(queries)
        assert verdicts == {True, False}

    def test_matches_closure_membership_exhaustively(self, pq_tc, pq_pool):
        for axioms in pool_subsets(pq_pool):
            closed = closure(pq_tc, axioms).axioms
            for s in pq_pool:
                assert entails(pq_tc, axioms, s) == (s in closed)


class TestTheoryLeq:
    def test_spec_example(self, pq_tc, pq):
        assert theory_leq(pq_tc, [pq["s1"]], [pq["s3"]])

    def test_reflexive(self, pq_tc, pq_pool):
        for axioms in pool_subsets(pq_pool):
            assert theory_leq(pq_tc, axioms, axioms)

    def test_incomparable_pair(self, pq_tc, pq):
        assert not theory_leq(pq_tc, [pq["s1"]], [pq["s2"]])
        assert not theory_leq(pq_tc, [pq["s2"]], [pq["s1"]])

    def test_equals_pointwise_entailment(self, pq_tc, pq_pool):
        for a1 in pool_subsets(pq_pool):
            for a2 in pool_subsets(pq_pool):
                pointwise = all(entails(pq_tc, a1, s) for s in a2)
                assert theory_leq(pq_tc, a1, a2) == pointwise

    def test_outside_pool_rejected(self, pq_tc, pq_sig):
        stray = parse_sentence(pq_sig, "exists x:E. Q(x)")
        with pytest.raises(PoolMembershipError):
            theory_leq(pq_tc, [stray], [])


# ---------------------------------------------------------------------------
# The lattice


class TestTheoryLattice:
    def test_exactly_the_eight_closed_theories(self, pq_lat, pq_tc, pq):
        s1, s2, s3, s4 = (pq[k] for k in ("s1", "s2", "s3", "s4"))
        want = {
            frozenset(),
            frozenset({s3}),
            frozenset({s4}),
            frozenset({s3, s4}),
            frozenset({s1, s3}),
            frozenset({s2, s4}),
            frozenset({s2, s3, s4}),
            frozenset({s1, s2, s3, s4}),
        }
        assert {t.axioms for t in pq_lat.theories} == want
        assert want == brute_closed_theories(pq_tc.models, pq_tc.pool)

    def test_order_is_reverse_inclusion(self, pq_lat):
        for t1 in pq_lat.theories:
            for t2 in pq_lat.theories:
                assert pq_lat.leq(t1, t2) == (t1.axioms >= t2.axioms)

    def test_order_chain_spot_check(self, pq_lat, pq, theory_with):
        s1, s2, s3, s4 = (pq[k] for k in ("s1", "s2", "s3", "s4"))
        chain = [
            theory_with(pq_lat, s1, s2, s3, s4),
            theory_with(pq_lat, s1, s3),
            theory_with(pq_lat, s3),
            theory_with(pq_lat),
        ]
        for lower, upper in zip(chain, chain[1:]):
            assert pq_lat.leq(lower, upper)

    def test_extremes(self, pq_lat, pq_pool):
        top, bottom = pq_lat.top, pq_lat.bottom
        assert top.axioms == frozenset()
        assert bottom.axioms == frozenset(pq_pool)
        assert top == pq_lat.closure([])
        assert bottom == pq_lat.closure(pq_pool)

    def test_bottom_extent_is_the_full_model(self, pq_lat, pq_tc):
        (index,) = pq_lat.extent(pq_lat.bottom)
        m = pq_tc.models[index]
        full = frozenset({("a",), ("b",)})
        assert m.relation("P") == full and m.relation("Q") == full

    def test_extent_is_the_models_of_the_axioms(self, pq_lat, pq_tc):
        for t in pq_lat.theories:
            holds = (all(logic.satisfies(m, a) for a in t.axioms) for m in pq_tc.models)
            assert pq_lat.extent(t) == frozenset(i for i, ok in enumerate(holds) if ok)

    def test_unsatisfiable_pool_member_empties_the_bottom(self, pq_sig):
        bad = parse_sentence(pq_sig, "exists x:E. ~(x = x)")
        tc = build_truth_classification(pq_sig, [bad], carriers={"E": ["a", "b"]})
        lat = theory_lattice(tc)
        assert lat.bottom.axioms == frozenset({bad})
        assert lat.extent(lat.bottom) == frozenset()

    def test_join_is_intersection(self, pq_lat, pq, theory_with):
        s1, s2, s3, s4 = (pq[k] for k in ("s1", "s2", "s3", "s4"))
        j = theory_join(pq_lat, theory_with(pq_lat, s1, s3), theory_with(pq_lat, s2, s3, s4))
        assert j.axioms == frozenset({s3})
        empty = theory_join(pq_lat, theory_with(pq_lat, s1, s3), theory_with(pq_lat, s2, s4))
        assert empty == pq_lat.top

    def test_meet_examples(self, pq_lat, pq, pq_pool, theory_with):
        s1, s2, s3, s4 = (pq[k] for k in ("s1", "s2", "s3", "s4"))
        m = theory_meet(pq_lat, theory_with(pq_lat, s1, s3), theory_with(pq_lat, s2, s4))
        assert m.axioms == frozenset(pq_pool)
        assert theory_meet(pq_lat, theory_with(pq_lat, s3), theory_with(pq_lat, s4)).axioms == {
            s3,
            s4,
        }

    def test_unit_laws(self, pq_lat):
        for t in pq_lat.theories:
            assert theory_join(pq_lat, t, pq_lat.top) == pq_lat.top
            assert theory_meet(pq_lat, t, pq_lat.top) == t
            assert theory_join(pq_lat, t, t) == t
            assert theory_meet(pq_lat, t, t) == t

    def test_foreign_theory_rejected(self, pq_lat, pq_tc, pq):
        stray = ClosedTheory(pq_tc.signature, frozenset({pq["s1"]}))
        with pytest.raises(ValueError, match="foreign theory"):
            theory_join(pq_lat, stray, pq_lat.top)
        with pytest.raises(ValueError, match="foreign theory"):
            pq_lat.extent(stray)

    def test_agrees_with_concept_lattice_operations(self, pq_lat, pq_tc):
        lat = pq_lat.lattice
        key_sets = {
            t.axioms: frozenset(map(sentence_key, t.axioms)) for t in pq_lat.theories
        }
        by_intent = {c.intent: c for c in lat.concepts}
        for t1 in pq_lat.theories:
            for t2 in pq_lat.theories:
                c1, c2 = by_intent[key_sets[t1.axioms]], by_intent[key_sets[t2.axioms]]
                join_c = lattice_join(lat, [c1, c2])
                meet_c = lattice_meet(lat, [c1, c2])
                assert key_sets[theory_join(pq_lat, t1, t2).axioms] == join_c.intent
                assert key_sets[theory_meet(pq_lat, t1, t2).axioms] == meet_c.intent

    def test_generator_concepts_are_dense(self, pq_lat, pq_tc):
        from theorylattice.fca import density_report

        assert density_report(pq_lat.lattice) == (True, True)


class TestGeneratorConcepts:
    def test_object_concept(self, pq_tc, pq):
        index = next(
            i
            for i, m in enumerate(pq_tc.models)
            if m.relation("P") == frozenset({("a",), ("b",)}) and m.relation("Q") == frozenset()
        )
        assert object_concept(pq_tc, index).axioms == {pq["s1"], pq["s3"]}
        assert object_concept(pq_tc, pq_tc.models[index]).axioms == {pq["s1"], pq["s3"]}

    def test_attribute_concepts(self, pq_tc, pq):
        assert attribute_concept(pq_tc, pq["s2"]).axioms == {pq["s2"], pq["s4"]}
        assert attribute_concept(pq_tc, pq["s3"]).axioms == {pq["s3"]}

    def test_unknown_model(self, pq_tc, pq_sig):
        with pytest.raises(ValueError, match="unknown model"):
            object_concept(pq_tc, 99)
        stray = Structure.make(pq_sig, {"E": ["z"]}, {})
        with pytest.raises(ValueError, match="unknown model"):
            object_concept(pq_tc, stray)

    def test_unknown_sentence(self, pq_tc, pq_sig):
        with pytest.raises(ValueError, match="not in the pool"):
            attribute_concept(pq_tc, parse_sentence(pq_sig, "exists x:E. Q(x)"))

    def test_attribute_concept_looks_a_sentence_up_once(self, pq_tc, pq, monkeypatch):
        variant = Forall("y", "E", Atom("Q", (Var("y", "E"),)))
        calls = Counter()
        real = truth.canonicalize
        monkeypatch.setattr(truth, "canonicalize", lambda f: calls.update(["canonicalize"]) or real(f))
        assert attribute_concept(pq_tc, pq["s2"]) == attribute_concept(pq_tc, variant)
        assert calls == {"canonicalize": 1}
        assert attribute_concept(pq_tc, variant).axioms == {pq["s2"], pq["s4"]}


class TestTheory:
    def test_axioms_are_canonicalized(self, pq_sig, pq):
        variant = Forall("y", "E", Atom("P", (Var("y", "E"),)))
        assert Theory(pq_sig, [variant]).axioms == {pq["s1"]}

    @pytest.mark.parametrize(
        "axiom, error, message",
        [
            (Atom("P", (Var("x", "E"),)), ValueError, "sentence 'P(x)' has free variables: ['x']"),
            (
                And(Atom("S", (Var("x", "E"),)), Atom("P", (Var("x", "E"),))),
                ValueError,
                "sentence 'S(x) & P(x)' has free variables: ['x']",
            ),
            (
                Forall("y", "F", Atom("P", (Var("y", "F"),))),
                SignatureMismatchError,
                "sentence 'forall v0:F. P(v0)' does not fit the signature: "
                "quantifier over undeclared entity type 'F'",
            ),
            (
                Exists("y", "E", Eq(Var("y", "E"), Const("k"))),
                SignatureMismatchError,
                "sentence 'exists v0:E. v0 = k' does not fit the signature: unknown constant 'k'",
            ),
            (
                Forall("y", "E", Atom("P", (Var("y", "F"),))),
                SignatureMismatchError,
                "sentence 'forall v0:E. P(v0)' does not fit the signature: "
                "variable 'v0' used at sort 'F' but bound at 'E'",
            ),
        ],
        ids=["open", "open-and-ill-typed", "ill-typed", "unknown-constant", "sort-clash"],
    )
    def test_axioms_are_checked_by_key(self, pq_sig, axiom, error, message):
        with pytest.raises(error) as exc:
            Theory(pq_sig, [axiom])
        assert str(exc.value) == message

    def test_the_sentence_check_keeps_the_two_sort_fault(self, pq_sig):
        # validate_formula refuses the free x; free_vars, walked only then, names the fault
        sentence = And(Atom("P", (Var("x", "E"),)), Atom("P", (Var("x", "F"),)))
        with pytest.raises(ValueError) as exc:
            logic._check_sentence(pq_sig, sentence)
        assert (type(exc.value), str(exc.value)) == (ValueError, "variable 'x' occurs free at sorts 'E' and 'F'")


class TestLatticeText:
    def test_header_and_record_shape(self, pq_lat):
        text = lattice_text(pq_lat)
        lines = text.splitlines()
        assert lines[0] == "closed theories: 8"
        assert lines[1] == "models: 16"
        assert sum(1 for line in lines if line.startswith("theory ")) == 8
        assert text == lattice_text(pq_lat)

    def test_records_are_consistent(self, pq_lat):
        text = lattice_text(pq_lat)
        blocks = text.strip().split("\n\n")[1:]
        for k, block in enumerate(blocks):
            lines = block.splitlines()
            assert lines[0] == f"theory {k}"
            fields = dict(line.strip().split(": ", 1) for line in lines[1:])
            assert set(fields) == {"axioms", "models", "covers", "covered-by"}
