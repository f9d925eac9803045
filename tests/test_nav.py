"""Contraction, expansion, revision, analogy, and script replay."""

from __future__ import annotations

import functools
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import M_POOL, M_SIG, set_closure
from theorylattice import fca, logic, morph, nav
from theorylattice.errors import ParseError, PoolMembershipError, SignatureMismatchError
from theorylattice.logic import Atom, Forall, Var, parse_sentence, parse_signature, sentence_key
from theorylattice.nav import (
    NavStep,
    analogy,
    apply_nav_script,
    contract,
    expand,
    parse_nav_script,
    revise,
)
from theorylattice.morph import concept_morphism, identity_morphism, truth_infomorphism
from theorylattice.truth import ClosedTheory, build_truth_classification, theory_lattice


class TestContract:
    def test_drop_one_axiom(self, pq_lat, pq, pq_pool, theory_with):
        full = theory_with(pq_lat, *pq_pool)
        got = contract(pq_lat, full, [pq["s1"]])
        assert got.axioms == {pq["s2"], pq["s3"], pq["s4"]}

    def test_drop_nothing(self, pq_lat):
        for t in pq_lat.theories:
            assert contract(pq_lat, t, []) == t

    def test_drop_to_singleton(self, pq_lat, pq, theory_with):
        got = contract(pq_lat, theory_with(pq_lat, pq["s1"], pq["s3"]), [pq["s1"]])
        assert got.axioms == {pq["s3"]}

    def test_never_moves_down(self, pq_lat):
        for t in pq_lat.theories:
            for r in range(len(t.axioms) + 1):
                for axioms in combinations(sorted(t.axioms, key=sentence_key), r):
                    assert contract(pq_lat, t, axioms).axioms <= t.axioms

    def test_full_contraction_reaches_top(self, pq_lat):
        for t in pq_lat.theories:
            assert contract(pq_lat, t, t.axioms) == pq_lat.top

    def test_foreign_theory(self, pq_lat, pq_tc, pq):
        stray = ClosedTheory(pq_tc.signature, frozenset({pq["s1"]}))
        with pytest.raises(ValueError, match="foreign theory"):
            contract(pq_lat, stray, [])


class TestExpand:
    def test_from_top(self, pq_lat, pq):
        assert expand(pq_lat, pq_lat.top, [pq["s1"]]).axioms == {pq["s1"], pq["s3"]}

    def test_add_nothing(self, pq_lat):
        for t in pq_lat.theories:
            assert expand(pq_lat, t, []) == t

    def test_join_two_axioms(self, pq_lat, pq, theory_with):
        got = expand(pq_lat, theory_with(pq_lat, pq["s3"]), [pq["s4"]])
        assert got.axioms == {pq["s3"], pq["s4"]}

    def test_never_moves_up(self, pq_lat, pq_pool):
        for t in pq_lat.theories:
            for r in range(len(pq_pool) + 1):
                for axioms in combinations(pq_pool, r):
                    assert expand(pq_lat, t, axioms).axioms >= t.axioms

    def test_from_top_reaches_everything(self, pq_lat):
        for t in pq_lat.theories:
            assert expand(pq_lat, pq_lat.top, t.axioms) == t

    def test_non_pool_payload_rejected(self, pq_lat, pq_sig):
        stray = parse_sentence(pq_sig, "exists x:E. Q(x)")
        with pytest.raises(PoolMembershipError, match="extended pool"):
            expand(pq_lat, pq_lat.top, [stray])


class TestRevise:
    def test_swap_axioms(self, pq_lat, pq, theory_with):
        got = revise(pq_lat, theory_with(pq_lat, pq["s1"], pq["s3"]), [pq["s1"]], [pq["s2"]])
        assert got.axioms == {pq["s2"], pq["s3"], pq["s4"]}

    def test_identity_composite(self, pq_lat):
        for t in pq_lat.theories:
            assert revise(pq_lat, t, [], []) == t

    def test_delete_then_readd_restores(self, pq_lat, pq_pool, pq, theory_with):
        full = theory_with(pq_lat, *pq_pool)
        assert revise(pq_lat, full, [pq["s1"]], [pq["s1"]]) == full

    def test_is_exactly_the_composite(self, pq_lat, pq_pool):
        for t in pq_lat.theories:
            for delete in combinations(pq_pool, 2):
                for add in combinations(pq_pool, 1):
                    composite = expand(pq_lat, contract(pq_lat, t, delete), add)
                    assert revise(pq_lat, t, delete, add) == composite


@functools.cache
def m_lattice():
    """The lattice of M: 20 pool sentences over E=a,b, 2508 theories."""
    sig = parse_signature(M_SIG)
    pool = [parse_sentence(sig, s) for s in M_POOL]
    return theory_lattice(build_truth_classification(sig, pool, carriers={"E": ["a", "b"]}))


def _variant(sentence):
    """An alpha-variant of a canonical sentence, each bound ``vK`` renamed ``wK``:
    equal to no pool sentence as given."""

    def term(t, env):
        return Var("w" + t.name[1:], t.sort) if isinstance(t, Var) else t

    return logic._map(sentence, None, lambda f, env: logic._map_terms(f, env, term),
                      lambda q, env: ("w" + q.var[1:], q.sort, env))


class TestReviseClosesOnce:
    """Revision closes the remainder and the additions together, by one
    lookup: for any closure cl, cl(cl(T - D) | A) = cl((T - D) | A)."""

    def test_one_closing_lookup_per_revision(self, pq_lat, pq_pool, monkeypatch):
        calls = []
        closing = fca.ConceptLattice._closing
        monkeypatch.setattr(fca.ConceptLattice, "_closing", lambda lat, m: calls.append(m) or closing(lat, m))
        for t in pq_lat.theories:
            for delete, add in ((pq_pool[:2], pq_pool[2:3]), ([], pq_pool[1:]), (pq_pool, [])):
                calls.clear()
                revise(pq_lat, t, delete, add)
                assert len(calls) == 1

    @given(data=st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_is_the_composite_and_the_closure_of_the_remainder_and_additions(self, data):
        """Over M, with deletions that add axioms back, that are outside the
        pool, or that are variants of pool sentences (which delete nothing),
        and additions outside the pool (which raise as the composite does)."""
        lat = m_lattice()
        tc, pool = lat.tc, lat.tc.pool
        stray = [parse_sentence(tc.signature, s) for s in ("exists x:E. R(x,x) & ~P(x)", "forall x:E. Q(x) | R(x,x)")]
        t = data.draw(st.sampled_from(lat.theories))
        delete = data.draw(st.lists(st.sampled_from([*pool, *stray, *map(_variant, pool)]), max_size=4))
        add = data.draw(st.lists(st.sampled_from([*pool, *delete]), max_size=3))
        if data.draw(st.booleans()):
            add.insert(data.draw(st.integers(0, len(add))), data.draw(st.sampled_from(stray)))
        try:
            want = expand(lat, contract(lat, t, delete), add)
        except PoolMembershipError as exc:
            with pytest.raises(PoolMembershipError) as got:
                revise(lat, t, delete, add)
            assert str(got.value) == str(exc)
            return
        got = revise(lat, t, delete, add)
        assert got is want
        kept = {s for s in t.axioms if s not in delete} | {tc._lookup(s)[0] for s in add}
        closed = set_closure(tc.classification, sum(1 << tc.pool.index(s) for s in kept))
        assert got is lat.theories[lat.lattice._intents.index(closed)]

    def test_scripts_move_by_revision_and_analogy_only(self, swap, swap_lat, monkeypatch):
        script = "expand forall x:E. P(x)\nanalogy swap.map\ncontract exists x:E. P(x)\nrevise ; forall x:E. Q(x)\n"
        want = apply_nav_script(swap_lat, swap_lat.top, script, load_morphism=lambda path: swap)
        for move in ("contract", "expand"):
            monkeypatch.setattr(nav, move, None)
        assert apply_nav_script(swap_lat, swap_lat.top, script, load_morphism=lambda path: swap) == want


class TestRoundTrip:
    def test_expand_undoes_contract(self, pq_lat):
        for t in pq_lat.theories:
            axioms = sorted(t.axioms, key=sentence_key)
            for r in range(len(axioms) + 1):
                for sub in combinations(axioms, r):
                    assert expand(pq_lat, contract(pq_lat, t, sub), sub) == t

    def test_any_theory_reaches_any_other(self, pq_lat):
        for t1 in pq_lat.theories:
            for t2 in pq_lat.theories:
                assert expand(pq_lat, contract(pq_lat, t1, t1.axioms), t2.axioms) == t2


class TestAnalogy:
    def test_swap_transports_the_universal_theory(self, swap, swap_lat, pq_sig):
        s1 = parse_sentence(pq_sig, "forall x:E. P(x)")
        s2 = parse_sentence(pq_sig, "forall x:E. Q(x)")
        got = analogy(swap, swap_lat, swap_lat, swap_lat.closure([s1]))
        assert got == swap_lat.closure([s2])
        # the closure of the swapped axiom in this pool has three members
        expected = {
            s2,
            parse_sentence(pq_sig, "exists x:E. Q(x)"),
            parse_sentence(pq_sig, "forall x:E. P(x) -> Q(x)"),
        }
        assert got.axioms == expected

    def test_identity_renaming_fixes_everything(self, pq_sig, swap_lat):
        ident = identity_morphism(pq_sig)
        for t in swap_lat.theories:
            assert analogy(ident, swap_lat, swap_lat, t) == t

    def test_top_is_fixed(self, swap, swap_lat):
        assert analogy(swap, swap_lat, swap_lat, swap_lat.top) == swap_lat.top

    def test_bijective_renaming_is_an_order_isomorphism(self, swap, swap_lat):
        image = {t.axioms: analogy(swap, swap_lat, swap_lat, t) for t in swap_lat.theories}
        assert len({v.axioms for v in image.values()}) == len(swap_lat.theories)
        for t1 in swap_lat.theories:
            for t2 in swap_lat.theories:
                assert swap_lat.leq(t1, t2) == swap_lat.leq(image[t1.axioms], image[t2.axioms])

    def test_translation_outside_destination_pool_is_named(self, swap, pq_lat, pq, theory_with):
        # the swapped implication is not in the four-sentence pool
        src = theory_with(pq_lat, pq["s2"], pq["s4"])
        with pytest.raises(PoolMembershipError, match="Q\\(v0\\) -> P\\(v0\\)"):
            analogy(swap, pq_lat, pq_lat, src)


    def test_first_missing_translation_in_key_order(self, swap, pq_sig):
        # pool order puts the implication first; key order puts "exists" first
        pool = [parse_sentence(pq_sig, t) for t in ("forall x:E. P(x) -> Q(x)", "exists x:E. P(x)")]
        lat = theory_lattice(build_truth_classification(pq_sig, pool, carriers={"E": ["a", "b"]}))
        with pytest.raises(PoolMembershipError) as exc:
            analogy(swap, lat, lat, lat.closure(pool))
        assert exc.value.sentence_key == "exists v0:E. Q(v0)"


class TestAnalogyIsTheDirectImage:
    """Analogy translates pool sentences without checking them again; it
    must land where the adjoint pair's direct image does."""

    @pytest.fixture(params=["st_to_m", "swap"])
    def pair(self, request):
        """(map, source lattice, destination lattice, adjoint pair)."""
        if request.param == "st_to_m":
            h, tc1, tc2 = request.getfixturevalue("st_to_m")
            lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
        else:
            h, tc1 = request.getfixturevalue("swap"), request.getfixturevalue("swap_tc")
            tc2 = tc1
            lat1 = lat2 = request.getfixturevalue("swap_lat")
        return h, lat1, lat2, concept_morphism(truth_infomorphism(h, tc1, tc2), lat1, lat2)

    def test_every_source_theory_lands_on_its_direct_image(self, pair):
        h, lat1, lat2, cm = pair
        for t in lat1.theories:
            assert analogy(h, lat1, lat2, t) is cm.dir(t)
            hand = ClosedTheory(lat1.tc.signature, t.axioms)
            assert analogy(h, lat1, lat2, hand) is cm.dir(t)

    def test_a_map_over_other_signatures_is_refused_first(
        self, swap, conj_interp, swap_lat, unary_lat, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(nav, "_translate", lambda *args: calls.append(args))
        cases = [
            (conj_interp, swap_lat, swap_lat, "source differs from the source classification"),
            (swap, swap_lat, unary_lat, "target differs from the target classification"),
        ]
        for f, src, dst, text in cases:
            for theory in (src.top, src.bottom):
                with pytest.raises(SignatureMismatchError) as exc:
                    analogy(f, src, dst, theory)
                assert str(exc.value) == "interpretation " + text
        assert calls == []

    def test_pool_sentences_are_not_checked_again(self, swap, swap_lat, monkeypatch):
        """No validate_formula; the one free_vars walk per image is canonicalize's."""
        calls = Counter()

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (logic, morph):
            count(module, "validate_formula")
            count(module, "free_vars")
        for t in swap_lat.theories:
            calls.clear()
            analogy(swap, swap_lat, swap_lat, t)
            assert calls == Counter(free_vars=len(t.axioms))


class TestClosedTheoryIdentity:
    """A closed theory built by hand goes wherever the lattice's own equal
    theory goes; one of another classification is looked up by its axioms."""

    def test_hand_built_theories_act_as_the_lattice_theories(
        self, swap, swap_tc, swap_lat, swap_pool
    ):
        cm = concept_morphism(truth_infomorphism(swap, swap_tc, swap_tc), swap_lat, swap_lat)
        for k, t in enumerate(swap_lat.theories):
            hand = ClosedTheory(swap_tc.signature, t.axioms)
            assert hand == t and hash(hand) == hash(t) and hand.keys() == t.keys()
            assert hand in swap_lat and swap_lat.index(hand) == k
            assert analogy(swap, swap_lat, swap_lat, hand) == analogy(swap, swap_lat, swap_lat, t)
            assert cm.dir(hand) == cm.dir(t) and cm.inv(hand) == cm.inv(t)
            for s in swap_pool:
                assert expand(swap_lat, hand, [s]) == expand(swap_lat, t, [s])
                assert contract(swap_lat, hand, [s]) == contract(swap_lat, t, [s])

    def test_theories_of_another_classification(self, pq_lat, swap_lat):
        by_axioms = {t.axioms: k for k, t in enumerate(pq_lat.theories)}
        accepted = 0
        for t in swap_lat.theories:
            assert (t in pq_lat) == (t.axioms in by_axioms)
            if t.axioms in by_axioms:
                accepted += 1
                assert pq_lat.index(t) == by_axioms[t.axioms]
                assert expand(pq_lat, t, []) == pq_lat.theories[by_axioms[t.axioms]]
            else:
                with pytest.raises(ValueError, match="foreign theory"):
                    expand(pq_lat, t, [])
        assert 0 < accepted < len(swap_lat.theories)

    def test_deletion_is_set_difference_on_the_given_sentences(self, pq_lat, pq, pq_sig):
        bottom = pq_lat.bottom
        alpha = Forall("y", "E", Atom("P", (Var("y", "E"),)))  # not canonical
        stray = parse_sentence(pq_sig, "exists x:E. Q(x)")  # not in the pool
        assert alpha != pq["s1"]
        assert contract(pq_lat, bottom, [alpha, stray]) == bottom
        assert contract(pq_lat, bottom, [pq["s3"]]) == bottom  # still entailed
        assert contract(pq_lat, bottom, [pq["s1"], pq["s2"]]) == pq_lat.closure([pq["s3"], pq["s4"]])

    def test_lattice_theories_hold_no_axiom_sets(self, pq_tc, pq):
        lat = theory_lattice(pq_tc)
        for t in lat.theories:
            t.keys()
            lat.index(t)
            expand(lat, contract(lat, t, [pq["s1"]]), [pq["s3"]])
        assert not any("axioms" in vars(t) for t in lat.theories)


class TestScripts:
    def test_parse_kinds_and_comments(self):
        steps = parse_nav_script(
            "# a comment\n\ncontract forall x:E. P(x)\nexpand a, b\nrevise x ; y\nanalogy m.map\n"
        )
        assert [s[1] for s in steps] == ["contract", "expand", "revise", "analogy"]

    def test_unknown_step_rejected(self):
        with pytest.raises(ParseError, match="unknown navigation step"):
            parse_nav_script("wander off")

    def test_analogy_needs_a_path(self):
        with pytest.raises(ParseError, match="map file path"):
            parse_nav_script("analogy")

    def test_replay_with_all_kinds(self, swap, swap_lat, pq_sig):
        script = (
            "expand forall x:E. P(x)\n"
            "analogy swap.map\n"
            "revise forall x:E. Q(x) ; exists x:E. P(x)\n"
            "contract exists x:E. P(x)\n"
        )
        steps = apply_nav_script(
            swap_lat, swap_lat.top, script, load_morphism=lambda path: swap
        )
        assert len(steps) == 4
        assert [s.kind for s in steps] == ["expand", "analogy", "revise", "contract"]
        s1 = parse_sentence(pq_sig, "forall x:E. P(x)")
        s2 = parse_sentence(pq_sig, "forall x:E. Q(x)")
        assert swap_lat.theories[steps[0].result] == swap_lat.closure([s1])
        assert swap_lat.theories[steps[1].result] == swap_lat.closure([s2])
        assert steps[2].source == steps[1].result
        final = swap_lat.theories[steps[3].result]
        assert final.axioms == {
            parse_sentence(pq_sig, "exists x:E. Q(x)"),
            parse_sentence(pq_sig, "forall x:E. P(x) -> Q(x)"),
        }
        assert steps[1].morphism is swap

    def test_multi_sentence_payload_splits_on_top_level_commas(self, pq_lat, pq):
        script = "expand forall x:E. P(x), forall x:E. Q(x)\n"
        steps = apply_nav_script(pq_lat, pq_lat.top, script)
        assert pq_lat.theories[steps[0].result] == pq_lat.bottom

    def test_bad_sentence_reports_script_line(self, pq_lat):
        with pytest.raises(ParseError) as exc:
            apply_nav_script(pq_lat, pq_lat.top, "# intro\nexpand P(oops)\n", path="s.nav")
        assert exc.value.line == 2 and exc.value.path == "s.nav"

    def test_empty_sentence_in_payload(self, pq_lat):
        with pytest.raises(ParseError) as exc:
            apply_nav_script(
                pq_lat, pq_lat.top, "expand forall x:E. P(x),,forall x:E. Q(x)\n", path="s.nav"
            )
        assert str(exc.value) == "s.nav:1: empty sentence in payload"

    def test_bare_contract_is_a_no_op_step(self, pq_lat):
        (step,) = apply_nav_script(pq_lat, pq_lat.bottom, "contract\n")
        assert step.kind == "contract" and step.delete == () and step.add == ()
        assert step.source == step.result == pq_lat.index(pq_lat.bottom)

    def test_revise_requires_separator(self, pq_lat):
        with pytest.raises(ParseError, match="DELETIONS ; ADDITIONS"):
            apply_nav_script(pq_lat, pq_lat.top, "revise forall x:E. P(x)\n")

    def test_analogy_without_loader_rejected(self, pq_lat):
        with pytest.raises(ParseError, match="no morphism loader"):
            apply_nav_script(pq_lat, pq_lat.top, "analogy m.map\n")

    def test_steps_record_lattice_positions(self, pq_lat, pq):
        steps = apply_nav_script(pq_lat, pq_lat.top, "expand forall x:E. P(x)\n")
        (step,) = steps
        assert step == NavStep(
            "expand",
            pq_lat.index(pq_lat.top),
            step.result,
            (),
            (pq["s1"],),
        )
