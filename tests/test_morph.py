"""Signature maps and their composition, reducts, infomorphisms, and adjoint pairs."""

from __future__ import annotations

import random

import pytest

from oracles import (
    M_POOL,
    M_SIG,
    ST_POOL,
    ST_SIG,
    ST_TO_M,
    oracle_satisfies,
    pairwise_adjunction,
    random_interpretation_case,
    random_map_from,
    random_sentence,
    reference_adjoint_pair,
    reference_instance_map,
    set_derive_instances,
    set_derive_types,
)
from theorylattice import logic, morph
from theorylattice.errors import (
    InfomorphismError,
    ParseError,
    SignatureMismatchError,
)
from theorylattice.fca import Classification
from theorylattice.logic import (
    Atom,
    Const,
    Structure,
    Var,
    enumerate_structures,
    format_structure,
    parse_formula,
    parse_sentence,
    parse_signature,
    satisfies,
    sentence_key,
)
from theorylattice.morph import (
    Interpretation,
    TruthInfomorphism,
    check_infomorphism,
    compose,
    concept_morphism,
    identity_morphism,
    is_theory_morphism,
    make_interpretation,
    parse_interpretation,
    reduct,
    reserved_vars,
    translate,
    truth_infomorphism,
)
from theorylattice.truth import (
    ClosedTheory,
    Theory,
    TruthClassification,
    build_truth_classification,
    theory_lattice,
)


@pytest.fixture(scope="module")
def const_sigs():
    src = parse_signature("entity E\nrelation P(E)\nconstant c:E")
    dst = parse_signature("entity D\nrelation R(D)\nconstant d:D\nconstant e:D")
    return src, dst


class TestMakeLanguageMorphism:
    def test_swap_lookups(self, swap, pq_sig):
        assert swap.map_entity("E") == "E"
        assert swap.formula_for("P").rel == "Q"
        assert swap.formula_for("Q").rel == "P"
        assert swap.source == pq_sig and swap.target == pq_sig

    def test_constants_transported(self, const_sigs):
        src, dst = const_sigs
        f = make_interpretation(src, dst, {"E": "D"}, {"c": "e"}, {"P": "R"})
        assert f.map_constant("c") == "e"

    def test_missing_relation_mapping(self, pq_sig, unary_sig):
        with pytest.raises(ValueError, match="missing mapping for relation 'Q'"):
            make_interpretation(pq_sig, unary_sig, {"E": "E"}, {}, {"P": "R"})

    def test_undeclared_target(self, unary_sig, pq_sig):
        with pytest.raises(ValueError, match="maps to undeclared 'S'"):
            make_interpretation(unary_sig, pq_sig, {"E": "E"}, {}, {"R": "S"})

    def test_arity_mismatch(self, unary_sig):
        binary = parse_signature("entity E\nrelation R(E, E)")
        with pytest.raises(ValueError, match="arity 1 but 'R' has arity 2"):
            make_interpretation(unary_sig, binary, {"E": "E"}, {}, {"R": "R"})

    def test_profile_position_named(self):
        src = parse_signature("entity A\nentity B\nrelation R(A, B)")
        dst = parse_signature("entity A\nentity B\nrelation R(A, A)")
        with pytest.raises(ValueError, match="position 2"):
            make_interpretation(src, dst, {"A": "A", "B": "B"}, {}, {"R": "R"})

    def test_constant_sort_preserved(self, const_sigs):
        src, _ = const_sigs
        dst2 = parse_signature("entity D\nentity F\nrelation R(D)\nconstant d:F")
        with pytest.raises(ValueError, match="of sort 'F', expected 'D'"):
            make_interpretation(src, dst2, {"E": "D"}, {"c": "d"}, {"P": "R"})

    def test_extra_mapping_rejected(self, unary_sig, pq_sig):
        with pytest.raises(ValueError, match="undeclared relation 'S'"):
            make_interpretation(unary_sig, pq_sig, {"E": "E"}, {}, {"R": "P", "S": "Q"})

    def test_is_an_interpretation_whose_formulas_are_atoms(self, swap):
        assert type(swap) is Interpretation
        assert swap.formula_for("P") == Atom("Q", (Var("x1", "E"),))
        assert swap.rel_formula == (
            ("P", Atom("Q", (Var("x1", "E"),))),
            ("Q", Atom("P", (Var("x1", "E"),))),
        )


def _rename_r_to_p(src, dst, ent, const):
    return make_interpretation(src, dst, ent, const, {"R": "P"})


def _interpret_r_as_p(src, dst, ent, const):
    return make_interpretation(src, dst, ent, const, {"R": Atom("P", (Var("x1", "E"),))})


@pytest.mark.parametrize("make", [_rename_r_to_p, _interpret_r_as_p])
class TestSymbolMaps:
    """Renamings and interpretations validate their entity and constant maps alike."""

    SRC = "entity E\nrelation R(E)\nconstant c:E"
    DST = "entity E\nentity F\nrelation P(E)\nconstant d:E\nconstant f:F"

    @pytest.mark.parametrize(
        "ent, const, message",
        [
            ({"E": "E", "Z": "E"}, {"c": "d"}, "mapping for undeclared entity type 'Z'"),
            ({"E": "E"}, {"c": "d", "k": "d"}, "mapping for undeclared constant 'k'"),
            ({}, {"c": "d"}, "missing mapping for entity type 'E'"),
            ({"E": "E"}, {}, "missing mapping for constant 'c'"),
            ({"E": "G"}, {"c": "d"}, "entity type 'E' maps to undeclared 'G'"),
            ({"E": "E"}, {"c": "z"}, "constant 'c' maps to undeclared 'z'"),
            (
                {"E": "E"},
                {"c": "f"},
                "constant 'c' of sort 'E' maps to 'f' of sort 'F', expected 'E'",
            ),
        ],
        ids=[
            "extra-entity", "extra-constant", "missing-entity", "missing-constant",
            "undeclared-entity-target", "undeclared-constant-target", "constant-sort",
        ],
    )
    def test_rejected(self, make, ent, const, message):
        src, dst = parse_signature(self.SRC), parse_signature(self.DST)
        with pytest.raises(ValueError) as exc:
            make(src, dst, ent, const)
        assert str(exc.value) == message

    def test_accepted(self, make):
        src, dst = parse_signature(self.SRC), parse_signature(self.DST)
        m = make(src, dst, {"E": "E"}, {"c": "d"})
        assert m.ent == (("E", "E"),) and m.const == (("c", "d"),)
        assert m.formula_for("R") == Atom("P", (Var("x1", "E"),))


# ST with a constant into M with two constants (the file mixes both
# relation-line shapes), then two maps of M into itself; between them they
# quantify, draw equations, send a constant and swap argument orders.
CHAIN_SIGS = (
    "entity E\nrelation S(E)\nrelation T(E,E)\nconstant k:E\n",
    "entity E\nrelation P(E)\nrelation Q(E)\nrelation R(E,E)\nconstant c:E\nconstant d:E\n",
)
CHAIN_MAPS = (
    "entity E -> E\nconstant k -> d\nrelation S -> P\nrelation T(x1,x2) -> R(x2,x1) & ~(x1 = c)\n",
    "entity E -> E\nconstant c -> d\nconstant d -> c\n"
    "relation P(x1) -> exists y:E. R(x1,y) & ~(y = x1)\n"
    "relation Q(x1) -> Q(x1) | x1 = c\nrelation R(x1,x2) -> R(x2,x1)\n",
    "entity E -> E\nconstant c -> c\nconstant d -> c\nrelation P -> Q\n"
    "relation Q(x1) -> forall y:E. R(y,x1)\nrelation R(x1,x2) -> R(x1,x2) & P(x2)\n",
)


def _translated(h, tc, carriers):
    """The truth classification over the target of ``h`` whose pool is the
    translation of the pool of ``tc``."""
    return build_truth_classification(h.target, [translate(h, s) for s in tc.pool], carriers=carriers)


@pytest.fixture(scope="module")
def chains():
    """Chains (f, g, h) of composable maps, each with a truth classification
    at each of its four signatures: the pool of each holds the translations
    of the pool before, and its models the reducts of the models after.
    The first chain is the hand-written one above, the others are random."""
    rng = random.Random(1616)
    sig0, sig1 = (parse_signature(t) for t in CHAIN_SIGS)
    maps = [parse_interpretation(sig0 if k == 0 else sig1, sig1, t) for k, t in enumerate(CHAIN_MAPS)]
    pool = []
    while len(pool) < 6:
        s = random_sentence(rng, sig0, depth=3, equality=True)
        if s not in pool:
            pool.append(s)
    tcs = [build_truth_classification(sig0, pool, carriers={"E": ["a", "b"]})]
    for m in maps:
        tcs.append(_translated(m, tcs[-1], {"E": ["a", "b"]}))
    out = [(maps, tcs)]
    for _ in range(10):
        f, tc0, tc1 = random_interpretation_case(rng)
        maps, tcs = [f], [tc0, tc1]
        for _ in range(2):
            carriers = {s: tcs[-1].models[0].carrier(s) for s in maps[-1].target.entity_types}
            m, carriers = random_map_from(rng, maps[-1].target, carriers)
            maps.append(m)
            tcs.append(_translated(m, tcs[-1], carriers))
        out.append((maps, tcs))
    return out


def _pairs(chain):
    """Each two consecutive maps (f, g) of a chain, with the classifications
    at the source of f, between them and at the target of g."""
    maps, tcs = chain
    return zip(maps, maps[1:], tcs, tcs[1:], tcs[2:])


class TestCompose:
    """Maps form a category: ``compose`` is associative with
    ``identity_morphism`` as its unit, and translation, reducts, the truth
    infomorphism and the adjoint pair are functorial.  None of these needs
    an oracle, and each catches a fault that ``translate`` and ``reduct``
    would share, such as the order in which x1..xn are bound."""

    def test_swap_is_an_involution(self, swap, pq_sig):
        assert compose(swap, swap) == identity_morphism(pq_sig)

    def test_identity_is_neutral(self, swap, pq_sig, chains):
        ident = identity_morphism(pq_sig)
        assert compose(ident, swap) == swap == compose(swap, ident)
        for maps, _ in chains:
            for h in maps:
                assert compose(identity_morphism(h.source), h) == h
                assert compose(h, identity_morphism(h.target)) == h

    def test_composition_is_associative(self, chains):
        for (f, g, h), _ in chains:
            assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_signature_chaining_enforced(self, swap, unary_sig):
        to_unary = make_interpretation(
            swap.source, unary_sig, {"E": "E"}, {}, {"P": "R", "Q": "R"}
        )
        with pytest.raises(SignatureMismatchError, match="cannot compose"):
            compose(to_unary, swap)

    def test_translation_is_functorial(self, swap, pq_sig, pq_pool, chains):
        ident = identity_morphism(pq_sig)
        for s in pq_pool:
            assert translate(compose(swap, swap), s) == translate(swap, translate(swap, s))
            assert translate(ident, s) == s
        rng = random.Random(3)
        for chain in chains:
            for f, g, tc, _, _ in _pairs(chain):
                fg = compose(f, g)
                more = [random_sentence(rng, f.source, depth=3, equality=True) for _ in range(10)]
                for s in [*tc.pool, *more]:
                    assert translate(fg, s) == translate(g, translate(f, s))

    def test_reduct_is_functorial(self, chains):
        for chain in chains:
            for f, g, _, _, tc in _pairs(chain):
                fg = compose(f, g)
                for m in tc.models:
                    assert reduct(fg, m) == reduct(f, reduct(g, m))
        # the first two maps of the hand-written chain over a wider carrier
        (f, g, _), _ = chains[0]
        fg = compose(f, g)
        space = enumerate_structures(g.target, {"E": ["a", "b", "c"]})
        for k in random.Random(4).sample(range(len(space)), 300):
            assert reduct(fg, space[k]) == reduct(f, reduct(g, space[k]))

    def test_infomorphism_maps_compose(self, chains):
        for chain in chains:
            for f, g, tc0, tc1, tc2 in _pairs(chain):
                im_f, im_g = truth_infomorphism(f, tc0, tc1), truth_infomorphism(g, tc1, tc2)
                im_fg = truth_infomorphism(compose(f, g), tc0, tc2)
                types_g = dict(im_g.type_map)
                assert im_fg.type_map == tuple((k, types_g[v]) for k, v in im_f.type_map)
                assert im_fg.instance_map == tuple(im_f.instance_map[j] for j in im_g.instance_map)

    def test_adjoint_pair_maps_compose(self, chains):
        for chain in chains:
            for f, g, tc0, tc1, tc2 in _pairs(chain):
                lat0, lat1, lat2 = (theory_lattice(tc) for tc in (tc0, tc1, tc2))
                cm_f = concept_morphism(truth_infomorphism(f, tc0, tc1), lat0, lat1)
                cm_g = concept_morphism(truth_infomorphism(g, tc1, tc2), lat1, lat2)
                cm_fg = concept_morphism(truth_infomorphism(compose(f, g), tc0, tc2), lat0, lat2)
                assert cm_fg._dir == tuple(cm_g._dir[k] for k in cm_f._dir)
                assert cm_fg._inv == tuple(cm_f._inv[k] for k in cm_g._inv)


class TestMakeInterpretation:
    def test_reserved_vars(self):
        assert reserved_vars(("A", "B"), {"A": "D", "B": "D"}) == {"x1": "D", "x2": "D"}

    def test_formula_lookup(self, conj_interp, pq_sig):
        body = parse_formula(pq_sig, "P(x1) & Q(x1)", {"x1": "E"})
        assert conj_interp.formula_for("R") == body

    def test_missing_reserved_var(self, unary_sig, pq_sig):
        body = parse_sentence(pq_sig, "forall y:E. P(y)")
        with pytest.raises(ValueError, match=r"missing \['x1'\]"):
            make_interpretation(unary_sig, pq_sig, {"E": "E"}, {}, {"R": body})

    def test_unexpected_variable(self, unary_sig, pq_sig):
        body = parse_formula(pq_sig, "P(x1) & Q(x2)", {"x1": "E", "x2": "E"})
        with pytest.raises(ValueError, match=r"unexpected \['x2'\]"):
            make_interpretation(unary_sig, pq_sig, {"E": "E"}, {}, {"R": body})

    def test_wrong_reserved_sort(self):
        src = parse_signature("entity A\nentity B\nrelation R(A)")
        dst = parse_signature("entity A\nentity B\nrelation P(A)\nrelation S(B)")
        body = parse_formula(dst, "S(x1)", {"x1": "B"})
        with pytest.raises(ValueError, match="wrong sort"):
            make_interpretation(src, dst, {"A": "A", "B": "B"}, {}, {"R": body})

    def test_ill_typed_formula_is_refused(self, unary_sig, pq_sig):
        body = Atom("P", (Var("x1", "E"), Var("x1", "E")))
        with pytest.raises(ValueError, match=r"^relation 'P' expects 1 arguments, got 2$"):
            make_interpretation(unary_sig, pq_sig, {"E": "E"}, {}, {"R": body})

    def test_constant_transport(self, const_sigs):
        src, dst = const_sigs
        body = parse_formula(dst, "R(x1)", {"x1": "D"})
        h = make_interpretation(src, dst, {"E": "D"}, {"c": "d"}, {"P": body})
        assert h.map_constant("c") == "d"


class TestTranslate:
    def test_renaming_swaps_atoms(self, swap, pq):
        assert translate(swap, pq["s1"]) == pq["s2"]
        assert translate(swap, pq["s4"]) == parse_sentence(
            swap.source, "forall x:E. Q(x) -> P(x)"
        )

    def test_renaming_is_the_interpretation_with_atom_formulas(self, swap, pq_sig, pq_pool):
        atoms = {"P": Atom("Q", (Var("x1", "E"),)), "Q": Atom("P", (Var("x1", "E"),))}
        h = make_interpretation(pq_sig, pq_sig, {"E": "E"}, {}, atoms)
        assert h == swap
        for s in pq_pool:
            assert translate(h, s) == translate(swap, s)

    def test_interpretation_substitutes_atoms(self, conj_interp, unary_sig, pq_sig):
        got = translate(conj_interp, parse_sentence(unary_sig, "exists x:E. R(x)"))
        assert got == parse_sentence(pq_sig, "exists x:E. P(x) & Q(x)")

    def test_two_atoms(self, conj_interp, unary_sig, pq_sig):
        got = translate(
            conj_interp, parse_sentence(unary_sig, "forall x:E. forall y:E. R(x) | R(y)")
        )
        want = parse_sentence(pq_sig, "forall x:E. forall y:E. (P(x) & Q(x)) | (P(y) & Q(y))")
        assert got == want

    def test_constants_in_atom_arguments(self, const_sigs):
        src, dst = const_sigs
        body = parse_formula(dst, "R(x1)", {"x1": "D"})
        h = make_interpretation(src, dst, {"E": "D"}, {"c": "e"}, {"P": body})
        assert translate(h, parse_sentence(src, "P(c)")) == parse_sentence(dst, "R(e)")

    def test_a_term_the_map_leaves_unchanged_is_not_copied(self, const_sigs):
        """A variable whose sort and a constant whose name the map keeps come
        back as the very same objects; a map that changes the sort or the
        name builds new ones."""
        src, dst = const_sigs
        x, c = Var("x", "E"), Const("c")
        ident = identity_morphism(src)
        assert morph._translate_term(ident, x) is x
        assert morph._translate_term(ident, c) is c
        body = parse_formula(dst, "R(x1)", {"x1": "D"})
        h = make_interpretation(src, dst, {"E": "D"}, {"c": "e"}, {"P": body})
        moved = morph._translate_term(h, x)
        assert type(moved) is Var and moved == Var("x", "D") and x == Var("x", "E")
        assert morph._translate_term(h, c) == Const("e")

    def test_equality_passes_through(self, conj_interp, unary_sig, pq_sig):
        got = translate(conj_interp, parse_sentence(unary_sig, "forall x:E. x = x"))
        assert got == parse_sentence(pq_sig, "forall x:E. x = x")

    def test_source_typing_enforced(self, conj_interp, pq_sig):
        with pytest.raises(ValueError, match="unknown relation type 'P'"):
            translate(conj_interp, parse_sentence(pq_sig, "forall x:E. P(x)"))

    def test_open_formulas_are_checked_too(self, conj_interp, pq_sig):
        """A formula with one sort per free variable is translated free; a
        variable free at two sorts, or at a sort the source does not
        declare, is refused with the texts of free_vars and validate_formula."""
        opened = parse_formula(conj_interp.source, "R(x) & ~R(y)", {"x": "E", "y": "E"})
        assert translate(conj_interp, opened) == parse_formula(
            pq_sig, "(P(x) & Q(x)) & ~(P(y) & Q(y))", {"x": "E", "y": "E"}
        )
        two_sorts = logic.And(Atom("R", (Var("x", "E"),)), logic.Eq(Var("x", "F"), Var("x", "F")))
        with pytest.raises(ValueError, match="variable 'x' occurs free at sorts 'E' and 'F'"):
            translate(conj_interp, two_sorts)
        undeclared = logic.Eq(Var("x", "F"), Var("x", "F"))
        with pytest.raises(ValueError, match="free variable 'x' has undeclared sort 'F'"):
            translate(conj_interp, undeclared)


class TestReduct:
    def test_conjunction_intersects(self, conj_interp, pq_sig, unary_sig):
        model = Structure.make(
            pq_sig, {"E": ["a", "b"]}, {"P": [("a",), ("b",)], "Q": [("a",)]}, {}
        )
        r = reduct(conj_interp, model)
        assert r.signature == unary_sig
        assert r.carrier("E") == ("a", "b")
        assert r.relation("R") == frozenset({("a",)})

    def test_satisfaction_agrees_pointwise(self, conj_interp, pq_sig, unary_sig):
        sentence = parse_sentence(unary_sig, "exists x:E. R(x)")
        translated = translate(conj_interp, sentence)
        for model in enumerate_structures(pq_sig, {"E": ["a", "b"]}):
            assert satisfies(model, translated) == satisfies(reduct(conj_interp, model), sentence)

    def test_identity_reduct_is_the_model(self, pq_sig):
        ident = identity_morphism(pq_sig)
        for model in enumerate_structures(pq_sig, {"E": ["a"]}):
            assert reduct(ident, model) == model

    def test_constants_follow_the_map(self, const_sigs):
        src, dst = const_sigs
        body = parse_formula(dst, "~R(x1)", {"x1": "D"})
        h = make_interpretation(src, dst, {"E": "D"}, {"c": "e"}, {"P": body})
        model = Structure.make(
            dst, {"D": ["u", "v"]}, {"R": [("u",)]}, {"d": "u", "e": "v"}
        )
        r = reduct(h, model)
        assert r.constant("c") == "v"
        assert r.relation("P") == frozenset({("v",)})

    def test_wrong_signature(self, conj_interp, unary_sig):
        model = Structure.make(unary_sig, {"E": ["a"]}, {"R": []}, {})
        with pytest.raises(SignatureMismatchError, match="target signature"):
            reduct(conj_interp, model)


class TestCheckInfomorphism:
    def test_identity_maps_pass(self, ctx3):
        ok = check_infomorphism(
            ctx3, ctx3, {t: t for t in ctx3.types}, {i: i for i in ctx3.instances}
        )
        assert ok and ok.witness is None

    def test_first_witness_in_declaration_order(self, ctx3):
        bad = check_infomorphism(
            ctx3, ctx3, {t: t for t in ctx3.types}, {1: 3, 2: 2, 3: 1}
        )
        assert not bad
        assert bad.witness == (1, "a")

    def test_unmapped_type(self, ctx3):
        with pytest.raises(ValueError, match="unmapped type 'c'"):
            check_infomorphism(ctx3, ctx3, {"a": "a", "b": "b"}, {1: 1, 2: 2, 3: 3})

    def test_unmapped_instance(self, ctx3):
        with pytest.raises(ValueError, match="unmapped instance 3"):
            check_infomorphism(ctx3, ctx3, {t: t for t in ctx3.types}, {1: 1, 2: 2})

    def test_unknown_image(self, ctx3):
        with pytest.raises(ValueError, match="maps to unknown 'z'"):
            check_infomorphism(ctx3, ctx3, {"a": "z", "b": "b", "c": "c"}, {1: 1, 2: 2, 3: 3})


def _formula_for_undeclared_relation(request):
    unary_sig, pq_sig = request.getfixturevalue("unary_sig"), request.getfixturevalue("pq_sig")
    body = parse_formula(pq_sig, "P(x1)", {"x1": "E"})
    make_interpretation(unary_sig, pq_sig, {"E": "E"}, {}, {"R": body, "S": body})


def _instance_to_unknown(request):
    ctx3 = request.getfixturevalue("ctx3")
    check_infomorphism(ctx3, ctx3, {t: t for t in ctx3.types}, {1: 1, 2: 2, 3: 9})


def _lattices_of_other_classifications(request):
    get = request.getfixturevalue
    im = truth_infomorphism(get("conj_interp"), get("unary_tc"), get("wide_tc"))
    concept_morphism(im, get("unary_lat"), get("pq_lat"))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (_formula_for_undeclared_relation, ValueError, "mapping for undeclared relation 'S'"),
        (_instance_to_unknown, ValueError, "instance 3 maps to unknown 9"),
        (_lattices_of_other_classifications, SignatureMismatchError,
         "lattices do not match the infomorphism's classifications"),
    ],
    ids=["make_interpretation", "check_infomorphism", "concept_morphism"],
)
def test_library_refusal(request, call, error, message):
    with pytest.raises(error) as exc:
        call(request)
    assert type(exc.value) is error and str(exc.value) == message


class TestTruthInfomorphism:
    def test_pool_sentences_map_to_their_translations(self, conj_interp, unary_tc, wide_tc):
        im = truth_infomorphism(conj_interp, unary_tc, wide_tc)
        want = {
            "forall v0:E. R(v0)": "forall v0:E. P(v0) & Q(v0)",
            "exists v0:E. R(v0)": "exists v0:E. P(v0) & Q(v0)",
        }
        assert dict(im.type_map) == want

    def test_models_map_to_their_reducts(self, conj_interp, unary_tc, wide_tc):
        im = truth_infomorphism(conj_interp, unary_tc, wide_tc)
        assert len(im.instance_map) == len(wide_tc.models)
        for j, model in enumerate(wide_tc.models):
            assert unary_tc.models[im.map_model(j)] == reduct(conj_interp, model)
        # sixteen target models spread over the four source models
        assert set(im.instance_map) == set(range(len(unary_tc.models)))

    def test_satisfaction_transfer_exhaustively(self, conj_interp, unary_tc, wide_tc):
        im = truth_infomorphism(conj_interp, unary_tc, wide_tc)
        for model in wide_tc.models:
            for s in unary_tc.pool:
                assert satisfies(model, translate(conj_interp, s)) == satisfies(
                    reduct(conj_interp, model), s
                )

    def test_identity_infomorphism(self, pq_sig, pq_tc):
        im = truth_infomorphism(identity_morphism(pq_sig), pq_tc, pq_tc)
        assert im.instance_map == tuple(range(len(pq_tc.models)))
        assert all(a == b for a, b in im.type_map)

    def test_missing_pool_images_are_listed(self, conj_interp, unary_tc, pq_tc):
        with pytest.raises(InfomorphismError) as exc:
            truth_infomorphism(conj_interp, unary_tc, pq_tc)
        msg = str(exc.value)
        assert "missing from the target pool" in msg
        assert "forall v0:E. P(v0) & Q(v0)" in msg
        assert "exists v0:E. P(v0) & Q(v0)" in msg

    def test_orphan_reduct_is_printed(self, conj_interp, unary_sig, unary_pool, wide_tc):
        full_only = [
            m
            for m in enumerate_structures(unary_sig, {"E": ["a", "b"]})
            if len(m.relation("R")) == 2
        ]
        small = build_truth_classification(unary_sig, unary_pool, models=full_only)
        with pytest.raises(InfomorphismError, match="not among the source models"):
            truth_infomorphism(conj_interp, small, wide_tc)

    def test_signature_checks(self, conj_interp, pq_tc, wide_tc, unary_tc):
        with pytest.raises(SignatureMismatchError, match="source differs"):
            truth_infomorphism(conj_interp, pq_tc, wide_tc)
        with pytest.raises(SignatureMismatchError, match="target differs"):
            truth_infomorphism(conj_interp, unary_tc, unary_tc)


@pytest.fixture(scope="module")
def cm(conj_interp, unary_tc, wide_tc, unary_lat, wide_lat):
    im = truth_infomorphism(conj_interp, unary_tc, wide_tc)
    return concept_morphism(im, unary_lat, wide_lat)


class TestConceptMorphism:
    def test_direct_image_of_the_universal_theory(
        self, cm, unary_lat, wide_lat, unary_pool, theory_with
    ):
        src = theory_with(unary_lat, *unary_pool)
        assert cm.dir(src) == wide_lat.bottom

    def test_direct_image_of_the_existential_theory(
        self, cm, unary_lat, unary_pool, wide_lat, pq_sig, theory_with
    ):
        src = theory_with(unary_lat, unary_pool[1])
        got = cm.dir(src)
        assert got.axioms == {
            parse_sentence(pq_sig, "exists x:E. P(x)"),
            parse_sentence(pq_sig, "exists x:E. P(x) & Q(x)"),
        }

    def test_tops_and_bottoms_correspond(self, cm, unary_lat, wide_lat):
        assert cm.dir(unary_lat.top) == wide_lat.top
        assert cm.inv(wide_lat.top) == unary_lat.top
        assert cm.inv(wide_lat.bottom) == unary_lat.bottom

    def test_inverse_images_are_closed(self, cm, unary_lat, wide_lat):
        for t in wide_lat.theories:
            assert cm.inv(t) in unary_lat

    def test_both_maps_are_monotone(self, cm, unary_lat, wide_lat):
        for a in unary_lat.theories:
            for b in unary_lat.theories:
                if unary_lat.leq(a, b):
                    assert wide_lat.leq(cm.dir(a), cm.dir(b))
        for a in wide_lat.theories:
            for b in wide_lat.theories:
                if wide_lat.leq(a, b):
                    assert unary_lat.leq(cm.inv(a), cm.inv(b))

    def test_adjunction_biimplication(self, cm, unary_lat, wide_lat):
        for c1 in unary_lat.theories:
            for c2 in wide_lat.theories:
                assert wide_lat.leq(c2, cm.dir(c1)) == unary_lat.leq(cm.inv(c2), c1)

    def test_foreign_theories_rejected(self, cm, unary_tc, wide_tc, unary_pool, pq):
        # a lone universal axiom is not closed in either pool
        with pytest.raises(ValueError, match="foreign theory"):
            cm.dir(ClosedTheory(unary_tc.signature, frozenset({unary_pool[0]})))
        with pytest.raises(ValueError, match="foreign theory"):
            cm.inv(ClosedTheory(wide_tc.signature, frozenset({pq["s1"]})))

    def test_bijective_renaming_gives_mutually_inverse_maps(self, swap, swap_tc, swap_lat):
        im = truth_infomorphism(swap, swap_tc, swap_tc)
        cm = concept_morphism(im, swap_lat, swap_lat)
        for t in swap_lat.theories:
            assert cm.inv(cm.dir(t)) == t
            assert cm.dir(cm.inv(t)) == t


@pytest.fixture(params=["conj", "swap", "st_to_m"])
def adjoint_case(request):
    """(interpretation, source and target classifications) of a known pair."""
    if request.param == "conj":
        names = ("conj_interp", "unary_tc", "wide_tc")
    elif request.param == "swap":
        names = ("swap", "swap_tc", "swap_tc")
    else:
        return request.getfixturevalue("st_to_m")
    return tuple(request.getfixturevalue(n) for n in names)


class TestAdjunctionAgainstTheOracle:
    def test_maps_and_verdict_match_the_pairwise_oracle(self, adjoint_case):
        h, tc1, tc2 = adjoint_case
        lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
        im = truth_infomorphism(h, tc1, tc2)
        cm = concept_morphism(im, lat1, lat2)
        direct, inverse = reference_adjoint_pair(
            tc1.classification, tc2.classification, dict(im.type_map)
        )
        keys1 = [frozenset(t.keys()) for t in lat1.theories]
        keys2 = [frozenset(t.keys()) for t in lat2.theories]
        for t, keys in zip(lat1.theories, keys1):
            assert frozenset(cm.dir(t).keys()) == direct(keys)
        for t, keys in zip(lat2.theories, keys2):
            assert frozenset(cm.inv(t).keys()) == inverse(keys)
        assert pairwise_adjunction(keys1, keys2, direct, inverse) is None


def reduct_error(h, tc1, tc2) -> str | None:
    """The error text naming the first target model whose reduct is not a
    source model, found one reduct at a time; None when every one is."""
    for m in tc2.models:
        r = reduct(h, m)
        if r not in tc1.models:
            return "reduct of a target model is not among the source models:\n" + format_structure(r)
    return None


class TestReductPathsAgree:
    """Listed source models and mismatched carriers look each target model's
    reduct up among the source models: the error text, witness model
    included, is that of one reduct at a time.  Over listed models the
    instance map is the reducts' positions."""

    @staticmethod
    def classifications(source, target):
        m_sig, st_sig = parse_signature(M_SIG), parse_signature(ST_SIG)
        h = parse_interpretation(st_sig, m_sig, ST_TO_M)
        sides = []
        for sig, pool, models in ((st_sig, ST_POOL, source), (m_sig, M_POOL, target)):
            pool = [parse_sentence(sig, s) for s in pool]
            if isinstance(models, dict):
                sides.append(build_truth_classification(sig, pool, carriers=models))
            else:
                listed = enumerate_structures(sig, {"E": ["a", "b"]})
                sides.append(
                    build_truth_classification(sig, pool, models=[listed[i] for i in models])
                )
        return h, *sides

    @pytest.mark.parametrize(
        "source, target",
        [
            ({"E": ["a", "b"]}, {"E": ["a", "b", "c"]}),
            ({"E": ["b", "a"]}, {"E": ["a", "b"]}),
            ({"E": ["a", "b", "c"]}, {"E": ["a", "b"]}),
            (range(0, 64, 2), {"E": ["a", "b"]}),
            ({"E": ["a", "c"]}, range(0, 256, 7)),
            (range(0, 64, 3), range(0, 256, 5)),
        ],
        ids=["wider target", "reordered source", "wider source", "listed source",
             "listed target", "both listed"],
    )
    def test_missing_reduct_names_the_first_target_model(self, source, target):
        h, tc1, tc2 = self.classifications(source, target)
        want = reduct_error(h, tc1, tc2)
        assert want is not None
        with pytest.raises(InfomorphismError) as exc:
            truth_infomorphism(h, tc1, tc2)
        assert str(exc.value) == want

    def test_wider_target_text_is_pinned(self):
        h, tc1, tc2 = self.classifications({"E": ["a", "b"]}, {"E": ["a", "b", "c"]})
        with pytest.raises(InfomorphismError) as exc:
            truth_infomorphism(h, tc1, tc2)
        assert str(exc.value) == (
            "reduct of a target model is not among the source models:\n"
            "universe E = {a, b, c}\nS = {}\nT = {}\n"
        )

    @pytest.mark.parametrize(
        "source, target",
        [
            ({"E": ["a", "b"]}, range(0, 256, 7)),
            (range(64), {"E": ["a", "b"]}),
            (range(63, -1, -1), range(0, 256, 5)),
        ],
        ids=["listed target", "listed source", "both listed"],
    )
    def test_listed_models_map_to_their_reducts(self, source, target):
        h, tc1, tc2 = self.classifications(source, target)
        im = truth_infomorphism(h, tc1, tc2)
        assert list(im.instance_map) == reference_instance_map(h, tc1, tc2)


class TestMonotonicitySteps:
    """Monotonicity follows from the adjunction, so neither lattice's order
    nor its covers are walked to check it."""

    def test_concept_morphism_builds_no_covers(self, st_to_m):
        h, tc1, tc2 = st_to_m
        lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
        concept_morphism(truth_infomorphism(h, tc1, tc2), lat1, lat2)
        assert "_covers" not in vars(lat1.lattice)
        assert "_covers" not in vars(lat2.lattice)


class TestNonClosedPullback:
    def test_the_first_non_closed_target_theory_is_named(self, st_to_m):
        """Random type maps bypass the infomorphism check; the error names
        the first target theory, in lattice order, whose pullback is not
        closed, found by set derivations."""
        h, tc1, tc2 = st_to_m
        lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
        im = truth_infomorphism(h, tc1, tc2)
        ctx1, ctx2 = tc1.classification, tc2.classification
        keys2 = [frozenset(t.keys()) for t in lat2.theories]
        rng = random.Random(9)
        named = set()
        for _ in range(12):
            type_map = {k: rng.choice(ctx2.types) for k in ctx1.types}
            _, inverse = reference_adjoint_pair(ctx1, ctx2, type_map)
            want = None
            for keys in keys2:
                pre = inverse(keys)
                extent = set_derive_instances(ctx1.instances, ctx1.incidence, pre)
                if set_derive_types(ctx1.types, ctx1.incidence, extent) != pre:
                    want = (
                        f"inverse image is not closed for target theory {sorted(keys)}: "
                        f"got {sorted(pre)}"
                    )
                    break
            assert want is not None
            forced = TruthInfomorphism(h, tc1, tc2, tuple(type_map.items()))
            with pytest.raises(InfomorphismError) as exc:
                concept_morphism(forced, lat1, lat2)
            assert str(exc.value) == want
            named.add(want)
        assert len(named) > 1


def oracle_verdict(lat1, lat2, dir_index, inv_index):
    """The pairwise oracle on a pair given as theory indices."""
    keys1 = [frozenset(t.keys()) for t in lat1.theories]
    keys2 = [frozenset(t.keys()) for t in lat2.theories]
    at1 = {k: n for n, k in enumerate(keys1)}
    at2 = {k: n for n, k in enumerate(keys2)}
    return pairwise_adjunction(
        keys1, keys2, lambda c: keys2[dir_index[at1[c]]], lambda d: keys1[inv_index[at2[d]]]
    )


# A wrong lookup: from the index the lattice finds and the top's, the index
# a patched ``_closing`` returns instead.
WRONG_LOOKUPS = {
    "to the top": lambda k, top: top,
    "to the bottom": lambda k, top: 0,
    "swaps the extremes": lambda k, top: {0: top, top: 0}.get(k, k),
}


class TestDefinitionCheck:
    """Each map is checked against its definition.  The swap's lattice is
    built twice, so that one side's lookup (``_closing``) can be patched
    alone: a wrong lookup in the target lattice makes a direct image other
    than the closure of the translated theory, one in the source lattice an
    inverse image other than the closed preimage, and each is reported with
    the first theory, in lattice order, whose image is wrong.  The pairwise
    oracle finds each patched pair not adjoint."""

    @pytest.fixture
    def sides(self, swap, swap_tc):
        im = truth_infomorphism(swap, swap_tc, swap_tc)
        lat1, lat2 = theory_lattice(swap_tc), theory_lattice(swap_tc)
        assert lat1.lattice is not lat2.lattice
        return im, lat1, lat2, concept_morphism(im, lat1, lat2)

    @staticmethod
    def patch(monkeypatch, lat, wrong):
        concepts = lat.lattice
        real, top = concepts._closing, len(concepts._intents) - 1
        monkeypatch.setitem(vars(concepts), "_closing", lambda intent: wrong(real(intent), top))

    def test_the_true_pair_is_the_two_definitions(self, sides):
        im, lat1, lat2, cm = sides
        for k, theory in enumerate(lat1.theories):
            translated = [morph._translate(im.interpretation, a) for a in theory.axioms]
            assert cm._dir[k] == lat2.index(lat2.closure(translated))
        for k, theory in enumerate(lat2.theories):
            pre = [a for a in lat1.tc.pool if im._type_map[sentence_key(a)] in theory.keys()]
            assert lat1.theories[cm._inv[k]].keys() == tuple(sorted(map(sentence_key, pre)))
        assert oracle_verdict(lat1, lat2, cm._dir, cm._inv) is None

    @pytest.mark.parametrize("wrong", WRONG_LOOKUPS)
    def test_a_wrong_dir_is_caught(self, sides, monkeypatch, wrong):
        im, lat1, lat2, cm = sides
        top = len(lat2.theories) - 1
        moved = [WRONG_LOOKUPS[wrong](d, top) for d in cm._dir]
        k = next(k for k, (d, e) in enumerate(zip(cm._dir, moved)) if d != e)
        want = (
            f"direct image is not the closure for source theory {list(lat1.theories[k].keys())}: "
            f"got {list(lat2.theories[moved[k]].keys())}"
        )
        self.patch(monkeypatch, lat2, WRONG_LOOKUPS[wrong])
        with pytest.raises(InfomorphismError) as exc:
            concept_morphism(im, lat1, lat2)
        assert str(exc.value) == want
        assert oracle_verdict(lat1, lat2, moved, cm._inv) is not None

    @pytest.mark.parametrize("wrong", WRONG_LOOKUPS)
    def test_a_wrong_inv_is_caught(self, sides, monkeypatch, wrong):
        im, lat1, lat2, cm = sides
        top = len(lat1.theories) - 1
        moved = [WRONG_LOOKUPS[wrong](c, top) for c in cm._inv]
        k = next(k for k, (c, e) in enumerate(zip(cm._inv, moved)) if c != e)
        want = (
            f"inverse image is not closed for target theory {list(lat2.theories[k].keys())}: "
            f"got {list(lat1.theories[cm._inv[k]].keys())}"
        )
        self.patch(monkeypatch, lat1, WRONG_LOOKUPS[wrong])
        with pytest.raises(InfomorphismError) as exc:
            concept_morphism(im, lat1, lat2)
        assert str(exc.value) == want
        assert oracle_verdict(lat1, lat2, cm._dir, moved) is not None


class TestAcceptedPairsAreAdjoint:
    def test_forced_type_maps_from_st_to_m(self, st_to_m):
        """Random type maps bypass the infomorphism check, each onto 1, 2 or
        all 20 target sentences.  One onto a single sentence is accepted,
        as the empty set and the whole pool are both closed in ST over
        E=a,b; the others rarely are.  The pairwise oracle finds every
        accepted pair adjoint."""
        h, tc1, tc2 = st_to_m
        lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
        rng = random.Random(33)
        accepted = []
        for n in (1, 2, len(tc2.pool_keys)) * 5:
            targets = rng.sample(tc2.pool_keys, n)
            forced = TruthInfomorphism(h, tc1, tc2, tuple((k, rng.choice(targets)) for k in tc1.pool_keys))
            try:
                cm = concept_morphism(forced, lat1, lat2)
            except InfomorphismError:
                accepted.append(False)
                continue
            accepted.append(True)
            assert oracle_verdict(lat1, lat2, cm._dir, cm._inv) is None
        assert any(accepted) and not all(accepted)


class TestIsTheoryMorphism:
    def test_swap_carries_the_theory(self, swap, pq_sig, swap_tc):
        t1 = Theory.make(pq_sig, [parse_sentence(pq_sig, "forall x:E. P(x)")])
        t2 = Theory.make(pq_sig, [parse_sentence(pq_sig, "forall x:E. Q(x)")])
        assert is_theory_morphism(swap, t1, t2, swap_tc)
        assert not is_theory_morphism(swap, t2, t2, swap_tc)

    def test_entailed_but_not_literal_images_count(self, swap, pq_sig, swap_tc):
        t1 = Theory.make(pq_sig, [parse_sentence(pq_sig, "exists x:E. P(x)")])
        t2 = Theory.make(pq_sig, [parse_sentence(pq_sig, "forall x:E. Q(x)")])
        assert is_theory_morphism(swap, t1, t2, swap_tc)

    def test_target_models_are_found_once(self, monkeypatch):
        """Eight source axioms read the target theory's models once, though
        three of its axioms are outside the pool and so cost a column each;
        an empty source theory is carried by any map."""
        sig = parse_signature(M_SIG)
        pool = [parse_sentence(sig, s) for s in M_POOL]
        tc = build_truth_classification(sig, pool, carriers={"E": ["a", "b"]})
        stray = ["exists x:E. R(x,x) & ~P(x)", "forall x:E. Q(x) | R(x,x)", "exists x:E. P(x) & ~R(x,x)"]
        t1 = Theory.make(sig, pool[:8])
        t2 = Theory.make(sig, [*pool[:8], *(parse_sentence(sig, s) for s in stray)])
        calls = []
        models_mask = TruthClassification._models_mask
        monkeypatch.setattr(TruthClassification, "_models_mask",
                            lambda self, t: calls.append(t) or models_mask(self, t))
        f = identity_morphism(sig)
        assert is_theory_morphism(f, t1, t2, tc)
        assert len(calls) == 1
        assert is_theory_morphism(f, Theory.make(sig, []), t2, tc)
        assert not is_theory_morphism(f, t2, Theory.make(sig, []), tc)

    def test_signature_guards(self, conj_interp, pq_sig, unary_sig, swap_tc):
        t_pq = Theory.make(pq_sig, [])
        t_unary = Theory.make(unary_sig, [])
        with pytest.raises(SignatureMismatchError, match="morphism's source"):
            is_theory_morphism(conj_interp, t_pq, t_pq, swap_tc)
        with pytest.raises(SignatureMismatchError, match="over the target"):
            is_theory_morphism(conj_interp, t_unary, t_unary, swap_tc)


class TestParsers:
    """One reader for map files; a ``relation P -> Q`` line and a
    ``relation R(x1,...,xn) -> FORMULA`` line are told apart by their left
    side.  The ``morphism`` tests read files of ``P -> Q`` lines only."""

    def test_morphism_file(self, pq_sig, swap):
        text = "# swap the relations\nentity E -> E\nrelation P -> Q\nrelation Q -> P\n"
        assert parse_interpretation(pq_sig, pq_sig, text) == swap

    @pytest.mark.parametrize(
        "src, dst, text, ent, rel, const",
        [
            ("pq", "pq", "entity E -> E\nrelation P -> Q\nrelation Q -> P\n", {"E": "E"}, {"P": "Q", "Q": "P"}, {}),
            ("pq", "pq", "relation Q -> P\nrelation P -> Q\nentity E -> E\n", {"E": "E"}, {"P": "Q", "Q": "P"}, {}),
            ("unary", "pq", "entity E -> E\nrelation R -> P\n", {"E": "E"}, {"R": "P"}, {}),
            (
                "const", "const_dst", "relation P -> R\nentity E -> D\nconstant c -> e\n",
                {"E": "D"}, {"P": "R"}, {"c": "e"},
            ),
            (
                "ab", "ab", "entity A -> B\nentity B -> A\nrelation R -> S\nrelation S -> R\n",
                {"A": "B", "B": "A"}, {"R": "S", "S": "R"}, {},
            ),
        ],
        ids=["swap", "relation-lines-first", "embed", "constant", "sorts-swapped"],
    )
    def test_renaming_text_reads_as_make_language_morphism(self, src, dst, text, ent, rel, const):
        sigs = {
            "pq": "entity E\nrelation P(E)\nrelation Q(E)",
            "unary": "entity E\nrelation R(E)",
            "const": "entity E\nrelation P(E)\nconstant c:E",
            "const_dst": "entity D\nrelation R(D)\nconstant d:D\nconstant e:D",
            "ab": "entity A\nentity B\nrelation R(A,B)\nrelation S(B,A)",
        }
        src, dst = parse_signature(sigs[src]), parse_signature(sigs[dst])
        assert parse_interpretation(src, dst, text) == make_interpretation(src, dst, ent, const, rel)

    @pytest.mark.parametrize(
        "src, dst, text",
        [
            (
                "entity E\nrelation R(E)", "entity E\nrelation P(E)\nrelation Q(E)",
                "entity E -> E\nrelation R(x1) -> P(x1) & Q(x1)\n",
            ),
            (ST_SIG, M_SIG, ST_TO_M),
            (
                CHAIN_SIGS[1], CHAIN_SIGS[1],
                "entity E -> E\nconstant c -> d\nconstant d -> c\n"
                "relation P(x1) -> exists y:E. R(x1,y) & ~(y = x1)\n"
                "relation Q(x1) -> Q(x1) | x1 = c\nrelation R(x1,x2) -> R(x2,x1)\n",
            ),
        ],
        ids=["conj", "st-to-m", "chain"],
    )
    def test_interpretation_text_reads_as_make_interpretation(self, src, dst, text):
        """Each formula line, parsed as a formula over its reserved variables."""
        src, dst = parse_signature(src), parse_signature(dst)
        ent, const, rel = {}, {}, {}
        for line in text.splitlines():
            kind, left, right = line.replace(" -> ", " ", 1).split(" ", 2)
            if kind == "relation":
                name = left.partition("(")[0]
                rel[name] = parse_formula(dst, right, reserved_vars(src.profile(name), ent))
            else:
                (ent if kind == "entity" else const)[left] = right
        assert parse_interpretation(src, dst, text) == make_interpretation(src, dst, ent, const, rel)

    def test_one_file_mixes_both_shapes(self, pq_sig):
        text = "relation P -> Q\nentity E -> E\nrelation Q(x1) -> P(x1) & Q(x1)\n"
        both = parse_formula(pq_sig, "P(x1) & Q(x1)", {"x1": "E"})
        want = make_interpretation(pq_sig, pq_sig, {"E": "E"}, {}, {"P": Atom("Q", (Var("x1", "E"),)), "Q": both})
        assert parse_interpretation(pq_sig, pq_sig, text) == want

    def test_a_relation_mapped_in_both_shapes_is_a_duplicate(self, pq_sig):
        text = "entity E -> E\nrelation P -> Q\nrelation P(x1) -> P(x1)\nrelation Q -> P\n"
        with pytest.raises(ParseError) as exc:
            parse_interpretation(pq_sig, pq_sig, text, path="m.map")
        assert (exc.value.path, exc.value.line, exc.value.message) == (
            "m.map", 3, "duplicate relation mapping for 'P'"
        )

    def test_morphism_duplicate_line(self, pq_sig):
        text = "entity E -> E\nrelation P -> Q\nrelation P -> P\nrelation Q -> P\n"
        with pytest.raises(ParseError) as exc:
            parse_interpretation(pq_sig, pq_sig, text, path="m.map")
        assert (exc.value.path, exc.value.line, exc.value.message) == (
            "m.map", 3, "duplicate relation mapping for 'P'"
        )

    def test_morphism_bad_line_number(self, pq_sig):
        with pytest.raises(ParseError) as exc:
            parse_interpretation(pq_sig, pq_sig, "entity E -> E\nrelation P => Q\n", path="m.map")
        assert (exc.value.path, exc.value.line, exc.value.message) == (
            "m.map", 2, "unrecognized map line: 'relation P => Q'"
        )

    def test_morphism_semantic_error_wrapped(self, pq_sig, unary_sig):
        with pytest.raises(ParseError) as exc:
            parse_interpretation(pq_sig, unary_sig, "entity E -> E\nrelation P -> R\n", path="m.map")
        assert (exc.value.path, exc.value.line, exc.value.message) == (
            "m.map", None, "missing mapping for relation 'Q'"
        )

    @pytest.mark.parametrize(
        "src, dst, text, line, message",
        [
            (
                "pq", "pq", "entity E -> Erelation P -> Q\n", 1,
                "entity type 'E' maps to undeclared 'Erelation P -> Q'",
            ),
            ("unary", "unary", "entity E -> E\nrelation R -> Q\n", 2, "relation 'R' maps to undeclared 'Q'"),
            ("pq", "pq", "entity E -> E\nrelation R -> Q\n", 2, "mapping for undeclared relation 'R'"),
            ("pq", "pq", "entity E -> E\nentity Z -> E\n", 2, "mapping for undeclared entity type 'Z'"),
            ("pq", "pq", "relation P(x1) -> Q\n", 1, "entity mapping for 'E' must precede relation 'P'"),
            (
                "const", "const_dst", "entity E -> D\nrelation P -> R\nconstant c -> z\n", 3,
                "constant 'c' maps to undeclared 'z'",
            ),
            (
                "const", "const_dst", "entity E -> D\nconstant k -> d\n", 2,
                "mapping for undeclared constant 'k'",
            ),
        ],
        ids=[
            "entity-target", "relation-target", "relation-source", "entity-source",
            "relation-shape", "constant-target", "constant-source",
        ],
    )
    def test_morphism_bad_line_located(self, src, dst, text, line, message):
        sigs = {
            "pq": "entity E\nrelation P(E)\nrelation Q(E)",
            "unary": "entity E\nrelation R(E)",
            "const": "entity E\nrelation P(E)\nconstant c:E",
            "const_dst": "entity D\nrelation R(D)\nconstant d:D",
        }
        with pytest.raises(ParseError) as exc:
            parse_interpretation(parse_signature(sigs[src]), parse_signature(sigs[dst]), text, path="m.map")
        assert (exc.value.path, exc.value.line, exc.value.message) == ("m.map", line, message)

    @pytest.mark.parametrize(
        "dst, text, line, message",
        [
            ("entity A\nentity B\nrelation R(A,A,B)", "entity A -> A\nentity B -> B\nrelation R -> R\n", 3,
             "relation 'R' has arity 2 but 'R' has arity 3"),
            ("entity A\nentity B\nrelation R(A,A,B)", "relation R -> R\nentity A -> A\nentity B -> B\n", 1,
             "relation 'R' has arity 2 but 'R' has arity 3"),
            ("entity A\nentity B\nrelation R(A,A)", "entity A -> A\nentity B -> B\nrelation R -> R\n", 3,
             "relation 'R' position 2: sort 'B' maps to 'B' but 'R' expects 'A'"),
            ("entity A\nentity B\nrelation R(A,A)", "entity A -> A\nrelation R -> R\nentity B -> B\n", 2,
             "relation 'R' position 2: sort 'B' maps to 'B' but 'R' expects 'A'"),
        ],
        ids=["arity-after-entities", "arity-before-entities", "profile-after-entities", "profile-before-entity"],
    )
    def test_morphism_relation_checked_at_its_line(self, dst, text, line, message):
        src = parse_signature("entity A\nentity B\nrelation R(A,B)")
        with pytest.raises(ParseError) as exc:
            parse_interpretation(src, parse_signature(dst), text, path="m.map")
        assert (exc.value.path, exc.value.line, exc.value.message) == ("m.map", line, message)

    def test_interpretation_file(self, unary_sig, pq_sig, conj_interp):
        text = "entity E -> E\nrelation R(x1) -> P(x1) & Q(x1)\n"
        assert parse_interpretation(unary_sig, pq_sig, text) == conj_interp

    def test_interpretation_requires_reserved_names(self, unary_sig, pq_sig):
        with pytest.raises(ParseError, match="x1"):
            parse_interpretation(unary_sig, pq_sig, "entity E -> E\nrelation R(y) -> P(y)\n")

    def test_interpretation_entity_lines_first(self, unary_sig, pq_sig):
        text = "relation R(x1) -> P(x1)\nentity E -> E\n"
        with pytest.raises(ParseError, match="must precede relation 'R'"):
            parse_interpretation(unary_sig, pq_sig, text)

    @pytest.mark.parametrize(
        "text, target",
        [
            ("entity E -> (E\nrelation R(x1) -> P(x1)\n", "(E"),
            ("entity E -> Erelation R(x1) -> P\n", "Erelation R(x1) -> P"),
        ],
    )
    def test_interpretation_bad_entity_target_located(self, unary_sig, pq_sig, text, target):
        with pytest.raises(ParseError) as exc:
            parse_interpretation(unary_sig, pq_sig, text, path="h.int")
        assert exc.value.line == 1 and exc.value.path == "h.int"
        assert exc.value.message == f"entity type 'E' maps to undeclared {target!r}"

    def test_interpretation_bad_constant_target_located(self, const_sigs):
        src, dst = const_sigs
        text = "entity E -> D\nconstant c -> f\nrelation P(x1) -> R(x1)\n"
        with pytest.raises(ParseError) as exc:
            parse_interpretation(src, dst, text, path="h.int")
        assert exc.value.line == 2 and exc.value.path == "h.int"
        assert exc.value.message == "constant 'c' maps to undeclared 'f'"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "entity E -> E\nentity Z -> E\nconstant k -> d\nrelation R(x1) -> P(x1)\n",
                "mapping for undeclared entity type 'Z'",
            ),
            (
                "entity E -> E\nconstant k -> d\nrelation R(x1) -> P(x1)\n",
                "mapping for undeclared constant 'k'",
            ),
        ],
        ids=["entity", "constant"],
    )
    def test_interpretation_undeclared_source_symbol_located(self, unary_sig, text, message):
        dst = parse_signature("entity E\nrelation P(E)\nconstant d:E")
        with pytest.raises(ParseError) as exc:
            parse_interpretation(unary_sig, dst, text, path="h.int")
        assert (exc.value.path, exc.value.line, exc.value.message) == ("h.int", 2, message)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("entity E F -> E\n", 1, "unrecognized map line: 'entity E F -> E'"),
            (
                "entity E -> E\nrelation R -> P(x1)\n",
                2,
                "relation line must look like 'relation P -> Q' or 'relation R(x1,...,xn) -> FORMULA'",
            ),
            ("entity E -> E\nrelation S(x1) -> P(x1)\n", 2, "mapping for undeclared relation 'S'"),
        ],
        ids=["entity-shape", "relation-shape", "relation-name"],
    )
    def test_interpretation_line_error_located(self, unary_sig, pq_sig, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_interpretation(unary_sig, pq_sig, text, path="h.int")
        assert (exc.value.path, exc.value.line, exc.value.message) == ("h.int", line, message)

    def test_interpretation_body_parse_error_located(self, unary_sig, pq_sig):
        with pytest.raises(ParseError) as exc:
            parse_interpretation(
                unary_sig, pq_sig, "entity E -> E\nrelation R(x1) -> P(x1\n", path="h.int"
            )
        assert exc.value.line == 2 and exc.value.path == "h.int"

    def test_interpretation_body_type_error_located(self, unary_sig, pq_sig):
        with pytest.raises(ParseError) as exc:
            parse_interpretation(
                unary_sig, pq_sig, "entity E -> E\nrelation R(x1) -> P(x1,x1)\n", path="h.int"
            )
        assert (exc.value.path, exc.value.line, exc.value.message) == (
            "h.int", 2, "relation 'P' expects 1 arguments, got 2"
        )

    def test_each_interpretation_formula_is_type_checked_once(self, pq_sig, monkeypatch):
        """Once by the parser from a file, once by ``make_interpretation``
        from the library."""
        src = parse_signature("entity E\nrelation R(E)\nrelation S(E,E)")
        text = "entity E -> E\nrelation R(x1) -> P(x1) & Q(x1)\nrelation S(x1,x2) -> P(x1) | Q(x2)\n"
        calls = []
        real = logic.validate_formula
        for module in (logic, morph):
            monkeypatch.setattr(module, "validate_formula", lambda *a: calls.append(a) or real(*a))
        h = parse_interpretation(src, pq_sig, text)
        assert len(calls) == 2
        calls.clear()
        rel = {name: h.formula_for(name) for name in ("R", "S")}
        assert make_interpretation(src, pq_sig, {"E": "E"}, {}, rel) == h
        assert len(calls) == 2


class TestRandomInterpretations:
    def test_satisfaction_transfer_on_generated_cases(self):
        rng = random.Random(20260815)
        for _ in range(25):
            h, tc1, tc2 = random_interpretation_case(rng)
            im = truth_infomorphism(h, tc1, tc2)
            for j, model in enumerate(tc2.models):
                r = tc1.models[im.map_model(j)]
                for s in tc1.pool:
                    direct = oracle_satisfies(model, translate(h, s))
                    assert direct == oracle_satisfies(r, s)
                    assert direct == satisfies(model, translate(h, s))

    def test_adjoint_pairs_on_generated_cases(self):
        rng = random.Random(7)
        for _ in range(8):
            h, tc1, tc2 = random_interpretation_case(rng)
            lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
            pair = concept_morphism(truth_infomorphism(h, tc1, tc2), lat1, lat2)
            for c1 in lat1.theories:
                for c2 in lat2.theories:
                    assert lat2.leq(c2, pair.dir(c1)) == lat1.leq(pair.inv(c2), c1)
            assert oracle_verdict(lat1, lat2, pair._dir, pair._inv) is None
