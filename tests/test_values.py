"""Value semantics of the package's immutable classes: their ``repr`` text,
equality within one class only, the matching hash, the constructor's
argument checks, and refused attribute assignment and deletion."""

from __future__ import annotations

import pytest

from theorylattice.fca import Classification, ConceptLattice, FormalConcept
from theorylattice.logic import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Structure,
    Var,
    parse_sentence,
    parse_signature,
)
from theorylattice.morph import (
    ConceptMorphism,
    InfomorphismCheck,
    Interpretation,
    TruthInfomorphism,
    concept_morphism,
    identity_morphism,
    truth_infomorphism,
)
from theorylattice.nav import NavStep
from theorylattice.truth import (
    ClosedTheory,
    Theory,
    TheoryLattice,
    TruthClassification,
    build_truth_classification,
    theory_lattice,
)

# One relation, one constant, one element: two models, one pool sentence.
# Every set printed below has at most one member, so its text does not
# depend on the hash seed.
SIG = parse_signature("entity E\nrelation P(E)\nconstant c:E")
ALL_P = parse_sentence(SIG, "forall x:E. P(x)")
TC = build_truth_classification(SIG, [ALL_P], carriers={"E": ["a"]})
LAT = theory_lattice(TC)
IM = truth_infomorphism(identity_morphism(SIG), TC, TC)
X, C = Var("x", "E"), Const("c")
PX = Atom("P", (X,))


def _instances() -> dict[type, object]:
    """One instance of each value class of the package."""
    return {
        Signature: SIG,
        Var: X,
        Const: C,
        Atom: PX,
        Eq: Eq(X, C),
        Not: Not(PX),
        And: And(PX, Eq(X, C)),
        Or: Or(PX, Eq(X, C)),
        Implies: Implies(PX, Eq(X, C)),
        Iff: Iff(PX, Eq(X, C)),
        Forall: Forall("x", "E", PX),
        Exists: Exists("x", "E", Not(PX)),
        Structure: TC.models[1],
        Classification: TC.classification,
        FormalConcept: LAT.lattice.concepts[0],
        ConceptLattice: LAT.lattice,
        Theory: Theory(SIG, frozenset({ALL_P})),
        ClosedTheory: LAT.theories[0],
        TruthClassification: TC,
        TheoryLattice: LAT,
        Interpretation: IM.interpretation,
        InfomorphismCheck: InfomorphismCheck(False, (1, "forall v0:E. P(v0)")),
        TruthInfomorphism: IM,
        ConceptMorphism: concept_morphism(IM, LAT, LAT),
        NavStep: NavStep("expand", 1, 0, add=(ALL_P,)),
    }


_SIG = "Signature(entity_types=('E',), relation_types=(('P', ('E',)),), constants=(('c', 'E'),))"
_PX = "Atom(rel='P', args=(Var(name='x', sort='E'),))"
_EQ = "Eq(left=Var(name='x', sort='E'), right=Const(name='c'))"
_ALL_P = "Forall(var='v0', sort='E', body=Atom(rel='P', args=(Var(name='v0', sort='E'),)))"
_SPACE = f"StructureSpace({_SIG}, (('E', ('a',)),))"
_CTX = "Classification(instances=range(0, 2), types=('forall v0:E. P(v0)',))"
_TC = f"TruthClassification(signature={_SIG}, models={_SPACE}, pool=({_ALL_P},), classification={_CTX})"
_LAT = f"TheoryLattice(tc={_TC}, lattice=ConceptLattice(classification={_CTX}))"
_ID = (
    f"Interpretation(source={_SIG}, target={_SIG}, ent=(('E', 'E'),), const=(('c', 'c'),), "
    "rel_formula=(('P', Atom(rel='P', args=(Var(name='x1', sort='E'),))),))"
)
_IM = (
    f"TruthInfomorphism(interpretation={_ID}, source={_TC}, target={_TC}, "
    "type_map=(('forall v0:E. P(v0)', 'forall v0:E. P(v0)'),), instance_map=(0, 1))"
)

# The repr of each instance, recorded byte for byte while the classes were
# still dataclasses.
REPRS = {
    Signature: _SIG,
    Var: "Var(name='x', sort='E')",
    Const: "Const(name='c')",
    Atom: _PX,
    Eq: _EQ,
    Not: f"Not(body={_PX})",
    And: f"And(left={_PX}, right={_EQ})",
    Or: f"Or(left={_PX}, right={_EQ})",
    Implies: f"Implies(left={_PX}, right={_EQ})",
    Iff: f"Iff(left={_PX}, right={_EQ})",
    Forall: f"Forall(var='x', sort='E', body={_PX})",
    Exists: f"Exists(var='x', sort='E', body=Not(body={_PX}))",
    Structure: (
        f"Structure(signature={_SIG}, carriers=(('E', ('a',)),), "
        "relations=(('P', frozenset({('a',)})),), constants=(('c', 'a'),))"
    ),
    Classification: _CTX,
    FormalConcept: "FormalConcept(extent=frozenset({1}), intent=frozenset({'forall v0:E. P(v0)'}))",
    ConceptLattice: f"ConceptLattice(classification={_CTX})",
    Theory: f"Theory(signature={_SIG}, axioms=frozenset({{{_ALL_P}}}))",
    ClosedTheory: f"ClosedTheory(signature={_SIG}, axioms=frozenset({{{_ALL_P}}}))",
    TruthClassification: _TC,
    TheoryLattice: _LAT,
    Interpretation: _ID,
    InfomorphismCheck: "InfomorphismCheck(ok=False, witness=(1, 'forall v0:E. P(v0)'))",
    TruthInfomorphism: _IM,
    ConceptMorphism: f"ConceptMorphism(infomorphism={_IM}, source={_LAT}, target={_LAT})",
    NavStep: f"NavStep(kind='expand', source=1, result=0, delete=(), add=({_ALL_P},), morphism=None)",
}


@pytest.mark.parametrize("cls", list(REPRS), ids=lambda cls: cls.__name__)
def test_repr_is_the_recorded_text(cls):
    value = _instances()[cls]
    assert type(value) is cls
    assert repr(value) == REPRS[cls]


@pytest.mark.parametrize("cls", list(REPRS), ids=lambda cls: cls.__name__)
def test_a_field_can_be_neither_assigned_nor_deleted(cls):
    value = _instances()[cls]
    field = REPRS[cls].split("(", 1)[1].split("=", 1)[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert repr(value) == before


@pytest.mark.parametrize(
    "left, right",
    [
        (And(PX, Eq(X, C)), Or(PX, Eq(X, C))),
        (Implies(PX, PX), Iff(PX, PX)),
        (Forall("x", "E", PX), Exists("x", "E", PX)),
        (Eq(X, C), And(X, C)),
    ],
    ids=["and-or", "implies-iff", "forall-exists", "eq-and"],
)
def test_nodes_of_different_classes_with_equal_fields_are_unequal(left, right):
    assert left != right and not left == right
    assert len({left, right}) == 2


def test_equal_values_built_apart_are_equal_and_hash_equal():
    for cls, value in _instances().items():
        again = _instances()[cls]
        assert again == value and hash(again) == hash(value) and not again != value


@pytest.mark.parametrize(
    "build",
    [
        lambda: Var("x"),
        lambda: Var("x", "E", "F"),
        lambda: Const(),
        lambda: And(PX),
        lambda: Not(PX, PX),
        lambda: Forall("x", "E"),
        lambda: Theory(SIG),
        lambda: Theory(SIG, frozenset(), None),
        lambda: Theory(SIG, frozenset(), signature=SIG),
        lambda: Theory(SIG, frozenset(), extra=1),
        lambda: ClosedTheory(SIG),
        lambda: FormalConcept(frozenset()),
        lambda: InfomorphismCheck(),
        lambda: NavStep("expand", 1),
        lambda: NavStep("expand", 1, 0, (), (), None, None),
        lambda: Signature((), (), (), ()),
        lambda: TheoryLattice(TC),
        lambda: TruthClassification(SIG, TC.models, TC.pool, TC.classification),
    ],
)
def test_a_wrong_argument_count_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_keyword_construction():
    assert Var(name="x", sort="E") == X
    assert Atom(rel="P", args=(X,)) == PX
    assert And(left=PX, right=Eq(left=X, right=C)) == And(PX, Eq(X, C))
    assert Exists(var="x", sort="E", body=Not(body=PX)) == Exists("x", "E", Not(PX))
    assert Signature(entity_types=("E",), constants=(("c", "E"),), relation_types=(("P", ("E",)),)) == SIG
    assert Theory(axioms=frozenset({ALL_P}), signature=SIG) == Theory(SIG, frozenset({ALL_P}))
    assert InfomorphismCheck(ok=True) == InfomorphismCheck(True, None)
    step = NavStep(kind="expand", source=1, result=0, add=(ALL_P,))
    assert step == NavStep("expand", 1, 0, (), (ALL_P,), None) and step.delete == ()
    model = TC.models[1]
    assert Structure(
        signature=SIG, carriers=model.carriers, relations=model.relations, constants=model.constants
    ) == model


def test_defaults_and_validation_run_as_the_constructor_is_called():
    assert Signature() == Signature((), (), ())
    assert InfomorphismCheck(False).witness is None
    with pytest.raises(ValueError, match="duplicate entity type"):
        Signature(("E", "E"))
    with pytest.raises(ValueError):
        Theory(SIG, frozenset({PX}))  # x is free


def test_a_hand_built_closed_theory_equals_the_lattice_view_with_its_axioms():
    for view in LAT.theories:
        hand = ClosedTheory(SIG, view.axioms)
        assert "axioms" in vars(hand) and hand == view and view == hand and hash(hand) == hash(view)
    # only instances of one class are equal
    top = LAT.theories[-1]
    assert Theory(SIG, top.axioms) != ClosedTheory(SIG, top.axioms)


def test_fields_left_out_of_equality_and_repr():
    lattice = LAT.lattice
    # the lookup space and its keys are left out
    nowhere = Classification.make([], [], [])
    other = ConceptLattice(lattice.classification, lattice._extents, lattice._intents, nowhere, ())
    assert other == lattice and hash(other) == hash(lattice)
    cm = concept_morphism(IM, LAT, LAT)
    assert ConceptMorphism(IM, LAT, LAT, (), ()) == cm
    assert repr(other) == REPRS[ConceptLattice]


def test_values_survive_pickling_and_copying():
    import copy
    import pickle

    for value in (ALL_P, Eq(X, C), Not(PX), Or(PX, PX), SIG, Theory(SIG, frozenset({ALL_P})), LAT.theories[0]):
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert again == value and hash(again) == hash(value)
