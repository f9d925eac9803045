"""Each input rule is written once, in a constructor; each file reader
checks only the shape of its lines, their order and repeated keys, and
reports a constructor's fault at the line it read the faulty part from."""

from __future__ import annotations

import pytest

from theorylattice import logic
from theorylattice.errors import ParseError, PoolMembershipError
from theorylattice.logic import Signature, Structure, parse_model, parse_sentences, parse_signature
from theorylattice.morph import parse_interpretation
from theorylattice.nav import apply_nav_script
from theorylattice.truth import build_truth_classification, theory_lattice

# ---------------------------------------------------------------------------
# Signatures


@pytest.mark.parametrize(
    "args, message",
    [
        ((("1x",),), "invalid entity type name '1x'"),
        ((("E",), (("1P", ("E",)),)), "invalid relation type name '1P'"),
        ((("E",), (), (("1c", "E"),)), "invalid constant name '1c'"),
        ((("E", "E"),), "duplicate entity type 'E'"),
        ((("E",), (("P", ("E",)), ("P", ("E",)))), "duplicate relation type 'P'"),
        ((("E",), (), (("c", "E"), ("c", "E"))), "duplicate constant 'c'"),
        ((("E",), (("R", ()),)), "relation type 'R' has an empty profile"),
        ((("E",), (("R", ("E", "F")),)), "relation type 'R' references undeclared entity type 'F'"),
        ((("E",), (), (("c", "F"),)), "constant 'c' references undeclared entity type 'F'"),
    ],
    ids=["entity-name", "relation-name", "constant-name", "entity-twice", "relation-twice",
         "constant-twice", "empty-profile", "relation-sort", "constant-sort"],
)
def test_signature_constructor_rule(args, message):
    with pytest.raises(ValueError) as exc:
        Signature(*args)
    assert type(exc.value) is ValueError and str(exc.value) == message


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("entity 1x", 1, "invalid entity type name '1x'"),
        ("entity E\nrelation 1P(E)", 2, "invalid relation type name '1P'"),
        ("entity E\nconstant 1c:E", 2, "invalid constant name '1c'"),
        ("entity E\n# comment\nentity E", 3, "duplicate entity type 'E'"),
        ("entity E\nrelation P(E)\nrelation P(E)", 3, "duplicate relation type 'P'"),
        ("entity E\nconstant c:E\nconstant c:E", 3, "duplicate constant 'c'"),
        ("entity E\nrelation R()", 2, "relation type 'R' has an empty profile"),
        ("entity E\nrelation R(E,F)", 2, "relation type 'R' references undeclared entity type 'F'"),
        ("entity E\nconstant c:F", 2, "constant 'c' references undeclared entity type 'F'"),
        # file order: a sort is declared above the line that uses it
        ("relation R(E)\nentity E", 1, "relation type 'R' references undeclared entity type 'E'"),
        ("constant c:E\nentity E", 1, "constant 'c' references undeclared entity type 'E'"),
        ("entity E\nnonsense", 2, "unrecognized declaration: 'nonsense'"),
    ],
    ids=["entity-name", "relation-name", "constant-name", "entity-twice", "relation-twice",
         "constant-twice", "empty-profile", "relation-sort", "constant-sort", "relation-order",
         "constant-order", "line"],
)
def test_signature_file_fault_located(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_signature(text, path="s.sig")
    assert str(exc.value) == f"s.sig:{line}: {message}"


# ---------------------------------------------------------------------------
# Structures

SIG = Signature(("E", "F"), (("P", ("E",)), ("R", ("E", "F"))), (("c", "E"),))
CARRIERS = (("E", ("a", "b")), ("F", ("x",)))
RELATIONS = (("P", frozenset()), ("R", frozenset()))
CONSTANTS = (("c", "a"),)


@pytest.mark.parametrize(
    "carriers, relations, constants, node, message",
    [
        (CARRIERS + (("G", ("a",)),), RELATIONS, CONSTANTS, ("entity", "G"),
         "carrier for undeclared entity type 'G'"),
        ((("E", ()), ("F", ("x",))), RELATIONS, CONSTANTS, ("entity", "E"), "carrier of 'E' is empty"),
        ((("E", ("a", "a")), ("F", ("x",))), RELATIONS, CONSTANTS, ("entity", "E"),
         "carrier of 'E' has duplicate elements"),
        (CARRIERS[:1], RELATIONS, CONSTANTS, None, "missing carrier for entity type 'F'"),
        (CARRIERS[::-1], RELATIONS, CONSTANTS, None,
         "carriers must list every entity type in declaration order"),
        (CARRIERS, RELATIONS[::-1], CONSTANTS, None,
         "relations must list every relation type in declaration order"),
        (CARRIERS, (("P", frozenset({("a", "b")})), RELATIONS[1]), CONSTANTS, ("relation", "P"),
         "tuple ('a', 'b') has wrong arity for relation 'P'"),
        (CARRIERS, (RELATIONS[0], ("R", frozenset({("a", "y")}))), CONSTANTS, ("relation", "R"),
         "tuple ('a', 'y') of relation 'R' leaves the carrier of 'F'"),
        (CARRIERS, RELATIONS, (("c", "x"),), ("constant", "c"), "constant 'c' denotes 'x' outside its carrier"),
        (CARRIERS, RELATIONS, (), None, "missing denotations for constants ['c']"),
        (CARRIERS, RELATIONS, CONSTANTS * 2, None, "constants must list every constant in declaration order"),
    ],
    ids=["carrier-sort", "carrier-empty", "carrier-repeats", "carrier-missing", "carrier-order",
         "relation-order", "arity", "tuple-carrier", "constant-carrier", "constant-missing", "constant-order"],
)
def test_structure_constructor_rule(carriers, relations, constants, node, message):
    """Each rule, and the part at fault that a reader locates by its node."""
    with pytest.raises(ValueError) as exc:
        Structure(SIG, carriers, relations, constants)
    assert type(exc.value) is ValueError and str(exc.value) == message
    assert getattr(exc.value, "node", None) == node


@pytest.mark.parametrize(
    "relations, constants, message",
    [
        ({"S": []}, {"c": "a"}, "extension for undeclared relation 'S'"),
        ({}, {"c": "a", "k": "a"}, "denotation for undeclared constant 'k'"),
    ],
    ids=["relation", "constant"],
)
def test_make_refuses_undeclared_names(relations, constants, message):
    with pytest.raises(ValueError) as exc:
        Structure.make(SIG, dict(CARRIERS), relations, constants)
    assert str(exc.value) == message


def test_make_checks_the_carriers_once(monkeypatch):
    calls = []
    real = logic.validate_carriers
    monkeypatch.setattr(logic, "validate_carriers", lambda *a: calls.append(a) or real(*a))
    built = Structure.make(SIG, {"F": ["x"], "E": ["a", "b"]}, {}, {"c": "a"})
    assert len(calls) == 1
    assert built == Structure(SIG, CARRIERS, RELATIONS, CONSTANTS)


# ---------------------------------------------------------------------------
# Model and map files: the constructor's fault at the line of the part at fault

MODEL_SIG = parse_signature("entity E\nentity F\nrelation P(E)\nrelation R(E,F)\nconstant c:E\nconstant d:F")
MAP_SRC = parse_signature("entity E\nrelation R(E,E)\nrelation S(E)\nconstant c:E")
MAP_DST = parse_signature("entity E\nentity F\nrelation P(E)\nrelation Q(E,E)\nconstant d:F\nconstant e:E")
UNIVERSES = "universe E = {a, b}\nuniverse F = {x}\n"
DENOTATIONS = "c = a\nd = x\n"


def read(kind: str, text: str):
    if kind == "model":
        return parse_model(MODEL_SIG, text, path="m.model")
    return parse_interpretation(MAP_SRC, MAP_DST, text, path="h.map")


@pytest.mark.parametrize(
    "kind, text, line, message",
    [
        ("model", UNIVERSES + "P = {(a,b)}\n" + DENOTATIONS, 3,
         "tuple ('a', 'b') has wrong arity for relation 'P'"),
        ("model", UNIVERSES + "P = {a}\nR = {a}\n" + DENOTATIONS, 4,
         "tuple ('a',) has wrong arity for relation 'R'"),
        ("model", UNIVERSES + "P = {z}\n" + DENOTATIONS, 3,
         "tuple ('z',) of relation 'P' leaves the carrier of 'E'"),
        ("model", "R = {(a,a)}\n" + UNIVERSES + DENOTATIONS, 1,
         "tuple ('a', 'a') of relation 'R' leaves the carrier of 'F'"),
        ("model", "universe E = {a, a}\nuniverse F = {x}\n" + DENOTATIONS, 1,
         "carrier of 'E' has duplicate elements"),
        ("model", "universe E = {a}\nuniverse F = {}\n" + DENOTATIONS, 2, "carrier of 'F' is empty"),
        ("model", UNIVERSES + "universe G = {a}\n" + DENOTATIONS, 3, "carrier for undeclared entity type 'G'"),
        ("model", UNIVERSES + "c = a\n# comment\nd = y\n", 5, "constant 'd' denotes 'y' outside its carrier"),
        ("map", "entity E -> E\nrelation R(x1,x2) -> P(x1)\nrelation S(x1) -> P(x1)\nconstant c -> e\n", 2,
         "formula for relation 'R' must use exactly ['x1', 'x2'] free: missing ['x2']"),
        ("map", "entity E -> E\nrelation R -> Q\nrelation S -> P\nconstant c -> d\n", 4,
         "constant 'c' of sort 'E' maps to 'd' of sort 'F', expected 'E'"),
        ("map", "constant c -> d\nentity E -> E\nrelation R -> Q\nrelation S -> P\n", 1,
         "constant 'c' of sort 'E' maps to 'd' of sort 'F', expected 'E'"),
    ],
    ids=["arity", "arity-unary-shorthand", "tuple-carrier", "tuple-before-universe", "carrier-repeats",
         "carrier-empty", "carrier-sort", "constant-carrier", "unused-reserved-variable",
         "constant-sort", "constant-sort-before-entity"],
)
def test_reader_fault_located(kind, text, line, message):
    with pytest.raises(ParseError) as exc:
        read(kind, text)
    path = "m.model" if kind == "model" else "h.map"
    assert str(exc.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("model", "universe E = {a}\n" + DENOTATIONS, "missing carrier for entity type 'F'"),
        ("model", UNIVERSES + "c = a\n", "missing denotations for constants ['d']"),
        ("map", "relation R -> Q\nrelation S -> P\nconstant c -> e\n", "missing mapping for entity type 'E'"),
        ("map", "entity E -> E\nrelation R -> Q\nrelation S -> P\n", "missing mapping for constant 'c'"),
        ("map", "entity E -> E\nrelation R -> Q\nconstant c -> e\n",
         "missing interpreting formula for relation 'S'"),
    ],
    ids=["carrier", "denotation", "entity-mapping", "constant-mapping", "relation-mapping"],
)
def test_what_only_the_whole_file_shows_has_no_line(kind, text, message):
    with pytest.raises(ParseError) as exc:
        read(kind, text)
    path = "m.model" if kind == "model" else "h.map"
    assert (exc.value.path, exc.value.line, str(exc.value)) == (path, None, f"{path}: {message}")


# ---------------------------------------------------------------------------
# Navigation scripts: only the reading of a line is located


@pytest.fixture(scope="module")
def pq_lattice():
    sig = parse_signature("entity E\nrelation P(E)\nrelation Q(E)")
    pool = parse_sentences(sig, "forall x:E. P(x)\nexists x:E. Q(x)")
    return sig, theory_lattice(build_truth_classification(sig, pool, carriers={"E": ["a", "b"]}))


def test_nav_map_file_fault_keeps_its_own_location(pq_lattice):
    sig, lat = pq_lattice

    def load(path):
        return parse_interpretation(sig, sig, "entity E -> E\nrelation P -> Q\nrelation Q -> R\n", path=path)

    with pytest.raises(ParseError) as exc:
        apply_nav_script(lat, lat.top, "expand forall x:E. P(x)\nanalogy swap.map\n", load_morphism=load,
                         path="s.nav")
    assert str(exc.value) == "swap.map:3: relation 'Q' maps to undeclared 'R'"


def test_nav_move_error_passes_through(pq_lattice):
    _, lat = pq_lattice
    with pytest.raises(PoolMembershipError):
        apply_nav_script(lat, lat.top, "contract forall x:E. P(x)\nexpand forall x:E. Q(x)\n", path="s.nav")


@pytest.mark.parametrize(
    "script, line, message",
    [
        ("contract forall x:E. P(x)\nfly\n", 2, "unknown navigation step 'fly'"),
        ("# start\nrevise forall x:E. P(x)\n", 2,
         "revise needs 'DELETIONS ; ADDITIONS' (either side may be empty)"),
        ("analogy swap.map\n", 1, "analogy steps are not available here (no morphism loader)"),
    ],
    ids=["step", "revise", "no-loader"],
)
def test_nav_line_fault_located(pq_lattice, script, line, message):
    _, lat = pq_lattice
    with pytest.raises(ParseError) as exc:
        apply_nav_script(lat, lat.top, script, path="s.nav")
    assert str(exc.value) == f"s.nav:{line}: {message}"
