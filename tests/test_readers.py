"""Each input rule is written once, in a constructor; each file reader
checks only the shape of its lines, their order and repeated keys, and
reports a constructor's fault at the line it read the faulty part from.
On any text made of a format's tokens a reader raises only ``ParseError``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from theorylattice import logic
from theorylattice.cli import main, parse_carrier_spec
from theorylattice.errors import ParseError, PoolMembershipError
from theorylattice.fca import read_cxt, write_cxt
from theorylattice.logic import (
    Signature, Structure, format_structure, parse_model, parse_sentences, parse_signature, validate_carriers,
)
from theorylattice.morph import parse_interpretation
from theorylattice.nav import apply_nav_script, parse_nav_script
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
# Model, map and cxt files: the constructor's fault at the line of the part at fault

MODEL_SIG = parse_signature("entity E\nentity F\nrelation P(E)\nrelation R(E,F)\nconstant c:E\nconstant d:F")
MAP_SRC = parse_signature("entity E\nrelation R(E,E)\nrelation S(E)\nconstant c:E")
MAP_DST = parse_signature("entity E\nentity F\nrelation P(E)\nrelation Q(E,E)\nconstant d:F\nconstant e:E")
UNIVERSES = "universe E = {a, b}\nuniverse F = {x}\n"
DENOTATIONS = "c = a\nd = x\n"
PATHS = {"model": "m.model", "map": "h.map", "cxt": "c.cxt"}
# a count is a run of ASCII digits, and nothing follows the last row
CXT_FAULTS = [
    ("B\n\n-1\n2\na\nb\nc\n", 3, "expected object and attribute counts"),
    ("B\n\n1\n1\na\nt\nX\nX\n", 8, "unexpected line after the last row"),
]


def read(kind: str, text: str):
    if kind == "model":
        return parse_model(MODEL_SIG, text, path=PATHS[kind])
    if kind == "cxt":
        return read_cxt(text, path=PATHS[kind])
    return parse_interpretation(MAP_SRC, MAP_DST, text, path=PATHS[kind])


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
        *(("cxt", *fault) for fault in CXT_FAULTS),
    ],
    ids=["arity", "arity-unary-shorthand", "tuple-carrier", "tuple-before-universe", "carrier-repeats",
         "carrier-empty", "carrier-sort", "constant-carrier", "unused-reserved-variable",
         "constant-sort", "constant-sort-before-entity", "cxt-negative-count", "cxt-trailing-row"],
)
def test_reader_fault_located(kind, text, line, message):
    with pytest.raises(ParseError) as exc:
        read(kind, text)
    assert str(exc.value) == f"{PATHS[kind]}:{line}: {message}"


@pytest.mark.parametrize("text, line, message", CXT_FAULTS, ids=["negative-count", "trailing-row"])
def test_ctx_concepts_exits_2_on_a_cxt_fault(tmp_path, capsys, text, line, message):
    path = tmp_path / "c.cxt"
    path.write_text(text, encoding="utf-8")
    assert main(["ctx", "concepts", "--cxt", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:{line}: {message}\n")


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("model", "universe E = {a}\n" + DENOTATIONS, "missing carrier for entity type 'F'"),
        ("model", UNIVERSES + "c = a\n", "missing denotations for constants ['d']"),
        ("map", "relation R -> Q\nrelation S -> P\nconstant c -> e\n", "missing mapping for entity type 'E'"),
        ("map", "entity E -> E\nrelation R -> Q\nrelation S -> P\n", "missing mapping for constant 'c'"),
        ("map", "entity E -> E\nrelation R -> Q\nconstant c -> e\n",
         "missing mapping for relation 'S'"),
    ],
    ids=["carrier", "denotation", "entity-mapping", "constant-mapping", "relation-mapping"],
)
def test_what_only_the_whole_file_shows_has_no_line(kind, text, message):
    with pytest.raises(ParseError) as exc:
        read(kind, text)
    path = PATHS[kind]
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


# ---------------------------------------------------------------------------
# Fuzz: a valid file with lines dropped and loose tokens of its format put in
# anywhere.  Only a ParseError escapes a reader (and the constructor's
# ValueError a carrier spec), and where a printer exists, what was read prints
# and reads back alike.


@st.composite
def mutants(draw, texts, tokens: tuple[str, ...]) -> str:
    """A text drawn from ``texts`` with up to two of its lines dropped and up
    to three ``tokens`` put in anywhere."""
    lines = draw(texts).splitlines()
    for _ in range(draw(st.integers(0, min(2, len(lines))))):
        del lines[draw(st.integers(0, len(lines) - 1))]
    text = "".join(line + "\n" for line in lines)
    for token in draw(st.lists(st.sampled_from(tokens), max_size=3)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + token + text[at:]
    return text


def arranged(lines: tuple[str, ...]):
    """The lines of a valid file as given, or in any order."""
    return st.one_of(st.just(lines), st.permutations(lines)).map("\n".join)


def read_or_none(read, path: str):
    """``read()``'s value, or None when it raises a ParseError naming ``path``."""
    try:
        return read()
    except ParseError as exc:
        assert exc.path == path
        return None


SIG_LINES = ("entity E", "entity F", "relation P(E)", "relation R(E,F)", "constant c:E", "# comment")
SIG_TOKENS = ("entity", "relation", "constant", "E", "F", "1x", "(", ")", ",", ":", "#", " ", "\n")


@settings(max_examples=100, deadline=None)
@given(mutants(arranged(SIG_LINES), SIG_TOKENS))
def test_signature_reader_fuzz(text):
    read_or_none(lambda: parse_signature(text, path="s.sig"), "s.sig")


MODEL_LINES = ("universe E = {a, b}", "universe F = {x}", "P = {a}", "R = {(a,x), (b,x)}", "c = a", "d = x")
MODEL_TOKENS = ("universe", "E", "G", "R", "S", "c", "a", "x", "=", "{", "}", "(", ")", ",", "#", " ", "\n")


@settings(max_examples=100, deadline=None)
@given(mutants(arranged(MODEL_LINES), MODEL_TOKENS))
def test_model_reader_fuzz(text):
    model = read_or_none(lambda: parse_model(MODEL_SIG, text, path="m.model"), "m.model")
    assert model is None or parse_model(MODEL_SIG, format_structure(model)) == model


MAP_LINES = ("entity E -> E", "relation R(x1,x2) -> Q(x2,x1) | x1 = e", "relation S -> P", "constant c -> e")
MAP_TOKENS = ("entity", "relation", "->", "R", "Q", "F", "d", "x1", "x2", "(", ")", ",", "&", "~",
              "exists y:E.", "#", " ", "\n")


@settings(max_examples=100, deadline=None)
@given(mutants(arranged(MAP_LINES), MAP_TOKENS))
def test_map_reader_fuzz(text):
    read_or_none(lambda: parse_interpretation(MAP_SRC, MAP_DST, text, path="h.map"), "h.map")


NAV_LINES = ("expand forall x:E. P(x), exists x:E. Q(x)", "contract forall x:E. P(x)",
             "revise forall x:E. P(x) ; exists x:E. Q(x)", "analogy swap.map", "# comment")
NAV_TOKENS = ("contract", "expand", "analogy", "fly", ";", ",", "#", " ", "\n")


@settings(max_examples=50, deadline=None)
@given(mutants(arranged(NAV_LINES), NAV_TOKENS))
def test_nav_script_reader_fuzz(text):
    read_or_none(lambda: parse_nav_script(text, path="s.nav"), "s.nav")


@st.composite
def cxt_texts(draw) -> str:
    objs = draw(st.lists(st.sampled_from(("o", "p", "1")), unique=True, max_size=3))
    atts = draw(st.lists(st.sampled_from(("a", "b", "2")), unique=True, max_size=3))
    rows = ["".join(draw(st.sampled_from("X.")) for _ in atts) for _ in objs]
    return "\n".join(["B", draw(st.sampled_from(("", "demo"))), str(len(objs)), str(len(atts)), "",
                      *objs, *atts, *rows])


CXT_TOKENS = ("B", "1", "-", "+", "_", "o", "a", "X", ".", " ", "\n")


@settings(max_examples=150, deadline=None)
@given(mutants(cxt_texts(), CXT_TOKENS))
def test_cxt_reader_fuzz(text):
    ctx = read_or_none(lambda: read_cxt(text, path="c.cxt"), "c.cxt")
    assert ctx is None or read_cxt(write_cxt(ctx)) == ctx


CARRIER_TOKENS = ("E", "F", "G", "=", ",", ";", "a", " ")


@settings(max_examples=100, deadline=None)
@given(st.lists(mutants(st.sampled_from(("E=a,b", "F=x", "E=a;F=x,y")), CARRIER_TOKENS), max_size=3))
def test_carrier_spec_fuzz(specs):
    try:
        validate_carriers(MODEL_SIG, parse_carrier_spec(specs))
    except ValueError:
        pass
