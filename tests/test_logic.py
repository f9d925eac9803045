"""Signatures, parsing, satisfaction, and bounded model enumeration."""

from __future__ import annotations

import copy
import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from theorylattice import logic
from theorylattice.errors import ParseError, SignatureMismatchError, SizeCapError
from theorylattice.logic import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Iff,
    MAX_FORMULA_DEPTH,
    Implies,
    Not,
    Or,
    Signature,
    Structure,
    StructureSpace,
    Var,
    _depth,
    canonicalize,
    count_structures,
    enumerate_structures,
    eval_formula,
    format_formula,
    format_structure,
    free_vars,
    parse_formula,
    parse_model,
    parse_sentence,
    parse_sentences,
    parse_signature,
    satisfies,
    sentence_key,
    substitute,
    validate_formula,
)
from theorylattice.morph import make_interpretation, reduct, translate
from theorylattice.truth import TruthClassification

from oracles import _random_formula, oracle_satisfies, random_sentence

SIG = parse_signature("entity E\nrelation P(E)\nrelation Q(E)")
MODELS = enumerate_structures(SIG, {"E": ["a", "b"]})
# P and Q with a constant, for printing and syntax errors.
PQC_SIG = parse_signature("entity E\nrelation P(E)\nrelation Q(E)\nconstant c:E")
# Constants named like canonical bound variables.
V_SIG = parse_signature("entity E\nrelation P(E)\nrelation R(E,E)\nconstant v0:E\nconstant v1:E\n")


def sent(text: str):
    return parse_sentence(SIG, text)


def pq_model(p=(), q=()):
    return Structure.make(
        SIG, {"E": ["a", "b"]}, {"P": [(e,) for e in p], "Q": [(e,) for e in q]}, {}
    )


# ---------------------------------------------------------------------------
# Signatures


class TestParseSignature:
    def test_declaration_order_preserved(self):
        assert SIG.entity_types == ("E",)
        assert SIG.relation_types == (("P", ("E",)), ("Q", ("E",)))
        assert SIG.constants == ()

    def test_constants_and_profiles(self):
        sig = parse_signature(
            "entity A\nentity B\nrelation R(A, B)\nconstant c : A\n# trailing comment"
        )
        assert sig.profile("R") == ("A", "B")
        assert sig.constant_sort("c") == "A"

    def test_duplicate_name_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_signature("entity E\nrelation P(E)\nrelation P(E)")

    def test_undeclared_sort_rejected(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_signature("entity E\nrelation R(E,F)")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_signature("entity E\nnonsense here", path="x.sig")
        assert "x.sig:2:" in str(exc.value)

    def test_keyword_names_rejected(self):
        with pytest.raises(ParseError):
            parse_signature("entity forall")


# ---------------------------------------------------------------------------
# Sentence grammar


class TestParseSentence:
    def test_quantifier_body_extends_maximally(self):
        f = sent("forall x:E. P(x) -> Q(x)")
        assert isinstance(f, Forall) and isinstance(f.body, Implies)

    def test_free_variable_rejected(self):
        with pytest.raises(ParseError, match="free variable"):
            sent("P(x)")

    def test_shadowing_inner_binder_wins(self):
        f = sent("forall x:E. forall x:E. P(x)")
        assert isinstance(f, Forall) and isinstance(f.body, Forall)
        assert f.var != f.body.var
        inner = f.body.body
        assert inner == Atom("P", (Var(f.body.var, "E"),))

    def test_alpha_equivalent_sentences_are_equal(self):
        assert sent("forall x:E. P(x)") == sent("forall y:E. P(y)")
        assert hash(sent("exists a:E. Q(a)")) == hash(sent("exists b:E. Q(b)"))

    def test_precedence_ladder(self):
        f = parse_formula(SIG, "~P(x) & Q(x) | P(x)", {"x": "E"})
        assert isinstance(f, Or) and isinstance(f.left, And) and isinstance(f.left.left, Not)
        g = parse_formula(SIG, "P(x) -> Q(x) -> P(x)", {"x": "E"})
        assert isinstance(g, Implies) and isinstance(g.right, Implies)
        h = parse_formula(SIG, "P(x) <-> Q(x) -> P(x)", {"x": "E"})
        assert isinstance(h, Iff) and isinstance(h.right, Implies)
        k = parse_formula(SIG, "P(x) | Q(x) & P(x)", {"x": "E"})
        assert isinstance(k, Or) and isinstance(k.right, And)

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("P(c) -> (Q(c) -> P(c))", "P(c) -> Q(c) -> P(c)"),
            ("(P(c) -> Q(c)) -> P(c)", "(P(c) -> Q(c)) -> P(c)"),
            ("P(c) <-> (Q(c) <-> P(c))", "P(c) <-> Q(c) <-> P(c)"),
            ("(P(c) <-> Q(c)) <-> P(c)", "(P(c) <-> Q(c)) <-> P(c)"),
            ("(P(c) | Q(c)) | P(c)", "P(c) | Q(c) | P(c)"),
            ("P(c) | (Q(c) | P(c))", "P(c) | (Q(c) | P(c))"),
            ("(P(c) & Q(c)) & P(c)", "P(c) & Q(c) & P(c)"),
            ("P(c) & (Q(c) & P(c))", "P(c) & (Q(c) & P(c))"),
            ("(P(c) -> Q(c)) <-> (Q(c) | ~P(c))", "P(c) -> Q(c) <-> Q(c) | ~P(c)"),
        ],
    )
    def test_printer_parenthesizes_only_against_the_grouping(self, text, printed):
        assert format_formula(parse_sentence(PQC_SIG, text)) == printed

    @pytest.mark.parametrize(
        "text, message",
        [
            ("forall x:E.\nP(x) $ Q(x)", "2: unexpected character '$'"),
            ("P(c) &", "1: expected a formula, found end of input"),
            ("", "1: expected a formula, found end of input"),
            ("forall x:", "1: expected an entity type name, found end of input"),
            ("c = ", "1: expected a term, found end of input"),
            ("P(c) -> -> Q(c)", "1: expected a relation application or a term, found '->'"),
        ],
        ids=["character", "dangling-connective", "empty", "sort", "term", "doubled-connective"],
    )
    def test_syntax_error_message(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_sentence(PQC_SIG, text)
        assert str(exc.value) == message

    def test_conjunction_left_associative(self):
        f = parse_formula(SIG, "P(x) & Q(x) & P(x)", {"x": "E"})
        assert isinstance(f, And) and isinstance(f.left, And)

    def test_parenthesized_quantifier_operand(self):
        f = sent("(forall x:E. P(x)) -> (forall x:E. Q(x))")
        assert isinstance(f, Implies)

    def test_equality_needs_same_sort(self):
        sig = parse_signature("entity A\nentity B\nconstant a : A\nconstant b : B")
        with pytest.raises(ParseError, match="different sorts"):
            parse_sentence(sig, "a = b")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError, match="expects 1 arguments"):
            parse_formula(SIG, "P(x, x)", {"x": "E"})

    def test_unknown_constant_rejected(self):
        with pytest.raises(ParseError, match="unknown constant"):
            sent("forall x:E. P(c)")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("forall x:E.\nP(x,x) &\nP(x)", "2: relation 'P' expects 1 arguments, got 2"),
            ("forall x:E.\nP(x) &\nP(x,x)", "3: relation 'P' expects 1 arguments, got 2"),
            ("forall x:G.\nP(x)", "1: quantifier over undeclared entity type 'G'"),
            (
                "forall x:E.\n\nx = c &\nexists y:F.\nS(y,y)",
                "5: argument 1 of 'S' has sort 'F', expected 'E'",
            ),
        ],
        ids=["arity", "arity-last", "quantifier-sort", "argument-sort"],
    )
    def test_type_fault_is_reported_at_the_line_of_its_node(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_sentence(SOUP_SIG, text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text",
        [
            "~" * 3000 + "forall x:E. P(x)",
            "(" * 3000 + "forall x:E. P(x)" + ")" * 3000,
            "forall x:E. " + " & ".join(["P(x)"] * 3000),
            " -> ".join(["(forall x:E. P(x))"] * 3000),
            "forall x:E. " * 3000 + "P(x)",
            "~" * 99 + "forall x:E. P(x)",
        ],
    )
    def test_nesting_past_the_limit_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse_sentence(SIG, text)

    @pytest.mark.parametrize(
        "text",
        [
            "~" * 98 + "forall x:E. P(x)",
            "(" * 98 + "forall x:E. P(x)" + ")" * 98,
            "forall x:E. " + " & ".join(["P(x)"] * 99),
            "forall x:E. " + " | ".join(["P(x)"] * 99),
            " -> ".join(["(forall x:E. P(x))"] * 99),
            " <-> ".join(["(forall x:E. P(x))"] * 99),
        ],
    )
    def test_nesting_at_the_limit_parses_and_prints(self, text):
        sentence = parse_sentence(SIG, text)
        assert parse_sentence(SIG, format_formula(sentence)) == sentence

    def test_canonical_names_skip_free_variables(self):
        f = parse_formula(SIG, "forall y:E. P(y) & Q(v0)", {"v0": "E"})
        assert isinstance(f, Forall) and f.var == "v1"
        assert free_vars(f) == {"v0": "E"}

    def test_canonical_names_skip_constants(self):
        # v0 as the bound name would print as R(v0,v0), a different sentence
        f = parse_sentence(V_SIG, "forall x:E. R(x, v0)")
        assert f == Forall("v1", "E", Atom("R", (Var("v1", "E"), Const("v0"))))
        assert sentence_key(f) == "forall v1:E. R(v1,v0)"
        assert parse_sentence(V_SIG, sentence_key(f)) == f



def _interpretation():
    """SIG into itself: P(x1) as exists y. Q(x1) & P(y), Q(x1) as ~P(x1)."""
    return make_interpretation(SIG, SIG, {"E": "E"}, {}, {
        "P": parse_formula(SIG, "exists y:E. Q(x1) & P(y)", {"x1": "E"}),
        "Q": parse_formula(SIG, "~P(x1)", {"x1": "E"}),
    })


def test_canonicalize_and_free_vars_leave_no_cyclic_garbage():
    f = sent("forall x:E. exists y:E. P(x) & Q(y) | x = y")
    opened = parse_formula(SIG, "exists y:E. P(x) & ~Q(y)", {"x": "E"})
    h = _interpretation()
    tc = TruthClassification(SIG, MODELS, ())
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            canonicalize(f)
            free_vars(f)
            validate_formula(SIG, f)
            substitute(opened, {"x": Var(opened.var, "E")})
            translate(h, f)
            format_formula(f)
            satisfies(MODELS[5], f)
            tc._column(f)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_walkers_take_a_formula_of_the_maximum_depth():
    x = Var("x", "E")
    wraps = (
        Not,
        lambda g: And(Atom("P", (x,)), g),
        lambda g: Forall("x", "E", g),
        lambda g: Or(g, Atom("Q", (x,))),
        lambda g: Exists("x", "E", g),
        lambda g: Implies(Atom("P", (x,)), g),
        lambda g: Iff(g, Eq(x, x)),
    )

    def deep(leaf):
        f = leaf
        for k in range(MAX_FORMULA_DEPTH - 2):
            f = wraps[k % len(wraps)](f)
        return Forall("x", "E", f)

    sentence = deep(Atom("Q", (x,)))
    opened = deep(Eq(x, Var("y", "E")))  # y free at the bottom, under every binder of x
    assert _depth(sentence) == _depth(opened) == MAX_FORMULA_DEPTH
    canonical = canonicalize(sentence)
    assert parse_sentence(SIG, format_formula(sentence)) == canonical
    assert free_vars(sentence) == {} and free_vars(opened) == {"y": "E"}
    validate_formula(SIG, sentence)
    validate_formula(SIG, opened, {"y": "E"})
    moved = substitute(opened, {"y": x})  # captured at every binder unless renamed
    h = _interpretation()
    translated = translate(h, sentence)
    for m in MODELS[::3]:
        assert eval_formula(m, moved, {"x": "a"}) == eval_formula(m, opened, {"y": "a"})
        assert satisfies(m, sentence) == satisfies(m, canonical)
        assert satisfies(m, translated) == satisfies(reduct(h, m), sentence)


# Binders of ``_random_formula`` over free x, y are named q2, q3, ...
SUB_SIG = parse_signature("entity E\nrelation P(E)\nrelation R(E,E)\nconstant c:E")
SUB_MODELS = enumerate_structures(SUB_SIG, {"E": ["a", "b"]})


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, len(SUB_MODELS) - 1),
    st.sampled_from("ab"),
    st.sampled_from("ab"),
)
def test_substitute_agrees_with_evaluation(seed, index, a, b):
    rng = random.Random(seed)
    f = _random_formula(rng, SUB_SIG, {"x": "E", "y": "E"}, rng.randint(1, 4), equality=True)
    m, env = SUB_MODELS[index], {"x": a, "y": b}
    expect = eval_formula(m, f, env)
    by_constant = substitute(f, {"x": Const("c")})
    assert eval_formula(m, by_constant, env) == eval_formula(m, f, {**env, "x": m.constant("c")})
    # q2 is captured unless its binder is renamed, and w0 unless the new name avoids it
    captured = substitute(f, {"x": Var("q2", "E"), "y": Var("w0", "E")})
    assert eval_formula(m, captured, {"q2": a, "w0": b}) == expect
    swapped = substitute(f, {"x": Var("y", "E"), "y": Var("x", "E")})
    assert eval_formula(m, swapped, {"x": b, "y": a}) == expect


@given(st.integers(0, 2**32 - 1))
def test_print_parse_is_a_fixed_point_of_canonical_sentences_with_constants(seed):
    rng = random.Random(seed)
    sentence = canonicalize(random_sentence(rng, V_SIG, depth=rng.randint(1, 4), equality=True))
    back = parse_sentence(V_SIG, sentence_key(sentence))
    assert back == sentence
    assert canonicalize(back) == back


# ---------------------------------------------------------------------------
# Printing round-trips


FIXTURE_TEXTS = (
    "forall x:E. P(x)",
    "forall x:E. Q(x)",
    "exists x:E. P(x)",
    "forall x:E. P(x) -> Q(x)",
    "forall x:E. x = x",
    "exists x:E. ~(P(x) <-> Q(x))",
    "(forall x:E. P(x)) -> (exists y:E. Q(y))",
    "forall x:E. forall y:E. P(x) & Q(y) | x = y",
)


@pytest.mark.parametrize("text", FIXTURE_TEXTS)
def test_canonicalize_returns_a_canonical_sentence_itself(text):
    s = sent(text)
    assert canonicalize(s) is s
    assert substitute(s, {"x": Var("y", "E")}) is s


@pytest.mark.parametrize("text", FIXTURE_TEXTS)
def test_print_parse_roundtrip(text):
    f = sent(text)
    assert parse_sentence(SIG, format_formula(f)) == f


def _formulas(depth: int = 3):
    """Sentences over P, Q and equality, their bound variables named
    z0, z1, ... by depth, as built: not canonicalized."""
    vars_of = lambda env: st.sampled_from(env)

    def formulas(env, d):
        quant_var = Var(f"z{len(env)}", "E")
        quantified = st.one_of(
            st.builds(lambda b: Forall(quant_var.name, "E", b), st.deferred(lambda: formulas(env + (quant_var,), d - 1))),
            st.builds(lambda b: Exists(quant_var.name, "E", b), st.deferred(lambda: formulas(env + (quant_var,), d - 1))),
        )
        if not env:
            return quantified
        leaf = st.one_of(
            st.builds(lambda r, v: Atom(r, (v,)), st.sampled_from(("P", "Q")), vars_of(env)),
            st.builds(Eq, vars_of(env), vars_of(env)),
        )
        if d <= 0:
            return leaf
        sub = st.deferred(lambda: formulas(env, d - 1))
        return st.one_of(
            leaf,
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
            quantified,
        )

    return formulas((), depth)


def _sentences(depth: int = 3):
    return _formulas(depth).map(canonicalize)


# Token soup over two sorts, a constant and relations of arity 1 and 2: a
# quantifier prefix binding x and y at any sort (G is undeclared), a chain
# of atoms, and loose tokens dropped in anywhere.
SOUP_SIG = parse_signature("entity E\nentity F\nrelation P(E)\nrelation S(E,F)\nconstant c:E")
SOUP_ATOMS = ("P(x)", "P(y)", "P(c)", "P(x,y)", "S(x,y)", "S(y,x)", "S(c,y)",
              "x = c", "x = y", "(~P(c) | S(x,y))")
SOUP_TOKENS = ("x", "y", "c", "P", "S", "E", "F", "G", "forall", "exists",
               "~", "&", "|", "->", "<->", "=", ".", ":", ",", "(", ")")


@st.composite
def _token_soups(draw):
    words = [
        f"{draw(st.sampled_from(('forall', 'exists')))} {var}:{draw(st.sampled_from('EFG'))}."
        for var in draw(st.permutations("xy"))
    ]
    words.append(draw(st.sampled_from(SOUP_ATOMS)))
    for _ in range(draw(st.integers(0, 2))):
        words += [draw(st.sampled_from(("&", "|", "->", "<->"))), draw(st.sampled_from(SOUP_ATOMS))]
    for token in draw(st.lists(st.sampled_from(SOUP_TOKENS), max_size=3)):
        words.insert(draw(st.integers(0, len(words))), token)
    return " ".join(words)


@settings(max_examples=300)
@given(_token_soups())
def test_parser_returns_only_well_typed_sentences(text):
    try:
        sentence = parse_sentence(SOUP_SIG, text)
    except ParseError:
        with pytest.raises(ParseError) as exc:
            parse_sentences(SOUP_SIG, "P(c)\n" + text, path="soup.pool")
        assert str(exc.value).startswith("soup.pool:2: ")
        return
    validate_formula(SOUP_SIG, sentence)
    assert parse_sentence(SOUP_SIG, format_formula(sentence)) == sentence


def test_parsing_checks_a_sentence_once(monkeypatch):
    calls = []
    real = logic.validate_formula
    monkeypatch.setattr(logic, "validate_formula", lambda *a: calls.append(a) or real(*a))
    sentence = parse_sentence(SOUP_SIG, "forall x:E. exists y:F. S(x,y) & P(c)")
    assert len(calls) == 1 and canonicalize(calls[0][1]) == sentence


@given(_sentences())
def test_roundtrip_on_generated_sentences(sentence):
    assert parse_sentence(SIG, format_formula(sentence)) == sentence


@given(_sentences(depth=2), st.integers(0, 15))
def test_satisfaction_matches_ground_substitution(sentence, index):
    model = MODELS[index]
    assert satisfies(model, sentence) == oracle_satisfies(model, sentence)


@given(_formulas(), _formulas())
def test_equal_trees_have_equal_reprs_and_hashes(a, b):
    """Trees built or parsed apart: ``==`` holds exactly when the reprs are
    equal, and equal trees hash equal, before and after canonicalizing.
    The cached hash is in neither the repr nor the equality."""
    parsed = parse_sentence(SIG, format_formula(a))
    for x, y in ((a, b), (canonicalize(a), canonicalize(b)), (canonicalize(a), parsed), (a, copy.deepcopy(a))):
        assert (x == y) == (repr(x) == repr(y)) == (not x != y)
        assert x != y or hash(x) == hash(y)
    assert "_hash" not in repr(a)
    twin = copy.copy(a)
    object.__setattr__(twin, "_hash", hash(a) + 1)
    assert twin == a and repr(twin) == repr(a)


def test_a_tree_of_the_maximum_depth_hashes_alike_each_time():
    leaf = Atom("P", (Var("x", "E"),))
    wraps = (Not, lambda g: And(leaf, g), lambda g: Forall("x", "E", g))

    def chain(n):
        f = leaf
        for k in range(n - 2):
            f = wraps[k % 3](f)
        return Exists("x", "E", f)

    deep = chain(MAX_FORMULA_DEPTH)
    assert _depth(deep) == MAX_FORMULA_DEPTH
    assert hash(deep) == hash(deep) == hash(chain(MAX_FORMULA_DEPTH))
    assert deep == chain(MAX_FORMULA_DEPTH) != chain(MAX_FORMULA_DEPTH - 1)


# ---------------------------------------------------------------------------
# Satisfaction


class TestSatisfies:
    def test_existential_witness(self):
        assert satisfies(pq_model(p=("a", "b"), q=("a",)), sent("exists x:E. P(x)"))

    def test_universal_counterexample(self):
        assert not satisfies(pq_model(p=("a", "b"), q=("a",)), sent("forall x:E. Q(x)"))

    def test_reflexivity_everywhere(self):
        assert all(satisfies(m, sent("forall x:E. x = x")) for m in MODELS)

    def test_deeply_nested_quantifiers(self):
        nested = sent("forall x:E. " * 98 + "exists y:E. P(y)")
        assert [satisfies(m, nested) for m in MODELS] == [bool(m.relation("P")) for m in MODELS]

    def test_signature_mismatch(self):
        other = parse_signature("entity E\nrelation R(E)")
        with pytest.raises(SignatureMismatchError):
            satisfies(MODELS[0], parse_sentence(other, "exists x:E. R(x)"))

    def test_open_formula_rejected(self):
        with pytest.raises(ValueError, match="free variables"):
            satisfies(MODELS[0], parse_formula(SIG, "P(x)", {"x": "E"}))

    def test_forall_implies_exists_on_nonempty_carriers(self):
        fa, ex = sent("forall x:E. P(x)"), sent("exists x:E. P(x)")
        for m in MODELS:
            assert not satisfies(m, fa) or satisfies(m, ex)

    @pytest.mark.parametrize("text", FIXTURE_TEXTS)
    def test_agrees_with_ground_substitution(self, text):
        f = sent(text)
        for m in MODELS:
            assert satisfies(m, f) == oracle_satisfies(m, f)


# ---------------------------------------------------------------------------
# Enumeration


class TestEnumerateStructures:
    def test_count_two_elements(self):
        assert len(MODELS) == 16 == count_structures(SIG, {"E": ["a", "b"]})

    def test_count_one_element(self):
        assert len(enumerate_structures(SIG, {"E": ["a"]})) == 4

    def test_count_with_constant(self):
        sig = parse_signature("entity E\nrelation P(E)\nrelation Q(E)\nconstant c : E")
        models = enumerate_structures(sig, {"E": ["a", "b"]})
        assert len(models) == 32 == count_structures(sig, {"E": ["a", "b"]})
        # constants vary fastest
        assert models[0].constant("c") == "a" and models[1].constant("c") == "b"
        assert models[0].relations == models[1].relations

    def test_no_duplicates(self):
        assert len(set(MODELS)) == len(MODELS)

    def test_relations_vary_as_bit_vectors(self):
        # bit i of the relation word selects tuple i in lexicographic order;
        # earlier relations vary slower
        assert MODELS[0].relation("P") == frozenset() and MODELS[0].relation("Q") == frozenset()
        assert MODELS[1].relation("Q") == frozenset({("a",)})
        assert MODELS[2].relation("Q") == frozenset({("b",)})
        assert MODELS[4].relation("P") == frozenset({("a",)})
        assert MODELS[5] == pq_model(p=("a",), q=("a",))

    def test_cap_refusal_reports_count(self):
        with pytest.raises(SizeCapError, match="4096"):
            enumerate_structures(SIG, {"E": list("abcdef")}, cap=1000)

    def test_more_than_64_cells_refused(self):
        sig = parse_signature("entity E\nrelation R(E, E)")
        with pytest.raises(SizeCapError, match=r"at least 2\^10000 results"):
            enumerate_structures(sig, {"E": [f"e{i}" for i in range(100)]})

    def test_carriers_validated_once(self, monkeypatch):
        calls = []
        real = logic.validate_carriers
        monkeypatch.setattr(logic, "validate_carriers", lambda *a: calls.append(a) or real(*a))
        assert len(enumerate_structures(SIG, {"E": ["a", "b"]})) == 16
        assert len(calls) == 1

    def test_empty_carrier_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            enumerate_structures(SIG, {"E": []})

    def test_missing_carrier_rejected(self):
        with pytest.raises(ValueError, match="missing carrier"):
            enumerate_structures(SIG, {})


class TestTheoryOf:
    """The theory of a model over a pool: the pool sentences it satisfies."""

    def test_full_model(self):
        m = pq_model(p=("a", "b"), q=("a", "b"))
        assert all(satisfies(m, sent(t)) for t in FIXTURE_TEXTS[:4])

    def test_empty_model(self):
        m = pq_model()
        pool = [sent(t) for t in FIXTURE_TEXTS[:4]]
        assert [s for s in pool if satisfies(m, s)] == [sent("forall x:E. P(x) -> Q(x)")]

    def test_empty_pool(self):
        assert [s for s in [] if satisfies(MODELS[0], s)] == []


# ---------------------------------------------------------------------------
# Substitution


class TestSubstitute:
    def test_plain_replacement(self):
        f = parse_formula(SIG, "P(x) & Q(x)", {"x": "E"})
        g = substitute(f, {"x": Const("c")})
        sig = parse_signature("entity E\nrelation P(E)\nrelation Q(E)\nconstant c : E")
        assert g == parse_formula(sig, "P(c) & Q(c)")

    def test_capture_avoided(self):
        f = parse_formula(SIG, "exists y:E. P(x) & ~Q(y)", {"x": "E"})
        bound = f.var
        g = substitute(f, {"x": Var(bound, "E")})
        assert free_vars(g) == {bound: "E"}
        assert g.var != bound

    def test_inner_binder_named_like_the_fresh_name(self):
        # y is renamed to w0, which the inner binder also binds
        sig = parse_signature("entity E\nrelation R(E,E)")
        x, y, w0 = (Var(n, "E") for n in ("x", "y", "w0"))
        f = Forall("y", "E", Forall("w0", "E", And(Atom("R", (x, w0)), Atom("R", (y, w0)))))
        g = substitute(f, {"x": y})
        for m in enumerate_structures(sig, {"E": ["a", "b"]}):
            for e in "ab":
                assert eval_formula(m, g, {"y": e}) == eval_formula(m, f, {"x": e})

    def test_shadowed_variable_untouched(self):
        f = parse_formula(SIG, "P(x) & (forall x:E. Q(x))", {"x": "E"})
        g = substitute(f, {"x": Const("c")})
        # only the free occurrence is replaced
        assert isinstance(g.left.args[0], Const)
        assert isinstance(g.right, Forall)


# ---------------------------------------------------------------------------
# Model files


class TestModelFiles:
    def test_parse_model(self):
        sig = parse_signature("entity E\nrelation R(E,E)\nconstant c : E")
        m = parse_model(
            sig,
            "universe E = {a, b}\nR = {(a,b), (b,b)}\nc = a\n# comment",
        )
        assert m.relation("R") == frozenset({("a", "b"), ("b", "b")})
        assert m.constant("c") == "a"

    def test_unary_tuples_may_omit_parens(self):
        m = parse_model(SIG, "universe E = {a, b}\nP = {a, (b)}\nQ = {}")
        assert m.relation("P") == frozenset({("a",), ("b",)})

    def test_roundtrip(self):
        for m in MODELS:
            assert parse_model(SIG, format_structure(m)) == m

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError, match="unknown relation or constant"):
            parse_model(SIG, "universe E = {a}\nS = {a}")

    def test_tuple_outside_carrier_rejected(self):
        with pytest.raises(ParseError, match="carrier"):
            parse_model(SIG, "universe E = {a}\nP = {b}\nQ = {}")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("universe F = {a}", "m.model:1: carrier for undeclared entity type 'F'"),
            ("universe E = {a}\nuniverse E = {b}", "m.model:2: duplicate universe for 'E'"),
            ("universe E = {a,,b}", "m.model:1: malformed universe for 'E'"),
            ("universe E = {a}\nP = {a}\nP = {a}", "m.model:3: duplicate extension for 'P'"),
            ("universe E = {a}\nP = a", "m.model:2: relation 'P' needs a tuple set in braces"),
            ("universe E = {a}\nR = {(a,)}", "m.model:2: malformed tuple '(a,)'"),
            ("universe E = {a}\nc = a\nc = a", "m.model:3: duplicate denotation for 'c'"),
            ("universe E = {a, b}\nc = {a}", "m.model:2: constant 'c' needs a single element"),
            ("universe E = {a}\nnonsense", "m.model:2: unrecognized model line: 'nonsense'"),
        ],
        ids=["sort", "universe-twice", "universe-shape", "extension-twice", "braces",
             "tuple-shape", "denotation-twice", "denotation-shape", "line"],
    )
    def test_model_file_error_message(self, text, message):
        sig = parse_signature("entity E\nrelation P(E)\nrelation R(E,E)\nconstant c:E")
        with pytest.raises(ParseError) as exc:
            parse_model(sig, text, path="m.model")
        assert str(exc.value) == message

    def test_roundtrip_with_constants(self):
        sig = parse_signature("entity E\nentity F\nrelation P(E)\nrelation R(E,F)\nconstant c:E\nconstant d:F")
        space = enumerate_structures(sig, {"E": ["a", "b"], "F": ["x"]})
        assert len(space) == 32
        for m in space:
            text = format_structure(m)
            assert text.endswith(f"\nc = {m.constant('c')}\nd = x\n")
            assert parse_model(sig, text) == m

    def test_pool_file_dedupes_alpha_variants(self):
        pool = parse_sentences(SIG, "forall x:E. P(x)\nforall y:E. P(y)\nexists z:E. Q(z)")
        assert len(pool) == 2

    def test_pool_file_reports_offending_line(self):
        with pytest.raises(ParseError) as exc:
            parse_sentences(SIG, "forall x:E. P(x)\nP(oops)", path="p.pool")
        assert "p.pool:2:" in str(exc.value)


def test_structure_space_equality_hash_and_repr():
    space = enumerate_structures(SIG, {"E": ["a", "b"]})
    again = enumerate_structures(SIG, {"E": ("a", "b")})
    assert isinstance(space, StructureSpace) and space is not again
    assert space == again and hash(space) == hash(again)
    assert repr(space) == f"StructureSpace({SIG!r}, (('E', ('a', 'b')),))"
    others = [
        enumerate_structures(SIG, {"E": ["b", "a"]}),
        enumerate_structures(SIG, {"E": ["a"]}),
        enumerate_structures(parse_signature("entity E\nrelation P(E)"), {"E": ["a", "b"]}),
    ]
    for other in others:
        assert space != other and not space == other
    assert space != tuple(space)


def test_structure_validation():
    with pytest.raises(ValueError, match="empty"):
        Structure.make(SIG, {"E": []})
    with pytest.raises(ValueError, match="^missing carrier for entity type 'E'$"):
        Structure.make(SIG, {})
    with pytest.raises(ValueError, match="^carrier for undeclared entity type 'F'$"):
        Structure.make(SIG, {"E": ["a"], "F": ["b"]})
    with pytest.raises(ValueError, match="carrier"):
        Structure.make(SIG, {"E": ["a"]}, {"P": [("b",)]})
    sig = parse_signature("entity E\nconstant c : E")
    with pytest.raises(ValueError, match="missing denotations"):
        Structure.make(sig, {"E": ["a"]})
    # the constructor itself, past make's check of the constant names
    with pytest.raises(ValueError, match="^unknown constant 'k'$"):
        Structure(SIG, (("E", ("a",)),), (("P", ()), ("Q", ())), (("k", "a"),))


@pytest.mark.parametrize(
    "call, message",
    [(lambda: format_formula(42), "not a formula: 42"), (lambda: canonicalize("P(a)"), "not a formula: 'P(a)'")],
    ids=["format_formula", "canonicalize"],
)
def test_formula_walkers_refuse_a_non_formula(call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "env, message",
    [({}, "assignment misses free variables: ['x', 'y']"), ({"y": "a"}, "assignment misses free variables: ['x']")],
    ids=["empty", "partial"],
)
def test_eval_formula_refuses_a_partial_assignment(env, message):
    sig = parse_signature("entity E\nrelation R(E,E)")
    f = parse_formula(sig, "R(x,y)", {"x": "E", "y": "E"})
    with pytest.raises(ValueError) as exc:
        eval_formula(enumerate_structures(sig, {"E": ["a"]})[0], f, env)
    assert str(exc.value) == message


def test_sentence_key_is_stable():
    assert sentence_key(sent("forall quux:E. P(quux)")) == "forall v0:E. P(v0)"
