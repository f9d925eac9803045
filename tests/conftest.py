"""Shared fixtures: a two-relation language, its 16-model classification,
a swap-closed pool for renaming tests, a conjunctive interpretation, and
the benchmark's map of ST into M over two elements."""

from __future__ import annotations

import pytest

from oracles import M_POOL, M_SIG, ST_POOL, ST_SIG, ST_TO_M
from theorylattice.fca import Classification
from theorylattice.logic import parse_sentence, parse_signature
from theorylattice.morph import make_interpretation, make_language_morphism, parse_interpretation
from theorylattice.truth import build_truth_classification, theory_lattice
from theorylattice.logic import parse_formula


@pytest.fixture(scope="session")
def pq_sig():
    return parse_signature("entity E\nrelation P(E)\nrelation Q(E)")


@pytest.fixture(scope="session")
def pq(pq_sig):
    """The four pool sentences, keyed s1..s4."""
    texts = {
        "s1": "forall x:E. P(x)",
        "s2": "forall x:E. Q(x)",
        "s3": "exists x:E. P(x)",
        "s4": "forall x:E. P(x) -> Q(x)",
    }
    return {k: parse_sentence(pq_sig, t) for k, t in texts.items()}


@pytest.fixture(scope="session")
def pq_pool(pq):
    return (pq["s1"], pq["s2"], pq["s3"], pq["s4"])


@pytest.fixture(scope="session")
def pq_tc(pq_sig, pq_pool):
    return build_truth_classification(pq_sig, pq_pool, carriers={"E": ["a", "b"]})


@pytest.fixture(scope="session")
def pq_lat(pq_tc):
    return theory_lattice(pq_tc)


@pytest.fixture(scope="session")
def ctx3():
    """Three instances, three types, a staircase incidence."""
    return Classification.make(
        [1, 2, 3], ["a", "b", "c"], [(1, "a"), (1, "b"), (2, "b"), (2, "c"), (3, "c")]
    )


@pytest.fixture(scope="session")
def swap(pq_sig):
    """The renaming that exchanges the two relations."""
    return make_language_morphism(pq_sig, pq_sig, {"E": "E"}, {"P": "Q", "Q": "P"}, {})


@pytest.fixture(scope="session")
def swap_pool(pq_sig):
    texts = (
        "forall x:E. P(x)",
        "forall x:E. Q(x)",
        "exists x:E. P(x)",
        "exists x:E. Q(x)",
        "forall x:E. P(x) -> Q(x)",
        "forall x:E. Q(x) -> P(x)",
    )
    return tuple(parse_sentence(pq_sig, t) for t in texts)


@pytest.fixture(scope="session")
def swap_tc(pq_sig, swap_pool):
    return build_truth_classification(pq_sig, swap_pool, carriers={"E": ["a", "b"]})


@pytest.fixture(scope="session")
def swap_lat(swap_tc):
    return theory_lattice(swap_tc)


@pytest.fixture(scope="session")
def unary_sig():
    return parse_signature("entity E\nrelation R(E)")


@pytest.fixture(scope="session")
def unary_pool(unary_sig):
    return tuple(parse_sentence(unary_sig, t) for t in ("forall x:E. R(x)", "exists x:E. R(x)"))


@pytest.fixture(scope="session")
def unary_tc(unary_sig, unary_pool):
    return build_truth_classification(unary_sig, unary_pool, carriers={"E": ["a", "b"]})


@pytest.fixture(scope="session")
def unary_lat(unary_tc):
    return theory_lattice(unary_tc)


@pytest.fixture(scope="session")
def conj_interp(unary_sig, pq_sig):
    """Interprets the single relation as the conjunction of the two."""
    body = parse_formula(pq_sig, "P(x1) & Q(x1)", {"x1": "E"})
    return make_interpretation(unary_sig, pq_sig, {"E": "E"}, {}, {"R": body})


@pytest.fixture(scope="session")
def wide_pool(pq_sig, pq_pool):
    extra = ("forall x:E. P(x) & Q(x)", "exists x:E. P(x) & Q(x)")
    return pq_pool + tuple(parse_sentence(pq_sig, t) for t in extra)


@pytest.fixture(scope="session")
def wide_tc(pq_sig, wide_pool):
    return build_truth_classification(pq_sig, wide_pool, carriers={"E": ["a", "b"]})


@pytest.fixture(scope="session")
def wide_lat(wide_tc):
    return theory_lattice(wide_tc)


@pytest.fixture(scope="session")
def theory_with():
    """Look up the closed theory with exactly the given axioms."""

    def find(lat, *axioms):
        want = frozenset(axioms)
        matches = [t for t in lat.theories if t.axioms == want]
        assert matches, f"no closed theory with axioms {want}"
        return matches[0]

    return find


@pytest.fixture(scope="session")
def st_to_m():
    """ST read into M over E=a,b: the map and both classifications."""
    m_sig, st_sig = parse_signature(M_SIG), parse_signature(ST_SIG)
    h = parse_interpretation(st_sig, m_sig, ST_TO_M)
    tc1 = build_truth_classification(
        st_sig, [parse_sentence(st_sig, s) for s in ST_POOL], carriers={"E": ["a", "b"]}
    )
    tc2 = build_truth_classification(
        m_sig, [parse_sentence(m_sig, s) for s in M_POOL], carriers={"E": ["a", "b"]}
    )
    return h, tc1, tc2
