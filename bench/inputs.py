"""Fixed inputs of the benchmark ladder and the seeded query generator.

M, L10 and ST are fixed: their CLI outputs are compared byte for byte
against digests recorded when the benchmark was defined.  Everything the
seed picks (theories and query sentences) is generated here, as text, so
that the package receives only the generated inputs.
"""

from __future__ import annotations

import random

M_SIG = "entity E\nrelation P(E)\nrelation Q(E)\nrelation R(E,E)\n"
ST_SIG = "entity E\nrelation S(E)\nrelation T(E,E)\n"
M_CARRIERS = {"E": ["a", "b"]}
L_CARRIERS = {"E": ["a", "b", "c"]}

_LITERALS = ("P(x)", "Q(x)", "R(x,x)", "~P(x)", "~Q(x)")
_PAIRS = (("P(x)", "Q(x)"), ("P(x)", "R(x,x)"), ("Q(x)", "R(x,x)"))
_R_PROPERTIES = (
    "forall x:E. exists y:E. R(x,y)",
    "exists x:E. forall y:E. R(x,y)",
    "forall x:E. forall y:E. R(x,y) -> R(y,x)",
    "forall x:E. forall y:E. forall z:E. R(x,y) & R(y,z) -> R(x,z)",
)

M_POOL = (
    tuple(f"{q} x:E. {lit}" for lit in _LITERALS for q in ("forall", "exists"))
    + tuple(s for a, b in _PAIRS for s in (f"forall x:E. {a} -> {b}", f"exists x:E. {a} & {b}"))
    + _R_PROPERTIES
)
L10_POOL = M_POOL[:10]
# The M sentences that mention only P and R, with P renamed to S and R to T.
ST_POOL = tuple(
    s.replace("P(", "S(").replace("R(", "T(") for s in M_POOL if "Q(" not in s
)
# Read S as P and T as R: every translated ST sentence is an M pool sentence.
ST_TO_M = "entity E -> E\nrelation S(x1) -> P(x1)\nrelation T(x1,x2) -> R(x1,x2)\n"

# CLI outputs at the commit that defined the benchmark: (bytes, sha256).
M_TEXT = (
    1072490,
    "13a472c8fa0ddf05c499018538385bb8cf78d8e0b34d1f7df40fa4a70465c114",
)
M_DOT = (
    247725,
    "dd52d3d11e20dd1ec28ed6139e3480a530452ad5a81346797a42454898deeca9",
)
L10_TEXT = (
    5255627,
    "a8d22cacb841681dcbe77573f45a1a9fba9af483ecb65020a6d0d766714359c5",
)

_ATOMS_X = ("P(x)", "Q(x)", "R(x,x)")
_ATOMS_XY = ("P(x)", "P(y)", "Q(x)", "Q(y)", "R(x,y)", "R(y,x)", "R(x,x)", "R(y,y)")
_QUANTIFIERS = ("forall", "exists")
_OPS = ("&", "|", "->", "<->")


def _body(rng: random.Random, atoms: tuple[str, ...]) -> str:
    a, b = rng.sample(atoms, 2)
    neg_a, neg_b = ("~" if rng.random() < 0.5 else "" for _ in range(2))
    return f"{neg_a}{a} {rng.choice(_OPS)} {neg_b}{b}"


def random_axiom(rng: random.Random) -> str:
    """A one-quantifier sentence over P, Q, R: cheap to evaluate, so that
    the theory's share of the ``entail`` and ``leq`` work varies little
    from seed to seed and structure enumeration stays the larger part."""
    return f"{rng.choice(_QUANTIFIERS)} x:E. {_body(rng, _ATOMS_X)}"


def random_sentence(rng: random.Random) -> str:
    """A two-quantifier sentence over P, Q, R; every draw has the same size."""
    q1, q2 = rng.choice(_QUANTIFIERS), rng.choice(_QUANTIFIERS)
    return f"{q1} x:E. {q2} y:E. {_body(rng, _ATOMS_XY)}"
