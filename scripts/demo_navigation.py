"""Walk a lattice of theories with the four navigation moves.

Starts from the empty theory, expands, transports along the relation
swap, revises, and contracts back.  The pool is closed under the swap so
every analogy lands inside it.

    python3 scripts/demo_navigation.py
"""

from __future__ import annotations

from theorylattice import (
    analogy,
    build_truth_classification,
    contract,
    expand,
    make_interpretation,
    parse_sentence,
    parse_signature,
    revise,
    theory_lattice,
)

SIGNATURE = "entity E\nrelation P(E)\nrelation Q(E)"

POOL = (
    "forall x:E. P(x)",
    "forall x:E. Q(x)",
    "exists x:E. P(x)",
    "exists x:E. Q(x)",
    "forall x:E. P(x) -> Q(x)",
    "forall x:E. Q(x) -> P(x)",
)


def show(label: str, theory) -> None:
    body = "; ".join(theory.keys()) or "(none)"
    print(f"{label}: {body}")


def main() -> None:
    sig = parse_signature(SIGNATURE)
    pool = [parse_sentence(sig, s) for s in POOL]
    tc = build_truth_classification(sig, pool, carriers={"E": ["a", "b"]})
    lat = theory_lattice(tc)
    swap = make_interpretation(sig, sig, {"E": "E"}, {}, {"P": "Q", "Q": "P"})

    t = lat.top
    show("start (top)", t)
    t = expand(lat, t, [pool[0]])
    show("expand with the universal axiom", t)
    t = analogy(swap, lat, lat, t)
    show("transport along the swap", t)
    t = revise(lat, t, [pool[1]], [pool[2]])
    show("revise: drop one universal, add one existential", t)
    t = contract(lat, t, t.axioms)
    show("contract everything", t)


if __name__ == "__main__":
    main()
