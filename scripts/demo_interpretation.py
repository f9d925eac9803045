"""Interpret one language in another and move theories both ways.

A single relation R is read as the conjunction P & Q.  The induced
infomorphism is verified exhaustively, then the adjoint pair maps the
strongest R-theory forward and the full target theory back.

    python3 scripts/demo_interpretation.py
"""

from __future__ import annotations

from theorylattice import (
    build_truth_classification,
    concept_morphism,
    make_interpretation,
    parse_formula,
    parse_sentence,
    parse_signature,
    theory_lattice,
    truth_infomorphism,
)

SRC_SIG = "entity E\nrelation R(E)"
DST_SIG = "entity E\nrelation P(E)\nrelation Q(E)"

SRC_POOL = ("forall x:E. R(x)", "exists x:E. R(x)")
DST_POOL = (
    "forall x:E. P(x)",
    "forall x:E. Q(x)",
    "exists x:E. P(x)",
    "forall x:E. P(x) -> Q(x)",
    "forall x:E. P(x) & Q(x)",
    "exists x:E. P(x) & Q(x)",
)


def show(label: str, theory) -> None:
    body = "; ".join(theory.keys()) or "(none)"
    print(f"{label}: {body}")


def main() -> None:
    src = parse_signature(SRC_SIG)
    dst = parse_signature(DST_SIG)
    body = parse_formula(dst, "P(x1) & Q(x1)", {"x1": "E"})
    h = make_interpretation(src, dst, {"E": "E"}, {}, {"R": body})

    tc1 = build_truth_classification(src, [parse_sentence(src, s) for s in SRC_POOL],
                                     carriers={"E": ["a", "b"]})
    tc2 = build_truth_classification(dst, [parse_sentence(dst, s) for s in DST_POOL],
                                     carriers={"E": ["a", "b"]})
    im = truth_infomorphism(h, tc1, tc2)
    print(f"infomorphism verified over {len(tc2.models)} target models "
          f"and {len(tc1.pool)} source sentences")

    lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
    cm = concept_morphism(im, lat1, lat2)
    print(f"source lattice: {len(lat1.theories)} theories; "
          f"target lattice: {len(lat2.theories)} theories")

    strongest = lat1.bottom
    show("strongest source theory", strongest)
    show("its direct image", cm.dir(strongest))
    show("inverse image of the target bottom", cm.inv(lat2.bottom))
    show("inverse image of the target top", cm.inv(lat2.top))


if __name__ == "__main__":
    main()
