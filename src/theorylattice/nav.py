"""Navigation moves over a lattice of theories.

Contraction deletes axioms and re-closes (never moves down the lattice),
expansion adds axioms and closes (never moves up), revision is exactly
the composite, and analogy transports a closed theory along a signature
map into a destination lattice whose pool contains the translated
axioms.  Scripts replay sequences of moves and return an audit log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import fca
from .errors import ParseError
from .logic import Formula, _source_lines, _split_top_commas, parse_sentence
from .morph import Interpretation, translate
from .truth import ClosedTheory, TheoryLattice


def contract(lat: TheoryLattice, theory: ClosedTheory, axioms: Iterable[Formula]) -> ClosedTheory:
    """Delete axioms and close; the result is at or above the input.

    Note the result may still entail a deleted axiom when the remainder
    does; deletion is set difference, not belief-revision contraction.
    So a sentence deletes only the axiom it equals as given: a non-pool
    sentence, or a non-canonical variant of an axiom, deletes nothing.
    """
    tc = lat.tc
    intent = lat._intent(theory)
    for a in axioms:
        p = tc._pos.get(a)
        if p is not None:
            intent &= ~(1 << p)
    return tc._theory(tc._close(intent))


def expand(lat: TheoryLattice, theory: ClosedTheory, axioms: Iterable[Formula]) -> ClosedTheory:
    """Add axioms and close; the result is at or below the input."""
    tc = lat.tc
    intent = lat._intent(theory)
    return tc._theory(tc._close(intent | tc._mask(axioms)))


def revise(
    lat: TheoryLattice,
    theory: ClosedTheory,
    delete: Iterable[Formula],
    add: Iterable[Formula],
) -> ClosedTheory:
    """Contract away the deletions, then expand by the additions."""
    return expand(lat, contract(lat, theory, delete), add)


def analogy(
    f: Interpretation,
    src: TheoryLattice,
    dst: TheoryLattice,
    theory: ClosedTheory,
) -> ClosedTheory:
    """Translate a closed theory's axioms along ``f`` and close in ``dst``.

    Every translated axiom must already be in the destination pool; the
    source and destination lattices may coincide (a map of one language
    into itself).
    """
    pool, keys = src.tc.pool, src.tc.pool_keys
    # in key order, so that the first missing translated axiom is the one named
    positions = sorted(fca._bits(src._intent(theory)), key=keys.__getitem__)
    return dst.closure([translate(f, pool[p]) for p in positions])


@dataclass(frozen=True)
class NavStep:
    """One applied move: kind, payload, and source/result theory ids.

    Ids are positions in the owning lattice's theory list; for an analogy
    step crossing lattices the result id refers to the destination.
    """

    kind: str
    source: int
    result: int
    delete: tuple[Formula, ...] = ()
    add: tuple[Formula, ...] = ()
    morphism: Interpretation | None = None


def parse_nav_script(text: str, *, path: str | None = None) -> tuple[tuple[int, str, str], ...]:
    """Split a script into (line, kind, payload) triples.

    One step per line: ``contract SENTENCE, ...`` / ``expand SENTENCE, ...``
    / ``revise DELETIONS ; ADDITIONS`` / ``analogy MAP-PATH``;
    ``#`` comments and blank lines are ignored.
    """
    steps: list[tuple[int, str, str]] = []
    for lineno, line in _source_lines(text):
        kind, _, payload = line.partition(" ")
        payload = payload.strip()
        if kind not in ("contract", "expand", "revise", "analogy"):
            raise ParseError(f"unknown navigation step {kind!r}", line=lineno, path=path)
        if kind == "analogy" and not payload:
            raise ParseError("analogy step needs a map file path", line=lineno, path=path)
        steps.append((lineno, kind, payload))
    return tuple(steps)


def apply_nav_script(
    lat: TheoryLattice,
    start: ClosedTheory,
    text: str,
    *,
    load_morphism: Callable[[str], Interpretation] | None = None,
    path: str | None = None,
) -> tuple[NavStep, ...]:
    """Replay a script from a starting theory, returning the step log.

    Analogy steps map the lattice's language to itself here: the map is
    loaded from the step's path by the supplied callback, and a file it
    cannot read is reported at the step's line.
    """
    sig = lat.tc.signature

    def payload_sentences(payload: str, lineno: int) -> list[Formula]:
        if not payload:
            return []
        out = []
        for part in _split_top_commas(payload):
            if not part:
                raise ParseError("empty sentence in payload", line=lineno, path=path)
            try:
                out.append(parse_sentence(sig, part))
            except ParseError as exc:
                raise ParseError(exc.message, line=lineno, path=path)
        return out

    log: list[NavStep] = []
    current = start
    for lineno, kind, payload in parse_nav_script(text, path=path):
        delete, add, f = [], [], None
        if kind == "contract":
            delete = payload_sentences(payload, lineno)
            nxt = contract(lat, current, delete)
        elif kind == "expand":
            add = payload_sentences(payload, lineno)
            nxt = expand(lat, current, add)
        elif kind == "revise":
            left, sep, right = payload.partition(";")
            if not sep:
                raise ParseError(
                    "revise needs 'DELETIONS ; ADDITIONS' (either side may be empty)",
                    line=lineno,
                    path=path,
                )
            delete = payload_sentences(left.strip(), lineno)
            add = payload_sentences(right.strip(), lineno)
            nxt = revise(lat, current, delete, add)
        else:
            if load_morphism is None:
                raise ParseError(
                    "analogy steps are not available here (no morphism loader)",
                    line=lineno,
                    path=path,
                )
            try:
                f = load_morphism(payload)
            except OSError as exc:
                raise ParseError(
                    f"cannot read map file {payload!r}: {exc.strerror}", line=lineno, path=path
                )
            nxt = analogy(f, lat, lat, current)
        log.append(NavStep(kind, lat.index(current), lat.index(nxt), tuple(delete), tuple(add), f))
        current = nxt
    return tuple(log)
