"""Navigation moves over a lattice of theories.

Contraction deletes axioms and re-closes (never moves down the lattice),
expansion adds axioms and closes (never moves up), revision is exactly
the composite, and analogy transports a closed theory along a language
morphism into a destination lattice whose pool contains the renamed
axioms.  Scripts replay sequences of moves and return an audit log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ParseError
from .logic import Formula, _source_lines, _split_top_commas, parse_sentence, sentence_key
from .morph import Interpretation, LanguageMorphism, translate
from .truth import ClosedTheory, TheoryLattice


def contract(lat: TheoryLattice, theory: ClosedTheory, axioms: Iterable[Formula]) -> ClosedTheory:
    """Delete axioms and close; the result is at or above the input.

    Note the result may still entail a deleted axiom when the remainder
    does; deletion is set difference, not belief-revision contraction.
    """
    lat.index(theory)
    return lat.closure(theory.axioms - frozenset(axioms))


def expand(lat: TheoryLattice, theory: ClosedTheory, axioms: Iterable[Formula]) -> ClosedTheory:
    """Add axioms and close; the result is at or below the input."""
    lat.index(theory)
    return lat.closure(theory.axioms | frozenset(axioms))


def revise(
    lat: TheoryLattice,
    theory: ClosedTheory,
    delete: Iterable[Formula],
    add: Iterable[Formula],
) -> ClosedTheory:
    """Contract away the deletions, then expand by the additions."""
    return expand(lat, contract(lat, theory, delete), add)


def analogy(
    f: LanguageMorphism | Interpretation,
    src: TheoryLattice,
    dst: TheoryLattice,
    theory: ClosedTheory,
) -> ClosedTheory:
    """Rename a closed theory's axioms along ``f`` and close in ``dst``.

    Every renamed axiom must already be in the destination pool; the
    source and destination lattices may coincide (an endo-renaming).
    """
    src.index(theory)
    translated = [translate(f, a) for a in sorted(theory.axioms, key=sentence_key)]
    return dst.closure(translated)


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
    morphism: LanguageMorphism | Interpretation | None = None


def parse_nav_script(text: str, *, path: str | None = None) -> tuple[tuple[int, str, str], ...]:
    """Split a script into (line, kind, payload) triples.

    One step per line: ``contract SENTENCE, ...`` / ``expand SENTENCE, ...``
    / ``revise DELETIONS ; ADDITIONS`` / ``analogy MORPHISM-PATH``;
    ``#`` comments and blank lines are ignored.
    """
    steps: list[tuple[int, str, str]] = []
    for lineno, line in _source_lines(text):
        kind, _, payload = line.partition(" ")
        payload = payload.strip()
        if kind not in ("contract", "expand", "revise", "analogy"):
            raise ParseError(f"unknown navigation step {kind!r}", line=lineno, path=path)
        if kind == "analogy" and not payload:
            raise ParseError("analogy step needs a morphism file path", line=lineno, path=path)
        steps.append((lineno, kind, payload))
    return tuple(steps)


def apply_nav_script(
    lat: TheoryLattice,
    start: ClosedTheory,
    text: str,
    *,
    load_morphism: Callable[[str], LanguageMorphism | Interpretation] | None = None,
    path: str | None = None,
) -> tuple[NavStep, ...]:
    """Replay a script from a starting theory, returning the step log.

    Analogy steps are endo-renamings here: the morphism (loaded by the
    supplied callback) must map the lattice's language to itself.
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
        if kind == "contract":
            delete, add = payload_sentences(payload, lineno), []
            nxt = contract(lat, current, delete)
            log.append(NavStep(kind, lat.index(current), lat.index(nxt), tuple(delete), ()))
        elif kind == "expand":
            delete, add = [], payload_sentences(payload, lineno)
            nxt = expand(lat, current, add)
            log.append(NavStep(kind, lat.index(current), lat.index(nxt), (), tuple(add)))
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
            log.append(NavStep(kind, lat.index(current), lat.index(nxt), tuple(delete), tuple(add)))
        else:
            if load_morphism is None:
                raise ParseError(
                    "analogy steps are not available here (no morphism loader)",
                    line=lineno,
                    path=path,
                )
            f = load_morphism(payload)
            nxt = analogy(f, lat, lat, current)
            log.append(NavStep(kind, lat.index(current), lat.index(nxt), morphism=f))
        current = nxt
    return tuple(log)
