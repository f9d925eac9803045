"""Spans around the package's public functions, kept in memory.

The wrappers are installed from outside: every reference to a wrapped
function inside the ``theorylattice`` modules is swapped for a wrapper and
swapped back afterwards, so the package itself is unchanged.  A span is
``[name, start, end, parent, size]``; ``size`` is the stage count of the
call (models, concepts, edges, bytes, ...) or ``None``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from theorylattice import fca, logic, morph, nav, truth


def _n(args, result):
    return len(result)


def _bytes(args, result):
    return len(result.encode("utf-8"))


def _incidence(args, tc):
    return (len(tc.models), len(tc.pool), len(tc.classification.incidence))


def _nonpool(args, result):
    tc, _theory, sentence = args
    return 0 if tc.in_pool(sentence) else 1


def _pairs(args, result):
    _im, lat1, lat2 = args
    return len(lat1.theories) * len(lat2.theories)


# (span name, owner, attribute, size of one call)
WRAPPED = (
    ("logic.enumerate_structures", logic, "enumerate_structures", _n),
    ("truth.build_truth_classification", truth, "build_truth_classification", _incidence),
    ("fca.concept_lattice", fca, "concept_lattice", lambda a, r: len(r.concepts)),
    ("truth.theory_lattice", truth, "theory_lattice", lambda a, r: len(r.theories)),
    ("fca.covers", fca.ConceptLattice, "covers", _n),
    ("truth.lattice_text", truth, "lattice_text", _bytes),
    ("fca.lattice_dot", fca, "lattice_dot", _bytes),
    ("truth.closure", truth, "closure", None),
    ("truth.entails", truth, "entails", _nonpool),
    ("truth.theory_meet", truth, "theory_meet", None),
    ("truth.theory_join", truth, "theory_join", None),
    ("nav.expand", nav, "expand", None),
    ("nav.contract", nav, "contract", None),
    ("nav.revise", nav, "revise", None),
    ("nav.analogy", nav, "analogy", None),
    ("morph.translate", morph, "translate", None),
    ("morph.truth_infomorphism", morph, "truth_infomorphism", None),
    ("morph.concept_morphism", morph, "concept_morphism", _pairs),
)


class Tracer:
    """Collects spans and the count of ``logic.satisfies`` calls."""

    def __init__(self, clock=perf_counter) -> None:
        self._clock = clock
        self.spans: list[list] = []
        self.satisfies_calls = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._run(name, None, fn, args, kwargs)

    def _run(self, name, size, fn, args, kwargs):
        stack, spans = self._stack, self.spans
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = self._clock()
            stack.pop()
        if size is not None:
            rec[4] = size(args, result)
        return result

    def _span(self, name, fn, size):
        def traced(*args, **kwargs):
            return self._run(name, size, fn, args, kwargs)

        return traced

    def _count_satisfies(self, fn):
        def counted(*args, **kwargs):
            self.satisfies_calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Swap every reference to a wrapped function for its wrapper."""
        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "theorylattice"]
        for name, owner, attr, size in (*WRAPPED, (None, logic, "satisfies", None)):
            orig = getattr(owner, attr)
            new = self._count_satisfies(orig) if name is None else self._span(name, orig, size)
            for target in [owner] if isinstance(owner, type) else mods:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        setattr(target, key, new)
                        self._undo.append((target, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()


def layer_totals(spans: list[list]) -> tuple[dict, dict, dict, dict]:
    """Self time, whole time, call count and the sizes per span name.

    Each span is weighted by its root: a ``bench.pass`` root weighs
    1/(number of passes), anything else weighs 1, so the totals describe
    one set-up plus one average pass.  The weight is a fraction, so that
    counts stay exact.
    """
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for k, (_name, start, end, parent, _size) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[k] = root[parent]
    passes = sum(1 for s in spans if s[3] < 0 and s[0] == "bench.pass")
    self_s: dict[str, float] = defaultdict(float)
    whole_s: dict[str, float] = defaultdict(float)
    calls: dict[str, Fraction] = defaultdict(Fraction)
    sizes: dict[str, list] = defaultdict(list)
    for k, (name, start, end, _parent, size) in enumerate(spans):
        w = Fraction(1, passes) if spans[root[k]][0] == "bench.pass" else Fraction(1)
        self_s[name] += w * (end - start - child[k])
        whole_s[name] += w * (end - start)
        calls[name] += w
        if size is not None:
            sizes[name].append((w, size))
    return self_s, whole_s, calls, sizes


def stage_counts(spans: list[list]) -> dict[str, set]:
    """The distinct stage counts seen per span name."""
    seen: dict[str, set] = defaultdict(set)
    for name, _s, _e, _p, size in spans:
        if size is not None:
            seen[name].add(size)
    return seen

