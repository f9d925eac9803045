"""The three workloads.  Each is a closed loop with one caller.

A workload has ``inputs(seed, work)`` (the seeded inputs, generated and
written to ``work`` by the benchmark, untimed), ``set_up(inputs)`` (the
program's work before the timed phase, timed as ``setup_s``),
``run_pass(state, tracer, gauge)`` (one pass over its operations,
returning the latency of each query and a record of each operation) and
``check(state, records)`` (the number of wrong operations, judged outside
the timed phase).  ``tracer`` is ``None`` in an untraced run.  Each CLI
command and each block of ``BLOCK`` session queries is a segment of the
``gauge``, timed by its clock and scaled to the reference host speed (see
``gauge.py``).  On the CLI workloads a query is a whole pass over their commands, whose costs differ
too much for percentiles over a few passes' commands to hold still.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import traceback
from pathlib import Path

from oracles import oracle_satisfies
from theorylattice import cli, logic, morph, nav, truth

import inputs


class StageCountError(Exception):
    """A stage produced a different size than the fixed inputs must give."""


def require(what: str, got, want) -> None:
    if got != want:
        raise StageCountError(f"{what}: got {got}, expected {want}")


def _cli(argv: list[str], tracer, gauge) -> tuple[float, object, str]:
    """Run one CLI command in-process; returns (scaled seconds, exit code,
    stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), gauge.segment() as seg:
        t0 = gauge.clock()
        try:
            rc = tracer.call("cli." + argv[0], cli.main, argv) if tracer else cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            rc = exc
        dt = gauge.clock() - t0
    if isinstance(rc, Exception):
        traceback.print_exception(rc)
    return dt * seg.factor, rc, out.getvalue()


def _digest(text: str) -> tuple[int, str]:
    data = text.encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()


def _write(work: Path, files: dict[str, str]) -> dict[str, str]:
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in files.items():
        path = work / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def _lines(sentences) -> str:
    return "".join(s + "\n" for s in sentences)


# ---------------------------------------------------------------------------
# lattice_M: many concepts over few models


class LatticeM:
    def inputs(self, seed: int, work: Path):
        p = _write(work, {"m.sig": inputs.M_SIG, "m.pool": _lines(inputs.M_POOL)})
        base = ["lattice", "--sig", p["m.sig"], "--pool", p["m.pool"], "--carriers", "E=a,b"]
        return {
            "jobs": [
                (base + ["--format", "text"], inputs.M_TEXT),
                (base + ["--format", "dot"], inputs.M_DOT),
            ]
        }

    def set_up(self, inputs):
        """Nothing: each CLI command builds what it needs."""
        return inputs

    def run_pass(self, state, tracer, gauge):
        took, records = 0.0, []
        for argv, expected in state["jobs"]:
            dt, rc, out = _cli(argv, tracer, gauge)
            took += dt
            records.append((rc, _digest(out), expected))
        return [took], records

    def check(self, state, records) -> int:
        return sum(1 for rc, got, want in records if rc != 0 or got != want)


# ---------------------------------------------------------------------------
# models_L: many models, few concepts


def _pqr_models(sig, elems: list[str]):
    """Every P, Q, R structure over ``elems``, built here rather than by the
    package's enumerator, for the oracle and the query generator.  They are
    yielded one at a time, so that the oracle adds little to the peak
    memory the run reports."""
    pairs = list(itertools.product(elems, repeat=2))

    def subsets(xs):
        return [[x for k, x in enumerate(xs) if bits >> k & 1] for bits in range(2 ** len(xs))]

    unary = [[(e,) for e in sub] for sub in subsets(elems)]
    for p in unary:
        for q in unary:
            for r in subsets(pairs):
                yield logic.Structure.make(sig, {"E": elems}, {"P": p, "Q": q, "R": r})


def _selective(rng, sig, models, count):
    """Draw axioms each true in a quarter to three quarters of the M models,
    and jointly true in at least an eighth of them, so that no seed's theory
    is inconsistent or trivial."""
    everyone = (1 << len(models)) - 1
    while True:
        texts, joint = [], everyone
        while len(texts) < count:
            text = inputs.random_axiom(rng)
            s = logic.parse_sentence(sig, text)
            mask = sum(1 << i for i, m in enumerate(models) if oracle_satisfies(m, s))
            if len(models) // 4 <= bin(mask).count("1") <= 3 * len(models) // 4:
                texts.append(text)
                joint &= mask
        if bin(joint).count("1") >= len(models) // 8:
            return texts


class ModelsL:
    def inputs(self, seed: int, work: Path):
        rng = random.Random(seed)
        sig = logic.parse_signature(inputs.M_SIG)
        m_models = list(_pqr_models(sig, inputs.M_CARRIERS["E"]))
        theory = _selective(rng, sig, m_models, 2)
        # The upper theory is a weakening of an axiom, which the theory
        # entails, then a random sentence, which it usually does not, so leq
        # checks both.  Half the time the query is a weakening too.
        g = [inputs.random_sentence(rng) for _ in range(3)]
        weak = rng.random() < 0.5
        query = f"({rng.choice(theory)}) | ({g[0]})" if weak else g[0]
        upper = [f"({rng.choice(theory)}) | ({g[1]})", g[2]]
        p = _write(work, {
            "m.sig": inputs.M_SIG,
            "l10.pool": _lines(inputs.L10_POOL),
            "t.thy": _lines(theory),
            "t2.thy": _lines(upper),
        })
        sem = ["--sig", p["m.sig"], "--carriers", "E=a,b,c"]
        return {
            "sig": sig,
            "theory": theory,
            # The sentences whose entailment only the models can decide.
            "open_query": None if weak else query,
            "last": g[2],
            "jobs": [
                ("lattice", ["lattice", *sem, "--pool", p["l10.pool"], "--format", "text"]),
                ("entail", ["entail", *sem, "--theory", p["t.thy"], "--query", query]),
                ("leq", ["leq", *sem, "--theory", p["t.thy"], "--theory2", p["t2.thy"]]),
            ],
        }

    def set_up(self, inputs):
        """Nothing: each CLI command builds what it needs."""
        return inputs

    def run_pass(self, state, tracer, gauge):
        took, records = 0.0, []
        for job, argv in state["jobs"]:
            dt, rc, out = _cli(argv, tracer, gauge)
            took += dt
            records.append((job, rc, _digest(out) if job == "lattice" else out))
        return [took], records

    def _expected(self, state) -> dict:
        """The oracle's answers over every L model, computed once a run."""
        if "expected" not in state:
            sig = state["sig"]
            theory = [logic.parse_sentence(sig, t) for t in state["theory"]]
            # A weakening of an axiom is entailed; only the others need models.
            query = state["open_query"] and logic.parse_sentence(sig, state["open_query"])
            last = logic.parse_sentence(sig, state["last"])
            entailed, below = True, True
            for m in _pqr_models(sig, inputs.L_CARRIERS["E"]):
                if not all(oracle_satisfies(m, a) for a in theory):
                    continue
                if query and entailed and not oracle_satisfies(m, query):
                    entailed = False
                if below and not oracle_satisfies(m, last):
                    below = False
            state["expected"] = {
                "lattice": (0, inputs.L10_TEXT),
                "entail": (0, "true\n") if entailed else (1, "false\n"),
                "leq": (0, "true\n") if below else (1, "false\n"),
            }
        return state["expected"]

    def check(self, state, records) -> int:
        expected = self._expected(state)
        return sum(1 for job, rc, out in records if (rc, out) != expected[job])


# ---------------------------------------------------------------------------
# session_M: a library session over the M and ST lattices

# The traffic is assumed, not taken from recorded use: no such record
# exists.  Every kind of query is equally frequent, 385 of each, 2695 in a
# pass.  The session restarts from the top every EPISODE queries, which
# holds about four moves, as many as the navigation script in README.md and
# scripts/demo_navigation.py replay from the top; many short walks also
# vary less from seed to seed than one long walk, which can dwell in one
# corner of the lattice.  Entailment queries draw from a bank of
# NONPOOL_BANK seeded sentences outside the pool, an assumed size.
QUERY_KINDS = ("expand", "contract", "revise", "analogy", "entails", "meet", "join")
QUERIES_PER_KIND = 385
EPISODE = 10
NONPOOL_BANK = 64
# Queries are timed in blocks of BLOCK, each a segment of the gauge; a
# block is whole episodes.
BLOCK = 100


class SessionM:
    def inputs(self, seed: int, work: Path):
        """Only the seed: the query stream picks theories of the lattices
        that ``set_up`` builds, so it is drawn there, at little cost beside
        them."""
        return seed

    def set_up(self, seed: int):
        m_sig = logic.parse_signature(inputs.M_SIG)
        st_sig = logic.parse_signature(inputs.ST_SIG)
        m_pool = [logic.parse_sentence(m_sig, s) for s in inputs.M_POOL]
        st_pool = [logic.parse_sentence(st_sig, s) for s in inputs.ST_POOL]
        tc = truth.build_truth_classification(m_sig, m_pool, carriers=inputs.M_CARRIERS)
        lat = truth.theory_lattice(tc)
        st_tc = truth.build_truth_classification(st_sig, st_pool, carriers=inputs.M_CARRIERS)
        st_lat = truth.theory_lattice(st_tc)
        h = morph.parse_interpretation(st_sig, m_sig, inputs.ST_TO_M)
        im = morph.truth_infomorphism(h, st_tc, tc)
        cm = morph.concept_morphism(im, st_lat, lat)
        require("M models", len(tc.models), 256)
        require("M theories", len(lat.theories), 2508)
        require("ST theories", len(st_lat.theories), 194)

        rng = random.Random(seed)
        pool_keys = set(tc.pool_keys)
        bank: list = []
        while len(bank) < NONPOOL_BANK:
            s = logic.parse_sentence(m_sig, inputs.random_sentence(rng))
            if logic.sentence_key(s) not in pool_keys and s not in bank:
                bank.append(s)
        # Every seed gets the same number of queries of each kind.
        kinds = [k for k in QUERY_KINDS for _ in range(QUERIES_PER_KIND)]
        rng.shuffle(kinds)
        stream = []
        for kind in kinds:
            if kind in ("expand", "contract", "revise"):
                # Contract and revise keep a seeded 0 to 3 of the current
                # axioms (an assumed amount) and delete the rest, so that the
                # walk does not settle in the inconsistent bottom; expand and
                # revise add one.
                stream.append((kind, (rng.random(), rng.randrange(4)), [rng.choice(m_pool)]))
            elif kind == "analogy":
                stream.append((kind, rng.randrange(len(st_lat.theories)), None))
            elif kind == "entails":
                stream.append((kind, rng.randrange(NONPOOL_BANK), None))
            else:
                n = len(lat.theories)
                stream.append((kind, rng.randrange(n), rng.randrange(n)))
        return {
            "tc": tc, "lat": lat, "st_lat": st_lat, "h": h, "adjoint_pair": cm,
            "bank": bank, "stream": stream,
        }

    def run_pass(self, state, tracer, gauge):
        stream = state["stream"]
        latencies, records = [], []
        for first in range(0, len(stream), BLOCK):
            block = stream[first:first + BLOCK]
            with gauge.segment() as seg:
                took = self._run_block(state, block, gauge.clock, records)
            latencies += [dt * seg.factor for dt in took]
        return latencies, records

    def _run_block(self, state, block, clock, records) -> list[float]:
        tc, lat, st_lat, h, bank = (state[k] for k in ("tc", "lat", "st_lat", "h", "bank"))
        theories = lat.theories
        took = []
        for i, (kind, x, y) in enumerate(block):
            if i % EPISODE == 0:
                cur = lat.top
            delete = ()
            if kind in ("contract", "revise"):
                keys, (u, keep) = cur.keys(), x
                start = int(u * len(keys))
                delete = [tc.sentence(keys[(start + j) % len(keys)]) for j in range(len(keys) - keep)]
            t0 = clock()
            try:
                if kind == "expand":
                    out = nav.expand(lat, cur, y)
                elif kind == "contract":
                    out = nav.contract(lat, cur, delete)
                elif kind == "revise":
                    out = nav.revise(lat, cur, delete, y)
                elif kind == "analogy":
                    out = nav.analogy(h, st_lat, lat, st_lat.theories[x])
                elif kind == "entails":
                    out = truth.entails(tc, cur, bank[x])
                elif kind == "meet":
                    out = truth.theory_meet(lat, theories[x], theories[y])
                else:
                    out = truth.theory_join(lat, theories[x], theories[y])
            except Exception as exc:  # a failed query; the session goes on
                out = exc
            took.append(clock() - t0)
            if isinstance(out, Exception):
                traceback.print_exception(out)
            records.append((kind, cur, x, y, delete, out))
            if kind in ("expand", "contract", "revise") and isinstance(out, truth.ClosedTheory):
                cur = out
        return took

    def _oracle(self, state) -> dict:
        """Truth of every pool and bank sentence in every M model, as masks."""
        if "oracle" not in state:
            tc = state["tc"]
            masks = {}
            for s in (*tc.pool, *state["bank"]):
                bits = sum(1 << i for i, m in enumerate(tc.models) if oracle_satisfies(m, s))
                masks[logic.sentence_key(s)] = bits
            state["oracle"] = {
                "pool": {k: masks[k] for k in tc.pool_keys},
                "bank": [masks[logic.sentence_key(s)] for s in state["bank"]],
                "full": (1 << len(tc.models)) - 1,
            }
        return state["oracle"]

    def check(self, state, records) -> int:
        o = self._oracle(state)
        pool, full = o["pool"], o["full"]
        st_theories, theories = state["st_lat"].theories, state["lat"].theories
        memo: dict[int, frozenset] = {}  # by id: every theory here outlives the call

        def keys(theory) -> frozenset:
            if id(theory) not in memo:
                memo[id(theory)] = frozenset(theory.keys())
            return memo[id(theory)]

        def extent(ks) -> int:
            ext = full
            for k in ks:
                ext &= pool[k]
            return ext

        def closed(ks) -> frozenset:
            ext = extent(ks)
            return frozenset(k for k, m in pool.items() if m & ext == ext)

        def st_to_m(key: str) -> str:
            return key.replace("S(", "P(").replace("T(", "R(")

        failed = 0
        for kind, cur, x, y, delete, out in records:
            if isinstance(out, Exception):
                failed += 1
                continue
            if kind == "entails":
                ext = extent(keys(cur))
                failed += out is not (ext & o["bank"][x] == ext)
                continue
            if kind in ("expand", "contract", "revise"):
                dropped = frozenset(map(logic.sentence_key, delete))
                added = frozenset(map(logic.sentence_key, y))
                if kind == "expand":
                    want = closed(keys(cur) | added)
                elif kind == "contract":
                    want = closed(keys(cur) - dropped)
                else:
                    want = closed(closed(keys(cur) - dropped) | added)
            elif kind == "analogy":
                want = closed(st_to_m(k) for k in keys(st_theories[x]))
            elif kind == "meet":
                want = closed(keys(theories[x]) | keys(theories[y]))
            else:
                want = keys(theories[x]) & keys(theories[y])
            failed += not (isinstance(out, truth.ClosedTheory) and keys(out) == want)
        return failed


WORKLOADS = {"lattice_M": LatticeM, "models_L": ModelsL, "session_M": SessionM}

# Stage counts the traced run must see, per span name.
STAGE_COUNTS = {
    "lattice_M": {
        "logic.enumerate_structures": {256},
        "fca.concept_lattice": {2508},
        "truth.theory_lattice": {2508},
        "fca.covers": {10791},
    },
    "models_L": {
        "logic.enumerate_structures": {32768},
        "fca.concept_lattice": {109},
        "truth.theory_lattice": {109},
        "fca.covers": {297},
    },
    "session_M": {
        "logic.enumerate_structures": {256, 64},
        "truth.theory_lattice": {2508, 194},
        "morph.concept_morphism": {486552},
    },
}
