"""Benchmark of the theorylattice pipeline, one workload per run.

    python3 bench/run.py --workload lattice_M --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

- ``lattice_M``: the CLI ``lattice`` command on M, as text and as DOT.
- ``models_L``: the CLI ``lattice --format text`` on L with pool L10, then
  ``entail`` and ``leq`` on L with no pool, on seeded theories and queries.
- ``session_M``: a library session of 2695 seeded queries over the M and
  ST lattices, after building both, the infomorphism and the adjoint pair.

Cases left out because they are too slow to repeat, for later workloads:

- ``lattice --format dot`` on L: over 300 s; ``lattice_dot`` calls
  ``instance_concept`` once per model, so it grows with models squared.
- ``density_report`` on M: 36 s.
- ``concept_morphism`` of the P<->Q swap on M plus the two mirrored
  sentences: 78 s over 3048 theories.

One process, one thread, one caller.  The run re-executes itself once
with ``PYTHONHASHSEED`` fixed: string hashes lay out the package's sets and
dicts, and over four hash seeds the same ``covers`` computation took from
0.85 to 1.15 of its median, the same way in two rounds.  Every timed
segment is scaled to a reference host speed by the gauge (``gauge.py``),
because the shared host's own speed drifts more than the bounds allow; the
run prints the median factor as ``host_factor``, and spans are timed by
the gauge's clock.  ``setup_s`` is the median of five fresh imports of the
package plus the median of three set-ups of the program; the seeded inputs
are generated before, untimed.  Then passes over the workload's
operations repeat until they took ``--seconds`` and at least three ran, so
that the median drops one pass the gauge did not fully correct.  ``wall_s``
is the median pass, summed over its operations.
The latency percentiles are over queries: a library call on
``session_M``; a pass over the commands on the CLI workloads, where
``query_p50_ms`` is therefore ``wall_s`` in milliseconds and
``query_p90_ms`` lies between the slowest passes.  Every operation is
checked after its pass, outside the timing: fixed CLI outputs against recorded
sha256 digests, seeded answers against the evaluator in
``tests/oracles.py``.  The failed share is printed as ``ops_failed_ratio``.

With ``--trace 1`` the run is split into an untraced half and a traced
half.  The per-layer metrics come from spans around the package's public
functions and describe one set-up plus one average pass; the spans are
written to ``.bench_out/``.  ``trace.overhead_ratio`` is the traced over
the untraced ``wall_s``, and ``trace.unattributed_ratio`` the share of the
traced set-up and passes that no span of a layer covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when a stage count differs from what the fixed inputs must give and 2
when the package cannot be imported; no result is printed then.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from gauge import Gauge

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
IMPORTS = 5
SETUPS = 3
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_package(gauge: Gauge) -> float:
    """Import the package from the checkout ``IMPORTS`` times, each time
    afresh; returns the median scaled seconds.  The modules of the last
    import stay loaded."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    times = []
    for _ in range(IMPORTS):
        for name in [n for n in sys.modules if n.split(".")[0] == "theorylattice"]:
            del sys.modules[name]
        with gauge.segment() as seg:
            t0 = gauge.clock()
            importlib.import_module("theorylattice.cli")
            dt = gauge.clock() - t0
        times.append(dt * seg.factor)
    return statistics.median(times)


def run_passes(workload, state, seconds: float, least: int, tracer, gauge, check, tally) -> list[list]:
    """Repeat passes until they took ``seconds`` and ``least`` of them ran.

    Returns each pass's query latencies.  Each pass is checked after
    it ends, outside its timing, and its records are dropped, so that
    they do not grow the heap the next pass collects garbage from.
    """
    passes: list[list] = []
    timed = 0.0
    while len(passes) < least or timed < seconds:
        gc.collect()
        t0 = perf_counter()
        if tracer is None:
            latencies, records = workload.run_pass(state, None, gauge)
        else:
            latencies, records = tracer.call("bench.pass", workload.run_pass, state, tracer, gauge)
        timed += perf_counter() - t0
        passes.append(latencies)
        tally["attempted"] += len(records)
        tally["failed"] += check(records)
    return passes


def wall(passes) -> float:
    """The median over passes of the summed query latencies."""
    return statistics.median(sum(latencies) for latencies in passes)


def end_to_end(setup_s: float, passes) -> dict[str, float]:
    queries = [dt for latencies in passes for dt in latencies]
    cuts = statistics.quantiles(queries, n=100, method="inclusive")
    return {
        "setup_s": setup_s,
        "wall_s": wall(passes),
        "query_p50_ms": 1000 * cuts[49],
        "query_p90_ms": 1000 * cuts[89],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(totals, satisfies: float, ratios: dict) -> dict[str, tuple]:
    """The per-layer metrics of one set-up plus one average traced pass."""
    self_s, whole_s, calls, sizes = totals

    def total(name: str) -> float:
        return sum(w * v for w, v in sizes[name])

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    tcs = [(w, s) for w, s in sizes["truth.build_truth_classification"] if s[1]]
    density = share(
        sum(w * inc for w, (_m, _p, inc) in tcs), sum(w * m * p for w, (m, p, _i) in tcs)
    )
    roots = whole_s["bench.setup"] + whole_s["bench.pass"]
    metrics = {
        "logic.enumerate_s": (self_s["logic.enumerate_structures"], "s"),
        "logic.models": (total("logic.enumerate_structures"), "count"),
        "logic.satisfies_calls": (satisfies, "count"),
        "truth.satisfaction_s": (self_s["truth.build_truth_classification"], "s"),
        "truth.incidence_density": (density, "ratio"),
        "fca.next_closure_s": (self_s["fca.concept_lattice"], "s"),
        "fca.concepts": (total("fca.concept_lattice"), "count"),
        "truth.theories_s": (self_s["truth.theory_lattice"], "s"),
        "fca.covers_s": (self_s["fca.covers"], "s"),
        "fca.cover_edges": (total("fca.covers"), "count"),
        "truth.lattice_text_s": (self_s["truth.lattice_text"], "s"),
        "fca.lattice_dot_s": (self_s["fca.lattice_dot"], "s"),
        "export.bytes": (total("truth.lattice_text") + total("fca.lattice_dot"), "bytes"),
        "truth.closure_s": (self_s["truth.closure"], "s"),
        "truth.closure_calls": (calls["truth.closure"], "count"),
        "truth.entails_s": (self_s["truth.entails"], "s"),
        "truth.entails_nonpool_ratio": (share(total("truth.entails"), calls["truth.entails"]), "ratio"),
        "truth.meet_s": (self_s["truth.theory_meet"], "s"),
        "truth.join_s": (self_s["truth.theory_join"], "s"),
        "nav.expand_s": (self_s["nav.expand"], "s"),
        "nav.contract_s": (self_s["nav.contract"], "s"),
        "nav.revise_s": (self_s["nav.revise"], "s"),
        "nav.analogy_s": (self_s["nav.analogy"], "s"),
        "morph.translate_s": (self_s["morph.translate"], "s"),
        "morph.infomorphism_s": (self_s["morph.truth_infomorphism"], "s"),
        "morph.concept_morphism_s": (self_s["morph.concept_morphism"], "s"),
        "morph.adjunction_pairs": (total("morph.concept_morphism"), "count"),
        "cli.lattice_s": (whole_s["cli.lattice"], "s"),
        "cli.entail_s": (whole_s["cli.entail"], "s"),
        "cli.leq_s": (whole_s["cli.leq"], "s"),
        "trace.overhead_ratio": (ratios["wall"], "ratio"),
        "trace.setup_overhead_ratio": (ratios["setup"], "ratio"),
        "trace.unattributed_ratio": (
            share(self_s["bench.setup"] + self_s["bench.pass"], roots), "ratio"
        ),
    }
    return {name: (float(value), unit) for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lattice_M", "models_L", "session_M"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gauge = Gauge()
    try:
        import_s = _import_package(gauge)
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: the package and its test oracles must be in {ROOT}: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    work = OUT / f"work-{os.getpid()}"
    try:
        given = workload.inputs(args.seed, work)
        setups = []
        for _ in range(SETUPS if not args.trace else 1):
            state = None  # free the previous set-up before timing the next
            gc.collect()
            with gauge.segment() as seg:
                t0 = gauge.clock()
                state = workload.set_up(given)
                dt = gauge.clock() - t0
            setups.append(dt * seg.factor)
        setup_s = import_s + statistics.median(setups)

        # Every pass is checked against the untraced set-up's state.
        check = functools.partial(workload.check, state)
        tally = {"attempted": 0, "failed": 0}
        if not args.trace:
            passes = run_passes(workload, state, args.seconds, 3, None, gauge, check, tally)
        else:
            untraced = run_passes(workload, state, args.seconds / 2, 1, None, gauge, check, tally)
            tracer = tracing.Tracer(gauge.clock)
            tracer.install()
            try:
                gc.collect()
                with gauge.segment() as seg:
                    traced_state = tracer.call("bench.setup", workload.set_up, given)
                span = next(s for s in tracer.spans if s[0] == "bench.setup")
                traced_setup = (span[2] - span[1]) * seg.factor
                in_setup = tracer.satisfies_calls
                traced = run_passes(workload, traced_state, args.seconds / 2, 1, tracer, gauge, check, tally)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            seen = tracing.stage_counts(tracer.spans)
            for name, counts in workloads.STAGE_COUNTS[args.workload].items():
                workloads.require(f"stage counts of {name}", seen.get(name, set()), counts)
    except workloads.StageCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = tally["attempted"], tally["failed"]
    if not args.trace:
        values = end_to_end(setup_s, passes)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        ratios = {"wall": wall(traced) / wall(untraced), "setup": traced_setup / (setup_s - import_s)}
        satisfies = in_setup + (tracer.satisfies_calls - in_setup) / len(traced)
        metrics = per_layer(tracing.layer_totals(tracer.spans), satisfies, ratios)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "spans": [["name", "start", "end", "parent", "size"], *tracer.spans],
        }))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} operations, {failed} failed")
    print(f"  ops_failed_ratio {failed / attempted:.6g} ratio")
    print(f"  host_factor {statistics.median(gauge.factors):.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
