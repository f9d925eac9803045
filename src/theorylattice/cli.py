"""Batch command-line front door.

Subcommands load signatures, pools, and models from files, build the
lattice of theories, and run queries or exports.  All outputs are
deterministic.  Exit codes: 0 success (and positive answers), 1 negative
``entail``/``leq``/``check`` answers, 2 input errors (with file and line
diagnostics where available), 3 size-cap refusals, 4 internal errors (any
other exception, reported on one line), 141 when stdout was closed before
the output was written (``| head``), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__, fca
from .errors import InfomorphismError, ParseError, SizeCapError
from .logic import (
    DEFAULT_MODEL_CAP,
    Formula,
    Signature,
    parse_model,
    parse_sentence,
    parse_sentences,
    parse_signature,
)
from .truth import (
    ClosedTheory,
    TruthClassification,
    _text_records,
    build_truth_classification,
    closure,
    entails,
    theory_lattice,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start}: {exc.reason}", path=path) from None


def load_signature(path: str) -> Signature:
    return parse_signature(_read(path), path=path)


def load_sentences(sig: Signature, path: str) -> tuple[Formula, ...]:
    return parse_sentences(sig, _read(path), path=path)


def parse_carrier_spec(specs: Sequence[str]) -> dict[str, list[str]]:
    """Parse repeated ``SORT=e1,e2`` flags; ``;`` separates sorts in one flag."""
    out: dict[str, list[str]] = {}
    for spec in specs:
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            sort, sep, elems = part.partition("=")
            sort = sort.strip()
            if not sep or not sort:
                raise ParseError(f"bad carrier spec {part!r}; expected SORT=e1,e2")
            if sort in out:
                raise ParseError(f"duplicate carrier spec for {sort!r}")
            elements = [e.strip() for e in elems.split(",") if e.strip()]
            if not elements:
                raise ParseError(f"carrier spec for {sort!r} lists no elements")
            out[sort] = elements
    return out


def _add_model_source(p: argparse.ArgumentParser, prefix: str = "") -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        f"--{prefix}carriers",
        action="append",
        metavar="SORT=e1,e2",
        help="enumerate all structures over these carriers (repeatable; ';' separates sorts)",
    )
    group.add_argument(
        f"--{prefix}model",
        action="append",
        metavar="FILE",
        help="an explicit model file (repeatable)",
    )


def _add_semantics(p: argparse.ArgumentParser, prefix: str = "", pool_required: bool = True) -> None:
    dash = f"--{prefix}"
    p.add_argument(f"{dash}sig", required=True, metavar="FILE", help="signature file")
    p.add_argument(
        f"{dash}pool",
        required=pool_required,
        metavar="FILE",
        help="sentence pool file" + ("" if pool_required else " (optional)"),
    )
    _add_model_source(p, prefix)


def _cap(text: str) -> int:
    """A ``--cap-*`` value: a non-negative int.  A negative cap would refuse
    every run as if the input were too large, so it is an input error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


def _add_model_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap-models", type=_cap, default=DEFAULT_MODEL_CAP, metavar="N")


def _add_caps(p: argparse.ArgumentParser) -> None:
    """Both caps, for the commands that enumerate a lattice of theories."""
    _add_model_cap(p)
    p.add_argument("--cap-concepts", type=_cap, default=fca.DEFAULT_CONCEPT_CAP, metavar="N")


def build_tc(args: argparse.Namespace, prefix: str = "") -> TruthClassification:
    get = lambda name: getattr(args, (prefix + name).replace("-", "_"))
    sig = load_signature(get("sig"))
    pool_path = get("pool")
    pool = load_sentences(sig, pool_path) if pool_path else ()
    carriers = get("carriers")
    if carriers is not None:
        return build_truth_classification(
            sig, pool, carriers=parse_carrier_spec(carriers), model_cap=args.cap_models
        )
    models = [parse_model(sig, _read(path), path=path) for path in get("model")]
    return build_truth_classification(sig, pool, models=models)


_BLOCK = 1 << 16


def _blocks(records: Iterable[str]) -> Iterator[str]:
    """The records joined into blocks of at least ``_BLOCK`` characters, the
    last one shorter; a record that long is passed on uncopied, after the
    smaller ones before it.  They serve DOT, one record per node and per
    cover edge (cxt rows come 2^16 to a record): piped, with one write per
    record H38's 7.2 MB DOT took 2.22-3.00 s against 1.77-2.24 s (Python
    3.11, 2 shared cores, 5 alternating runs), and the M and W20 exports did
    not move.  A long record is dropped once it is written, before the next
    one is built, so that memory tracks the largest record, not the sum of
    two: holding it peaked the W20 text export at 81.8 MB against 68.8 MB."""
    block: list[str] = []
    n = 0
    for record in records:
        if len(record) >= _BLOCK:
            if block:
                yield "".join(block)
                block, n = [], 0
            yield record
            del record  # not held while the next record is built
            continue
        block.append(record)
        n += len(record)
        if n >= _BLOCK:
            yield "".join(block)
            block, n = [], 0
    yield "".join(block)


def _emit(args: argparse.Namespace, records: Iterable[str]) -> None:
    """Write an export's records as they are made, to ``--out`` or stdout.

    An exporter runs every check and builds the covers before it returns
    its records, so a refusal comes before the file is opened.
    """
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(_blocks(records))
    else:
        sys.stdout.writelines(_blocks(records))


def _print_theory(theory: ClosedTheory) -> None:
    for key in theory.keys():
        print(key)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_lattice(args: argparse.Namespace) -> int:
    tc = build_tc(args)
    if args.format == "cxt":  # needs no lattice, so reads no concept cap
        _emit(args, fca._cxt_records(tc.classification, "truth"))
        return 0
    lat = theory_lattice(tc, concept_cap=args.cap_concepts)
    if args.format == "text":
        _emit(args, _text_records(lat))
    else:
        _emit(args, fca._dot_records(lat.lattice, "lattice"))
    return 0


def cmd_close(args: argparse.Namespace) -> int:
    tc = build_tc(args)
    _print_theory(closure(tc, load_sentences(tc.signature, args.theory)))
    return 0


def cmd_entail(args: argparse.Namespace) -> int:
    tc = build_tc(args)
    theory = load_sentences(tc.signature, args.theory)
    query = parse_sentence(tc.signature, args.query)
    answer = entails(tc, theory, query)
    print("true" if answer else "false")
    return 0 if answer else 1


def cmd_leq(args: argparse.Namespace) -> int:
    tc = build_tc(args)
    t1 = load_sentences(tc.signature, args.theory)
    t2 = load_sentences(tc.signature, args.theory2)
    models = tc._models_mask(t1)
    answer = all(models & ~tc._column(s) == 0 for s in t2)
    print("true" if answer else "false")
    return 0 if answer else 1


# The four commands below import the transport layer (``morph``, ``nav``)
# themselves: no other command loads it.


def cmd_nav(args: argparse.Namespace) -> int:
    from . import nav
    from .morph import parse_interpretation

    tc = build_tc(args)
    lat = theory_lattice(tc, concept_cap=args.cap_concepts)
    start = lat.closure(load_sentences(tc.signature, args.start) if args.start else ())
    sig = tc.signature

    def load_map(path: str):
        return parse_interpretation(sig, sig, _read(path), path=path)

    steps = nav.apply_nav_script(lat, start, _read(args.script), load_morphism=load_map, path=args.script)
    for k, step in enumerate(steps, start=1):
        result = lat.theories[step.result]
        body = "; ".join(result.keys()) or "(none)"
        print(f"{k} {step.kind} -> theory {step.result}: {body}")
    return 0


def cmd_analogy(args: argparse.Namespace) -> int:
    from . import nav
    from .morph import parse_interpretation

    dst_models = args.dst_carriers or args.dst_model
    if args.dst_sig and not (args.dst_pool and dst_models):
        raise ParseError("--dst-sig needs --dst-pool and one of --dst-carriers/--dst-model")
    if not args.dst_sig and (args.dst_pool or dst_models):
        raise ParseError("--dst-pool, --dst-carriers and --dst-model need --dst-sig")
    tc1 = build_tc(args)
    lat1 = theory_lattice(tc1, concept_cap=args.cap_concepts)
    if args.dst_sig:
        tc2 = build_tc(args, prefix="dst-")
        lat2 = theory_lattice(tc2, concept_cap=args.cap_concepts)
    else:
        tc2, lat2 = tc1, lat1
    f = parse_interpretation(tc1.signature, tc2.signature, _read(args.map), path=args.map)
    theory = lat1.closure(load_sentences(tc1.signature, args.theory))
    _print_theory(nav.analogy(f, lat1, lat2, theory))
    return 0


def cmd_interp_check(args: argparse.Namespace) -> int:
    from .morph import parse_interpretation, truth_infomorphism

    tc1 = build_tc(args)
    tc2 = build_tc(args, prefix="dst-")
    h = parse_interpretation(tc1.signature, tc2.signature, _read(args.map), path=args.map)
    try:
        truth_infomorphism(h, tc1, tc2)
    except InfomorphismError as exc:
        print(f"false: {exc}")
        return 1
    print("true")
    return 0


def cmd_interp_apply(args: argparse.Namespace) -> int:
    from .morph import concept_morphism, parse_interpretation, truth_infomorphism

    tc1 = build_tc(args)
    tc2 = build_tc(args, prefix="dst-")
    h = parse_interpretation(tc1.signature, tc2.signature, _read(args.map), path=args.map)
    im = truth_infomorphism(h, tc1, tc2)
    lat1 = theory_lattice(tc1, concept_cap=args.cap_concepts)
    lat2 = theory_lattice(tc2, concept_cap=args.cap_concepts)
    cm = concept_morphism(im, lat1, lat2)
    if args.direction == "dir":
        theory = lat1.closure(load_sentences(tc1.signature, args.theory))
        _print_theory(cm.dir(theory))
    else:
        theory = lat2.closure(load_sentences(tc2.signature, args.theory))
        _print_theory(cm.inv(theory))
    return 0


def cmd_ctx_concepts(args: argparse.Namespace) -> int:
    ctx = fca.read_cxt(_read(args.cxt), path=args.cxt)
    if args.format == "cxt":  # needs no lattice, so reads no concept cap
        _emit(args, fca._cxt_records(ctx, ""))
        return 0
    lat = fca.concept_lattice(ctx, cap=args.cap_concepts)
    if args.format == "dot":
        _emit(args, fca._dot_records(lat, "lattice"))
    else:
        _emit(args, fca._concept_records(lat))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly: one options builder per subcommand


def _lattice_options(p: argparse.ArgumentParser) -> None:
    _add_semantics(p)
    _add_caps(p)
    p.add_argument("--format", choices=("text", "dot", "cxt"), default="text")
    p.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_lattice)


def _close_options(p: argparse.ArgumentParser) -> None:
    _add_semantics(p)
    _add_model_cap(p)
    p.add_argument("--theory", required=True, metavar="FILE")
    p.set_defaults(func=cmd_close)


def _entail_options(p: argparse.ArgumentParser) -> None:
    _add_semantics(p, pool_required=False)
    _add_model_cap(p)
    p.add_argument("--theory", required=True, metavar="FILE")
    p.add_argument("--query", required=True, metavar="SENTENCE")
    p.set_defaults(func=cmd_entail)


def _leq_options(p: argparse.ArgumentParser) -> None:
    _add_semantics(p, pool_required=False)
    _add_model_cap(p)
    p.add_argument("--theory", required=True, metavar="FILE", help="the candidate lower theory")
    p.add_argument("--theory2", required=True, metavar="FILE", help="the candidate upper theory")
    p.set_defaults(func=cmd_leq)


def _nav_options(p: argparse.ArgumentParser) -> None:
    _add_semantics(p)
    _add_caps(p)
    p.add_argument("--start", metavar="FILE", help="starting theory (default: the top)")
    p.add_argument("--script", required=True, metavar="FILE")
    p.set_defaults(func=cmd_nav)


def _analogy_options(p: argparse.ArgumentParser) -> None:
    _add_semantics(p)
    p.add_argument("--dst-sig", metavar="FILE", help="destination signature (default: source)")
    p.add_argument("--dst-pool", metavar="FILE")
    dst_group = p.add_mutually_exclusive_group()
    dst_group.add_argument("--dst-carriers", action="append", metavar="SORT=e1,e2")
    dst_group.add_argument("--dst-model", action="append", metavar="FILE")
    _add_caps(p)
    p.add_argument("--map", required=True, metavar="FILE", help="map file")
    p.add_argument("--theory", required=True, metavar="FILE")
    p.set_defaults(func=cmd_analogy)


def _interp_options(p: argparse.ArgumentParser) -> None:
    isub = p.add_subparsers(dest="subcommand", required=True)
    for name, func in (("check", cmd_interp_check), ("apply", cmd_interp_apply)):
        q = isub.add_parser(
            name,
            help="validate the induced infomorphism" if name == "check" else "apply dir or inv",
        )
        _add_semantics(q)
        _add_semantics(q, prefix="dst-")
        (_add_caps if name == "apply" else _add_model_cap)(q)
        q.add_argument("--map", required=True, metavar="FILE")
        if name == "apply":
            q.add_argument("--direction", choices=("dir", "inv"), default="dir")
            q.add_argument(
                "--theory",
                required=True,
                metavar="FILE",
                help="over the source for dir, over the destination for inv",
            )
        q.set_defaults(func=func)


def _ctx_options(p: argparse.ArgumentParser) -> None:
    csub = p.add_subparsers(dest="subcommand", required=True)
    q = csub.add_parser("concepts", help="enumerate the concepts of a .cxt context")
    q.add_argument("--cxt", required=True, metavar="FILE")
    q.add_argument("--format", choices=("text", "dot", "cxt"), default="text")
    q.add_argument("--out", metavar="FILE")
    q.add_argument("--cap-concepts", type=_cap, default=fca.DEFAULT_CONCEPT_CAP, metavar="N")
    q.set_defaults(func=cmd_ctx_concepts)


# Each subcommand's help line and options builder, in the order the help lists them.
_SUBCOMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "lattice": ("build the lattice of theories and export it", _lattice_options),
    "close": ("print the closure of a theory", _close_options),
    "entail": ("does a theory entail a sentence? (exit 1 if not)", _entail_options),
    "leq": ("is the first theory below the second? (exit 1 if not)", _leq_options),
    "nav": ("replay a navigation script", _nav_options),
    "analogy": ("transport a theory along a signature map", _analogy_options),
    "interp": ("interpretation-induced infomorphisms", _interp_options),
    "ctx": ("pure formal-context operations", _ctx_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, given a subcommand's name, of that
    one alone.  Both parse and report that subcommand's arguments alike, and
    both usage lines list every subcommand; only the full parser can report
    a missing or unknown subcommand, so ``main`` builds it whenever the first
    argument is not a subcommand's name."""
    parser = argparse.ArgumentParser(
        prog="theorylattice",
        description="Build lattices of theories over finite model sets and query them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        metavar = "{" + ",".join(_SUBCOMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if command is None else (command,):
        help, add_options = _SUBCOMMANDS[name]
        add_options(sub.add_parser(name, help=help))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout (``| head``): stop quietly with the
        # status of a process killed by SIGPIPE.  Stdout now writes to
        # devnull, so that its flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
