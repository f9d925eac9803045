"""The command line's parser surface, pinned byte for byte.

``CASES`` maps a case name to ``(argv, exit code, stdout, stderr)`` of
``theorylattice`` run with ``COLUMNS=80``: the top-level and every
subcommand's help, and the errors argparse reports before a command runs.
The bytes are those printed under Python ``PINNED_ON``: argparse words its
usage, help and errors differently across Python versions, so elsewhere
the tests compare the parser built for one subcommand with the parser of
every subcommand instead.  ``tests/test_cli.py`` and the CI step "CLI entry
point" read these pins.
"""

from __future__ import annotations

import contextlib
import io
import os
from typing import Callable, Sequence

PINNED_ON = (3, 11)

# options that pass every check but the one a case is about
SEMANTICS = ["--sig", "s.sig", "--carriers", "E=a"]

CASES: dict[str, tuple[list[str], int, str, str]] = {
    "no-args": (
        [],
        2,
        "",
        (
            "usage: theorylattice [-h] [--version]\n"
            "                     {lattice,close,entail,leq,nav,analogy,interp,ctx} ...\n"
            "theorylattice: error: the following arguments are required: command\n"
        ),
    ),
    "-h": (
        ["-h"],
        0,
        (
            "usage: theorylattice [-h] [--version]\n"
            "                     {lattice,close,entail,leq,nav,analogy,interp,ctx} ...\n"
            "\n"
            "Build lattices of theories over finite model sets and query them.\n"
            "\n"
            "positional arguments:\n"
            "  {lattice,close,entail,leq,nav,analogy,interp,ctx}\n"
            "    lattice             build the lattice of theories and export it\n"
            "    close               print the closure of a theory\n"
            "    entail              does a theory entail a sentence? (exit 1 if not)\n"
            "    leq                 is the first theory below the second? (exit 1 if not)\n"
            "    nav                 replay a navigation script\n"
            "    analogy             transport a theory along a signature map\n"
            "    interp              interpretation-induced infomorphisms\n"
            "    ctx                 pure formal-context operations\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --version             show program's version number and exit\n"
        ),
        "",
    ),
    "--help": (
        ["--help"],
        0,
        (
            "usage: theorylattice [-h] [--version]\n"
            "                     {lattice,close,entail,leq,nav,analogy,interp,ctx} ...\n"
            "\n"
            "Build lattices of theories over finite model sets and query them.\n"
            "\n"
            "positional arguments:\n"
            "  {lattice,close,entail,leq,nav,analogy,interp,ctx}\n"
            "    lattice             build the lattice of theories and export it\n"
            "    close               print the closure of a theory\n"
            "    entail              does a theory entail a sentence? (exit 1 if not)\n"
            "    leq                 is the first theory below the second? (exit 1 if not)\n"
            "    nav                 replay a navigation script\n"
            "    analogy             transport a theory along a signature map\n"
            "    interp              interpretation-induced infomorphisms\n"
            "    ctx                 pure formal-context operations\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --version             show program's version number and exit\n"
        ),
        "",
    ),
    "--version": (["--version"], 0, "theorylattice 0.1.0\n", ""),
    "option-first": (
        ["-x", "lattice"],
        2,
        "",
        (
            "usage: theorylattice lattice [-h] --sig FILE --pool FILE\n"
            "                             (--carriers SORT=e1,e2 | --model FILE)\n"
            "                             [--cap-models N] [--cap-concepts N]\n"
            "                             [--format {text,dot,cxt}] [--out FILE]\n"
            "theorylattice lattice: error: the following arguments are required: --sig, --pool\n"
        ),
    ),
    "unknown-command": (
        ["bogus"],
        2,
        "",
        (
            "usage: theorylattice [-h] [--version]\n"
            "                     {lattice,close,entail,leq,nav,analogy,interp,ctx} ...\n"
            "theorylattice: error: argument command: invalid choice: 'bogus' (choose from 'lattice', 'close', 'entail', 'leq', 'nav', 'analogy', 'interp', 'ctx')\n"
        ),
    ),
    "command-prefix": (
        ["lat"],
        2,
        "",
        (
            "usage: theorylattice [-h] [--version]\n"
            "                     {lattice,close,entail,leq,nav,analogy,interp,ctx} ...\n"
            "theorylattice: error: argument command: invalid choice: 'lat' (choose from 'lattice', 'close', 'entail', 'leq', 'nav', 'analogy', 'interp', 'ctx')\n"
        ),
    ),
    "lattice --help": (
        ["lattice", "--help"],
        0,
        (
            "usage: theorylattice lattice [-h] --sig FILE --pool FILE\n"
            "                             (--carriers SORT=e1,e2 | --model FILE)\n"
            "                             [--cap-models N] [--cap-concepts N]\n"
            "                             [--format {text,dot,cxt}] [--out FILE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --sig FILE            signature file\n"
            "  --pool FILE           sentence pool file\n"
            "  --carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --model FILE          an explicit model file (repeatable)\n"
            "  --cap-models N\n"
            "  --cap-concepts N\n"
            "  --format {text,dot,cxt}\n"
            "  --out FILE            write to a file instead of stdout\n"
        ),
        "",
    ),
    "close --help": (
        ["close", "--help"],
        0,
        (
            "usage: theorylattice close [-h] --sig FILE --pool FILE\n"
            "                           (--carriers SORT=e1,e2 | --model FILE)\n"
            "                           [--cap-models N] --theory FILE\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --sig FILE            signature file\n"
            "  --pool FILE           sentence pool file\n"
            "  --carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --model FILE          an explicit model file (repeatable)\n"
            "  --cap-models N\n"
            "  --theory FILE\n"
        ),
        "",
    ),
    "entail --help": (
        ["entail", "--help"],
        0,
        (
            "usage: theorylattice entail [-h] --sig FILE [--pool FILE]\n"
            "                            (--carriers SORT=e1,e2 | --model FILE)\n"
            "                            [--cap-models N] --theory FILE --query SENTENCE\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --sig FILE            signature file\n"
            "  --pool FILE           sentence pool file (optional)\n"
            "  --carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --model FILE          an explicit model file (repeatable)\n"
            "  --cap-models N\n"
            "  --theory FILE\n"
            "  --query SENTENCE\n"
        ),
        "",
    ),
    "leq --help": (
        ["leq", "--help"],
        0,
        (
            "usage: theorylattice leq [-h] --sig FILE [--pool FILE]\n"
            "                         (--carriers SORT=e1,e2 | --model FILE)\n"
            "                         [--cap-models N] --theory FILE --theory2 FILE\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --sig FILE            signature file\n"
            "  --pool FILE           sentence pool file (optional)\n"
            "  --carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --model FILE          an explicit model file (repeatable)\n"
            "  --cap-models N\n"
            "  --theory FILE         the candidate lower theory\n"
            "  --theory2 FILE        the candidate upper theory\n"
        ),
        "",
    ),
    "nav --help": (
        ["nav", "--help"],
        0,
        (
            "usage: theorylattice nav [-h] --sig FILE --pool FILE\n"
            "                         (--carriers SORT=e1,e2 | --model FILE)\n"
            "                         [--cap-models N] [--cap-concepts N] [--start FILE]\n"
            "                         --script FILE\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --sig FILE            signature file\n"
            "  --pool FILE           sentence pool file\n"
            "  --carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --model FILE          an explicit model file (repeatable)\n"
            "  --cap-models N\n"
            "  --cap-concepts N\n"
            "  --start FILE          starting theory (default: the top)\n"
            "  --script FILE\n"
        ),
        "",
    ),
    "analogy --help": (
        ["analogy", "--help"],
        0,
        (
            "usage: theorylattice analogy [-h] --sig FILE --pool FILE\n"
            "                             (--carriers SORT=e1,e2 | --model FILE)\n"
            "                             [--dst-sig FILE] [--dst-pool FILE]\n"
            "                             [--dst-carriers SORT=e1,e2 | --dst-model FILE]\n"
            "                             [--cap-models N] [--cap-concepts N] --map FILE\n"
            "                             --theory FILE\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --sig FILE            signature file\n"
            "  --pool FILE           sentence pool file\n"
            "  --carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --model FILE          an explicit model file (repeatable)\n"
            "  --dst-sig FILE        destination signature (default: source)\n"
            "  --dst-pool FILE\n"
            "  --dst-carriers SORT=e1,e2\n"
            "  --dst-model FILE\n"
            "  --cap-models N\n"
            "  --cap-concepts N\n"
            "  --map FILE            map file\n"
            "  --theory FILE\n"
        ),
        "",
    ),
    "interp --help": (
        ["interp", "--help"],
        0,
        (
            "usage: theorylattice interp [-h] {check,apply} ...\n"
            "\n"
            "positional arguments:\n"
            "  {check,apply}\n"
            "    check        validate the induced infomorphism\n"
            "    apply        apply dir or inv\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
        ),
        "",
    ),
    "ctx --help": (
        ["ctx", "--help"],
        0,
        (
            "usage: theorylattice ctx [-h] {concepts} ...\n"
            "\n"
            "positional arguments:\n"
            "  {concepts}\n"
            "    concepts  enumerate the concepts of a .cxt context\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
        ),
        "",
    ),
    "interp check --help": (
        ["interp", "check", "--help"],
        0,
        (
            "usage: theorylattice interp check [-h] --sig FILE --pool FILE\n"
            "                                  (--carriers SORT=e1,e2 | --model FILE)\n"
            "                                  --dst-sig FILE --dst-pool FILE\n"
            "                                  (--dst-carriers SORT=e1,e2 | --dst-model FILE)\n"
            "                                  [--cap-models N] --map FILE\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --sig FILE            signature file\n"
            "  --pool FILE           sentence pool file\n"
            "  --carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --model FILE          an explicit model file (repeatable)\n"
            "  --dst-sig FILE        signature file\n"
            "  --dst-pool FILE       sentence pool file\n"
            "  --dst-carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --dst-model FILE      an explicit model file (repeatable)\n"
            "  --cap-models N\n"
            "  --map FILE\n"
        ),
        "",
    ),
    "interp apply --help": (
        ["interp", "apply", "--help"],
        0,
        (
            "usage: theorylattice interp apply [-h] --sig FILE --pool FILE\n"
            "                                  (--carriers SORT=e1,e2 | --model FILE)\n"
            "                                  --dst-sig FILE --dst-pool FILE\n"
            "                                  (--dst-carriers SORT=e1,e2 | --dst-model FILE)\n"
            "                                  [--cap-models N] [--cap-concepts N] --map\n"
            "                                  FILE [--direction {dir,inv}] --theory FILE\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --sig FILE            signature file\n"
            "  --pool FILE           sentence pool file\n"
            "  --carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --model FILE          an explicit model file (repeatable)\n"
            "  --dst-sig FILE        signature file\n"
            "  --dst-pool FILE       sentence pool file\n"
            "  --dst-carriers SORT=e1,e2\n"
            "                        enumerate all structures over these carriers\n"
            "                        (repeatable; ';' separates sorts)\n"
            "  --dst-model FILE      an explicit model file (repeatable)\n"
            "  --cap-models N\n"
            "  --cap-concepts N\n"
            "  --map FILE\n"
            "  --direction {dir,inv}\n"
            "  --theory FILE         over the source for dir, over the destination for inv\n"
        ),
        "",
    ),
    "ctx concepts --help": (
        ["ctx", "concepts", "--help"],
        0,
        (
            "usage: theorylattice ctx concepts [-h] --cxt FILE [--format {text,dot,cxt}]\n"
            "                                  [--out FILE] [--cap-concepts N]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --cxt FILE\n"
            "  --format {text,dot,cxt}\n"
            "  --out FILE\n"
            "  --cap-concepts N\n"
        ),
        "",
    ),
    "interp": (
        ["interp"],
        2,
        "",
        (
            "usage: theorylattice interp [-h] {check,apply} ...\n"
            "theorylattice interp: error: the following arguments are required: subcommand\n"
        ),
    ),
    "interp nope": (
        ["interp", "nope"],
        2,
        "",
        (
            "usage: theorylattice interp [-h] {check,apply} ...\n"
            "theorylattice interp: error: argument subcommand: invalid choice: 'nope' (choose from 'check', 'apply')\n"
        ),
    ),
    "ctx": (
        ["ctx"],
        2,
        "",
        (
            "usage: theorylattice ctx [-h] {concepts} ...\n"
            "theorylattice ctx: error: the following arguments are required: subcommand\n"
        ),
    ),
    "lattice missing option": (
        ["lattice", "--sig", "x", "extra"],
        2,
        "",
        (
            "usage: theorylattice lattice [-h] --sig FILE --pool FILE\n"
            "                             (--carriers SORT=e1,e2 | --model FILE)\n"
            "                             [--cap-models N] [--cap-concepts N]\n"
            "                             [--format {text,dot,cxt}] [--out FILE]\n"
            "theorylattice lattice: error: the following arguments are required: --pool\n"
        ),
    ),
    "lattice extra argument": (
        ["lattice", *SEMANTICS, "--pool", "p.pool", "extra"],
        2,
        "",
        (
            "usage: theorylattice [-h] [--version]\n"
            "                     {lattice,close,entail,leq,nav,analogy,interp,ctx} ...\n"
            "theorylattice: error: unrecognized arguments: extra\n"
        ),
    ),
    "lattice bad format": (
        ["lattice", *SEMANTICS, "--pool", "p.pool", "--format", "xml"],
        2,
        "",
        (
            "usage: theorylattice lattice [-h] --sig FILE --pool FILE\n"
            "                             (--carriers SORT=e1,e2 | --model FILE)\n"
            "                             [--cap-models N] [--cap-concepts N]\n"
            "                             [--format {text,dot,cxt}] [--out FILE]\n"
            "theorylattice lattice: error: argument --format: invalid choice: 'xml' (choose from 'text', 'dot', 'cxt')\n"
        ),
    ),
    "entail unknown option": (
        ["entail", *SEMANTICS, "--theory", "t.thy", "--query", "q", "--bogus"],
        2,
        "",
        (
            "usage: theorylattice [-h] [--version]\n"
            "                     {lattice,close,entail,leq,nav,analogy,interp,ctx} ...\n"
            "theorylattice: error: unrecognized arguments: --bogus\n"
        ),
    ),
}


def surface(run: Callable[[Sequence[str]], object], argv: Sequence[str]) -> tuple[object, str, str]:
    """The exit code, stdout and stderr of ``run(argv)`` at 80 columns; the
    code is what ``run`` returns when it does not exit."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return code, out.getvalue(), err.getvalue()
