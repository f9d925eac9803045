"""End-to-end command line coverage, including exit codes and determinism."""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import os
import runpy
import string
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cli_surface
from oracles import M_POOL, M_SIG, ST_POOL, ST_SIG
from theorylattice import cli, fca
from theorylattice.cli import _BLOCK, _blocks, build_parser, main, parse_carrier_spec
from theorylattice.errors import ParseError
from theorylattice.logic import parse_signature
from theorylattice.morph import make_interpretation, parse_interpretation

SIG = "entity E\nrelation P(E)\nrelation Q(E)\n"
POOL = (
    "forall x:E. P(x)\n"
    "forall x:E. Q(x)\n"
    "exists x:E. P(x)\n"
    "forall x:E. P(x) -> Q(x)\n"
)
SWAP_POOL = POOL + "exists x:E. Q(x)\nforall x:E. Q(x) -> P(x)\n"
UNARY_SIG = "entity E\nrelation R(E)\n"
UNARY_POOL = "forall x:E. R(x)\nexists x:E. R(x)\n"
WIDE_POOL = POOL + "forall x:E. P(x) & Q(x)\nexists x:E. P(x) & Q(x)\n"
SWAP_MAP = "entity E -> E\nrelation P -> Q\nrelation Q -> P\n"
CONJ_INT = "entity E -> E\nrelation R(x1) -> P(x1) & Q(x1)\n"
DEMO_CXT = "B\ndemo\n3\n3\n\n1\n2\n3\na\nb\nc\nXX.\n.XX\n..X\n"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    files = {
        "sig": SIG,
        "pool": POOL,
        "swap_pool": SWAP_POOL,
        "unary_sig": UNARY_SIG,
        "unary_pool": UNARY_POOL,
        "wide_pool": WIDE_POOL,
        "swap.map": SWAP_MAP,
        "conj.int": CONJ_INT,
        "demo.cxt": DEMO_CXT,
        "empty.cxt": "B\nempty\n0\n0\n\n",
        "noattr.cxt": "B\nnoattr\n2\n0\n\n1\n2\n\n\n",
        "bad.cxt": "B\nbad\n1\n1\n\n1\na\nQ\n",
        "empty.thy": "",
        "t1.thy": "forall x:E. P(x)\n",
        "t3.thy": "exists x:E. P(x)\n",
        "t_allR.thy": "forall x:E. R(x)\n",
        "wide_all.thy": WIDE_POOL,
        "m_pa_qb.model": "universe E = {a, b}\nP = {a}\nQ = {b}\n",
        "m_full.model": "universe E = {a, b}\nP = {a, b}\nQ = {a, b}\n",
        "bad_pool": "forall x:E. P(x)\nforall x:E. R(x)\n",
    }
    paths = {}
    for name, text in files.items():
        p = root / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    steps = root / "steps.nav"
    steps.write_text(
        "expand forall x:E. P(x)\n"
        f"analogy {paths['swap.map']}\n"
        "contract forall x:E. Q(x)\n",
        encoding="utf-8",
    )
    paths["steps.nav"] = str(steps)
    paths["_root"] = root
    return paths


def pq_args(ws, *, pool="pool"):
    return ["--sig", ws["sig"], "--pool", ws[pool], "--carriers", "E=a,b"]


def interp_args(ws, *, dst_pool="wide_pool", mapfile="conj.int"):
    return [
        "--sig", ws["unary_sig"], "--pool", ws["unary_pool"], "--carriers", "E=a,b",
        "--dst-sig", ws["sig"], "--dst-pool", ws[dst_pool], "--dst-carriers", "E=a,b",
        "--map", ws[mapfile],
    ]


class TestCarrierSpec:
    def test_single_sort(self):
        assert parse_carrier_spec(["E=a,b"]) == {"E": ["a", "b"]}

    def test_semicolon_separates_sorts(self):
        assert parse_carrier_spec(["E=a,b;F=c"]) == {"E": ["a", "b"], "F": ["c"]}

    def test_repeated_flags_merge(self):
        assert parse_carrier_spec(["E=a", "F=c,d"]) == {"E": ["a"], "F": ["c", "d"]}

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_carrier_spec(["Ea,b"])

    def test_empty_elements(self):
        with pytest.raises(ParseError, match="lists no elements"):
            parse_carrier_spec(["E="])

    @pytest.mark.parametrize("specs", [["E=a", "E=b"], ["E=a;E=b"]])
    def test_duplicate_sort(self, specs):
        with pytest.raises(ParseError) as exc:
            parse_carrier_spec(specs)
        assert str(exc.value) == "duplicate carrier spec for 'E'"

    def test_empty_parts_are_skipped(self):
        assert parse_carrier_spec(["E=a,b;;F=c;", ";"]) == {"E": ["a", "b"], "F": ["c"]}


class TestLattice:
    def test_text_header_and_determinism(self, ws, capsys):
        assert main(["lattice", *pq_args(ws)]) == 0
        first = capsys.readouterr().out
        assert "closed theories: 8" in first
        assert "models: 16" in first
        assert main(["lattice", *pq_args(ws)]) == 0
        assert capsys.readouterr().out == first

    def test_out_file_matches_stdout(self, ws, capsys, tmp_path):
        target = tmp_path / "lat.txt"
        assert main(["lattice", *pq_args(ws), "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["lattice", *pq_args(ws)]) == 0
        assert target.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_dot_export(self, ws, capsys):
        assert main(["lattice", *pq_args(ws), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "rankdir=BT" in out

    def test_cxt_export_is_readable(self, ws, capsys):
        assert main(["lattice", *pq_args(ws), "--format", "cxt"]) == 0
        out = capsys.readouterr().out
        ctx = fca.read_cxt(out)
        assert len(ctx.instances) == 16
        assert len(ctx.types) == 4
        assert len(ctx.incidence) == 29

    def test_explicit_models(self, ws, capsys):
        argv = [
            "lattice", "--sig", ws["sig"], "--pool", ws["pool"],
            "--model", ws["m_pa_qb.model"], "--model", ws["m_full.model"],
        ]
        assert main(argv) == 0
        assert "models: 2" in capsys.readouterr().out


# (bytes, sha256) of the exports, as recorded by the benchmark
M_TEXT = (1072490, "13a472c8fa0ddf05c499018538385bb8cf78d8e0b34d1f7df40fa4a70465c114")
M_DOT = (247725, "dd52d3d11e20dd1ec28ed6139e3480a530452ad5a81346797a42454898deeca9")


# The L10 ladder input: M's first ten pool sentences over {a,b,c}, 32768
# models, 109 closed theories.  The text digest is the benchmark's; the DOT
# digest was recorded before the exports were written from extent masks.
L10_TEXT = (5255627, "a8d22cacb841681dcbe77573f45a1a9fba9af483ecb65020a6d0d766714359c5")
L10_DOT = (224912, "2eec248916729f73cb4bd28967292c3b5203623e0af95a48a9dbbfd7e11d3e0d")


def lattice_digest(tmp_path, capsys, pool, carriers, fmt):
    (tmp_path / "m.sig").write_text(M_SIG, encoding="utf-8")
    (tmp_path / "m.pool").write_text("\n".join(pool) + "\n", encoding="utf-8")
    argv = ["lattice", "--sig", str(tmp_path / "m.sig"), "--pool", str(tmp_path / "m.pool"),
            "--carriers", carriers, "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    return len(out), hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("fmt, want", [("text", M_TEXT), ("dot", M_DOT)])
def test_m_lattice_output_is_pinned(tmp_path, capsys, fmt, want):
    assert lattice_digest(tmp_path, capsys, M_POOL, "E=a,b", fmt) == want


@pytest.mark.parametrize("fmt, want", [("text", L10_TEXT), ("dot", L10_DOT)])
def test_l10_lattice_output_is_pinned(tmp_path, capsys, fmt, want):
    assert lattice_digest(tmp_path, capsys, M_POOL[:10], "E=a,b,c", fmt) == want


# ---------------------------------------------------------------------------
# Streamed exports: the same bytes to stdout and to --out, nothing on refusal

EXPORTS = [(cmd, fmt) for cmd in ("lattice", "ctx") for fmt in ("text", "dot", "cxt")]


def export_argv(ws, cmd: str, fmt: str, *extra: str) -> list[str]:
    if cmd == "lattice":
        return ["lattice", *pq_args(ws), "--format", fmt, *extra]
    return ["ctx", "concepts", "--cxt", ws["demo.cxt"], "--format", fmt, *extra]


@pytest.mark.parametrize("cmd, fmt", EXPORTS)
def test_out_file_bytes_equal_stdout_bytes(ws, capsys, tmp_path, cmd, fmt):
    assert main(export_argv(ws, cmd, fmt)) == 0
    out = capsys.readouterr().out
    target = tmp_path / "export"
    assert main(export_argv(ws, cmd, fmt, "--out", str(target))) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_stdout_of_a_process_equals_the_out_file(ws, tmp_path):
    """Through a real pipe, not a captured stream."""
    target = tmp_path / "lat.txt"
    argv = [sys.executable, "-m", "theorylattice", *export_argv(ws, "lattice", "text")]
    piped = subprocess.run(argv, capture_output=True, check=True).stdout
    subprocess.run(argv + ["--out", str(target)], check=True)
    assert piped == target.read_bytes() and piped.startswith(b"closed theories: 8\n")


# (command, exit code, extra arguments); each refusal comes before the output
REFUSALS = {
    "input-error": ("lattice", 2, ["--pool", "bad_pool"]),
    "model-cap": ("lattice", 3, ["--cap-models", "4"]),
    "model-cap-zero": ("lattice", 3, ["--cap-models", "0"]),
    "concept-cap": ("lattice", 3, ["--cap-concepts", "3"]),
    "concept-cap-zero": ("lattice", 3, ["--cap-concepts", "0"]),
    "cxt-input-error": ("ctx", 2, ["--cxt", "bad.cxt"]),
    "cxt-concept-cap": ("ctx", 3, ["--cap-concepts", "2"]),
    "cxt-concept-cap-zero": ("ctx", 3, ["--cap-concepts", "0"]),
}
# a cxt export builds no concept lattice, so no concept cap refuses it
CONCEPT_CAPS = sorted(r for r, (_, _, extra) in REFUSALS.items() if "--cap-concepts" in extra)


@pytest.mark.parametrize(
    "refusal, fmt",
    [
        pytest.param(refusal, fmt, id=f"{refusal}-{fmt}")
        for refusal in sorted(REFUSALS)
        for fmt in ("text", "dot", "cxt")
        if not (fmt == "cxt" and refusal in CONCEPT_CAPS)
    ],
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_refusals_write_nothing(ws, capsys, tmp_path, refusal, fmt, to_file):
    cmd, code, extra = REFUSALS[refusal]
    # a later option replaces an earlier one of the same name
    extra = [ws.get(x, x) for x in extra]
    target = tmp_path / "export"
    argv = export_argv(ws, cmd, fmt, *extra, *(["--out", str(target)] if to_file else []))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("refusal", CONCEPT_CAPS)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_a_concept_cap_refuses_no_cxt_export(ws, capsys, tmp_path, refusal, to_file):
    """Under a concept cap below the concept count, ``--format cxt`` still
    exits 0 with the uncapped bytes."""
    cmd, _, extra = REFUSALS[refusal]
    assert main(export_argv(ws, cmd, "cxt")) == 0
    want = capsys.readouterr().out.encode("utf-8")
    target = tmp_path / "export"
    argv = export_argv(ws, cmd, "cxt", *extra, *(["--out", str(target)] if to_file else []))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    got = target.read_bytes() if to_file else out.encode("utf-8")
    assert err == "" and got == want and (out == "") == to_file


@pytest.mark.parametrize("cmd, fmt", [("lattice", "text"), ("lattice", "dot"), ("ctx", "dot")])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_covers_are_built_before_the_first_byte(ws, capsys, tmp_path, monkeypatch, cmd, fmt, to_file):
    def broken(self):
        raise RuntimeError("no covers")

    monkeypatch.setattr(fca.ConceptLattice, "covers", broken)
    target = tmp_path / "export"
    argv = export_argv(ws, cmd, fmt, *(["--out", str(target)] if to_file else []))
    assert main(argv) == 4
    assert capsys.readouterr() == ("", "internal error: RuntimeError: no covers\n")
    assert not target.exists()


def test_blocks_join_records_into_writes_of_at_least_the_block_size():
    records = [f"{'x' * (k % 700)}\n" for k in range(1000)] + ["y" * 5000 + "\n"]
    blocks = list(_blocks(iter(records)))
    assert "".join(blocks) == "".join(records) and len(blocks) > 3
    assert all(_BLOCK <= len(b) < _BLOCK + 5001 for b in blocks[:-1])
    assert len(blocks[-1]) < _BLOCK + 5001
    assert list(_blocks(iter([]))) == [""]


def test_blocks_pass_a_large_record_on_uncopied():
    small = [f"{'x' * k}\n" for k in range(200)]
    large = "y" * _BLOCK + "\n"
    records = small + [large, "z\n", large, large, "w\n"]
    blocks = list(_blocks(iter(records)))
    assert blocks == ["".join(small), large, "z\n", large, large, "w\n"]
    assert all(blocks[k] is large for k in (1, 3, 4))


def test_blocks_drop_a_large_record_before_the_next_is_built():
    class Record(str):
        pass

    refs, dead = [], []

    def fresh():
        record = Record("y" * _BLOCK)
        refs.append(weakref.ref(record))
        return record

    def records():
        for _ in range(3):
            yield fresh()
            dead.append(refs[-1]() is None)

    collections.deque(_blocks(records()), maxlen=0)  # drops each block before asking for the next
    assert dead == [True, True, True]


class TestClose:
    def test_closure_of_a_universal_axiom(self, ws, capsys):
        assert main(["close", *pq_args(ws), "--theory", ws["t1.thy"]]) == 0
        assert capsys.readouterr().out == "exists v0:E. P(v0)\nforall v0:E. P(v0)\n"

    def test_closure_of_an_existential_is_itself(self, ws, capsys):
        assert main(["close", *pq_args(ws), "--theory", ws["t3.thy"]]) == 0
        assert capsys.readouterr().out == "exists v0:E. P(v0)\n"


class TestEntail:
    def test_positive(self, ws, capsys):
        argv = ["entail", *pq_args(ws), "--theory", ws["t1.thy"], "--query", "exists x:E. P(x)"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

    def test_negative_exit_code(self, ws, capsys):
        argv = ["entail", *pq_args(ws), "--theory", ws["t3.thy"], "--query", "forall x:E. P(x)"]
        assert main(argv) == 1
        assert capsys.readouterr().out == "false\n"

    def test_pool_is_optional(self, ws, capsys):
        argv = [
            "entail", "--sig", ws["sig"], "--carriers", "E=a,b",
            "--theory", ws["t1.thy"], "--query", "exists x:E. P(x) & P(x)",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

    def test_over_explicit_models(self, ws, capsys):
        argv = [
            "entail", "--sig", ws["sig"], "--model", ws["m_full.model"],
            "--theory", ws["t3.thy"], "--query", "forall x:E. Q(x)",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

    def test_deeply_nested_quantifiers_are_answered(self, ws, capsys):
        # 2^99 assignments, unless each quantified subformula is evaluated
        # once per value of its own free variables
        argv = [
            "entail", "--sig", ws["sig"], "--carriers", "E=a,b", "--theory", ws["empty.thy"],
            "--query", "forall x:E. " * 99 + "P(x)",
        ]
        assert main(argv) == 1
        assert capsys.readouterr().out == "false\n"

    @pytest.mark.parametrize(
        "query, message",
        [
            ("forall x:E.\nP(x,x) &\nP(x)", "2: relation 'P' expects 1 arguments, got 2"),
            ("forall x:F.\nP(x)", "1: quantifier over undeclared entity type 'F'"),
        ],
        ids=["arity", "quantifier-sort"],
    )
    def test_multi_line_query_fault_names_its_line(self, ws, capsys, query, message):
        argv = ["entail", *pq_args(ws), "--theory", ws["empty.thy"], "--query", query]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestLeq:
    def test_lower_entails_upper(self, ws, capsys):
        argv = ["leq", *pq_args(ws), "--theory", ws["t1.thy"], "--theory2", ws["t3.thy"]]
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

    def test_incomparable_direction(self, ws, capsys):
        argv = ["leq", *pq_args(ws), "--theory", ws["t3.thy"], "--theory2", ws["t1.thy"]]
        assert main(argv) == 1
        assert capsys.readouterr().out == "false\n"


class TestNav:
    def test_replay_prints_each_step(self, ws, capsys):
        argv = [
            "nav", "--sig", ws["sig"], "--pool", ws["swap_pool"],
            "--carriers", "E=a,b", "--script", ws["steps.nav"],
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("1 expand -> theory ")
        assert lines[0].endswith(
            ": exists v0:E. P(v0); forall v0:E. P(v0); forall v0:E. Q(v0) -> P(v0)"
        )
        assert lines[1].startswith("2 analogy -> theory ")
        assert lines[1].endswith(
            ": exists v0:E. Q(v0); forall v0:E. P(v0) -> Q(v0); forall v0:E. Q(v0)"
        )
        assert lines[2].startswith("3 contract -> theory ")
        assert lines[2].endswith(": exists v0:E. Q(v0); forall v0:E. P(v0) -> Q(v0)")

    def test_start_defaults_to_top(self, ws, capsys, tmp_path):
        script = tmp_path / "noop.nav"
        script.write_text("contract forall x:E. P(x)\n", encoding="utf-8")
        argv = [
            "nav", "--sig", ws["sig"], "--pool", ws["pool"],
            "--carriers", "E=a,b", "--script", str(script),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(": (none)\n")

    def test_start_file(self, ws, capsys, tmp_path):
        script = tmp_path / "one.nav"
        script.write_text("contract forall x:E. P(x)\n", encoding="utf-8")
        argv = [
            "nav", "--sig", ws["sig"], "--pool", ws["pool"], "--carriers", "E=a,b",
            "--start", ws["t1.thy"], "--script", str(script),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(": exists v0:E. P(v0)\n")

    def test_analogy_step_reads_an_interpretation(self, ws, capsys, tmp_path):
        swap_int = tmp_path / "swap.int"
        swap_int.write_text("entity E -> E\nrelation P(x1) -> Q(x1)\nrelation Q(x1) -> P(x1)\n", encoding="utf-8")
        script = tmp_path / "steps.nav"
        script.write_text(
            Path(ws["steps.nav"]).read_text(encoding="utf-8").replace(ws["swap.map"], str(swap_int)),
            encoding="utf-8",
        )
        argv = ["nav", "--sig", ws["sig"], "--pool", ws["swap_pool"], "--carriers", "E=a,b", "--script"]
        assert main([*argv, str(script)]) == 0
        got = capsys.readouterr().out
        assert main([*argv, ws["steps.nav"]]) == 0
        assert got == capsys.readouterr().out

    def test_unreadable_map_file_is_located(self, ws, capsys, tmp_path):
        script = tmp_path / "lost.nav"
        script.write_text("expand forall x:E. P(x)\nanalogy nosuch.map\n", encoding="utf-8")
        argv = [
            "nav", "--sig", ws["sig"], "--pool", ws["swap_pool"],
            "--carriers", "E=a,b", "--script", str(script),
        ]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {script}:2: cannot read map file 'nosuch.map': No such file or directory\n"
        )

    def test_script_errors_carry_the_location(self, ws, capsys, tmp_path):
        script = tmp_path / "bad.nav"
        script.write_text("# intro\nexpand P(oops)\n", encoding="utf-8")
        argv = [
            "nav", "--sig", ws["sig"], "--pool", ws["pool"],
            "--carriers", "E=a,b", "--script", str(script),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{script}:2" in err


class TestAnalogy:
    def test_within_one_language(self, ws, capsys):
        argv = [
            "analogy", "--sig", ws["sig"], "--pool", ws["swap_pool"], "--carriers", "E=a,b",
            "--map", ws["swap.map"], "--theory", ws["t1.thy"],
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "exists v0:E. Q(v0)\nforall v0:E. P(v0) -> Q(v0)\nforall v0:E. Q(v0)\n"
        )

    def test_across_languages(self, ws, capsys, tmp_path):
        ren = tmp_path / "embed.map"
        ren.write_text("entity E -> E\nrelation R -> P\n", encoding="utf-8")
        argv = [
            "analogy", "--sig", ws["unary_sig"], "--pool", ws["unary_pool"],
            "--carriers", "E=a,b",
            "--dst-sig", ws["sig"], "--dst-pool", ws["pool"], "--dst-carriers", "E=a,b",
            "--map", str(ren), "--theory", ws["t_allR.thy"],
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == "exists v0:E. P(v0)\nforall v0:E. P(v0)\n"

    def test_interpretation_map_gives_the_direct_image(self, ws, capsys):
        semantics = [
            "--sig", ws["unary_sig"], "--pool", ws["unary_pool"], "--carriers", "E=a,b",
            "--dst-sig", ws["sig"], "--dst-pool", ws["wide_pool"], "--dst-carriers", "E=a,b",
            "--map", ws["conj.int"], "--theory", ws["t_allR.thy"],
        ]
        assert main(["analogy", *semantics]) == 0
        got = capsys.readouterr().out
        assert main(["interp", "apply", *semantics, "--direction", "dir"]) == 0
        assert got == capsys.readouterr().out
        assert "forall v0:E. P(v0) & Q(v0)\n" in got

    def test_bad_map_target_is_located(self, ws, capsys, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("entity E -> Erelation P -> Q\n", encoding="utf-8")
        argv = [
            "analogy", "--sig", ws["sig"], "--pool", ws["pool"], "--carriers", "E=a,b",
            "--map", str(bad), "--theory", ws["t1.thy"],
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:1: entity type 'E' maps to undeclared 'Erelation P -> Q'\n"
        )

    def test_incomplete_destination_flags(self, ws, capsys):
        argv = [
            "analogy", "--sig", ws["sig"], "--pool", ws["pool"], "--carriers", "E=a,b",
            "--dst-sig", ws["sig"],
            "--map", ws["swap.map"], "--theory", ws["t1.thy"],
        ]
        assert main(argv) == 2
        assert "--dst-pool" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dst",
        [["--dst-pool", "swap_pool", "--dst-carriers", "E=a"], ["--dst-model", "m_full.model"]],
        ids=["pool-and-carriers", "model"],
    )
    def test_destination_flags_need_dst_sig(self, ws, capsys, dst):
        argv = [
            "analogy", "--sig", ws["sig"], "--pool", ws["swap_pool"], "--carriers", "E=a,b",
            *(ws.get(a, a) for a in dst), "--map", ws["swap.map"], "--theory", ws["t1.thy"],
        ]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: --dst-pool, --dst-carriers and --dst-model need --dst-sig\n"
        )

    def test_dst_carriers_and_dst_model_exclude_each_other(self, ws, capsys):
        argv = [
            "analogy", "--sig", ws["sig"], "--pool", ws["swap_pool"], "--carriers", "E=a,b",
            "--dst-sig", ws["sig"], "--dst-pool", ws["swap_pool"], "--dst-carriers", "E=a,b",
            "--dst-model", ws["m_full.model"], "--map", ws["swap.map"], "--theory", ws["t1.thy"],
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: argument --dst-model: not allowed with argument --dst-carriers\n")

    @pytest.mark.parametrize(
        "text, line",
        [("entity E -> E\nrelation R -> R\n", 2), ("relation R -> R\nentity E -> E\n", 1)],
        ids=["entity-line-first", "relation-line-first"],
    )
    def test_renaming_arity_error_is_located(self, ws, capsys, tmp_path, text, line):
        (tmp_path / "ub.sig").write_text("entity E\nrelation R(E,E)\n", encoding="utf-8")
        (tmp_path / "ub.pool").write_text("forall x:E. R(x,x)\n", encoding="utf-8")
        (tmp_path / "ub.map").write_text(text, encoding="utf-8")
        argv = [
            "analogy", "--sig", ws["unary_sig"], "--pool", ws["unary_pool"], "--carriers", "E=a,b",
            "--dst-sig", str(tmp_path / "ub.sig"), "--dst-pool", str(tmp_path / "ub.pool"),
            "--dst-carriers", "E=a,b", "--map", str(tmp_path / "ub.map"), "--theory", ws["t_allR.thy"],
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'ub.map'}:{line}: relation 'R' has arity 1 but 'R' has arity 2\n"
        )

    def test_image_outside_the_pool(self, ws, capsys, tmp_path):
        theory = tmp_path / "impl.thy"
        theory.write_text("forall x:E. P(x) -> Q(x)\n", encoding="utf-8")
        argv = [
            "analogy", "--sig", ws["sig"], "--pool", ws["pool"], "--carriers", "E=a,b",
            "--map", ws["swap.map"], "--theory", str(theory),
        ]
        assert main(argv) == 2
        assert "extended pool" in capsys.readouterr().err


class TestInterp:
    def test_check_true(self, ws, capsys):
        assert main(["interp", "check", *interp_args(ws)]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_check_false_names_the_missing_images(self, ws, capsys):
        assert main(["interp", "check", *interp_args(ws, dst_pool="pool")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("false: ")
        assert "forall v0:E. P(v0) & Q(v0)" in out

    def test_check_bad_entity_target_is_an_input_error(self, ws, capsys, tmp_path):
        bad = tmp_path / "bad.int"
        bad.write_text("entity E -> (E\nrelation R(x1) -> P(x1)\n", encoding="utf-8")
        assert main(["interp", "check", *interp_args(ws)[:-1], str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:1: entity type 'E' maps to undeclared '(E'\n"
        )

    def test_check_undeclared_source_symbol_is_an_input_error(self, ws, capsys, tmp_path):
        dst_sig = tmp_path / "const.sig"
        dst_sig.write_text(SIG + "constant d:E\n", encoding="utf-8")
        extra = tmp_path / "extra.int"
        extra.write_text(
            "entity E -> E\nentity Z -> E\nconstant k -> d\nrelation R(x1) -> P(x1)\n",
            encoding="utf-8",
        )
        argv = [
            "interp", "check",
            "--sig", ws["unary_sig"], "--pool", ws["unary_pool"], "--carriers", "E=a,b",
            "--dst-sig", str(dst_sig), "--dst-pool", ws["wide_pool"], "--dst-carriers", "E=a,b",
            "--map", str(extra),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {extra}:2: mapping for undeclared entity type 'Z'\n"
        )

    def test_check_with_a_renaming(self, ws, capsys):
        argv = [
            "interp", "check",
            "--sig", ws["sig"], "--pool", ws["swap_pool"], "--carriers", "E=a,b",
            "--dst-sig", ws["sig"], "--dst-pool", ws["swap_pool"], "--dst-carriers", "E=a,b",
            "--map", ws["swap.map"],
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

    @pytest.mark.parametrize("command", ["check", "apply"])
    def test_the_map_file_kind_is_not_an_option(self, ws, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(["interp", command, "--help"])
        assert exc.value.code == 0
        assert "--kind" not in capsys.readouterr().out
        theory = ["--theory", ws["t_allR.thy"]] if command == "apply" else []
        with pytest.raises(SystemExit) as exc:
            main(["interp", command, *interp_args(ws), *theory, "--kind", "morphism"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --kind morphism\n")

    def test_apply_direct_image(self, ws, capsys):
        argv = [
            "interp", "apply", *interp_args(ws),
            "--direction", "dir", "--theory", ws["t_allR.thy"],
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "exists v0:E. P(v0)\n"
            "exists v0:E. P(v0) & Q(v0)\n"
            "forall v0:E. P(v0)\n"
            "forall v0:E. P(v0) & Q(v0)\n"
            "forall v0:E. P(v0) -> Q(v0)\n"
            "forall v0:E. Q(v0)\n"
        )

    def test_apply_inverse_image(self, ws, capsys):
        argv = [
            "interp", "apply", *interp_args(ws),
            "--direction", "inv", "--theory", ws["wide_all.thy"],
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == "exists v0:E. R(v0)\nforall v0:E. R(v0)\n"

    def test_apply_is_deterministic(self, ws, capsys):
        argv = [
            "interp", "apply", *interp_args(ws),
            "--direction", "dir", "--theory", ws["t_allR.thy"],
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestCtxConcepts:
    def test_text_listing(self, ws, capsys):
        assert main(["ctx", "concepts", "--cxt", ws["demo.cxt"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "concepts: 6"
        assert lines[1] == "concept 0: extent {} intent {a, b, c}"
        assert lines[-1] == "concept 5: extent {1, 2, 3} intent {}"

    def test_empty_context(self, ws, capsys):
        assert main(["ctx", "concepts", "--cxt", ws["empty.cxt"]]) == 0
        assert capsys.readouterr().out == "concepts: 1\nconcept 0: extent {} intent {}\n"

    def test_cxt_reexport_is_stable(self, ws, capsys):
        assert main(["ctx", "concepts", "--cxt", ws["demo.cxt"], "--format", "cxt"]) == 0
        out = capsys.readouterr().out
        assert fca.read_cxt(out) == fca.read_cxt(DEMO_CXT)

    def test_dot_export(self, ws, capsys):
        assert main(["ctx", "concepts", "--cxt", ws["demo.cxt"], "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and out.rstrip().endswith("}")

    def test_concept_cap(self, ws, capsys):
        assert main(["ctx", "concepts", "--cxt", ws["demo.cxt"], "--cap-concepts", "2"]) == 3
        assert "exceeding the cap of 2" in capsys.readouterr().err

    def test_concept_cap_without_types(self, ws, capsys):
        assert main(["ctx", "concepts", "--cxt", ws["noattr.cxt"], "--cap-concepts", "0"]) == 3
        assert "exceeding the cap of 0" in capsys.readouterr().err


class TestErrorExitCodes:
    def test_missing_file_is_an_input_error(self, ws, capsys):
        argv = ["lattice", "--sig", str(ws["_root"] / "nope.sig"), "--pool", ws["pool"],
                "--carriers", "E=a,b"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("option", ["--sig", "--model"])
    def test_file_that_is_not_utf8_is_an_input_error_at_its_path(self, ws, capsys, tmp_path, option):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        paths = {"--sig": ws["sig"], "--model": ws["m_pa_qb.model"], option: str(bad)}
        argv = ["lattice", "--sig", paths["--sig"], "--pool", ws["pool"], "--model", paths["--model"]]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8 text: byte 0: invalid start byte\n")

    def test_pool_parse_error_reports_the_line(self, ws, capsys):
        assert main(["lattice", "--sig", ws["sig"], "--pool", ws["bad_pool"],
                     "--carriers", "E=a,b"]) == 2
        assert f"{ws['bad_pool']}:2" in capsys.readouterr().err

    def test_bad_carrier_spec(self, ws, capsys):
        assert main(["lattice", "--sig", ws["sig"], "--pool", ws["pool"],
                     "--carriers", "Ea,b"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_model_cap(self, ws, capsys):
        assert main(["lattice", *pq_args(ws), "--cap-models", "4"]) == 3
        assert "exceeding the cap of 4" in capsys.readouterr().err

    def test_concept_cap(self, ws, capsys):
        assert main(["lattice", *pq_args(ws), "--cap-concepts", "3"]) == 3
        assert "exceeding the cap of 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["close", "--theory", "t"],
            ["entail", "--theory", "t", "--query", "q"],
            ["leq", "--theory", "t", "--theory2", "t"],
            ["interp", "check", "--dst-sig", "s", "--dst-pool", "p", "--dst-carriers", "E=a", "--map", "m"],
        ],
        ids=["close", "entail", "leq", "interp check"],
    )
    def test_commands_that_enumerate_no_lattice_take_no_concept_cap(self, argv, capsys):
        """These commands never read a concept cap, so they have none:
        argparse refuses the option before any file is read."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--sig", "s", "--pool", "p", "--carriers", "E=a", "--cap-concepts", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: unrecognized arguments: --cap-concepts 3\n")

    @pytest.mark.parametrize("option", ["--cap-models", "--cap-concepts"])
    def test_a_negative_cap_is_an_argument_error(self, ws, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["lattice", *pq_args(ws), option, "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument {option}: invalid non-negative int value: '-1'\n")

    def test_a_cap_that_is_no_int_keeps_its_message(self, ws, capsys):
        with pytest.raises(SystemExit):
            main(["ctx", "concepts", "--cxt", ws["demo.cxt"], "--cap-concepts", "x"])
        assert capsys.readouterr().err.endswith("error: argument --cap-concepts: invalid int value: 'x'\n")

    def test_every_cap_option_refuses_a_negative_value(self):
        """Each ``--cap-*`` option of every subcommand, found by walking
        the full parser, takes 0 and refuses -1."""
        caps = []
        parsers = [("theorylattice", build_parser())]
        while parsers:
            path, parser = parsers.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers += [(f"{path} {name}", sub) for name, sub in action.choices.items()]
                elif any(opt.startswith("--cap-") for opt in action.option_strings):
                    caps.append((path, action))
        # --cap-models on the eight commands that build a classification;
        # --cap-concepts on the five that enumerate a lattice
        assert sorted(path for path, action in caps if "--cap-concepts" in action.option_strings) == [
            "theorylattice analogy", "theorylattice ctx concepts", "theorylattice interp apply",
            "theorylattice lattice", "theorylattice nav",
        ]
        assert len(caps) == 8 + 5
        for path, action in caps:
            assert action.type("0") == 0, path
            with pytest.raises(argparse.ArgumentTypeError):
                action.type("-1")

    def test_an_unwritable_out_file_is_an_input_error(self, ws, capsys, tmp_path):
        assert main(["lattice", *pq_args(ws), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["nav", "analogy", "apply-dir", "apply-inv"])
    def test_a_theory_outside_the_pool_is_refused_as_close_refuses_it(self, ws, capsys, tmp_path, command):
        """nav --start, analogy --theory and interp apply --theory close their
        theory in the lattice they build: a sentence outside the pool exits 2
        with the text close prints for it."""
        unary = ["--sig", ws["unary_sig"], "--pool", ws["unary_pool"], "--carriers", "E=a,b"]
        wide = pq_args(ws, pool="wide_pool")
        script = tmp_path / "one.nav"
        script.write_text("contract forall x:E. P(x)\n", encoding="utf-8")
        cases = {  # (the command's argv, the semantics close reads, the sentence)
            "nav": (["nav", *pq_args(ws), "--script", str(script), "--start"], pq_args(ws), "exists x:E. Q(x)"),
            "analogy": (["analogy", *pq_args(ws), "--map", ws["swap.map"], "--theory"], pq_args(ws), "exists x:E. Q(x)"),
            "apply-dir": (["interp", "apply", *interp_args(ws), "--direction", "dir", "--theory"], unary, "forall x:E. ~R(x)"),
            "apply-inv": (["interp", "apply", *interp_args(ws), "--direction", "inv", "--theory"], wide, "exists x:E. Q(x)"),
        }
        argv, semantics, sentence = cases[command]
        theory = tmp_path / "outside.thy"
        theory.write_text(f"{sentence}\n", encoding="utf-8")
        assert main(["close", *semantics, "--theory", str(theory)]) == 2
        refusal = capsys.readouterr()
        assert refusal.out == ""
        assert refusal.err.startswith("error: sentence '") and "' is not in the pool (closure is pool-relative); " in refusal.err
        assert main([*argv, str(theory)]) == 2
        assert capsys.readouterr() == refusal

    def test_deeply_nested_theory_is_an_input_error(self, ws, capsys, tmp_path):
        theory = tmp_path / "deep.thy"
        theory.write_text("~" * 3000 + "forall x:E. P(x)\n", encoding="utf-8")
        assert main(["close", *pq_args(ws), "--theory", str(theory)]) == 2
        assert capsys.readouterr().err == f"error: {theory}:1: formula nested deeper than 100 levels\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("forall x:E. P(x)\nforall x:E. P(x,x)\n", "2: relation 'P' expects 1 arguments, got 2"),
            ("forall y:F. P(y)\n", "1: argument 1 of 'P' has sort 'F', expected 'E'"),
            ("forall x:E. forall y:F. x = y\n", "1: equality between different sorts 'E' and 'F'"),
            ("forall x:G. P(x)\n", "1: quantifier over undeclared entity type 'G'"),
        ],
        ids=["arity", "argument-sort", "equality-sorts", "quantifier-sort"],
    )
    def test_ill_typed_pool_sentence_is_located(self, capsys, tmp_path, text, message):
        sig, pool = tmp_path / "two.sig", tmp_path / "two.pool"
        sig.write_text("entity E\nentity F\nrelation P(E)\nrelation S(E,F)\n", encoding="utf-8")
        pool.write_text(text, encoding="utf-8")
        argv = ["lattice", "--sig", str(sig), "--pool", str(pool), "--carriers", "E=a;F=u"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {pool}:{message}\n")

    def test_model_without_a_universe(self, ws, capsys, tmp_path):
        model = tmp_path / "no_universe.model"
        model.write_text("P = {a}\n", encoding="utf-8")
        assert main(["lattice", "--sig", ws["sig"], "--pool", ws["pool"], "--model", str(model)]) == 2
        assert capsys.readouterr() == ("", f"error: {model}: missing carrier for entity type 'E'\n")

    def test_unexpected_exception_is_an_internal_error(self, ws, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("lost\ninvariant")

        monkeypatch.setattr("theorylattice.cli.theory_lattice", broken)
        assert main(["lattice", *pq_args(ws)]) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: lost invariant\n"


# sha256 of each demo script's stdout
DEMOS = {
    "demo_interpretation.py": "832b98e14839e14a7288943867d805d957efee1c5241bed9a7a91b68445a9cbb",
    "demo_lattice.py": "b39f046b1a1ce92a534dabd5ac742704f68caac859abb7890c392810a16bf2bd",
    "demo_navigation.py": "e92dd8a241f98e8b298ebe37b38342bd471df57807c1b7ed8bd63d7565f11b89",
}


def _readme_block(heading: str) -> str:
    """The first fenced block after the README line that starts with ``heading``."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return text[text.index("\n" + heading):].split("```\n")[1]


def test_readme_map_examples_parse():
    sig_lines = _readme_block("Signature").splitlines(keepends=True)
    sig = parse_signature("".join(l for l in sig_lines if not l.startswith("constant")))
    renaming = parse_interpretation(sig, sig, _readme_block("`relation P -> Q`"), path="README.md")
    assert renaming == make_interpretation(sig, sig, {"E": "E"}, {}, {"P": "Q", "Q": "P"})
    src = parse_signature("entity E\nrelation R(E)")
    h = parse_interpretation(src, sig, _readme_block("Map file"), path="README.md")
    assert h.source == src and h.target == sig


@pytest.mark.parametrize("name, want", sorted(DEMOS.items()))
def test_demo_output_is_pinned(capsys, monkeypatch, name, want):
    path = str(Path(__file__).parent.parent / "scripts" / name)
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == want


def test_module_entry_point(ws):
    proc = subprocess.run(
        [
            sys.executable, "-m", "theorylattice", "entail",
            "--sig", ws["sig"], "--carriers", "E=a,b",
            "--theory", ws["t1.thy"], "--query", "forall x:E. Q(x)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == "false\n"


def test_a_closed_stdout_ends_the_run_quietly(tmp_path):
    """``theorylattice lattice … | head -1``: the reader closes the pipe
    after the first line, and the run stops with the status of a process
    killed by SIGPIPE, 141, and writes nothing to stderr."""
    sig, pool = tmp_path / "pq.sig", tmp_path / "pq.pool"
    sig.write_text(SIG, encoding="utf-8")
    pool.write_text("forall x:E. P(x)\nexists x:E. Q(x)\n", encoding="utf-8")
    # 65536 models: a text export of about 770 kB, many times what a pipe holds
    argv = [
        sys.executable, "-m", "theorylattice", "lattice",
        "--sig", str(sig), "--pool", str(pool), "--carriers", "E=a,b,c,d,e,f,g,h",
    ]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"closed theories: 4\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


# The commands that use the transport layer, each run by a fresh interpreter,
# which loads morph and nav only when the command asks for them.
TRANSPORT_COMMANDS = {
    "nav": (
        lambda ws: ["nav", *pq_args(ws, pool="swap_pool"), "--script", ws["steps.nav"]],
        "1 expand -> theory 6: exists v0:E. P(v0); forall v0:E. P(v0); forall v0:E. Q(v0) -> P(v0)\n"
        "2 analogy -> theory 5: exists v0:E. Q(v0); forall v0:E. P(v0) -> Q(v0); forall v0:E. Q(v0)\n"
        "3 contract -> theory 9: exists v0:E. Q(v0); forall v0:E. P(v0) -> Q(v0)\n",
    ),
    "analogy": (
        lambda ws: ["analogy", *pq_args(ws, pool="swap_pool"), "--map", ws["swap.map"], "--theory", ws["t1.thy"]],
        "exists v0:E. Q(v0)\nforall v0:E. P(v0) -> Q(v0)\nforall v0:E. Q(v0)\n",
    ),
    "interp check": (lambda ws: ["interp", "check", *interp_args(ws)], "true\n"),
}


@pytest.mark.parametrize("name", TRANSPORT_COMMANDS)
def test_transport_commands_from_a_fresh_interpreter(ws, name):
    make_argv, want = TRANSPORT_COMMANDS[name]
    proc = subprocess.run(
        [sys.executable, "-m", "theorylattice", *make_argv(ws)], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


# ---------------------------------------------------------------------------
# The parser surface: help and argparse's errors, byte for byte


@pytest.mark.skipif(
    sys.version_info[:2] != cli_surface.PINNED_ON, reason="pinned in the wording of Python 3.11's argparse"
)
@pytest.mark.parametrize("name", cli_surface.CASES)
def test_parser_surface_is_pinned(name):
    argv, *want = cli_surface.CASES[name]
    assert cli_surface.surface(main, argv) == tuple(want)


@pytest.mark.parametrize("name", cli_surface.CASES)
def test_parser_surface_is_the_full_trees(name):
    argv = cli_surface.CASES[name][0]
    assert cli_surface.surface(main, argv) == cli_surface.surface(build_parser().parse_args, argv)


@pytest.mark.parametrize("name", ["no-args", "--help", "unknown-command", "lattice --help"])
def test_module_entry_point_reads_sys_argv(name):
    argv = cli_surface.CASES[name][0]
    env = {**os.environ, "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-m", "theorylattice", *argv], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == cli_surface.surface(main, argv)


VALID_ARGVS = [
    ["lattice", *cli_surface.SEMANTICS, "--pool", "p.pool", "--format", "dot", "--out", "o"],
    ["close", "--sig", "s.sig", "--pool", "p.pool", "--model", "a", "--model", "b", "--theory", "t"],
    ["entail", *cli_surface.SEMANTICS, "--theory", "t", "--query", "q", "--cap-models", "9"],
    ["leq", *cli_surface.SEMANTICS, "--theory", "t", "--theory2", "u"],
    ["nav", *cli_surface.SEMANTICS, "--pool", "p", "--script", "n"],
    ["analogy", *cli_surface.SEMANTICS, "--pool", "p", "--dst-sig", "d", "--map", "m", "--theory", "t"],
    ["interp", "apply", *cli_surface.SEMANTICS, "--pool", "p", "--dst-sig", "d", "--dst-pool", "q",
     "--dst-model", "x", "--map", "m", "--direction", "inv", "--theory", "t"],
    ["ctx", "concepts", "--cxt", "c", "--cap-concepts", "3"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=lambda argv: argv[0])
def test_one_subcommand_parser_reads_what_the_full_tree_reads(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


def test_a_command_builds_only_its_own_options(ws, capsys, monkeypatch):
    built = []

    def spy(name, add_options):
        def add(p):
            built.append(name)
            add_options(p)

        return add

    table = {name: (help, spy(name, add)) for name, (help, add) in cli._SUBCOMMANDS.items()}
    monkeypatch.setattr(cli, "_SUBCOMMANDS", table)
    argv = ["entail", *pq_args(ws), "--theory", ws["t1.thy"], "--query", "forall x:E. Q(x)"]
    assert main(argv) == 1
    assert capsys.readouterr().out == "false\n"
    assert built == ["entail"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["entails"])
    assert built == list(table)


# ---------------------------------------------------------------------------
# Hostile input: any edit of an input file ends in a documented exit code


HOSTILE_FILES = {
    "sig": ST_SIG,
    "pool": "".join(s + "\n" for s in ST_POOL),
    "thy": "forall x:E. forall y:E. T(x,y) -> T(y,x)\nexists x:E. S(x)\n",
    "nav": "# from the top\nexpand exists x:E. S(x), forall x:E. exists y:E. T(x,y)\nanalogy {map}\n"
    "contract exists x:E. S(x)\nrevise forall x:E. exists y:E. T(x,y) ; forall x:E. T(x,x)\n",
    "map": "entity E -> E\nrelation S(x1) -> S(x1)\nrelation T -> T\n",
    "thy2": "forall x:E. forall y:E. T(x,y) -> T(y,x)\nexists x:E. S(x) | T(x,x)\n",  # implied by thy
    "model": "universe E = {a, b}\nS = {a}\nT = {(a, b), (b, a), (b, b)}\n",
}
HOSTILE_COMMANDS = {
    "lattice": ["lattice", "--pool", "{pool}"],
    "lattice dot": ["lattice", "--pool", "{pool}", "--format", "dot"],
    "close": ["close", "--pool", "{pool}", "--theory", "{thy}"],
    "entail": ["entail", "--theory", "{thy}", "--query", "exists x:E. S(x)"],
    "leq": ["leq", "--theory", "{thy}", "--theory2", "{thy2}"],
    "lattice model": ["lattice", "--pool", "{pool}", "--model", "{model}"],
    "nav": ["nav", "--pool", "{pool}", "--script", "{nav}"],
    "interp check": ["interp", "check", "--pool", "{pool}", "--dst-sig", "{sig}", "--dst-pool", "{pool}",
                     "--dst-carriers", "E=a,b", "--map", "{map}"],
}
# the characters of the readers' grammars, with newline and the comment mark
HOSTILE_ALPHABET = sorted(set(string.ascii_letters + string.digits + "_'<->~&|().,:=; ") | {"\n", "#"})


def run_hostile(files: dict[str, str], command: str) -> tuple[int, str]:
    """Write ``files`` to a fresh directory and run one command over them
    through ``cli.main`` on ST, over E=a,b unless the command lists its
    models: the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"st.{name}") for name in files}
        for name, text in files.items():
            Path(paths[name]).write_text(text.replace("{map}", paths["map"]) if name == "nav" else text)
        argv = [arg.format(**paths) for arg in HOSTILE_COMMANDS[command]]
        argv += ["--sig", paths["sig"], "--cap-models", "4096"]
        if "--model" not in argv:
            argv += ["--carriers", "E=a,b"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", HOSTILE_COMMANDS)
def test_hostile_inputs_start_from_a_run_that_exits_0(command):
    assert run_hostile(HOSTILE_FILES, command) == (0, "")


@given(
    st.sampled_from(sorted(HOSTILE_FILES)),
    st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")), st.integers(0, 1 << 12),
                       st.sampled_from(HOSTILE_ALPHABET)), min_size=1, max_size=4),
    st.sampled_from(sorted(HOSTILE_COMMANDS)),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_edited_inputs_end_in_a_documented_exit(name, edits, command):
    """One to four character edits of one input file end in exit 0, 1, 2 or
    3 with no exception; exit 1 ("false") only from entail, leq and interp
    check, and exit 2 with one stderr line that starts with ``error: ``."""
    text = HOSTILE_FILES[name]
    for op, at, char in edits:
        at %= len(text) + 1
        text = text[:at] + (char if op != "delete" else "") + text[at + (op != "insert"):]
    code, err = run_hostile({**HOSTILE_FILES, name: text}, command)
    assert code in (0, 1, 2, 3), err
    assert code != 1 or command in ("entail", "leq", "interp check")
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: "), err
