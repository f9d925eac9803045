"""End-to-end command line coverage, including exit codes and determinism."""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

from theorylattice import fca
from theorylattice.cli import main, parse_carrier_spec
from theorylattice.errors import ParseError

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


def interp_args(ws, *, dst_pool="wide_pool", kind=None, mapfile="conj.int"):
    argv = [
        "--sig", ws["unary_sig"], "--pool", ws["unary_pool"], "--carriers", "E=a,b",
        "--dst-sig", ws["sig"], "--dst-pool", ws[dst_pool], "--dst-carriers", "E=a,b",
        "--map", ws[mapfile],
    ]
    if kind:
        argv += ["--kind", kind]
    return argv


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


# The M ladder input: 256 models, 2508 closed theories, 10791 cover edges.
M_SIG = "entity E\nrelation P(E)\nrelation Q(E)\nrelation R(E,E)\n"
M_POOL = (
    [f"{q} x:E. {lit}" for lit in ("P(x)", "Q(x)", "R(x,x)", "~P(x)", "~Q(x)")
     for q in ("forall", "exists")]
    + [s for a, b in (("P(x)", "Q(x)"), ("P(x)", "R(x,x)"), ("Q(x)", "R(x,x)"))
       for s in (f"forall x:E. {a} -> {b}", f"exists x:E. {a} & {b}")]
    + [
        "forall x:E. exists y:E. R(x,y)",
        "exists x:E. forall y:E. R(x,y)",
        "forall x:E. forall y:E. R(x,y) -> R(y,x)",
        "forall x:E. forall y:E. forall z:E. R(x,y) & R(y,z) -> R(x,z)",
    ]
)
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

    def test_incomplete_destination_flags(self, ws, capsys):
        argv = [
            "analogy", "--sig", ws["sig"], "--pool", ws["pool"], "--carriers", "E=a,b",
            "--dst-sig", ws["sig"],
            "--map", ws["swap.map"], "--theory", ws["t1.thy"],
        ]
        assert main(argv) == 2
        assert "--dst-pool" in capsys.readouterr().err

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

    def test_check_with_a_renaming(self, ws, capsys):
        argv = [
            "interp", "check",
            "--sig", ws["sig"], "--pool", ws["swap_pool"], "--carriers", "E=a,b",
            "--dst-sig", ws["sig"], "--dst-pool", ws["swap_pool"], "--dst-carriers", "E=a,b",
            "--map", ws["swap.map"], "--kind", "morphism",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

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


class TestErrorExitCodes:
    def test_missing_file_is_an_input_error(self, ws, capsys):
        argv = ["lattice", "--sig", str(ws["_root"] / "nope.sig"), "--pool", ws["pool"],
                "--carriers", "E=a,b"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_deeply_nested_theory_is_an_input_error(self, ws, capsys, tmp_path):
        theory = tmp_path / "deep.thy"
        theory.write_text("~" * 3000 + "forall x:E. P(x)\n", encoding="utf-8")
        assert main(["close", *pq_args(ws), "--theory", str(theory)]) == 2
        assert capsys.readouterr().err == f"error: {theory}:1: formula nested deeper than 100 levels\n"

    def test_unexpected_exception_is_an_internal_error(self, ws, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("lost\ninvariant")

        monkeypatch.setattr("theorylattice.cli.theory_lattice", broken)
        assert main(["lattice", *pq_args(ws)]) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: lost invariant\n"


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
