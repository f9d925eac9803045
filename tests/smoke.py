"""End-to-end smoke checks of ``python -m theorylattice`` on the benchmark's
inputs, one function each; CI runs each check as one step.

    python tests/smoke.py NAME [WORKDIR]   run one check, keeping its files in WORKDIR/NAME
    python tests/smoke.py --list           print the names of the checks
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections.abc import Mapping
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import cli_surface  # noqa: E402  (tests/, the directory of this script)
import inputs  # noqa: E402
from theorylattice.cli import build_parser  # noqa: E402
from theorylattice.logic import enumerate_structures, format_structure, parse_sentence, parse_signature  # noqa: E402
from theorylattice.morph import concept_morphism, parse_interpretation, truth_infomorphism  # noqa: E402
from theorylattice.nav import analogy  # noqa: E402
from theorylattice.truth import build_truth_classification, theory_lattice  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

FILES = {
    "m.sig": inputs.M_SIG,
    "st.sig": inputs.ST_SIG,
    "m.pool": "\n".join(inputs.M_POOL) + "\n",
    "st.pool": "\n".join(inputs.ST_POOL) + "\n",
    "l10.pool": "\n".join(inputs.L10_POOL) + "\n",
    "st_m.int": inputs.ST_TO_M,
    "w20.sig": "entity E\nrelation P(E)\nrelation R(E,E)\n",
    "w20.pool": "".join(s + "\n" for s in inputs.M_POOL if "Q(" not in s),
    "m.thy": "forall x:E. forall y:E. R(x,y) -> R(y,x)\nexists x:E. P(x)\n",
    "pq.sig": "entity E\nrelation P(E)\nrelation Q(E)\n",
}


def fixtures(out: Path, extra: Mapping[str, str] = {}) -> dict[str, str]:
    """Write the benchmark's inputs, the other shared files and ``extra``
    (name -> text) into ``out``; return each file's path by its name."""
    files = {**FILES, **extra}
    for name, text in files.items():
        (out / name).write_text(text)
    return {name: str(out / name) for name in files}


def cli(*argv: str, check: bool = True, **env: str) -> subprocess.CompletedProcess:
    """``python -m theorylattice ARGV`` with ``PYTHONPATH=src`` and ``env``, stdout captured;
    ``check`` raises on a non-zero exit, else stderr is captured too."""
    return subprocess.run([sys.executable, "-m", "theorylattice", *argv], env={**ENV, **env}, cwd=ROOT, check=check,
                          stdout=subprocess.PIPE, stderr=None if check else subprocess.PIPE)


def piped(*argv: str) -> tuple[int, str, float, float, int]:
    """``python -m theorylattice ARGV``, its stdout hashed from the pipe: the
    byte count, sha256, wall seconds, peak RSS in MB and exit code."""
    h, n = hashlib.sha256(), 0
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "theorylattice", *argv], env=ENV, cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            h.update(chunk)
            n += len(chunk)
        # wait4 gives this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return n, h.hexdigest(), time.perf_counter() - start, usage.ru_maxrss / 1024, proc.returncode


def interp_at_scale(out: Path) -> None:
    """ST read into M over E=a,b,c (4096 source and 32768 target models):
    interp check and the inverse image of one M theory, compared with stdout
    recorded before the infomorphism was built from columns.  No timing is
    asserted."""
    t = fixtures(out)
    args = ["--sig", t["st.sig"], "--pool", t["st.pool"], "--carriers", "E=a,b,c", "--dst-sig", t["m.sig"],
            "--dst-pool", t["m.pool"], "--dst-carriers", "E=a,b,c", "--map", t["st_m.int"]]
    got = cli("interp", "check", *args).stdout
    assert got == b"true\n", got
    got = cli("interp", "apply", *args, "--direction", "inv", "--theory", t["m.thy"]).stdout
    assert got == b"exists v0:E. S(v0)\nforall v0:E. forall v1:E. T(v0,v1) -> T(v1,v0)\n", got


def map_reader(out: Path) -> None:
    """Every command reads a map file the same way, whatever the shape of
    its relation lines.  analogy along ST -> M over E=a,b,c (the
    interpretation of the smoke above) prints the bytes of interp apply
    --direction dir; in process, analogy, which translates pool sentences
    without checking them again, lands on the adjoint pair's direct image
    for every ST theory at that size (4096 source and 32768 target models);
    a nav script over M steps along a map of M into itself written as
    formulas; interp check reads a map written as relation P -> Q lines."""
    t = fixtures(out, {
        "st.thy": "forall x:E. forall y:E. T(x,y) -> T(y,x)\nexists x:E. S(x)\n",
        "swap_m.int": "entity E -> E\nrelation P(x1) -> Q(x1)\nrelation Q(x1) -> P(x1)\n"
        "relation R(x1,x2) -> R(x1,x2)\n",
        "steps.nav": "expand exists x:E. P(x), forall x:E. exists y:E. R(x,y)\n"
        f"analogy {out / 'swap_m.int'}\ncontract exists x:E. Q(x)\n",
        "pq.pool": "".join(f"{q} x:E. {a}\n" for q in ("forall", "exists") for a in ("P(x)", "Q(x)")),
        "swap.map": "entity E -> E\nrelation P -> Q\nrelation Q -> P\n",
    })
    args = ["--sig", t["st.sig"], "--pool", t["st.pool"], "--carriers", "E=a,b,c", "--dst-sig", t["m.sig"],
            "--dst-pool", t["m.pool"], "--dst-carriers", "E=a,b,c", "--map", t["st_m.int"], "--theory", t["st.thy"]]
    got = cli("analogy", *args).stdout
    assert got == cli("interp", "apply", *args, "--direction", "dir").stdout, got
    assert got == b"exists v0:E. P(v0)\nforall v0:E. forall v1:E. R(v0,v1) -> R(v1,v0)\n", got
    st_sig, m_sig = parse_signature(inputs.ST_SIG), parse_signature(inputs.M_SIG)
    h = parse_interpretation(st_sig, m_sig, inputs.ST_TO_M)
    tc1, tc2 = (build_truth_classification(sig, [parse_sentence(sig, s) for s in pool], carriers=inputs.L_CARRIERS)
                for sig, pool in ((st_sig, inputs.ST_POOL), (m_sig, inputs.M_POOL)))
    lat1, lat2 = theory_lattice(tc1), theory_lattice(tc2)
    assert (len(tc1.models), len(tc2.models)) == (4096, 32768)
    cm = concept_morphism(truth_infomorphism(h, tc1, tc2), lat1, lat2)
    for theory in lat1.theories:
        assert analogy(h, lat1, lat2, theory) is cm.dir(theory), theory.keys()
    print("analogy is dir on", len(lat1.theories), "ST theories")
    got = cli("nav", "--sig", t["m.sig"], "--pool", t["m.pool"], "--carriers", "E=a,b",
              "--script", t["steps.nav"]).stdout
    assert got == (b"1 expand -> theory 2452: exists v0:E. P(v0); forall v0:E. exists v1:E. R(v0,v1)\n"
                   b"2 analogy -> theory 2449: exists v0:E. Q(v0); forall v0:E. exists v1:E. R(v0,v1)\n"
                   b"3 contract -> theory 2490: forall v0:E. exists v1:E. R(v0,v1)\n"), got
    got = cli("interp", "check", "--sig", t["pq.sig"], "--pool", t["pq.pool"], "--carriers", "E=a,b,c",
              "--dst-sig", t["pq.sig"], "--dst-pool", t["pq.pool"], "--dst-carriers", "E=a,b,c",
              "--map", t["swap.map"]).stdout
    assert got == b"true\n", got


def listed_models(out: Path) -> None:
    """ST read into M over E=a,b, with the 64 ST models and the 256 M models
    written one to a file in enumeration order.  With the M models passed
    as --dst-model, interp check and the inverse image of one M theory
    check the transfer over the listed models' group; with the ST models
    passed as --model, interp check and the direct image of one ST theory
    look each target model's reduct up among the listed source models.
    Each stdout must equal that of the same run over --carriers E=a,b and
    --dst-carriers E=a,b, which checks it over the enumerated spaces."""
    files = {"st.thy": "forall x:E. forall y:E. T(x,y) -> T(y,x)\nexists x:E. S(x)\n"}
    names = {}
    for side, sig in (("st", inputs.ST_SIG), ("m", inputs.M_SIG)):
        space = enumerate_structures(parse_signature(sig), {"E": ["a", "b"]})
        names[side] = [f"{side}{k:03d}.model" for k in range(len(space))]
        files.update(zip(names[side], map(format_structure, space)))
    t = fixtures(out, files)
    assert (len(names["st"]), len(names["m"])) == (64, 256)
    common = ["--sig", t["st.sig"], "--pool", t["st.pool"], "--dst-sig", t["m.sig"], "--dst-pool", t["m.pool"],
              "--map", t["st_m.int"]]
    source = ["--carriers", "E=a,b"]
    target = ["--dst-carriers", "E=a,b"]
    listed_source = [arg for name in names["st"] for arg in ("--model", t[name])]
    listed_target = [arg for name in names["m"] for arg in ("--dst-model", t[name])]
    for listed, command, models in (
        ("source", ["check"], listed_source + target),
        ("source", ["apply", "--direction", "dir", "--theory", t["st.thy"]], listed_source + target),
        ("target", ["check"], source + listed_target),
        ("target", ["apply", "--direction", "inv", "--theory", t["m.thy"]], source + listed_target),
    ):
        got = cli("interp", *command, *common, *models).stdout
        want = cli("interp", *command, *common, *source, *target).stdout
        print(f"listed {listed}:", *command[:3], repr(got))
        assert got == want, (listed, command)


def interp_w20(out: Path) -> None:
    """ST read into W20 along the map of the smokes above, both over
    E=a,b,c,d (2^20 source and 2^20 target models): interp check and the
    direct image of one ST theory, each hashed as it is read from the pipe
    and compared with the stdout recorded while the infomorphism kept one
    source position per target model; its wall seconds and peak RSS are
    printed.  Both peaked at 87.4-87.7 MB then (0.50-0.58 s); checked a
    column at a time, with no map of the models, they peak at 28.7 MB on
    Python 3.11 (0.16-0.18 s).  The ceiling is about 30% over that."""
    t = fixtures(out, {"st.thy": "forall x:E. forall y:E. T(x,y) -> T(y,x)\nexists x:E. S(x)\n"})
    args = ["--sig", t["st.sig"], "--pool", t["st.pool"], "--carriers", "E=a,b,c,d", "--dst-sig", t["w20.sig"],
            "--dst-pool", t["w20.pool"], "--dst-carriers", "E=a,b,c,d", "--map", t["st_m.int"]]
    want = {
        "check": b"true\n",
        "apply --direction dir": b"exists v0:E. P(v0)\nforall v0:E. forall v1:E. R(v0,v1) -> R(v1,v0)\n",
    }
    for command, stdout in want.items():
        extra = ["--theory", t["st.thy"]] if command != "check" else []
        n, sha, wall_s, peak_mb, code = piped("interp", *command.split(), *args, *extra)
        print(f"{command}: {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB")
        assert code == 0, command
        assert (n, sha) == (len(stdout), hashlib.sha256(stdout).hexdigest()), command
        assert peak_mb < 37, f"{command}: {peak_mb:.1f} MB"


def exports_w20(out: Path) -> None:
    """W20: P(E), R(E,E) over E=a,b,c,d (2^20 models, the default model cap)
    with the 12 M-pool sentences that do not mention Q.  Each export is
    hashed as it is read from the pipe and compared with the sha256 recorded
    before the exports were streamed, and its wall seconds and peak RSS are
    printed.  The text export (171 MB) peaked at 687 MB RSS when it was built
    as one string, at about 190 MB streamed, at about 216 MB (2.0 s, against
    6.2 s) with its models: lines joined from cached blocks, and at about
    176 MB (1.7 s) once the model ids stayed a range and the lattice ran on
    the 102 row classes.  DOT and cxt then went from about 202 and 209 MB
    (1.2-1.4 and 1.4-1.7 s) to 136 and 169 MB (1.1 and 1.2-1.4 s).  With no
    table of model names, text, DOT and cxt peak at 100-103, 60-63 and
    91-95 MB on Python 3.10 to 3.13 (1.2-1.8, 0.7-0.9 and 0.8-0.9 s); they
    peaked at 157-175, 117-135 and 150-168 MB before.  With the cxt rows
    written from the columns, 2^16 to a record, and no table of rows, cxt
    peaks at 47-53 MB (0.3-0.5 s, against 91-97 MB and 0.5-1.1 s).  With
    the lattice keeping no model-wide extent and its rows counted 2^16
    models at a time, text, DOT and cxt peak at 81.8-81.9, 25.0-25.1 and
    24.6 MB on Python 3.11 (1.4-1.5, 0.7 and 0.2-0.4 s; 103.1, 62.7 and
    51.8 MB before).  With a long record dropped before the next one is
    built, text peaks at 68.8 MB (1.0-1.4 s).  Each ceiling is about 30%
    over the highest of the latest peaks.  The cxt export builds no
    lattice, so it runs again under ``--cap-concepts 0`` and must give the
    same bytes."""
    t = fixtures(out)
    cxt = (20909377, "bc664ef74c071b4527e0e66ccf94092f70d7558c2cdb8294ff9949d3e09a6a61", 32)
    want = {
        "text": (170809744, "2e7f21ca6b97d10ad283db7dca0e780562408a9bbded77086c49155fad941e9c", 90),
        "dot": (8343030, "2d16f9e4012dd5ba50b9162f00c39d9488183d22e1841bc82bd8de1874b4088d", 33),
        "cxt": cxt,
        "cxt --cap-concepts 0": cxt,
    }
    for fmt, (size, digest, ceiling_mb) in want.items():
        n, sha, wall_s, peak_mb, code = piped("lattice", "--sig", t["w20.sig"], "--pool", t["w20.pool"],
                                              "--carriers", "E=a,b,c,d", "--format", *fmt.split())
        print(f"{fmt}: {n} bytes, {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB")
        assert code == 0, fmt
        assert (n, sha) == (size, digest), fmt
        assert peak_mb < ceiling_mb, f"{fmt}: {peak_mb:.1f} MB"


def exports_w22(out: Path) -> None:
    """W22: W20 plus ``constant c:E``, with W20's pool plus ``P(c)`` and
    ``exists x:E. R(c,x)`` (2^22 models, past the default model cap, and
    465 theories).  The DOT export is hashed as it is read from the pipe and
    compared with the sha256 recorded while the lattice kept one model-wide
    extent per concept (3.8-4.5 s, peak 361.1 MB); its wall seconds and
    peak RSS are printed.  On the row classes alone it peaks at 51.4-51.5 MB
    on Python 3.11 (3.0-3.9 s); the ceiling is about 30% over that."""
    t = fixtures(out, {"w22.sig": FILES["w20.sig"] + "constant c:E\n",
                       "w22.pool": FILES["w20.pool"] + "P(c)\nexists x:E. R(c,x)\n"})
    n, sha, wall_s, peak_mb, code = piped("lattice", "--sig", t["w22.sig"], "--pool", t["w22.pool"],
                                          "--carriers", "E=a,b,c,d", "--cap-models", "4194304", "--format", "dot")
    print(f"dot: {n} bytes, {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB")
    assert code == 0
    assert (n, sha) == (36672850, "e24c43ae66adc872e63189747934eabbcadc3f9d6b70b2374487670c06904189")
    assert peak_mb < 67, f"{peak_mb:.1f} MB"


def cxt_w24(out: Path) -> None:
    """W24: the M signature and pool over E=a,b,c,d (2^24 models, 598 row
    classes).  The cxt export is hashed as it is read from the pipe and
    compared with the sha256 recorded while each 2^16-model window of the
    rows shifted a copy of the rest of every column (3.9-4.4 s); its wall
    seconds and peak RSS are printed.  Cut from one bytes copy of each
    column, it took 2.8 s on Python 3.11 and peaked at 165.6-165.8 MB
    either way; the ceiling is about 30% over that."""
    t = fixtures(out)
    n, sha, wall_s, peak_mb, code = piped("lattice", "--sig", t["m.sig"], "--pool", t["m.pool"],
                                          "--carriers", "E=a,b,c,d", "--cap-models", "16777216", "--format", "cxt")
    print(f"cxt: {n} bytes, {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB")
    assert code == 0
    assert (n, sha) == (492205956, "5002d3a4cdde51ec9c57b9bab1bfe3e41ab92cf774d3254dc18dbbcf5cb82638")
    assert peak_mb < 215, f"{peak_mb:.1f} MB"


def dot_l(out: Path) -> None:
    """L: the M signature over E=a,b,c (32768 models) with the first ten
    M-pool sentences (109 theories, 27 distinct rows).  The DOT export is
    hashed as it is read from the pipe and compared with the sha256 recorded
    before the lattice ran on row classes; its wall seconds and peak RSS are
    printed.  The same classification written as cxt and read back by
    ctx concepts, whose instance ids are then names rather than a range,
    must give the same DOT.  No timing is asserted."""
    t = fixtures(out)
    semantics = ["--sig", t["m.sig"], "--pool", t["l10.pool"], "--carriers", "E=a,b,c"]
    (out / "l10.cxt").write_bytes(cli("lattice", *semantics, "--format", "cxt").stdout)
    pin = (224912, "2eec248916729f73cb4bd28967292c3b5203623e0af95a48a9dbbfd7e11d3e0d")
    for what, argv in (("dot", ["lattice", *semantics]), ("cxt dot", ["ctx", "concepts", "--cxt", str(out / "l10.cxt")])):
        n, sha, wall_s, peak_mb, code = piped(*argv, "--format", "dot")
        print(f"{what}: {n} bytes, {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB")
        assert code == 0, what
        assert (n, sha) == pin, what


def dot_h38(out: Path) -> None:
    """H38: the M signature over E=a,b,c (32768 models) with the M pool and
    the first 18 sentences that ``inputs.random_sentence`` draws from
    ``random.Random(5)`` (52451 theories, 284985 cover edges).  The DOT
    export is hashed as it is read from the pipe and compared with the
    sha256 recorded while the covers tried every type outside each intent
    and sorted the edges; its wall seconds and peak RSS are printed.  On
    Python 3.11 it took 1.3-2.2 s and peaked at 68.4-69.6 MB then, and
    1.0-1.9 s and 68.3-70.0 MB once the covers tried only the widest
    columns and made the edges in order; the ceiling is about 30% over
    that."""
    rng = random.Random(5)
    pool = [*inputs.M_POOL, *(inputs.random_sentence(rng) for _ in range(18))]
    t = fixtures(out, {"h38.pool": "".join(s + "\n" for s in pool)})
    n, sha, wall_s, peak_mb, code = piped("lattice", "--sig", t["m.sig"], "--pool", t["h38.pool"],
                                          "--carriers", "E=a,b,c", "--format", "dot")
    print(f"dot: {n} bytes, {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB")
    assert code == 0
    assert (n, sha) == (7206337, "d30aa8c3dcfbfebc5ccc1c4dbab6452e61cbef28015d5494103d16a2d1996f14")
    assert peak_mb < 90, f"{peak_mb:.1f} MB"


def concepts_m(out: Path) -> None:
    """The M truth classification (256 models, 20 sentences, 2508 concepts)
    written as cxt and read back by ctx concepts: its DOT must equal the
    lattice's DOT, its cxt the input but for the name line (and reading that
    again gives it back), and its text listing the sha256 recorded before the
    concept lookups went through one step."""
    t = fixtures(out)
    semantics = ["--sig", t["m.sig"], "--pool", t["m.pool"], "--carriers", "E=a,b"]
    (out / "m.cxt").write_bytes(cli("lattice", *semantics, "--format", "cxt").stdout)

    def concepts(path: Path, fmt: str) -> bytes:
        return cli("ctx", "concepts", "--cxt", str(path), "--format", fmt).stdout
    assert concepts(out / "m.cxt", "dot") == cli("lattice", *semantics, "--format", "dot").stdout
    given, again = (out / "m.cxt").read_bytes(), concepts(out / "m.cxt", "cxt")
    # the first line and everything after the name line
    assert given.split(b"\n", 2)[::2] == again.split(b"\n", 2)[::2], "cxt body"
    (out / "again.cxt").write_bytes(again)
    assert concepts(out / "again.cxt", "cxt") == again, "cxt fixed point"
    text = concepts(out / "m.cxt", "text")
    digest = "7172b1512912d394f956bffcae203b60f16de7d0cb05030a4c2dc0a18ccd4753"
    assert (len(text), hashlib.sha256(text).hexdigest()) == (995779, digest)


NAV_M = """\
expand exists x:E. P(x)
expand forall x:E. exists y:E. R(x,y)
analogy {sw}
expand forall x:E. forall y:E. R(x,y) -> R(y,x)
contract exists x:E. Q(x)
revise forall x:E. exists y:E. R(x,y) ; exists x:E. forall y:E. R(x,y)
analogy {sw}
expand forall x:E. Q(x) -> R(x,x), exists x:E. ~P(x)
analogy {id}
contract forall x:E. forall y:E. R(x,y) -> R(y,x)
revise exists x:E. ~P(x) ; forall x:E. P(x) -> R(x,x)
expand exists x:E. R(x,x)
analogy {sw}
contract exists x:E. forall y:E. R(x,y), exists x:E. R(x,x)
expand forall x:E. ~Q(x)
analogy {sw}
expand forall x:E. forall y:E. forall z:E. R(x,y) & R(y,z) -> R(x,z)
revise forall x:E. ~P(x), forall x:E. P(x) -> Q(x) ; exists x:E. P(x) & R(x,x)
expand exists x:E. ~Q(x)
analogy {sw}
contract exists x:E. P(x) & R(x,x), forall x:E. forall y:E. forall z:E. R(x,y) & R(y,z) -> R(x,z)
expand forall x:E. P(x)
contract {big}
revise ; exists x:E. ~Q(x)
analogy {sw}
contract exists x:E. forall y:E. R(x,y), forall x:E. R(x,x), forall x:E. forall y:E. R(x,y) -> R(y,x)
expand exists x:E. Q(x) & R(x,x)
analogy {sw}
contract forall x:E. exists y:E. R(x,y), exists x:E. R(x,x)
revise exists x:E. ~P(x), exists x:E. ~Q(x) ; exists x:E. P(x) & R(x,x)
analogy {sw}
expand forall x:E. forall y:E. R(x,y) -> R(y,x)
contract exists x:E. Q(x) & R(x,x), forall x:E. forall y:E. forall z:E. R(x,y) & R(y,z) -> R(x,z)
expand exists x:E. forall y:E. R(x,y)
analogy {id}
revise forall x:E. forall y:E. R(x,y) -> R(y,x) ; forall x:E. Q(x) -> R(x,x)
contract exists x:E. forall y:E. R(x,y)
expand exists x:E. ~P(x), exists x:E. ~Q(x)
analogy {sw}
contract exists x:E. P(x)
"""


def nav_m(out: Path) -> None:
    """A nav script of 40 steps over M from the top: expansions,
    contractions, revisions, and analogy along two maps of M into itself,
    the P<->Q swap and the identity written as formulas.  One expansion
    reaches the inconsistent bottom, and a contraction of the first sixteen
    pool sentences leaves it.  Its stdout is compared with the sha256
    recorded before the moves closed by one lookup in their lattice."""
    t = fixtures(out, {
        "swap_m.int": "entity E -> E\nrelation P(x1) -> Q(x1)\nrelation Q(x1) -> P(x1)\n"
        "relation R(x1,x2) -> R(x1,x2)\n",
        "id_m.int": "entity E -> E\nrelation P(x1) -> P(x1)\nrelation Q(x1) -> Q(x1)\n"
        "relation R(x1,x2) -> R(x1,x2)\n",
    })
    script = NAV_M.format(big=", ".join(inputs.M_POOL[:16]), sw=t["swap_m.int"], id=t["id_m.int"])
    assert len(script.splitlines()) == 40
    (out / "m.nav").write_text(script)
    got = cli("nav", "--sig", t["m.sig"], "--pool", t["m.pool"], "--carriers", "E=a,b",
              "--script", str(out / "m.nav")).stdout
    steps = got.count(b"\n")
    print(f"nav: {steps} steps, {len(got)} bytes")
    digest = "6ebc3edb1367b20615ec882a1e98fa21d3c76949651c05ac3774fb124001c9fa"
    assert (steps, len(got), hashlib.sha256(got).hexdigest()) == (40, 9298, digest)


def entry_point(out: Path) -> None:
    """python -m theorylattice through run_main, which reads sys.argv (no
    in-process test does): no args, --help, an unknown command and lattice
    --help must print the exit codes and bytes pinned in tests/cli_surface.py
    (on another Python than the pinned one, those of the parser of every
    subcommand, built in-process), and one entail over E=a,b,c its answer."""
    t = fixtures(out, {"q.thy": "forall x:E. Q(x)\n"})
    cases = {name: cli_surface.CASES[name] for name in ("no-args", "--help", "unknown-command", "lattice --help")}
    if sys.version_info[:2] != cli_surface.PINNED_ON:
        full = build_parser().parse_args
        cases = {name: (argv, *cli_surface.surface(full, argv)) for name, (argv, *_) in cases.items()}
    entail = ["entail", "--sig", t["pq.sig"], "--carriers", "E=a,b,c", "--theory", t["q.thy"]]
    cases["entail"] = ([*entail, "--query", "forall x:E. P(x) -> Q(x)"], 0, "true\n", "")
    for name, (argv, code, stdout, stderr) in cases.items():
        proc = cli(*argv, check=False, COLUMNS="80")
        got = (proc.returncode, proc.stdout, proc.stderr)
        assert got == (code, stdout.encode(), stderr.encode()), (name, got)
        print(f"{name}: exit {code}, {len(proc.stdout)} + {len(proc.stderr)} bytes as pinned")


def reader_faults(out: Path) -> None:
    """A fault in a signature, model or map file exits 2 with the file and
    the line of the declaration at fault, whichever check finds it: the
    reader's own (line shape, order, repeated keys) or the constructor's.
    The ``relation R -> R`` line of ``late.map`` stands above the entity
    line that makes it wrong, so only the whole file shows its fault."""
    t = fixtures(out, {
        "pq.pool": "forall x:E. P(x)\nexists x:E. Q(x)\n",
        "r.sig": "entity E\nrelation R(E,E)\n",
        "r.pool": "forall x:E. exists y:E. R(x,y)\n",
        "ab.sig": "entity A\nentity B\nrelation R(A,B)\n",
        "ab.pool": "forall x:A. exists y:B. R(x,y)\n",
        "aa.sig": "entity A\nentity B\nrelation R(A,A)\n",
        "aa.pool": "forall x:A. R(x,x)\n",
        "bad.sig": "entity E\n# P twice\nrelation P(E)\nrelation P(E)\n",
        "bad.model": "universe E = {a, b}\nP = {a}\nQ = {(a,b)}\n",
        "bad.map": "entity E -> E\nrelation R(x1,x2) -> P(x1)\n",
        "late.map": "relation R -> R\nentity A -> A\nentity B -> B\n",
    })
    cases = {
        "signature": (["lattice", "--sig", t["bad.sig"], "--pool", t["pq.pool"], "--carriers", "E=a,b"],
                      f"{t['bad.sig']}:4: duplicate relation type 'P'"),
        "model": (["lattice", "--sig", t["pq.sig"], "--pool", t["pq.pool"], "--model", t["bad.model"]],
                  f"{t['bad.model']}:3: tuple ('a', 'b') has wrong arity for relation 'Q'"),
        "map": (["interp", "check", "--sig", t["r.sig"], "--pool", t["r.pool"], "--carriers", "E=a,b",
                 "--dst-sig", t["pq.sig"], "--dst-pool", t["pq.pool"], "--dst-carriers", "E=a,b",
                 "--map", t["bad.map"]],
                f"{t['bad.map']}:2: formula for relation 'R' must use exactly ['x1', 'x2'] free: missing ['x2']"),
        "renaming": (["interp", "check", "--sig", t["ab.sig"], "--pool", t["ab.pool"], "--carriers", "A=a;B=b",
                      "--dst-sig", t["aa.sig"], "--dst-pool", t["aa.pool"], "--dst-carriers", "A=a;B=b",
                      "--map", t["late.map"]],
                     f"{t['late.map']}:1: relation 'R' position 2: sort 'B' maps to 'B' but 'R' expects 'A'"),
    }
    for name, (argv, message) in cases.items():
        proc = cli(*argv, check=False)
        got = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        assert got == (2, "", f"error: {message}\n"), (name, got)
        print(f"{name}: exit 2, {got[2].strip()}")


REIMPORTS = """\
import importlib, statistics, sys, time
times = []
for _ in range(5):
    for name in [m for m in sys.modules if m.split(".")[0] == "theorylattice"]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("theorylattice.cli")
    times.append(time.perf_counter() - t0)
print(f"import theorylattice.cli, median of 5 in-process re-imports: {statistics.median(times) * 1e3:.1f} ms")
"""


def startup_imports(out: Path) -> None:
    """import theorylattice.cli loads the core pipeline only (_value, errors,
    fca, logic, truth), and neither dataclasses nor inspect: the value
    classes are declared without generated code.  The transport layer
    (morph, nav) loads when a command uses it.  The median of five
    in-process re-imports of theorylattice.cli without bytecode, as
    bench/run.py times them, and the -X importtime table of one CLI start-up
    (--version, which must exit 0) go to the log; no timing is asserted."""
    code = "import sys, theorylattice.cli; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    modules = run.stdout.split()
    loaded = sorted(m for m in modules if m.split(".")[0] == "theorylattice")
    want = ["theorylattice", *(f"theorylattice.{m}" for m in ("_value", "cli", "errors", "fca", "logic", "truth"))]
    assert loaded == want, loaded
    assert not {"dataclasses", "inspect"} & set(modules), "dataclasses or inspect loaded"
    print("loaded:", *loaded, flush=True)
    subprocess.run([sys.executable, "-c", REIMPORTS], env={**ENV, "PYTHONDONTWRITEBYTECODE": "1"}, cwd=ROOT, check=True)
    subprocess.run([sys.executable, "-X", "importtime", "-m", "theorylattice", "--version"], env=ENV, cwd=ROOT,
                   check=True)


def bench_smoke(out: Path) -> None:
    """Fails on a crash, a wrong stage count or a failed operation check."""
    for workload in ("lattice_M", "models_L", "session_M"):
        argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
        report = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        n = json.loads(report.splitlines()[-1])["failed"]
        if n:
            sys.exit(f"{workload}: {n} operations failed")


CHECKS = {check.__name__: check for check in (interp_at_scale, map_reader, listed_models, interp_w20, exports_w20,
                                              exports_w22, cxt_w24, dot_l, dot_h38, concepts_m, nav_m, entry_point,
                                              reader_faults, startup_imports, bench_smoke)}


def main(argv: list[str]) -> None:
    if argv == ["--list"]:
        print(*CHECKS, sep="\n")
    elif not 1 <= len(argv) <= 2 or argv[0] not in CHECKS:
        sys.exit(__doc__.split("\n\n")[1].rstrip())
    else:
        name, *workdir = argv
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(workdir[0] if workdir else tmp, name)
            out.mkdir(parents=True, exist_ok=True)
            CHECKS[name](out)


if __name__ == "__main__":
    main(sys.argv[1:])
