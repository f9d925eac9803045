"""The end-to-end smoke checks of ``tests/smoke.py``: the fast ones run here,
and CI runs each check, as one step of its own."""

import re
from pathlib import Path

import pytest

import smoke

# Each under about a second and covered by no other tier-1 test.  The rest run
# in CI only: interp_w20 builds two classifications of 2^20 models in each of two
# processes; exports_w20 (about 1 s per export), exports_w22, cxt_w24, dot_h38 and bench_smoke take seconds;
# text_l10, dot_l, entry_point and startup_imports repeat test_l10_lattice_output_is_pinned,
# the test_module_entry_point tests and the start-up tests of test_package.py.
FAST = ["interp_at_scale", "map_reader", "listed_models", "concepts_m", "nav_m", "reader_faults"]


@pytest.mark.parametrize("name", FAST)
def test_fast_check(name, tmp_path):
    smoke.CHECKS[name](tmp_path)


def test_each_check_is_one_ci_step():
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    called = re.findall(r"python tests/smoke\.py (\S+)", workflow.read_text(encoding="utf-8"))
    assert sorted(called) == sorted(smoke.CHECKS)
