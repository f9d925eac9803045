"""The package's public surface: every name it exported when it loaded all
its submodules at import, now with the transport layer (``morph``, ``nav``)
loaded on first use."""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import theorylattice

SUBMODULES = ("errors", "fca", "logic", "morph", "nav", "truth")

# ``theorylattice.__all__`` as it was when ``__init__`` imported every submodule
ALL = [
    "CarrierAssignment", "Classification", "ClosedTheory", "ConceptLattice", "ConceptMorphism",
    "FormalConcept", "Formula", "InfomorphismError", "Interpretation", "NavStep", "ParseError",
    "PoolMembershipError", "Signature", "SignatureMismatchError", "SizeCapError", "Structure",
    "StructureSpace", "Theory", "TheoryLattice", "TruthClassification", "TruthInfomorphism",
    "analogy", "apply_nav_script", "attribute_concept", "basic_theorem_roundtrip",
    "build_truth_classification", "check_infomorphism", "closure", "compose", "concept_lattice",
    "concept_morphism", "contract", "count_structures", "density_report", "derive_instances",
    "derive_types", "entails", "enumerate_structures", "errors", "eval_formula", "expand",
    "extremes", "fca", "format_formula", "format_structure", "free_vars", "generator_concepts",
    "identity_morphism", "is_formal_concept", "is_theory_morphism", "lattice_dot", "lattice_join",
    "lattice_meet", "lattice_text", "logic", "make_interpretation", "make_language_morphism",
    "morph", "nav", "object_concept", "parse_formula", "parse_interpretation", "parse_model",
    "parse_nav_script", "parse_sentence", "parse_sentences", "parse_signature", "read_cxt",
    "reduct", "revise", "satisfies", "sentence_key", "theory_join", "theory_lattice",
    "theory_leq", "theory_meet", "theory_of", "translate", "truth", "truth_infomorphism",
    "write_cxt",
]


def test_version_is_the_one_in_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "(.*)"$', text, re.MULTILINE)[1] == theorylattice.__version__


def test_all_is_unchanged():
    assert theorylattice.__all__ == ALL


@pytest.mark.parametrize("name", ALL)
def test_every_name_is_its_submodules_object(name):
    obj = getattr(theorylattice, name)
    modules = {m: importlib.import_module(f"theorylattice.{m}") for m in SUBMODULES}
    if name in modules:
        assert obj is modules[name]
        return
    owners = [module for module in modules.values() if hasattr(module, name)]
    assert owners
    assert all(getattr(module, name) is obj for module in owners)


def test_dir_lists_every_name():
    assert set(ALL) <= set(dir(theorylattice))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from theorylattice import *", namespace)
    assert all(namespace[name] is getattr(theorylattice, name) for name in ALL)


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(theorylattice, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        theorylattice.nope


def test_a_lazy_name_is_looked_up_on_each_access(monkeypatch):
    """The package keeps no copy of a transport-layer function, so one
    swapped in its own module (as the benchmark's tracer does) is what the
    package gives, and the original again once it is put back."""
    from theorylattice import nav

    original = theorylattice.analogy
    assert "analogy" not in vars(theorylattice)
    monkeypatch.setattr(nav, "analogy", lambda *args: None)
    assert theorylattice.analogy is nav.analogy is not original
    monkeypatch.undo()
    assert theorylattice.analogy is original


def _loaded_after(code: str, prefix: str = "theorylattice") -> list:
    """The modules named ``prefix...`` loaded, after ``code`` ran in a fresh interpreter."""
    listing = f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    script = f"{code}\nimport json, sys\n{listing}"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


CORE = ["theorylattice", *(f"theorylattice.{m}" for m in ("_value", "errors", "fca", "logic", "truth"))]
TRANSPORT = ["theorylattice.morph", "theorylattice.nav"]


def test_importing_the_cli_leaves_the_transport_layer_unloaded():
    assert _loaded_after("import theorylattice.cli") == sorted(CORE + ["theorylattice.cli"])
    assert _loaded_after("import theorylattice") == CORE


@pytest.mark.parametrize("code", ["import theorylattice.cli", "import theorylattice"])
@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_start_up_loads_neither_dataclasses_nor_inspect(code, module):
    """The value classes are declared without class-building code, so a CLI
    start compiles and runs none of these modules (beyond any the
    interpreter's own start-up hooks load)."""
    assert _loaded_after(code, module) == _loaded_after("", module)


@pytest.mark.parametrize(
    "code",
    [
        "import theorylattice\ntheorylattice.analogy",
        "from theorylattice import analogy",
        "import theorylattice.nav",
    ],
    ids=["attribute", "from-import", "submodule"],
)
def test_a_transport_name_loads_the_transport_layer(code):
    assert _loaded_after(code) == sorted(CORE + TRANSPORT)
