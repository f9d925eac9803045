"""Finite lattices of theories via formal concept analysis.

The pipeline: a first-order signature, a finite model set, and a finite
sentence pool form a truth classification; its concept lattice is the
lattice of closed theories, navigable by contraction, expansion,
revision, and analogy, and transportable along signature maps
(interpretations), which compose.
"""

__version__ = "0.1.0"

from .errors import (
    InfomorphismError,
    ParseError,
    PoolMembershipError,
    SignatureMismatchError,
    SizeCapError,
)
from .fca import (
    Classification,
    ConceptLattice,
    FormalConcept,
    basic_theorem_roundtrip,
    concept_lattice,
    density_report,
    derive_instances,
    derive_types,
    is_formal_concept,
    lattice_dot,
    lattice_join,
    lattice_meet,
    read_cxt,
    write_cxt,
)
from .logic import (
    CarrierAssignment,
    Formula,
    Signature,
    Structure,
    StructureSpace,
    count_structures,
    enumerate_structures,
    eval_formula,
    format_formula,
    format_structure,
    free_vars,
    parse_formula,
    parse_model,
    parse_sentence,
    parse_sentences,
    parse_signature,
    satisfies,
    sentence_key,
)
from .truth import (
    ClosedTheory,
    Theory,
    TheoryLattice,
    TruthClassification,
    attribute_concept,
    build_truth_classification,
    closure,
    entails,
    lattice_text,
    object_concept,
    theory_join,
    theory_lattice,
    theory_leq,
    theory_meet,
)

# The transport layer (signature maps, infomorphisms and the navigation
# moves that use them) loads on first use, so that importing the package or
# its CLI compiles only the core pipeline.  Each lazy submodule and the names
# the package re-exports from it; a name is looked up on every access and
# never stored here, so that a function swapped in its own module is seen.
_LAZY = {
    "morph": (
        "ConceptMorphism",
        "Interpretation",
        "TruthInfomorphism",
        "check_infomorphism",
        "compose",
        "concept_morphism",
        "identity_morphism",
        "is_theory_morphism",
        "make_interpretation",
        "parse_interpretation",
        "reduct",
        "translate",
        "truth_infomorphism",
    ),
    "nav": ("NavStep", "analogy", "apply_nav_script", "contract", "expand", "parse_nav_script", "revise"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted({*(name for name in dir() if not name.startswith("_")), *_LAZY, *_LAZY_OWNER})


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name in _LAZY_OWNER:
        return getattr(import_module(f"{__name__}.{_LAZY_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
