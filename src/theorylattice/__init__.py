"""Finite lattices of theories via formal concept analysis.

The pipeline: a first-order signature, a finite model set, and a finite
sentence pool form a truth classification; its concept lattice is the
lattice of closed theories, navigable by contraction, expansion,
revision, and analogy, and transportable along language morphisms and
interpretations.
"""

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
    theory_of,
)
from .morph import (
    ConceptMorphism,
    Interpretation,
    LanguageMorphism,
    TruthInfomorphism,
    check_infomorphism,
    compose_morphisms,
    concept_morphism,
    identity_morphism,
    is_theory_morphism,
    lift_morphism,
    make_interpretation,
    make_language_morphism,
    parse_interpretation,
    parse_morphism,
    reduct,
    translate,
    truth_infomorphism,
)
from .nav import NavStep, analogy, apply_nav_script, contract, expand, parse_nav_script, revise
from .truth import (
    ClosedTheory,
    Theory,
    TheoryLattice,
    TruthClassification,
    attribute_concept,
    build_truth_classification,
    closure,
    entails,
    extremes,
    generator_concepts,
    lattice_text,
    object_concept,
    theory_join,
    theory_lattice,
    theory_leq,
    theory_meet,
)

__all__ = [name for name in dir() if not name.startswith("_")]
