"""Truth classifications and the lattice of theories.

A truth classification pairs a finite model set with a finite sentence
pool under satisfaction.  Closing a theory keeps exactly the pool
sentences true in every model of the theory; the closed theories are the
intents of the incidence relation and form a complete lattice under the
order "more models, fewer sentences" (reverse theory inclusion).  The
join of two closed theories is their intersection; the meet is the pool
theory of their common models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import fca
from .errors import PoolMembershipError, SignatureMismatchError
from .logic import (
    DEFAULT_MODEL_CAP,
    Formula,
    ModelColumns,
    Signature,
    Structure,
    canonicalize,
    enumerate_structures,
    free_vars,
    sentence_key,
    validate_formula,
)


@dataclass(frozen=True)
class Theory:
    """A signature together with a finite set of closed axioms."""

    signature: Signature
    axioms: frozenset[Formula]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axioms", frozenset(canonicalize(a) for a in self.axioms))
        for a in self.axioms:
            if free_vars(a):
                raise ValueError(f"axiom {sentence_key(a)!r} is not closed")
            validate_formula(self.signature, a)

    @classmethod
    def make(cls, sig: Signature, axioms: Iterable[Formula]) -> "Theory":
        return cls(sig, frozenset(axioms))

    @classmethod
    def _trusted(cls, sig: Signature, axioms: frozenset[Formula]):
        """Wrap axioms that are members of a validated pool, skipping the
        re-validation; the lattice builds its theories this way."""
        theory = object.__new__(cls)
        object.__setattr__(theory, "signature", sig)
        object.__setattr__(theory, "axioms", axioms)
        return theory


def _as_axioms(theory: "Theory | Iterable[Formula]") -> Iterable[Formula]:
    return theory.axioms if isinstance(theory, Theory) else theory


@dataclass(frozen=True)
class ClosedTheory(Theory):
    """A theory whose axiom set is an intent of a truth classification."""

    def keys(self) -> tuple[str, ...]:
        return tuple(sorted(sentence_key(a) for a in self.axioms))


def _check_pool(sig: Signature, pool: Sequence[Formula]) -> None:
    """Pool sentences must be canonical, closed, well-typed and distinct."""
    for s in pool:
        if free_vars(s):
            raise ValueError(f"pool sentence {sentence_key(s)!r} is not closed")
        validate_formula(sig, s)
        if canonicalize(s) != s:
            raise ValueError(f"pool sentence {sentence_key(s)!r} is not canonical")
    if len(set(pool)) != len(pool):
        raise ValueError("duplicate pool sentences")


@dataclass(frozen=True)
class TruthClassification:
    """Models as instances, pool sentences as types, satisfaction as incidence.

    Instance ids are model positions; type ids are the canonical printed
    sentences, so the underlying classification is directly exportable.
    ``models`` is a tuple of listed models or the lazy
    :class:`~theorylattice.logic.StructureSpace` of an enumeration.  The
    pool is validated here, once, so that the closed theories built from
    its members inside the lattice need no re-validation.
    """

    signature: Signature
    models: Sequence[Structure]
    pool: tuple[Formula, ...]
    classification: fca.Classification

    def __post_init__(self) -> None:
        _check_pool(self.signature, self.pool)
        keys = tuple(sentence_key(s) for s in self.pool)
        ctx = self.classification
        if ctx.types != keys or ctx.instances != tuple(range(len(self.models))):
            raise ValueError("classification does not match the models and the pool")
        object.__setattr__(self, "_by_key", dict(zip(keys, self.pool)))
        object.__setattr__(self, "_pos", {s: k for k, s in enumerate(self.pool)})

    @property
    def pool_keys(self) -> tuple[str, ...]:
        return self.classification.types

    def in_pool(self, sentence: Formula) -> bool:
        return self._lookup(sentence)[1] is not None

    def sentence(self, key: str) -> Formula:
        try:
            return self._by_key[key]
        except KeyError:
            raise ValueError(f"no pool sentence with key {key!r}") from None

    def models_of(self, axioms: Iterable[Formula]) -> frozenset[int]:
        """Indices of the models satisfying every axiom (pool-free)."""
        return frozenset(fca._bits(self._models_mask(axioms)))

    def _lookup(self, sentence: Formula) -> tuple[Formula, int | None]:
        """The canonical form of a sentence and its pool position, if any.

        A sentence found in the pool as given is canonical already, so
        only a miss is canonicalized and looked up again.
        """
        p = self._pos.get(sentence)
        if p is not None:
            return sentence, p
        sentence = canonicalize(sentence)
        return sentence, self._pos.get(sentence)

    @cached_property
    def _satisfaction(self) -> ModelColumns:
        return ModelColumns(self.signature, self.models)

    def _column(self, sentence: Formula) -> int:
        """The models satisfying a sentence, as a mask; a pool sentence's
        column is looked up, any other one computed."""
        sentence, p = self._lookup(sentence)
        if p is not None:
            return self.classification._columns[p]
        return self._satisfaction.column(sentence)

    def _models_mask(self, axioms: Iterable[Formula]) -> int:
        """The models satisfying every axiom, as a mask."""
        out = self.classification._full
        for a in axioms:
            out &= self._column(a)
        return out

    def _theory(self, intent: int) -> "ClosedTheory":
        """The closed theory of an intent mask over pool positions."""
        axioms = frozenset(fca._select(self.pool, intent))
        return ClosedTheory._trusted(self.signature, axioms)

    def pool_theory_of(self, model_indices: Iterable[int]) -> frozenset[Formula]:
        """Pool sentences true in every listed model."""
        keys = fca.derive_types(self.classification, model_indices)
        return frozenset(self._by_key[k] for k in keys)


def build_truth_classification(
    sig: Signature,
    pool: Iterable[Formula],
    *,
    models: Sequence[Structure] | None = None,
    carriers: Mapping[str, Sequence[str]] | None = None,
    model_cap: int = DEFAULT_MODEL_CAP,
) -> TruthClassification:
    """Materialize satisfaction between a model set and a sentence pool.

    Exactly one of ``models`` (an explicit, duplicate-free list) and
    ``carriers`` (enumerate every structure over the fixed carriers) must
    be given.  The model set must be nonempty; the pool may be empty.
    """
    if (models is None) == (carriers is None):
        raise ValueError("exactly one of models and carriers must be given")
    if carriers is not None:
        model_seq = enumerate_structures(sig, carriers, cap=model_cap)
    else:
        model_seq = tuple(models)
        for m in model_seq:
            if m.signature != sig:
                raise SignatureMismatchError("model over a different signature")
        if len(set(model_seq)) != len(model_seq):
            raise ValueError("duplicate structures in the model list")
    if not model_seq:
        raise ValueError("empty model set; the lattice of theories degenerates")

    pool_list = tuple(dict.fromkeys(canonicalize(s) for s in pool))
    # fail before the satisfaction pass; the constructor checks again
    _check_pool(sig, pool_list)

    satisfaction = ModelColumns(sig, model_seq)
    ctx = fca.Classification.from_columns(
        tuple(range(len(model_seq))),
        tuple(sentence_key(s) for s in pool_list),
        tuple(satisfaction.column(s) for s in pool_list),
    )
    return TruthClassification(sig, model_seq, pool_list, ctx)


def closure(tc: TruthClassification, theory: Theory | Iterable[Formula]) -> ClosedTheory:
    """The pool sentences true in every model of the theory.

    Axioms must come from the pool; this is the double-prime closure of
    the underlying classification.
    """
    intent = 0
    for a in _as_axioms(theory):
        a, p = tc._lookup(a)
        if p is None:
            raise PoolMembershipError(sentence_key(a), "closure is pool-relative")
        intent |= 1 << p
    ctx = tc.classification
    return tc._theory(ctx._intent(ctx._extent(intent)))


def entails(tc: TruthClassification, theory: Theory | Iterable[Formula], sentence: Formula) -> bool:
    """Semantic entailment over the classification's model set.

    Neither the axioms nor the query sentence need to be pool members;
    a non-pool sentence's column is computed over the model set.
    """
    sentence, p = tc._lookup(sentence)
    if p is None:
        if free_vars(sentence):
            raise ValueError(f"query {sentence_key(sentence)!r} is not closed")
        validate_formula(tc.signature, sentence)
    models = tc._models_mask(_as_axioms(theory))
    return models & ~tc._column(sentence) == 0


def theory_leq(tc: TruthClassification, t1: Theory | Iterable[Formula], t2: Theory | Iterable[Formula]) -> bool:
    """The theory order: t1 is below t2 when t1's closure contains t2's."""
    return closure(tc, t1).axioms >= closure(tc, t2).axioms


@dataclass(frozen=True)
class TheoryLattice:
    """All closed theories of a truth classification, ordered by reverse inclusion.

    Theories are listed parallel to the underlying concept lattice; the
    first entry is the bottom (maximal axiom set, fewest models), the last
    is the top (the closure of the empty theory).  The theories are a view
    of the concept lattice's intents, built on first use.
    """

    tc: TruthClassification
    lattice: fca.ConceptLattice

    @cached_property
    def theories(self) -> tuple[ClosedTheory, ...]:
        return tuple(map(self.tc._theory, self.lattice._intents))

    @cached_property
    def _index(self) -> dict[frozenset[Formula], int]:
        return {t.axioms: k for k, t in enumerate(self.theories)}

    def __contains__(self, theory: ClosedTheory) -> bool:
        return (
            isinstance(theory, ClosedTheory)
            and theory.signature == self.tc.signature
            and theory.axioms in self._index
        )

    def index(self, theory: ClosedTheory) -> int:
        if theory not in self:
            raise ValueError("foreign theory: not a closed theory of this lattice")
        return self._index[theory.axioms]

    @property
    def pool(self) -> tuple[Formula, ...]:
        return self.tc.pool

    @property
    def bottom(self) -> ClosedTheory:
        return self.theories[0]

    @property
    def top(self) -> ClosedTheory:
        return self.theories[-1]

    def leq(self, t1: ClosedTheory, t2: ClosedTheory) -> bool:
        """Lattice order: t1 below t2 iff t1's axioms contain t2's."""
        self.index(t1)
        self.index(t2)
        return t1.axioms >= t2.axioms

    def extent(self, theory: ClosedTheory) -> frozenset[int]:
        """The indices of the models satisfying the theory."""
        return frozenset(fca._bits(self.lattice._extents[self.index(theory)]))

    def closure(self, axioms: Theory | Iterable[Formula]) -> ClosedTheory:
        return closure(self.tc, axioms)


def theory_lattice(tc: TruthClassification, concept_cap: int = fca.DEFAULT_CONCEPT_CAP) -> TheoryLattice:
    """Enumerate every closed theory of the classification."""
    return TheoryLattice(tc, fca.concept_lattice(tc.classification, cap=concept_cap))


def extremes(lat: TheoryLattice) -> tuple[ClosedTheory, ClosedTheory]:
    """(top, bottom): the closure of nothing, and the closure of the whole pool."""
    return lat.top, lat.bottom


def theory_join(lat: TheoryLattice, t1: ClosedTheory, t2: ClosedTheory) -> ClosedTheory:
    """Supremum: the intersection of the two theories (always closed)."""
    lat.index(t1)
    lat.index(t2)
    joined = ClosedTheory._trusted(lat.tc.signature, t1.axioms & t2.axioms)
    if joined not in lat:
        raise RuntimeError(
            f"join of closed theories is not closed: {joined.keys()}"
        )
    return joined


def theory_meet(lat: TheoryLattice, t1: ClosedTheory, t2: ClosedTheory) -> ClosedTheory:
    """Infimum: the theory of the common models.

    Computed both as the closure of the union of axioms and as the pool
    theory of the intersected model sets; the two must agree.
    """
    extents = lat.lattice._extents
    common = extents[lat.index(t1)] & extents[lat.index(t2)]
    via_closure = closure(lat.tc, t1.axioms | t2.axioms)
    via_models = lat.tc._theory(lat.tc.classification._intent(common))
    if via_closure != via_models:
        raise RuntimeError(
            "meet mismatch between closure of union and theory of common models: "
            f"{sorted(map(sentence_key, via_closure.axioms))} vs "
            f"{sorted(map(sentence_key, via_models.axioms))}"
        )
    return via_closure


def object_concept(tc: TruthClassification, model: int | Structure) -> ClosedTheory:
    """The theory of a model: the pool sentences it satisfies."""
    if isinstance(model, Structure):
        try:
            model = tc.models.index(model)
        except ValueError:
            raise ValueError("unknown model: not in this classification") from None
    if not 0 <= model < len(tc.models):
        raise ValueError(f"unknown model index {model}")
    return tc._theory(tc.classification._rows[model])


def attribute_concept(tc: TruthClassification, sentence: Formula) -> ClosedTheory:
    """The entailment theory of a pool sentence: the closure of itself alone."""
    sentence = canonicalize(sentence)
    if not tc.in_pool(sentence):
        raise ValueError(f"unknown sentence {sentence_key(sentence)!r}: not in the pool")
    return closure(tc, [sentence])


def generator_concepts(tc: TruthClassification, x: int | Structure | Formula) -> ClosedTheory:
    """Dispatch to the object concept (models) or attribute concept (sentences)."""
    if isinstance(x, (int, Structure)):
        return object_concept(tc, x)
    return attribute_concept(tc, x)


def lattice_text(lat: TheoryLattice) -> str:
    """Line-oriented export: one record per closed theory, sorted fields.

    ``covers`` lists the immediately smaller theories (more axioms),
    ``covered-by`` the immediately larger ones, by record id.  Model ids
    are positions, so an extent's set bits are its models in ascending order.
    """
    concepts = lat.lattice
    below: list[list[str]] = [[] for _ in concepts._extents]
    above: list[list[str]] = [[] for _ in concepts._extents]
    for low, high in concepts.covers():
        below[high].append(str(low))
        above[low].append(str(high))
    keys = lat.tc.pool_keys
    names = tuple(map(str, lat.tc.classification.instances))
    lines = [f"closed theories: {len(below)}", f"models: {len(names)}"]
    for k, (extent, intent) in enumerate(zip(concepts._extents, concepts._intents)):
        axioms = "; ".join(sorted(fca._select(keys, intent)))
        models = " ".join(fca._select(names, extent))
        lines.append("")
        lines.append(f"theory {k}")
        lines.append(f"  axioms: {axioms or '(none)'}")
        lines.append(f"  models: {models or '(none)'}")
        lines.append(f"  covers: {' '.join(below[k]) or '(none)'}")
        lines.append(f"  covered-by: {' '.join(above[k]) or '(none)'}")
    return "\n".join(lines) + "\n"
