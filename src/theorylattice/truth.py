"""Truth classifications and the lattice of theories.

A truth classification pairs a finite model set with a finite sentence
pool under satisfaction.  ``TruthClassification(signature, models, pool)``
checks the models and the pool once and builds the classification; an
axiom outside the pool is checked by ``Theory``, a query by computing its
column.  Closing a theory keeps exactly the pool sentences true in every
model of the theory; the closed theories are the intents of the incidence
relation and form a complete lattice under the order "more models, fewer
sentences" (reverse theory inclusion).  The join of two closed theories
is their intersection; the meet is the pool theory of their common models.
The meet and :meth:`TheoryLattice.closure` close a pool mask by one lookup
in the lattice and return its own theory object; :func:`closure`, which
has no lattice, derives the closure over the classification's row classes.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from . import fca
from ._value import Value
from .errors import PoolMembershipError, SignatureMismatchError
from .logic import (
    DEFAULT_MODEL_CAP,
    Formula,
    ModelColumns,
    Signature,
    Structure,
    StructureSpace,
    _check_sentence,
    canonicalize,
    enumerate_structures,
    format_formula,
    sentence_key,
)


class Theory(Value):
    """A signature together with a finite set of closed axioms."""

    _fields = ("signature", "axioms")
    signature: Signature
    axioms: frozenset[Formula]

    def _check(self) -> None:
        object.__setattr__(self, "axioms", frozenset(canonicalize(a) for a in self.axioms))
        for a in self.axioms:
            _check_sentence(self.signature, a)

    @classmethod
    def make(cls, sig: Signature, axioms: Iterable[Formula]) -> "Theory":
        return cls(sig, frozenset(axioms))


def _as_axioms(theory: "Theory | Iterable[Formula]") -> Iterable[Formula]:
    return theory.axioms if isinstance(theory, Theory) else theory


class ClosedTheory(Theory):
    """A theory whose axiom set is an intent of a truth classification.

    One built by the package is a view of its classification and intent
    mask, which the lattice operations read; its axioms are read from the
    pool on first use.  One built by hand carries its axioms.
    """

    _tc: "TruthClassification | None" = None
    _intent: int = 0

    @cached_property
    def axioms(self) -> frozenset[Formula]:
        return frozenset(fca._select(self._tc.pool, self._intent))

    def keys(self) -> tuple[str, ...]:
        if self._tc is None:
            return tuple(sorted(sentence_key(a) for a in self.axioms))
        return tuple(sorted(fca._select(self._tc.pool_keys, self._intent)))


class TruthClassification(Value):
    """Models as instances, pool sentences as types, satisfaction as incidence.

    Instance ids are model positions; type ids are the canonical printed
    sentences, so the underlying classification is directly exportable.
    Both inputs are checked here, once.  ``models``, the lazy
    :class:`~theorylattice.logic.StructureSpace` of an enumeration or any
    other sequence of structures (stored as a tuple, no two equal), must be
    nonempty and over the signature.  The pool's sentences must be distinct
    and canonical, and computing each one's column checks that it is closed
    and well-typed.  The closed theories built from its members inside the
    lattice need no re-validation.  Two classifications are equal when
    their signatures, pools and models in order are, whether the models are
    held by a space or a tuple; the hash reads the number of models, not
    the models.
    """

    _fields = ("signature", "models", "pool")
    _shown = (*_fields, "classification")
    signature: Signature
    models: Sequence[Structure]
    pool: tuple[Formula, ...]
    classification: fca.Classification

    def _check(self) -> None:
        models = self.models
        if isinstance(models, StructureSpace):
            if models.signature != self.signature:
                raise SignatureMismatchError("model over a different signature")
        else:
            models = tuple(models)
            object.__setattr__(self, "models", models)
            if any(m.signature != self.signature for m in models):
                raise SignatureMismatchError("model over a different signature")
            if len(set(models)) != len(models):
                raise ValueError("duplicate structures in the model list")
        if not models:
            raise ValueError("empty model set; the lattice of theories degenerates")
        if len(set(self.pool)) != len(self.pool):
            raise ValueError("duplicate pool sentences")
        for s in self.pool:
            if canonicalize(s) != s:
                raise ValueError(f"pool sentence {sentence_key(s)!r} is not canonical")
        satisfaction = ModelColumns(self.signature, self.models)
        columns = tuple(map(satisfaction.column, self.pool))
        ctx = fca.Classification.from_columns(
            range(len(self.models)), tuple(map(format_formula, self.pool)), columns
        )
        object.__setattr__(self, "classification", ctx)
        object.__setattr__(self, "_satisfaction", satisfaction)
        object.__setattr__(self, "_pos", {s: k for k, s in enumerate(self.pool)})

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.models, other.models
        return (self.signature, self.pool, len(a)) == (other.signature, other.pool, len(b)) and (
            a == b or all(map(operator.eq, a, b))
        )

    def __hash__(self) -> int:
        return hash((self.signature, self.pool, len(self.models)))

    @property
    def pool_keys(self) -> tuple[str, ...]:
        return self.classification.types

    def in_pool(self, sentence: Formula) -> bool:
        return self._lookup(sentence)[1] is not None

    def sentence(self, key: str) -> Formula:
        try:
            return self.pool[self.classification._tpos[key]]
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

    def _column(self, sentence: Formula) -> int:
        """The models satisfying a sentence, as a mask; a pool sentence's
        column is looked up, any other one computed."""
        sentence, p = self._lookup(sentence)
        if p is not None:
            return self.classification._columns[p]
        return self._satisfaction.column(sentence)

    def _models_mask(self, theory: Theory | Iterable[Formula]) -> int:
        """The models satisfying every axiom, as a mask."""
        if isinstance(theory, ClosedTheory) and theory._tc is self:
            return self.classification._extent(theory._intent)
        out = self.classification._full
        for a in _as_axioms(theory):
            out &= self._column(a)
        return out

    def _mask(self, theory: Theory | Iterable[Formula]) -> int:
        """The pool positions of the axioms, as a mask."""
        intent = 0
        for a in _as_axioms(theory):
            a, p = self._lookup(a)
            if p is None:
                raise PoolMembershipError(sentence_key(a))
            intent |= 1 << p
        return intent

    def _theory(self, intent: int) -> "ClosedTheory":
        """The closed theory of a closed intent: a view, no axiom set."""
        theory = object.__new__(ClosedTheory)
        vars(theory).update(signature=self.signature, _tc=self, _intent=intent)
        return theory


def build_truth_classification(
    sig: Signature,
    pool: Iterable[Formula],
    *,
    models: Sequence[Structure] | None = None,
    carriers: Mapping[str, Sequence[str]] | None = None,
    model_cap: int = DEFAULT_MODEL_CAP,
) -> TruthClassification:
    """Materialize satisfaction between a model set and a sentence pool.

    Exactly one of ``models`` (listed structures or a space) and
    ``carriers`` (enumerate every structure over the fixed carriers) must
    be given.  The pool is canonicalized, alpha-variants kept once; the
    constructor checks the models and the pool.  The pool may be empty.
    """
    if (models is None) == (carriers is None):
        raise ValueError("exactly one of models and carriers must be given")
    if carriers is not None:
        models = enumerate_structures(sig, carriers, cap=model_cap)
    return TruthClassification(sig, models, tuple(dict.fromkeys(canonicalize(s) for s in pool)))


def closure(tc: TruthClassification, theory: Theory | Iterable[Formula]) -> ClosedTheory:
    """The pool sentences true in every model of the theory.

    Axioms must come from the pool; this is the double-prime closure of
    the underlying classification, taken over its row classes.
    """
    classes, _ = tc.classification._classes
    return tc._theory(classes._intent(classes._extent(tc._mask(theory))))


def entails(tc: TruthClassification, theory: Theory | Iterable[Formula], sentence: Formula) -> bool:
    """Semantic entailment over the classification's model set.

    Neither the axioms nor the query sentence need to be pool members;
    a non-pool sentence's column is computed over the model set, which
    checks once that it is closed and well-typed (``ValueError``).
    """
    column = tc._column(sentence)
    return tc._models_mask(theory) & ~column == 0


def theory_leq(tc: TruthClassification, t1: Theory | Iterable[Formula], t2: Theory | Iterable[Formula]) -> bool:
    """The theory order: t1 is below t2 when t1's closure contains t2's, that
    is, when every model of t1 is a model of t2.  Axioms must come from the
    pool; the models are compared by their row classes."""
    classes, _ = tc.classification._classes
    return classes._extent(tc._mask(t1)) & ~classes._extent(tc._mask(t2)) == 0


class TheoryLattice(Value):
    """All closed theories of a truth classification, ordered by reverse inclusion.

    Theories are listed parallel to the underlying concept lattice; the
    first entry is the bottom (maximal axiom set, fewest models), the last
    is the top (the closure of the empty theory).  The theories are views
    of the concept lattice's intents, built on first use.
    """

    _fields = ("tc", "lattice")
    tc: TruthClassification
    lattice: fca.ConceptLattice

    @cached_property
    def theories(self) -> tuple[ClosedTheory, ...]:
        return tuple(map(self.tc._theory, self.lattice._intents))

    def _intent(self, theory: ClosedTheory) -> int:
        """The intent mask of a closed theory of this lattice: a view of its
        classification carries it; any other one is looked up by its axioms."""
        tc = self.tc
        if isinstance(theory, ClosedTheory):
            if theory._tc is tc:
                return theory._intent
            if theory.signature == tc.signature:
                with contextlib.suppress(PoolMembershipError):
                    intent = tc._mask(theory)
                    if self.lattice._intents[self.lattice._closing(intent)] == intent:
                        return intent
        raise ValueError("foreign theory: not a closed theory of this lattice")

    def _closed(self, intent: int) -> ClosedTheory:
        """The theory of this lattice closing a mask over pool positions: one
        lookup in the concept lattice, over its row classes."""
        return self.theories[self.lattice._closing(intent)]

    def __contains__(self, theory: ClosedTheory) -> bool:
        try:
            self._intent(theory)
        except ValueError:
            return False
        return True

    def index(self, theory: ClosedTheory) -> int:
        return self.lattice._closing(self._intent(theory))

    @property
    def bottom(self) -> ClosedTheory:
        return self.theories[0]

    @property
    def top(self) -> ClosedTheory:
        return self.theories[-1]

    def leq(self, t1: ClosedTheory, t2: ClosedTheory) -> bool:
        """Lattice order: t1 below t2 iff t1's axioms contain t2's."""
        intent1 = self._intent(t1)
        return self._intent(t2) & ~intent1 == 0

    def extent(self, theory: ClosedTheory) -> frozenset[int]:
        """The indices of the models satisfying the theory: its concept's
        extent, the AND of its axioms' columns."""
        return frozenset(fca._bits(self.tc.classification._extent(self._intent(theory))))

    def closure(self, axioms: Theory | Iterable[Formula]) -> ClosedTheory:
        """The theory of this lattice closing pool axioms, as :func:`closure`
        does, found by one lookup."""
        return self._closed(self.tc._mask(axioms))


def theory_lattice(tc: TruthClassification, concept_cap: int = fca.DEFAULT_CONCEPT_CAP) -> TheoryLattice:
    """Enumerate every closed theory of the classification."""
    return TheoryLattice(tc, fca.concept_lattice(tc.classification, cap=concept_cap))


def theory_join(lat: TheoryLattice, t1: ClosedTheory, t2: ClosedTheory) -> ClosedTheory:
    """Supremum: the intersection of the two theories, closed as intents are."""
    return lat.tc._theory(lat._intent(t1) & lat._intent(t2))


def theory_meet(lat: TheoryLattice, t1: ClosedTheory, t2: ClosedTheory) -> ClosedTheory:
    """Infimum: the closure of the union of the two theories, found by one
    lookup; it is the pool theory of their common models."""
    return lat._closed(lat._intent(t1) | lat._intent(t2))


def object_concept(tc: TruthClassification, model: int | Structure) -> ClosedTheory:
    """The theory of a model: the pool sentences it satisfies."""
    if isinstance(model, Structure):
        try:
            model = tc.models.index(model)
        except ValueError:
            raise ValueError("unknown model: not in this classification") from None
    if not 0 <= model < len(tc.models):
        raise ValueError(f"unknown model index {model}")
    return tc._theory(tc.classification._intent(1 << model))


def attribute_concept(tc: TruthClassification, sentence: Formula) -> ClosedTheory:
    """The entailment theory of a pool sentence: the closure of itself alone,
    the pool sentences true in every row class of its column."""
    sentence, p = tc._lookup(sentence)
    if p is None:
        raise ValueError(f"unknown sentence {sentence_key(sentence)!r}: not in the pool")
    classes, _ = tc.classification._classes
    return tc._theory(classes._intent(classes._columns[p]))


def lattice_text(lat: TheoryLattice) -> str:
    """Line-oriented export: one record per closed theory, sorted fields.

    ``covers`` lists the immediately smaller theories (more axioms),
    ``covered-by`` the immediately larger ones, by record id.  Model ids
    are positions, so an extent's set bits are its models in ascending
    order; the ``models:`` lines make the text theories × models long,
    and each is joined from blocks of model numerals cached across
    theories, with no table of one name per model.  The text is the join
    of :func:`_text_records`, which the CLI writes record by record.
    """
    return "".join(_text_records(lat))


def _text_records(lat: TheoryLattice) -> Iterator[str]:
    """The header, then one record per closed theory, each ending in a newline.

    The covers and the record ids are built before the records are
    returned; a record is rendered when it is asked for.  Its ``models:``
    line is joined from aligned blocks of the extent, computed from the
    intent for the record and dropped, by
    :class:`fca._BlockJoin`, handed the model ids ``range(n)`` themselves:
    a block that misses its cache is rendered from fixed numeral tables,
    and the cache holds at most as many characters as the extents hold
    bytes, so memory tracks the largest record and about the size of the
    lattice, not the number of models.
    """
    concepts = lat.lattice
    ids = [str(k) for k in range(len(concepts._intents))]
    below: list[list[str]] = [[] for _ in ids]
    above: list[list[str]] = [[] for _ in ids]
    for low, high in concepts.covers():
        below[high].append(ids[low])
        above[low].append(ids[high])
    keys = lat.tc.pool_keys
    ctx = lat.tc.classification
    instances = ctx.instances
    models = fca._BlockJoin(instances, " ", len(ids) * ((len(instances) + 7) >> 3))
    header = f"closed theories: {len(ids)}\nmodels: {len(instances)}\n"
    records = (
        f"\ntheory {k}\n"
        f"  axioms: {'; '.join(sorted(fca._select(keys, intent))) or '(none)'}\n"
        f"  models: {models(ctx._extent(intent)) or '(none)'}\n"
        f"  covers: {' '.join(lower) or '(none)'}\n"
        f"  covered-by: {' '.join(upper) or '(none)'}\n"
        for k, intent, lower, upper in zip(ids, concepts._intents, below, above)
    )
    return itertools.chain((header,), records)
