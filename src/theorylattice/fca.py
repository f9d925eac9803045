"""Formal Concept Analysis over finite classifications.

A classification is a binary incidence relation between instances and
types.  The derivation operators form a Galois connection; their fixed
points are the formal concepts, and the complete lattice they form under
the extent order is enumerated here as the intersection closure of the
type columns, its Hasse edges found with Lindig's neighbour algorithm.
Instance and type embeddings give the join-dense and meet-dense
generators, and the basic theorem round-trip rebuilds the classification
from the lattice order.

Everything runs on Python-int bitsets: each type's column over instance
positions and each instance's row over type positions.  Sets of ids
appear only at the public API.  Every lookup of a concept in its lattice
closes a type mask (``ConceptLattice._closing``): it ANDs one precomputed
meet of columns per 8 types and finds the concept by that extent.

Instances with equal rows cannot be told apart by any type, so merging
them into row classes keeps the lattice isomorphic (object clarification,
Ganter & Wille, *Formal Concept Analysis*, 1999, section 1.5).  When a
classification has few row classes for its instances, as an enumerated
model space does, the concepts are enumerated over the classes and
lookups and covers run on masks over them; only the extents a caller
reads are over the instances.

Instance and type ids are opaque hashable values supplied by the caller.
"""

from __future__ import annotations

import itertools
import operator
import sys
from functools import cached_property, reduce
from typing import Hashable, Iterable, Iterator, Sequence

from ._value import Value
from .errors import ParseError, SizeCapError

DEFAULT_CONCEPT_CAP = 100000

Id = Hashable


_BINARY_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_WORD_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}  # native unsigned words by byte size


def _digits(mask: int) -> bytes:
    """The binary digits of ``mask``, lowest first, as the bytes 0 and 1."""
    return bin(mask)[:1:-1].encode().translate(_BINARY_DIGIT)


def _select(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of ``mask``, in order: the binary digits,
    lowest first, select them in C, in time linear in the width."""
    return itertools.compress(items, _digits(mask))


class _BlockJoin:
    """``sep.join(_select(names, mask))`` for many masks over the same names,
    built from aligned blocks of each mask.

    A mask's bytes are cut into blocks of 2^max(6, bit_length(width) // 2)
    bits, about the square root of the width, so a mask costs that many
    lookups and a block not seen before that many names.  All-zero blocks
    are skipped; each other block's joined names are cached under its
    offset and bytes.  Over an enumerated model space the columns are
    periodic in the enumeration order, so the blocks of the extents repeat.
    The cache stops adding entries once its texts hold ``budget``
    characters.
    """

    def __init__(self, names: Sequence[str], sep: str, budget: int) -> None:
        self.names, self.sep, self.room = names, sep, budget
        self.step = 1 << max(3, len(names).bit_length() // 2 - 3)  # bytes per block
        self.size = -(-len(names) // (self.step * 8)) * self.step  # whole blocks
        self.blocks: dict[tuple[int, bytes], str] = {}

    def __call__(self, mask: int) -> str:
        names, sep, step, blocks = self.names, self.sep, self.step, self.blocks
        data = mask.to_bytes(self.size, "little")
        zero = bytes(step)
        parts = []
        for at in range(0, self.size, step):
            chunk = data[at : at + step]
            if chunk == zero:
                continue
            text = blocks.get((at, chunk))
            if text is None:
                digits = _digits(int.from_bytes(chunk, "little"))
                text = sep.join(itertools.compress(names[at * 8 : (at + step) * 8], digits))
                if len(text) <= self.room:
                    blocks[at, chunk] = text
                    self.room -= len(text)
            parts.append(text)
        return sep.join(parts)


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    return tuple(_select(range(mask.bit_length()), mask))


def _mask(positions: Iterable[int], width: int) -> int:
    """The ``width``-bit mask with the given positions set, in linear time."""
    buf = bytearray((width + 7) >> 3)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _pullbacks(masks: Iterable[int], positions: Sequence[int], width: int) -> list[int]:
    """Each ``width``-bit mask read at the given positions: bit ``i`` of a
    result is bit ``positions[i]`` of its mask.  One C-level item pick per
    mask over its binary digits, no loop over the positions in Python."""
    if not positions:
        return [0 for _ in masks]
    pick = operator.itemgetter(*positions)
    return [int("".join(pick(bin(m)[:1:-1].ljust(width, "0")))[::-1], 2) for m in masks]


def _words(columns: Sequence[int], width: int) -> list[int]:
    """Transpose at most 64 bit columns over ``width`` positions: word ``i``
    has bit ``k`` set when column ``k`` has bit ``i`` set.

    Each run of eight columns becomes one byte per position (the sum of
    the columns spread to one byte per bit, shifted by their place); the
    bytes are interleaved into native unsigned words of 1, 2, 4 or 8
    bytes, which a memoryview reads back in C.
    """
    size = 1 << (max(len(columns) + 7 >> 3, 1) - 1).bit_length()
    buf = bytearray(width * size)
    for g in range(0, len(columns), 8):
        byte = sum(
            int.from_bytes(_digits(col), "little") << k for k, col in enumerate(columns[g : g + 8])
        )
        at = g >> 3 if sys.byteorder == "little" else size - 1 - (g >> 3)
        buf[at::size] = byte.to_bytes(width, "little")
    return memoryview(buf).cast(_WORD_FORMAT[size]).tolist()


def _reversed(mask: int, width: int) -> int:
    """The ``width``-bit mask with its bit order reversed."""
    little = mask.to_bytes((width + 7) >> 3, "little")
    return int.from_bytes(little.translate(_REVERSED_BYTE), "big")


def _positions(ids: Iterable[Id], pos: dict, what: str) -> list[int]:
    """The positions of the given ids; an unknown id is a ValueError."""
    xs = set(ids)
    unknown = [x for x in xs if x not in pos]
    if unknown:
        raise ValueError(f"unknown {what} id {sorted(map(repr, unknown))[0]}")
    return [pos[x] for x in xs]


# Row classes are used when there are at most this many per instance.  On
# narrow masks they cost more than they save: on M (124 classes of 256
# models), on M with its models repeated and on random contexts, lattice
# plus covers gained at this ratio and below from about 1500 instances up,
# and lost a fraction of a millisecond on a few hundred.
_CLASS_RATIO = 1 / 16


class Classification(Value):
    """Instances, types, and an incidence relation between them.

    The incidence is kept as bitsets: each type's column is an int over
    instance positions.  All derivations run on these masks; the rows (an
    int over type positions per instance) and the set of incident
    ``(instance, type)`` pairs are derived from the columns when first
    asked for.  Two classifications are equal when their instance
    ids, type ids and columns are, whether the ids are a ``range`` or not.
    """

    _shown = ("instances", "types")
    instances: Sequence[Id]
    types: tuple[Id, ...]
    _columns: tuple[int, ...]

    def __init__(
        self,
        instances: tuple[Id, ...],
        types: tuple[Id, ...],
        incidence: frozenset[tuple[Id, Id]],
    ) -> None:
        self._set_ids(instances, types)
        held: list[list[int]] = [[] for _ in types]
        for i, t in incidence:
            p = self._ipos.get(i)
            if p is None:
                raise ValueError(f"incidence references unknown instance id {i!r}")
            q = self._tpos.get(t)
            if q is None:
                raise ValueError(f"incidence references unknown type id {t!r}")
            held[q].append(p)
        n = len(instances)
        self._set_columns(tuple(_mask(ps, n) for ps in held))

    @classmethod
    def from_columns(
        cls, instances: Sequence[Id], types: tuple[Id, ...], columns: tuple[int, ...]
    ) -> "Classification":
        """Build from each type's column over instance positions; the
        instances may be a ``range``, which is not scanned for duplicates."""
        ctx = object.__new__(cls)
        ctx._set_ids(instances, types)
        if len(columns) != len(types) or any(c < 0 or c > ctx._full for c in columns):
            raise ValueError("one column per type, over the instance positions, is required")
        ctx._set_columns(tuple(columns))
        return ctx

    def _set_ids(self, instances: Sequence[Id], types: tuple[Id, ...]) -> None:
        """Store the ids, refusing duplicates.  A ``range`` of instances has
        none, so it is kept as it is and its position map is built on first
        use; any other sequence is stored as a tuple and scanned now."""
        if not isinstance(instances, range):
            instances = tuple(instances)
            ipos = {i: k for k, i in enumerate(instances)}
            if len(ipos) != len(instances):
                raise ValueError("duplicate instance ids")
            object.__setattr__(self, "_ipos", ipos)
        tpos = {t: k for k, t in enumerate(types)}
        if len(tpos) != len(types):
            raise ValueError("duplicate type ids")
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "_tpos", tpos)
        object.__setattr__(self, "_full", (1 << len(instances)) - 1)

    def _set_columns(self, columns: tuple[int, ...]) -> None:
        """Store the columns, and each column with its type's bit, which
        ``_intent`` reads.  Both are plain attributes: a cached_property on
        this class slowed every concept lookup."""
        bits = (1 << j for j in range(len(columns)))
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_column_bits", tuple(zip(columns, bits)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Classification):
            return NotImplemented
        return (self.types, self._columns) == (other.types, other._columns) and (
            self.instances == other.instances or tuple(self.instances) == tuple(other.instances)
        )

    def __hash__(self) -> int:
        return hash((self.types, self._columns))

    @cached_property
    def _ipos(self) -> dict[Id, int]:
        return {i: k for k, i in enumerate(self.instances)}

    @classmethod
    def make(
        cls,
        instances: Iterable[Id],
        types: Iterable[Id],
        incidence: Iterable[tuple[Id, Id]],
    ) -> "Classification":
        return cls(tuple(instances), tuple(types), frozenset(incidence))

    @cached_property
    def incidence(self) -> frozenset[tuple[Id, Id]]:
        return frozenset(
            (self.instances[p], t) for t, col in zip(self.types, self._columns) for p in _bits(col)
        )

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        """The columns transposed, 64 at a time by :func:`_words`."""
        n, cols = len(self.instances), self._columns
        rows = _words(cols[:64], n)
        for g in range(64, len(cols), 64):
            high = map(operator.lshift, _words(cols[g : g + 64], n), itertools.repeat(g))
            rows = list(map(operator.or_, rows, high))
        return tuple(rows)

    def holds(self, instance: Id, typ: Id) -> bool:
        p, q = self._ipos.get(instance), self._tpos.get(typ)
        return p is not None and q is not None and self._columns[q] >> p & 1 == 1

    def _extent(self, intent: int) -> int:
        """The instance mask incident to every type in the type mask: the
        selected columns ANDed in C."""
        return reduce(operator.and_, _select(self._columns, intent), self._full)

    def _intent(self, extent: int) -> int:
        """The type mask incident to every instance in the instance mask.

        A loop over the columns and their bits: on 5 to 200 columns it
        measured faster than picking the bits with C-level maps and
        ``compress``, whose bound-method calls cost more than the loop.
        """
        out = 0
        for col, bit in self._column_bits:
            if col & extent == extent:
                out |= bit
        return out

    def _instance_ids(self, extent: int) -> frozenset[Id]:
        return frozenset(_select(self.instances, extent))

    def _type_ids(self, intent: int) -> frozenset[Id]:
        return frozenset(_select(self.types, intent))


def _row_quotient(ctx: Classification, limit: float = float("inf")) -> Classification | None:
    """The classification of the row classes: the instances with equal rows.

    The full instance mask is split by each column in turn, each part
    keeping the types it lies in.  Refining stops, returning ``None``, as
    soon as there are more than ``limit`` parts.  Class ``c`` is the part
    with the ``c``-th lowest first instance, so two masks over the classes
    compare by their lowest bits as their instance masks do.  Each class
    lies wholly inside or outside each column, so the class columns are
    exact.
    """
    parts = [(ctx._full, 0)] if ctx._full else []
    for j, col in enumerate(ctx._columns):
        if len(parts) > limit:
            break
        rest = ctx._full ^ col
        parts = [
            (m, r)
            for mask, row in parts
            for m, r in ((mask & col, row | 1 << j), (mask & rest, row))
            if m
        ]
    if len(parts) > limit:
        return None
    parts.sort(key=lambda part: (part[0] ^ (part[0] - 1)).bit_length())
    columns = [0] * len(ctx.types)
    for c, (_, row) in enumerate(parts):
        for j in _bits(row):
            columns[j] |= 1 << c
    return Classification.from_columns(range(len(parts)), ctx.types, tuple(columns))


def derive_types(ctx: Classification, instances: Iterable[Id]) -> frozenset[Id]:
    """The types incident to every given instance (X-prime)."""
    extent = _mask(_positions(instances, ctx._ipos, "instance"), len(ctx.instances))
    return ctx._type_ids(ctx._intent(extent))


def derive_instances(ctx: Classification, types: Iterable[Id]) -> frozenset[Id]:
    """The instances incident to every given type (Y-prime)."""
    intent = _mask(_positions(types, ctx._tpos, "type"), len(ctx.types))
    return ctx._instance_ids(ctx._extent(intent))


class FormalConcept(Value):
    """A derivation fixed point: extent-prime = intent, intent-prime = extent."""

    _fields = ("extent", "intent")
    extent: frozenset[Id]
    intent: frozenset[Id]


def is_formal_concept(ctx: Classification, extent: Iterable[Id], intent: Iterable[Id]) -> bool:
    xs, ys = frozenset(extent), frozenset(intent)
    return derive_types(ctx, xs) == ys and derive_instances(ctx, ys) == xs


class ConceptLattice(Value):
    """All formal concepts of a classification under the extent order.

    Stored as each concept's extent and intent masks, in canonical order:
    by extent size, then by the positions of the extent's instances.  The
    first concept is the bottom, the last is the top.  The
    :class:`FormalConcept` objects are a view built on first use.

    Lookups and covers run on ``_space``, the classification the concepts
    were enumerated over (see :func:`concept_lattice`), and ``_keys`` holds
    each concept's extent over it.  Over the instances, ``_space`` is the
    classification and ``_keys`` is ``_extents``.  ``_meets`` holds the
    meet tables of the ``_space`` columns (:func:`_meet_tables`), built
    with the lattice.
    """

    _fields = ("classification", "_extents", "_intents", "_space", "_keys")
    _compared, _shown = _fields[:3], _fields[:1]
    classification: Classification
    _extents: tuple[int, ...]
    _intents: tuple[int, ...]
    _space: Classification
    _keys: tuple[int, ...]

    def _check(self) -> None:
        object.__setattr__(self, "_meets", _meet_tables(self._space))

    @cached_property
    def concepts(self) -> tuple[FormalConcept, ...]:
        ctx = self.classification
        return tuple(
            FormalConcept(ctx._instance_ids(extent), ctx._type_ids(intent))
            for extent, intent in zip(self._extents, self._intents)
        )

    @cached_property
    def _by_extent(self) -> dict[int, int]:
        """Each concept's position under its extent in ``_space``."""
        return {e: k for k, e in enumerate(self._keys)}

    def _closing(self, intent: int) -> int:
        """The position of the concept whose intent is the closure of a type
        mask: the one lookup every concept operation goes through.  Each
        byte of the mask picks the meet of its 8 columns from their table,
        so the extent over ``_space`` costs one AND per 8 types."""
        extent = self._space._full
        for table in self._meets:
            extent &= table[intent & 255]
            intent >>= 8
        return self._by_extent[extent]

    def _find(self, concept: FormalConcept) -> int | None:
        """The position of a concept of this lattice, found by its intent."""
        tpos = self.classification._tpos
        if not isinstance(concept, FormalConcept) or not tpos.keys() >= concept.intent:
            return None
        k = self._closing(sum(1 << tpos[t] for t in concept.intent))
        return k if self.concepts[k] == concept else None

    def __contains__(self, concept: FormalConcept) -> bool:
        return self._find(concept) is not None

    def index(self, concept: FormalConcept) -> int:
        if (k := self._find(concept)) is None:
            raise ValueError(f"concept {concept!r} is not in this lattice")
        return k

    def leq(self, c1: FormalConcept, c2: FormalConcept) -> bool:
        """Subconcept order: smaller extent, equivalently larger intent."""
        return self._extents[self.index(c1)] & ~self._extents[self.index(c2)] == 0

    @property
    def bottom(self) -> FormalConcept:
        return self.concepts[0]

    @property
    def top(self) -> FormalConcept:
        return self.concepts[-1]

    def instance_concept(self, instance: Id) -> FormalConcept:
        """The embedding of an instance: ({i}'', {i}')."""
        ctx = self.classification
        (p,) = _positions([instance], ctx._ipos, "instance")
        return self.concepts[self._closing(ctx._rows[p])]

    def type_concept(self, typ: Id) -> FormalConcept:
        """The embedding of a type: ({t}', {t}'')."""
        ctx = self.classification
        (q,) = _positions([typ], ctx._tpos, "type")
        return self.concepts[self._closing(1 << q)]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges as (lower index, upper index) pairs.

        Lindig's neighbour algorithm: the lower covers of a concept are the
        maximal distinct extents ``extent & column[m]`` over the types ``m``
        outside its intent.  A candidate ``m`` is dropped from the minimal
        set when its closed intent holds another type still in that set, so
        each cover is reported once, by the last type that generates it.
        """
        return self._covers

    @cached_property
    def _covers(self) -> tuple[tuple[int, int], ...]:
        cols = self._space._columns
        by_extent = self._by_extent
        intents = self._intents
        all_types = (1 << len(cols)) - 1
        columns = [(1 << m, col) for m, col in enumerate(cols)]
        edges = []
        for k, (extent, intent) in enumerate(zip(self._keys, intents)):
            minimal = all_types & ~intent
            for bit, col in columns:
                if intent & bit:
                    continue
                low = by_extent[extent & col]
                # low's intent holds bit; m drops out if it holds another minimal type
                if intents[low] & minimal != bit:
                    minimal ^= bit
                else:
                    edges.append((low, k))
        edges.sort()
        return tuple(edges)


def _meet_tables(space: Classification) -> tuple[tuple[int, ...], ...]:
    """The meets of the columns of ``space``, one table per run of 8
    (the "Four Russians" method of Arlazarov, Dinic, Kronrod and
    Faradzev, 1970): entry ``v`` of a run's table is the AND of the
    columns at the set bits of ``v``, entry 0 the full mask.  Each column
    doubles the table.

    The tables hold at most 32 masks per column of ``space``, each no
    wider: 528 masks of 256 bits on M.  They belong to the lattice, whose
    ``_space`` is narrow whenever its instances have few row classes, and
    not to :class:`Classification`: over a model-wide space they would be
    far larger (W20's 12 columns over 2^20 models: 272 masks of 128 KB,
    about 34 MB).
    """
    tables = []
    for g in range(0, len(space._columns), 8):
        table = [space._full]
        for col in space._columns[g : g + 8]:
            table += [meet & col for meet in table]
        tables.append(tuple(table))
    return tuple(tables)


def concept_lattice(ctx: Classification, cap: int = DEFAULT_CONCEPT_CAP) -> ConceptLattice:
    """Enumerate all formal concepts of a classification (see :func:`_concepts`).

    When it has at most :data:`_CLASS_RATIO` row classes per instance (see
    :func:`_row_quotient`), the concepts are enumerated over the classes,
    otherwise over the instances.
    """
    quotient = _row_quotient(ctx, len(ctx.instances) * _CLASS_RATIO)
    return _concepts(ctx, ctx if quotient is None else quotient, cap)


def _concepts(ctx: Classification, space: Classification, cap: int) -> ConceptLattice:
    """The concept lattice of ``ctx``, enumerated over ``space``: ``ctx``
    itself or its row classes, whose lattice is isomorphic.

    Every extent is an intersection of columns, the empty intersection
    being the full mask.  One pass over the columns of ``space`` keeps each
    extent found so far with its intent over the columns seen so far:
    column ``j`` adds ``extent & column[j]`` for every extent, with the
    union of the intents meeting there plus ``j``.  After the last column
    the entries are exactly the concepts.  The entries only grow and each
    ends up a concept, so this raises as soon as, after any column (or with
    no columns at all), more than ``cap`` extents have been found.

    The concepts are sorted by the size of their instance mask, then by
    their mask over ``space`` bit-reversed, descending: of two masks, the
    one holding the lowest bit where they differ comes first.  The classes
    are numbered by their first instance, so masks over them compare as
    their instance masks do.
    """
    closed = {space._full: 0}
    for j, col in enumerate(space._columns):
        if len(closed) > cap:
            break
        bit = 1 << j
        for extent, intent in list(closed.items()):
            meet = extent & col
            closed[meet] = closed.get(meet, 0) | intent | bit
    if len(closed) > cap:
        raise SizeCapError("concept enumeration", f"more than {cap}", cap)
    width = len(space.instances)
    found = sorted(
        ((key if space is ctx else ctx._extent(intent), key, intent) for key, intent in closed.items()),
        key=lambda c: (c[0].bit_count(), -_reversed(c[1], width)),
    )
    extents, keys, intents = zip(*found)
    return ConceptLattice(ctx, extents, intents, space, extents if space is ctx else keys)


def lattice_meet(lat: ConceptLattice, concepts: Iterable[FormalConcept]) -> FormalConcept:
    """Infimum: close the union of the intents.

    The empty meet is the top concept.
    """
    intent = 0
    for c in concepts:
        intent |= lat._intents[lat.index(c)]
    return lat.concepts[lat._closing(intent)]


def lattice_join(lat: ConceptLattice, concepts: Iterable[FormalConcept]) -> FormalConcept:
    """Supremum: intersect the intents, which is closed.

    The empty join is the bottom concept.
    """
    intent = (1 << len(lat.classification.types)) - 1
    for c in concepts:
        intent &= lat._intents[lat.index(c)]
    return lat.concepts[lat._closing(intent)]


def _object_concepts(lat: ConceptLattice) -> Iterator[tuple[int, int]]:
    """Each concept that is the object concept of some instances, with the
    mask of those instances.  Concepts are listed by extent size, so the
    first one whose extent holds an instance is its least concept; the
    extents over ``_space``, ``_keys``, tell which concepts those are."""
    seen = seen_narrow = 0
    for k, narrow in enumerate(lat._keys):
        if narrow & ~seen_narrow:
            seen_narrow |= narrow
            yield k, lat._extents[k] & ~seen
            seen |= lat._extents[k]


def basic_theorem_roundtrip(lat: ConceptLattice) -> Classification:
    """Rebuild the classification from the lattice order.

    An instance is incident to a type exactly when the extent of the
    instance's concept lies inside the extent of the type's concept; for a
    lattice built by ``concept_lattice`` this returns the original
    classification.  Instances with equal rows share a concept, so each
    object concept and each type is visited once.
    """
    ctx = lat.classification
    below = [(lat._extents[k], members) for k, members in _object_concepts(lat)]
    above = [lat._extents[lat._closing(1 << q)] for q in range(len(ctx.types))]
    # the member masks are disjoint, so the sum of some is their union
    columns = tuple(sum(m for e, m in below if e & ~a == 0) for a in above)
    return Classification.from_columns(ctx.instances, ctx.types, columns)


def density_report(lat: ConceptLattice) -> tuple[bool, bool]:
    """(join-dense, meet-dense) for the instance and type embeddings.

    Each concept must be the join of the instance concepts of its extent
    (their intents are the rows) and the meet of the type concepts of its
    intent (their extents are the columns).
    """
    ctx = lat.classification
    all_types = (1 << len(ctx.types)) - 1
    join_dense = meet_dense = True
    for extent, intent in zip(lat._extents, lat._intents):
        joined = all_types
        for p in _bits(extent):
            joined &= ctx._rows[p]
        join_dense = join_dense and (ctx._extent(joined), joined) == (extent, intent)
        met = ctx._extent(intent)
        meet_dense = meet_dense and (met, ctx._intent(met)) == (extent, intent)
    return join_dense, meet_dense


# ---------------------------------------------------------------------------
# Burmeister .cxt format


def _one_line(text: str) -> bool:
    return "".join(text.splitlines()) == text


def write_cxt(ctx: Classification, name: str = "") -> str:
    """Render in Burmeister format; ids are rendered with str().

    The name line is optional on reading, where a line of ASCII digits is
    an object count (:func:`_is_count`), so such names are refused, as are
    names and ids that would not read back as the same single line (the
    reader strips lines).
    The text is the join of :func:`_cxt_records`, which the CLI writes
    record by record.
    """
    return "".join(_cxt_records(ctx, name))


def _cxt_records(ctx: Classification, name: str) -> Iterator[str]:
    """The lines of the Burmeister text, each with its newline.

    Every name is checked before the lines are returned.  Each distinct
    row is rendered once: instances with equal rows share one string.
    """
    if not _one_line(name) or _is_count(name):
        raise ValueError(f"name {name!r} cannot be written as a cxt name line")
    labels = list(map(str, itertools.chain(ctx.instances, ctx.types)))
    # all labels at once in C; a fault is then looked for label by label
    if not (all(labels) and list(map(str.strip, labels)) == labels and _one_line("".join(labels))):
        bad = next(x for x in labels if not x or x != x.strip() or not _one_line(x))
        raise ValueError(f"id {bad!r} cannot be written as a cxt name")
    m = len(ctx.types)
    rendered = {
        row: "".join("X" if row >> j & 1 else "." for j in range(m)) + "\n"
        for row in set(ctx._rows)
    }
    header = f"B\n{name}\n{len(ctx.instances)}\n{m}\n\n"
    names = (label + "\n" for label in labels)
    return itertools.chain((header,), names, map(rendered.__getitem__, ctx._rows))


def _is_count(line: str) -> bool:
    """A count line is a run of ASCII digits: no sign, no ``_``, no other
    script's digits, all of which ``int`` would take."""
    line = line.strip()
    return line.isascii() and line.isdigit()


def read_cxt(text: str, *, path: str | None = None) -> Classification:
    """Parse Burmeister format; instance and type ids are the name strings."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "B":
        raise ParseError("not a Burmeister context (first line must be 'B')", line=1, path=path)
    pos = 1
    # The name line is optional; counts start at the first count line.
    if pos < len(lines) and not _is_count(lines[pos]):
        pos += 1
    for lineno in (pos + 1, pos + 2):
        if lineno > len(lines) or not _is_count(lines[lineno - 1]):
            raise ParseError("expected object and attribute counts", line=min(lineno, len(lines)), path=path)
    n_obj, n_att = int(lines[pos]), int(lines[pos + 1])
    pos += 2
    rest = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines[pos:], start=pos + 1)
        if line.strip()
    ]
    # a context with no attributes has vacuous (empty) rows; skip them
    need = n_obj + n_att + (n_obj if n_att else 0)
    if len(rest) < need:
        raise ParseError(
            f"expected {n_obj} object names, {n_att} attribute names and {n_obj} rows",
            line=len(lines),
            path=path,
        )
    if len(rest) > need:
        raise ParseError("unexpected line after the last row", line=rest[need][0], path=path)
    named = {"object": rest[:n_obj], "attribute": rest[n_obj : n_obj + n_att]}
    for what, part in named.items():
        first: dict[str, int] = {}
        for lineno, name in part:
            if first.setdefault(name, lineno) != lineno:
                raise ParseError(f"duplicate {what} name {name!r}", line=lineno, path=path)
    objs, atts = (tuple(name for _, name in part) for part in named.values())
    rows = [row for _, row in rest[n_obj + n_att :]]
    for k, row in enumerate(rows):
        if len(row) != n_att or row.strip("X.x"):
            raise ParseError(
                f"row for object {objs[k]!r} must be {n_att} characters of 'X'/'.'",
                line=rest[n_obj + n_att + k][0],
                path=path,
            )
    # attribute j's column is every n_att-th cell from j; the first object is bit 0
    cells = "".join(rows).translate(str.maketrans("Xx.", "110"))
    columns = tuple(int(cells[j::n_att][::-1] or "0", 2) for j in range(n_att))
    return Classification.from_columns(objs, atts, columns)


# ---------------------------------------------------------------------------
# DOT export and the concept listing


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def lattice_dot(lat: ConceptLattice, name: str = "lattice") -> str:
    """Hasse diagram in DOT, drawn bottom-up with reduced labeling.

    Each node shows only the instances and types whose embeddings land on
    that concept; edges are the covering relation.  The text is the join
    of :func:`_dot_records`, which the CLI writes record by record.
    """
    return "".join(_dot_records(lat, name))


def _dot_records(lat: ConceptLattice, name: str) -> Iterator[str]:
    """The header, one line per node, one per cover edge and the closing
    brace, each with its newline.

    The covers and the attachment of every type and of every object
    concept's instance mask are computed before the records are returned;
    a node's label is rendered when its record is asked for.
    """
    ctx = lat.classification
    types: list[list[str]] = [[] for _ in lat._extents]
    for q, t in enumerate(ctx.types):
        types[lat._closing(1 << q)].append(str(t))
    members = dict(_object_concepts(lat))
    # the member masks are disjoint, so no block of names repeats: cache none
    join = _BlockJoin(tuple(map(str, ctx.instances)), ", ", 0)
    nodes = [f"c{k}" for k in range(len(types))]
    edges = lat.covers()

    def node(k: int) -> str:
        parts = [f"t: {', '.join(types[k])}"] if types[k] else []
        if k in members:
            parts.append(f"i: {join(members[k])}")
        label = "\\n".join(map(_dot_escape, parts)) or nodes[k]
        return f'  {nodes[k]} [label="{label}"];\n'

    header = f"digraph {name} {{\n  rankdir=BT;\n  node [shape=box];\n"
    return itertools.chain(
        (header,),
        map(node, range(len(nodes))),
        (f"  {nodes[low]} -> {nodes[high]};\n" for low, high in edges),
        ("}\n",),
    )


def _concept_records(lat: ConceptLattice) -> Iterator[str]:
    """The ``ctx concepts`` text listing: a count line, then one line per
    concept with its extent and intent names sorted."""
    ctx = lat.classification
    objects, attributes = tuple(map(str, ctx.instances)), tuple(map(str, ctx.types))
    header = f"concepts: {len(lat._extents)}\n"
    records = (
        f"concept {k}: extent {{{', '.join(sorted(_select(objects, extent)))}}} "
        f"intent {{{', '.join(sorted(_select(attributes, intent)))}}}\n"
        for k, (extent, intent) in enumerate(zip(lat._extents, lat._intents))
    )
    return itertools.chain((header,), records)
