"""Formal Concept Analysis over finite classifications.

A classification is a binary incidence relation between instances and
types.  The derivation operators form a Galois connection; their fixed
points are the formal concepts, and the complete lattice they form under
the extent order is enumerated here as the intersection closure of the
type columns, its Hasse edges found with Lindig's neighbour algorithm.
That algorithm closes a concept's intent plus each type outside it; here
only the types outside the intent whose columns lie strictly inside no
other such type's column are tried, since a type whose column lies
strictly inside another's reaches that type's concept or one below it,
and every cover is reached by one of its own types with a widest column.
The concepts are walked upward, so each concept's upper covers are found
in ascending order and the edges come out sorted.
Instance and type embeddings give the join-dense and meet-dense
generators, and the basic theorem round-trip rebuilds the classification
from the lattice order.

Everything runs on Python-int bitsets: each type's column over instance
positions, from which an instance's types are read.  Sets of ids
appear only at the public API.  Instances with equal rows cannot be told
apart by any type, so merging them into row classes keeps the lattice
isomorphic (object clarification, Ganter & Wille, *Formal Concept
Analysis*, 1999, section 1.5).  Every lattice is enumerated over the row
classes and keeps each concept's intent and key, its extent over the
classes; every lookup closes a type mask over them
(``ConceptLattice._closing``).  An extent over the instances is computed
where an instance is named, one at a time, and not kept.

Instance and type ids are opaque hashable values supplied by the caller.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, reduce
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from ._value import Value
from .errors import ParseError, SizeCapError

DEFAULT_CONCEPT_CAP = 100000

Id = Hashable


_BINARY_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
_CELLS = bytes.maketrans(b"01", b".X")  # binary digits as cxt cells
# byte b to 255 minus b bit-reversed: translated, the little-endian bytes of
# two masks of one width sort the mask holding their lowest differing bit first
_LOW_BIT_FIRST = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def _digits(mask: int) -> bytes:
    """The binary digits of ``mask``, lowest first, as the bytes 0 and 1."""
    return bin(mask)[:1:-1].encode().translate(_BINARY_DIGIT)


def _select(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of ``mask``, in order: the binary digits,
    lowest first, select them in C, in time linear in the width."""
    return itertools.compress(items, _digits(mask))


def _numbered(ids: Sequence[Id]) -> bool:
    """The ids are the positions themselves: ``range(len(ids))``."""
    return isinstance(ids, range) and ids == range(len(ids))


_SUFFIXES = tuple(map("".join, itertools.product("0123456789", repeat=3)))  # "000" to "999"
_NUMERALS = tuple(map(str, range(100))) + _SUFFIXES[100:]  # "0" to "999"


def _numerals(lo: int, digits: bytes, sep: str) -> str:
    """The numerals of the positions ``lo + i`` whose digit ``i`` is 1,
    joined by ``sep``.  ``digits`` are a mask's binary digits, lowest first,
    as :func:`_digits` gives them; ``sep`` is not empty and holds no decimal
    digit.

    Positions below 1000 are joined from their numerals.  Positions in
    thousand q >= 1 are joined from their three-digit suffixes, and then
    one replace writes ``str(q)`` after every separator; it is put before
    the first.  A separator never occurs inside a numeral, so the text is
    exact.
    """
    hi = lo + len(digits)
    parts = []
    for base in range(lo - lo % 1000, hi, 1000):
        a, b = max(lo, base), min(hi, base + 1000)
        bits = digits[a - lo : b - lo]
        if base:
            text = sep.join(itertools.compress(_SUFFIXES[a - base : b - base], bits))
            if text:
                q = str(base // 1000)
                text = q + text.replace(sep, sep + q)
        else:
            text = sep.join(itertools.compress(_NUMERALS[a:b], bits))
        if text:
            parts.append(text)
    return sep.join(parts)


class _BlockJoin:
    """``sep.join(_select(tuple(map(str, ids)), mask))`` for many masks over
    the same ids, built from aligned blocks of each mask.

    A mask's bytes are cut into blocks of 2^max(6, bit_length(width) // 2)
    bits, about the square root of the width, so a mask costs that many
    lookups and a block not seen before that many names.  All-zero blocks
    are skipped; each other block's joined names are cached under its
    offset and bytes.  Over an enumerated model space the columns are
    periodic in the enumeration order, so the blocks of the extents repeat.
    The block cache stops adding entries once its texts hold ``budget``
    characters.

    A mask of 16 blocks or more is read at a second level, in runs of G
    blocks, G the largest power of two at or below the square root of the
    block count (8 blocks of 256 models over 32768 models, 32 of 1024 over
    2^20).  The zero ends of the mask are trimmed and each all-zero run is
    skipped with one compare.  Each other run is looked up under its offset
    and bytes in a run cache, whose entry is the tuple of the run's block
    texts, the block cache's own strings; so a run seen before costs one
    lookup, and only a run not seen before is read block by block.  A run
    is cached only when the block cache holds all its texts.  An entry is
    charged its bytes plus one 8-byte reference per text, and the run cache
    adds an entry only while its charges stay within ``budget // G``, a
    G-th of what the block cache may hold: a budget of 0 caches no run and
    keeps only the zero-run skip.  A mask of fewer than 16 blocks is read
    block by block.

    When the ids are ``range(n)``, as for every truth classification, no
    table of names is kept: a block that misses the cache is rendered by
    :func:`_numerals`, so ``sep`` must then be a nonempty text without
    decimal digits.  Other ids are rendered once, into a table of one
    string per id.
    """

    def __init__(self, ids: Sequence[Id], sep: str, budget: int) -> None:
        self.names = None if _numbered(ids) else tuple(map(str, ids))
        self.sep, self.room = sep, budget
        self.step = 1 << max(3, len(ids).bit_length() // 2 - 3)  # bytes per block
        self.size = -(-len(ids) // (self.step * 8)) * self.step  # whole blocks
        self.blocks: dict[tuple[int, bytes], str] = {}
        count = self.size // self.step
        run = 1 << (count.bit_length() - 1) // 2 if count >= 16 else 0  # blocks per run, G
        self.span = run * self.step  # bytes per run; 0 reads block by block
        self.run_room = budget // run if run else 0
        self.runs: dict[tuple[int, bytes], tuple[str, ...]] = {}

    def __call__(self, mask: int) -> str:
        if self.span:
            return self._join_runs(mask)
        names, sep, step, blocks = self.names, self.sep, self.step, self.blocks
        data = mask.to_bytes(self.size, "little")
        zero = bytes(step)
        parts = []
        # _render inline: a call on each miss made M's DOT member joins, which miss every block, 2.6% slower
        # (median of 80 interleaved rounds)
        for at in range(0, self.size, step):
            chunk = data[at : at + step]
            if chunk == zero:
                continue
            text = blocks.get((at, chunk))
            if text is None:
                digits = _digits(int.from_bytes(chunk, "little"))
                if names is None:
                    text = _numerals(at * 8, digits, sep)
                else:
                    text = sep.join(itertools.compress(names[at * 8 : (at + step) * 8], digits))
                if len(text) <= self.room:
                    blocks[at, chunk] = text
                    self.room -= len(text)
            parts.append(text)
        return sep.join(parts)

    def _join_runs(self, mask: int) -> str:
        """The join of a mask of 16 blocks or more, read run by run."""
        if not mask:
            return ""
        step, span, blocks, runs = self.step, self.span, self.blocks, self.runs
        data = mask.to_bytes(self.size, "little")
        zero, empty = bytes(step), bytes(span)
        lo = ((mask & -mask).bit_length() - 1) >> 3  # the lowest and past the highest nonzero byte
        hi = (mask.bit_length() + 7) >> 3
        parts: list[str] = []
        for start in range(lo - lo % span, hi, span):
            run = data[start : start + span]
            if run == empty:
                continue
            texts = runs.get((start, run))
            if texts is None:
                found, shared = [], True
                for at in range(start, start + len(run), step):
                    chunk = data[at : at + step]
                    if chunk == zero:
                        continue
                    text = blocks.get((at, chunk))
                    if text is None:
                        text = self._render(at, chunk)
                        shared = shared and (at, chunk) in blocks
                    found.append(text)
                texts = tuple(found)
                cost = len(run) + 8 * len(texts)
                if shared and cost <= self.run_room:
                    runs[start, run] = texts
                    self.run_room -= cost
            parts += texts
        return self.sep.join(parts)

    def _render(self, at: int, chunk: bytes) -> str:
        """The joined names of the block at byte ``at``, not in the cache:
        rendered, and cached while the budget lasts."""
        digits = _digits(int.from_bytes(chunk, "little"))
        if self.names is None:
            text = _numerals(at * 8, digits, self.sep)
        else:
            text = self.sep.join(itertools.compress(self.names[at * 8 : (at + len(chunk)) * 8], digits))
        if len(text) <= self.room:
            self.blocks[at, chunk] = text
            self.room -= len(text)
        return text


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


def _positions(ids: Iterable[Id], position: Callable[[Id], int | None], what: str) -> list[int]:
    """The positions of the ids, found by ``position``; an unknown id is a ValueError."""
    found = {x: position(x) for x in set(ids)}
    unknown = [x for x, p in found.items() if p is None]
    if unknown:
        raise ValueError(f"unknown {what} id {sorted(map(repr, unknown))[0]}")
    return list(found.values())


class Classification(Value):
    """Instances, types, and an incidence relation between them.

    The incidence is kept as bitsets: each type's column is an int over
    instance positions, and nothing else is kept per instance.  All
    derivations run on these masks; the set of incident ``(instance,
    type)`` pairs is derived from the columns when first asked for.  Two
    classifications are equal when their instance ids, type ids and
    columns are, whether the ids are a ``range`` or not.
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
            p = self._position(i)
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
        none and is kept as it is; any other sequence is stored as a tuple,
        scanned now into a map of positions."""
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

    def _position(self, instance: Id) -> int | None:
        """The position of an instance id, or ``None``.  Ids other than a
        ``range`` answer from the map ``_set_ids`` built.  A ``range`` scans
        for an id that is not an int, so it is asked for ``int(id)``, the
        one int such an id (``5.0``) can equal."""
        ids = self.instances
        if not isinstance(ids, range):
            return self._ipos.get(instance)
        try:
            k = int(instance)
        except (TypeError, ValueError, OverflowError):
            return None
        return ids.index(k) if k == instance and k in ids else None

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

    def holds(self, instance: Id, typ: Id) -> bool:
        p, q = self._position(instance), self._tpos.get(typ)
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

    def _members(self, row: int) -> int:
        """The instances whose row is the type mask ``row``: the AND of its
        columns, less the union of the others."""
        others = reduce(operator.or_, _select(self._columns, (1 << len(self.types)) - 1 ^ row), 0)
        return self._extent(row) & ~others

    @cached_property
    def _classes(self) -> tuple["Classification", tuple[int, ...]]:
        """The row classes and their sizes (:func:`_row_classes`)."""
        return _row_classes(self)

    def _closure(self, intent: int) -> int:
        """The double-prime closure of a type mask, derived over the row
        classes: instances with equal rows lie in the same extents, so
        keeping one per row changes no intent (Ganter & Wille 1999,
        object clarification)."""
        space = self._classes[0]
        return space._intent(space._extent(intent))


def _row_classes(ctx: Classification) -> tuple[Classification, tuple[int, ...]]:
    """The classification of the row classes, the instances with equal
    rows, and each class's number of instances.

    The rows are counted 2^16 instances at a time: the chunk is split by
    each column's bytes over it in turn, each part keeping the types it
    lies in, and a dict keeps each row with its count and first instance.
    Class ``c`` is the row with the ``c``-th lowest first instance, so
    masks over the classes compare by their lowest bits as their instance
    masks do.
    """
    n = len(ctx.instances)
    data = [col.to_bytes((n + 7) >> 3, "little") for col in ctx._columns]
    rows: dict[int, list[int]] = {}
    for lo in range(0, n, 1 << 16):
        hi = min(lo + (1 << 16), n)
        full = (1 << hi - lo) - 1
        parts = [(full, 0)]
        for j, column in enumerate(data):
            col = int.from_bytes(column[lo >> 3 : (hi + 7) >> 3], "little")
            rest = full ^ col
            parts = [(m, r) for p, row in parts for m, r in ((p & col, row | 1 << j), (p & rest, row)) if m]
        for mask, row in parts:
            counted = rows.setdefault(row, [0, lo + (mask & -mask).bit_length() - 1])
            counted[0] += mask.bit_count()
    ordered = sorted(rows.items(), key=lambda item: item[1][1])
    columns = [0] * len(ctx.types)
    for c, (row, _) in enumerate(ordered):
        for j in _bits(row):
            columns[j] |= 1 << c
    space = Classification.from_columns(range(len(ordered)), ctx.types, tuple(columns))
    return space, tuple(count for _, (count, _) in ordered)


def derive_types(ctx: Classification, instances: Iterable[Id]) -> frozenset[Id]:
    """The types incident to every given instance (X-prime)."""
    extent = _mask(_positions(instances, ctx._position, "instance"), len(ctx.instances))
    return ctx._type_ids(ctx._intent(extent))


def derive_instances(ctx: Classification, types: Iterable[Id]) -> frozenset[Id]:
    """The instances incident to every given type (Y-prime)."""
    intent = _mask(_positions(types, ctx._tpos.get, "type"), len(ctx.types))
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

    Stored as each concept's intent and key masks, in canonical order: by
    extent size, then by the positions of the extent's instances.  A key
    is the extent over ``_space``, the row classes (:func:`_row_classes`),
    on which lookups, the order and covers run; ``_meets`` holds the meet
    tables of its columns (:func:`_meet_tables`).  An extent over the
    instances is the AND of its intent's columns, computed where it is
    read.  The first concept is the bottom, the last is the top.  The
    :class:`FormalConcept` objects of ``concepts`` are a view built on
    first use; a lookup builds only the one it returns.
    """

    _fields = ("classification", "_intents", "_keys")
    _compared, _shown = _fields[:2], _fields[:1]
    classification: Classification
    _intents: tuple[int, ...]
    _keys: tuple[int, ...]

    def _check(self) -> None:
        object.__setattr__(self, "_space", self.classification._classes[0])
        object.__setattr__(self, "_meets", _meet_tables(self._space))

    @cached_property
    def concepts(self) -> tuple[FormalConcept, ...]:
        return tuple(map(self._concept, range(len(self._intents))))

    def _concept(self, k: int) -> FormalConcept:
        """The view of the concept at position ``k``, built alone."""
        ctx, intent = self.classification, self._intents[k]
        return FormalConcept(ctx._instance_ids(ctx._extent(intent)), ctx._type_ids(intent))

    @cached_property
    def _by_key(self) -> dict[int, int]:
        """Each concept's position under its key."""
        return {key: k for k, key in enumerate(self._keys)}

    def _closing(self, intent: int) -> int:
        """The position of the concept whose intent is the closure of a type
        mask: the one lookup every concept operation goes through.  Each
        byte of the mask picks the meet of its 8 columns from their table,
        so the key costs one AND per 8 types."""
        key = self._space._full
        for table in self._meets:
            key &= table[intent & 255]
            intent >>= 8
        return self._by_key[key]

    def _find(self, concept: FormalConcept) -> int | None:
        """The position of a concept of this lattice, found by its intent."""
        tpos = self.classification._tpos
        if not isinstance(concept, FormalConcept) or not tpos.keys() >= concept.intent:
            return None
        k = self._closing(sum(1 << tpos[t] for t in concept.intent))
        return k if self._concept(k) == concept else None

    def __contains__(self, concept: FormalConcept) -> bool:
        return self._find(concept) is not None

    def index(self, concept: FormalConcept) -> int:
        if (k := self._find(concept)) is None:
            raise ValueError(f"concept {concept!r} is not in this lattice")
        return k

    def leq(self, c1: FormalConcept, c2: FormalConcept) -> bool:
        """Subconcept order: smaller extent, equivalently larger intent."""
        return self._keys[self.index(c1)] & ~self._keys[self.index(c2)] == 0

    @property
    def bottom(self) -> FormalConcept:
        return self._concept(0)

    @property
    def top(self) -> FormalConcept:
        return self._concept(-1)

    def instance_concept(self, instance: Id) -> FormalConcept:
        """The embedding of an instance: ({i}'', {i}')."""
        ctx = self.classification
        (p,) = _positions([instance], ctx._position, "instance")
        return self._concept(self._closing(ctx._intent(1 << p)))

    def type_concept(self, typ: Id) -> FormalConcept:
        """The embedding of a type: ({t}', {t}'')."""
        ctx = self.classification
        (q,) = _positions([typ], ctx._tpos.get, "type")
        return self._concept(self._closing(1 << q))

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges as (lower index, upper index) pairs, sorted.

        Lindig's neighbour algorithm: the lower covers of a concept are the
        maximal distinct extents ``extent & column[m]`` over the types ``m``
        outside its intent.  Only the types whose columns lie strictly
        inside no other such column are tried, and the minimal set starts
        as those types.  That loses no cover and admits no other concept:

        - if ``column[m]`` lies strictly inside ``column[m']``, the closure
          of the intent plus ``m`` holds ``m'``, so ``m`` reaches ``m'``'s
          concept or one below it;
        - a cover's own types (its intent less the concept's) are the types
          that reach it, and one with a widest column among them is widest
          among all the types outside the intent, so it is tried;
        - a tried type is dropped from the minimal set when its closed
          intent holds another type still in that set.  The last tried type
          of a cover is never dropped, so it reports the cover, once, and a
          tried type reaching a concept below a cover finds that last type
          in its closed intent and is dropped.

        The concepts are walked upward by position, each appended to the
        list of upper covers of each of its lower covers, so every list is
        ascending and the lists read by position give the edges sorted.
        """
        return self._covers

    @cached_property
    def _covers(self) -> tuple[tuple[int, int], ...]:
        by_key, intents = self._by_key, self._intents
        insides, candidates = _candidate_tables(self._space._columns)
        all_types = (1 << len(self._space._columns)) - 1
        uppers: list[list[int] | None] = [[] for _ in intents]
        for k, (key, intent) in enumerate(zip(self._keys, intents)):
            rest = outside = all_types ^ intent
            inside = 0
            for table in insides:
                inside |= table[rest & 255]
                rest >>= 8
            rest = minimal = outside & ~inside
            for table in candidates:
                for bit, col in table[rest & 255]:
                    low = by_key[key & col]
                    # low's intent holds bit; m drops out if it holds another minimal type
                    if intents[low] & minimal != bit:
                        minimal ^= bit
                    else:
                        uppers[low].append(k)
                rest >>= 8
        return tuple(itertools.chain.from_iterable(_edge_runs(uppers)))


def _candidate_tables(cols: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple, ...], ...]]:
    """Two tables per run of 8 columns, indexed by a byte ``v`` of a type
    mask, built as :func:`_meet_tables` builds its own: the OR of the masks
    of the columns lying strictly inside each column at a set bit of ``v``;
    and the ``(bit, column)`` pairs of the set bits of ``v``, ascending.
    Each column doubles both tables."""
    inside = [_mask((j for j, c in enumerate(cols) if c != col and c & col == c), len(cols)) for col in cols]
    ors, pairs = [], []
    for g in range(0, len(cols), 8):
        run_ors, run_pairs = [0], [()]
        for m in range(g, min(g + 8, len(cols))):
            run_ors += [x | inside[m] for x in run_ors]
            run_pairs += [t + ((1 << m, cols[m]),) for t in run_pairs]
        ors.append(tuple(run_ors))
        pairs.append(tuple(run_pairs))
    return tuple(ors), tuple(pairs)


def _edge_runs(uppers: list[list[int] | None]) -> Iterator[list[tuple[int, int]]]:
    """The pairs ``(low, k)`` for each ``k`` in ``uppers[low]``, by ``low``,
    1024 lists at a time.  A run's lists leave ``uppers`` as its pairs are
    made and are freed after them, so their memory serves the next pairs,
    and no list of every pair is held beside the tuple built from them: a
    comprehension into one such list peaked H38's DOT export 3% higher."""
    for lo in range(0, len(uppers), 1024):
        run = uppers[lo : lo + 1024]
        uppers[lo : lo + 1024] = itertools.repeat(None, len(run))
        yield [(low, k) for low, ks in enumerate(run, lo) for k in ks]


def _meet_tables(space: Classification) -> tuple[tuple[int, ...], ...]:
    """The meets of the columns of ``space``, one table per run of 8
    (the "Four Russians" method of Arlazarov, Dinic, Kronrod and
    Faradzev, 1970): entry ``v`` of a run's table is the AND of the
    columns at the set bits of ``v``, entry 0 the full mask.  Each column
    doubles the table.

    The tables hold at most 32 masks per column of ``space``, each no
    wider: 528 masks of 124 bits on M.  They are built over the row
    classes, never over the instances: over W20's 2^20 models they would
    hold 272 masks of 128 KB, about 34 MB, against 272 of 102 bits.
    """
    tables = []
    for g in range(0, len(space._columns), 8):
        table = [space._full]
        for col in space._columns[g : g + 8]:
            table += [meet & col for meet in table]
        tables.append(tuple(table))
    return tuple(tables)


def concept_lattice(ctx: Classification, cap: int = DEFAULT_CONCEPT_CAP) -> ConceptLattice:
    """Enumerate all formal concepts of a classification over its row
    classes (see :func:`_row_classes` and :func:`_concepts`)."""
    return ConceptLattice(ctx, *_concepts(*ctx._classes, cap))


def _concepts(space: Classification, weights: Sequence[int], cap: int) -> tuple[tuple[int, ...], ...]:
    """The intents and the keys of the concepts of the row classes
    ``space``, class ``c`` holding ``weights[c]`` instances, in canonical order.

    Every key is an intersection of columns, the full mask the empty one.
    One pass over the columns keeps each key found so far with its intent
    over the columns seen so far: column ``j`` adds ``key & column[j]`` for
    every key, with the union of the intents meeting there plus ``j``.  The
    entries only grow and each ends up a concept, so this raises as soon as
    more than ``cap`` keys are found after any column (or with none).

    The concepts are sorted by their number of instances, summed in C from
    bit-sliced weights (slice ``b`` holds the classes whose weight has bit
    ``b`` set), then by the lowest class where their keys differ, the key
    holding it first (:data:`_LOW_BIT_FIRST`).  Classes are numbered by
    their first instance, so this is also the order of the instance masks.
    """
    closed = {space._full: 0}
    for j, col in enumerate(space._columns):
        if len(closed) > cap:
            break
        bit = 1 << j
        for key, intent in list(closed.items()):
            meet = key & col
            closed[meet] = closed.get(meet, 0) | intent | bit
    if len(closed) > cap:
        raise SizeCapError("concept enumeration", f"more than {cap}", cap)
    keys = list(closed)
    sizes = [0] * len(keys)
    for b in range(max(weights, default=0).bit_length()):
        held = _mask((c for c, w in enumerate(weights) if w >> b & 1), len(weights))
        counts = map(int.bit_count, map(held.__and__, keys))
        sizes = list(map(operator.add, sizes, map(operator.lshift, counts, itertools.repeat(b))))
    size = (len(weights) + 7) >> 3
    little = map(int.to_bytes, keys, itertools.repeat(size), itertools.repeat("little"))
    order = map(bytes.translate, little, itertools.repeat(_LOW_BIT_FIRST))
    _, _, intents, keys = zip(*sorted(zip(sizes, order, closed.values(), keys)))
    return intents, keys


def lattice_meet(lat: ConceptLattice, concepts: Iterable[FormalConcept]) -> FormalConcept:
    """Infimum: close the union of the intents.

    The empty meet is the top concept.
    """
    intent = 0
    for c in concepts:
        intent |= lat._intents[lat.index(c)]
    return lat._concept(lat._closing(intent))


def lattice_join(lat: ConceptLattice, concepts: Iterable[FormalConcept]) -> FormalConcept:
    """Supremum: intersect the intents, which is closed.

    The empty join is the bottom concept.
    """
    intent = (1 << len(lat.classification.types)) - 1
    for c in concepts:
        intent &= lat._intents[lat.index(c)]
    return lat._concept(lat._closing(intent))


def _object_concepts(lat: ConceptLattice) -> Iterator[int]:
    """The position of each object concept, the least concept holding a row
    class, whose intent is that class's row: the first key holding it, as
    concepts are listed by extent size.  No two classes share one."""
    seen = 0
    for k, key in enumerate(lat._keys):
        if key & ~seen:
            seen |= key
            yield k


def basic_theorem_roundtrip(lat: ConceptLattice) -> Classification:
    """Rebuild the classification from the lattice order.

    An instance is incident to a type exactly when the extent of the
    instance's concept lies inside the extent of the type's concept; for a
    lattice built by ``concept_lattice`` this returns the original
    classification.  Instances with equal rows share a concept, so each
    object concept and type is visited once, the order read from the keys;
    an object concept's instances are computed from its intent.
    """
    ctx = lat.classification
    above = [lat._keys[lat._closing(1 << q)] for q in range(len(ctx.types))]
    columns = [0] * len(above)
    for k in _object_concepts(lat):
        members, key = ctx._members(lat._intents[k]), lat._keys[k]
        for q, a in enumerate(above):
            if key & ~a == 0:
                columns[q] |= members
    return Classification.from_columns(ctx.instances, ctx.types, tuple(columns))


def density_report(lat: ConceptLattice) -> tuple[bool, bool]:
    """(join-dense, meet-dense) for the instance and type embeddings.

    Each concept must be the join of the instance concepts of its extent
    (their intents meet in the extent's intent) and the meet of the type
    concepts of its intent (their extents are the columns).  Instances
    with equal rows have one instance concept, so both are read over the
    row classes, from each concept's key.
    """
    space = lat._space
    join_dense = meet_dense = True
    for key, intent in zip(lat._keys, lat._intents):
        joined = space._intent(key)
        join_dense = join_dense and (space._extent(joined), joined) == (key, intent)
        met = space._extent(intent)
        meet_dense = meet_dense and (met, space._intent(met)) == (key, intent)
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

    Every name is checked before the lines are returned.  Instance ids
    ``range(n)`` are numerals, which pass the check; their lines are
    written a thousand at a time by :func:`_numerals`, with no label per
    instance.  The rows are written 2^16 instances to a record by
    :func:`_cxt_rows`, straight from the columns.
    """
    if not _one_line(name) or _is_count(name):
        raise ValueError(f"name {name!r} cannot be written as a cxt name line")
    n = len(ctx.instances)
    numbered = _numbered(ctx.instances)
    labels = list(map(str, ctx.types if numbered else itertools.chain(ctx.instances, ctx.types)))
    # all labels at once in C; a fault is then looked for label by label
    if not (all(labels) and list(map(str.strip, labels)) == labels and _one_line("".join(labels))):
        bad = next(x for x in labels if not x or x != x.strip() or not _one_line(x))
        raise ValueError(f"id {bad!r} cannot be written as a cxt name")
    header = f"B\n{name}\n{n}\n{len(ctx.types)}\n\n"
    ones = b"\x01" * 1000
    numerals = (_numerals(lo, ones[: n - lo], "\n") + "\n" for lo in range(0, n, 1000)) if numbered else ()
    names = (label + "\n" for label in labels)
    return itertools.chain((header,), numerals, names, _cxt_rows(ctx._columns, n))


def _cxt_rows(columns: Sequence[int], n: int) -> Iterator[str]:
    """The row lines of ``n`` instances, 2^16 to a record.  Cell ``j`` of a
    line is the instance's binary digit in column ``j``: a column's digits
    over the block, cut from one bytes copy of the column as
    :func:`_row_classes` cuts them, lowest first and kept to ``count`` by a
    set bit above them, fill every ``(m + 1)``-th byte of the record from
    byte ``j``."""
    m = len(columns)
    data = [col.to_bytes((n + 7) >> 3, "little") for col in columns]
    for lo in range(0, n, 1 << 16):
        count = min(1 << 16, n - lo)
        block = bytearray(b"." * m + b"\n") * count
        for j, column in enumerate(data):
            col = int.from_bytes(column[lo >> 3 : (lo + count + 7) >> 3], "little")
            block[j :: m + 1] = bin(col | 1 << count)[:2:-1].encode().translate(_CELLS)
        yield block.decode()


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

    The covers and the nodes of every type and every row class are found
    before the records are returned; a node's label is rendered when its
    record is asked for, an object concept's instances computed from its
    intent.  The instance names are joined by :class:`_BlockJoin`: ids
    ``range(n)``, as a truth classification's, are rendered from fixed
    numeral tables, other ids from one string per instance.
    """
    ctx, intents = lat.classification, lat._intents
    types: list[list[str]] = [[] for _ in intents]
    for q, t in enumerate(ctx.types):
        types[lat._closing(1 << q)].append(str(t))
    members = set(_object_concepts(lat))
    # the member masks are disjoint, so no block of names repeats: cache none
    join = _BlockJoin(ctx.instances, ", ", 0)
    nodes = [f"c{k}" for k in range(len(types))]
    edges = lat.covers()

    def node(k: int) -> str:
        parts = [f"t: {', '.join(types[k])}"] if types[k] else []
        if k in members:
            parts.append(f"i: {join(ctx._members(intents[k]))}")
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
    concept with its extent and intent names sorted; an extent is computed
    from its intent when its record is asked for."""
    ctx = lat.classification
    objects, attributes = tuple(map(str, ctx.instances)), tuple(map(str, ctx.types))
    header = f"concepts: {len(lat._intents)}\n"
    records = (
        f"concept {k}: extent {{{', '.join(sorted(_select(objects, ctx._extent(intent))))}}} "
        f"intent {{{', '.join(sorted(_select(attributes, intent)))}}}\n"
        for k, intent in enumerate(lat._intents)
    )
    return itertools.chain((header,), records)
