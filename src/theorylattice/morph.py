"""Language morphisms, interpretations, and induced structure transport.

A language morphism renames sorts, relations, and constants while
preserving relation profiles.  An interpretation generalizes the
relation part to arbitrary target formulas over reserved variables
x1..xn.  Both translate sentences forward; an interpretation also pulls
target models back to source models (reducts), and the contravariant
pair (translate, reduct) is an infomorphism between truth
classifications: a target model satisfies a translated sentence exactly
when its reduct satisfies the original.  On the lattices of theories the
pair induces an adjoint pair of monotone maps, verified exhaustively at
construction.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from . import fca
from .errors import InfomorphismError, ParseError, SignatureMismatchError
from .logic import (
    _map,
    _source_lines,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Signature,
    Structure,
    Term,
    Var,
    canonicalize,
    eval_formula,
    format_structure,
    free_vars,
    parse_formula,
    sentence_key,
    substitute,
    validate_formula,
)
from .truth import ClosedTheory, Theory, TheoryLattice, TruthClassification, entails


# ---------------------------------------------------------------------------
# Language morphisms


@dataclass(frozen=True)
class LanguageMorphism:
    """A profile-preserving renaming between signatures."""

    source: Signature
    target: Signature
    ent: tuple[tuple[str, str], ...]
    rel: tuple[tuple[str, str], ...]
    const: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ent", dict(self.ent))
        object.__setattr__(self, "_rel", dict(self.rel))
        object.__setattr__(self, "_const", dict(self.const))

    def map_entity(self, name: str) -> str:
        return self._ent[name]

    def map_relation(self, name: str) -> str:
        return self._rel[name]

    def map_constant(self, name: str) -> str:
        return self._const[name]


def make_language_morphism(
    src: Signature,
    dst: Signature,
    ent: Mapping[str, str],
    rel: Mapping[str, str],
    const: Mapping[str, str],
) -> LanguageMorphism:
    """Validate totality, declaredness, and pointwise profile preservation."""
    ent, rel, const = dict(ent), dict(rel), dict(const)
    for name in src.entity_types:
        if name not in ent:
            raise ValueError(f"missing mapping for entity type {name!r}")
        if not dst.has_entity_type(ent[name]):
            raise ValueError(f"entity type {name!r} maps to undeclared {ent[name]!r}")
    for name in src.relation_names:
        if name not in rel:
            raise ValueError(f"missing mapping for relation {name!r}")
        if not dst.has_relation(rel[name]):
            raise ValueError(f"relation {name!r} maps to undeclared {rel[name]!r}")
        src_profile = src.profile(name)
        dst_profile = dst.profile(rel[name])
        if len(src_profile) != len(dst_profile):
            raise ValueError(
                f"relation {name!r} has arity {len(src_profile)} but {rel[name]!r} "
                f"has arity {len(dst_profile)}"
            )
        for pos, (s, d) in enumerate(zip(src_profile, dst_profile), start=1):
            if ent[s] != d:
                raise ValueError(
                    f"relation {name!r} position {pos}: sort {s!r} maps to "
                    f"{ent[s]!r} but {rel[name]!r} expects {d!r}"
                )
    for name in src.constant_names:
        if name not in const:
            raise ValueError(f"missing mapping for constant {name!r}")
        if not dst.has_constant(const[name]):
            raise ValueError(f"constant {name!r} maps to undeclared {const[name]!r}")
        want = ent[src.constant_sort(name)]
        got = dst.constant_sort(const[name])
        if want != got:
            raise ValueError(
                f"constant {name!r} of sort {src.constant_sort(name)!r} maps to "
                f"{const[name]!r} of sort {got!r}, expected {want!r}"
            )
    for extra in set(ent) - set(src.entity_types):
        raise ValueError(f"mapping for undeclared entity type {extra!r}")
    for extra in set(rel) - set(src.relation_names):
        raise ValueError(f"mapping for undeclared relation {extra!r}")
    for extra in set(const) - set(src.constant_names):
        raise ValueError(f"mapping for undeclared constant {extra!r}")
    return LanguageMorphism(
        src,
        dst,
        tuple((n, ent[n]) for n in src.entity_types),
        tuple((n, rel[n]) for n in src.relation_names),
        tuple((n, const[n]) for n in src.constant_names),
    )


def identity_morphism(sig: Signature) -> LanguageMorphism:
    return make_language_morphism(
        sig,
        sig,
        {n: n for n in sig.entity_types},
        {n: n for n in sig.relation_names},
        {n: n for n in sig.constant_names},
    )


def compose_morphisms(f: LanguageMorphism, g: LanguageMorphism) -> LanguageMorphism:
    """The composite renaming: apply ``f``, then ``g``."""
    if f.target != g.source:
        raise SignatureMismatchError("cannot compose: target of the first is not source of the second")
    return make_language_morphism(
        f.source,
        g.target,
        {n: g.map_entity(f.map_entity(n)) for n in f.source.entity_types},
        {n: g.map_relation(f.map_relation(n)) for n in f.source.relation_names},
        {n: g.map_constant(f.map_constant(n)) for n in f.source.constant_names},
    )


# ---------------------------------------------------------------------------
# Interpretations


def reserved_vars(profile: Iterable[str], ent: Mapping[str, str]) -> dict[str, str]:
    """The fixed free-variable context x1..xn for a relation profile."""
    return {f"x{k}": ent[sort] for k, sort in enumerate(profile, start=1)}


@dataclass(frozen=True)
class Interpretation:
    """Relations mapped to target formulas over reserved variables x1..xn."""

    source: Signature
    target: Signature
    ent: tuple[tuple[str, str], ...]
    const: tuple[tuple[str, str], ...]
    rel_formula: tuple[tuple[str, Formula], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ent", dict(self.ent))
        object.__setattr__(self, "_const", dict(self.const))
        object.__setattr__(self, "_rel", dict(self.rel_formula))

    def map_entity(self, name: str) -> str:
        return self._ent[name]

    def map_constant(self, name: str) -> str:
        return self._const[name]

    def formula_for(self, relation: str) -> Formula:
        return self._rel[relation]


def make_interpretation(
    src: Signature,
    dst: Signature,
    ent: Mapping[str, str],
    const: Mapping[str, str],
    rel_formula: Mapping[str, Formula],
) -> Interpretation:
    """Validate sort/constant transport and the reserved-variable contract.

    Each relation R of profile (E1..En) must map to a target formula
    whose free variables are exactly x1:ent(E1) .. xn:ent(En).
    """
    ent, const, rel_formula = dict(ent), dict(const), dict(rel_formula)
    for name in src.entity_types:
        if name not in ent:
            raise ValueError(f"missing mapping for entity type {name!r}")
        if not dst.has_entity_type(ent[name]):
            raise ValueError(f"entity type {name!r} maps to undeclared {ent[name]!r}")
    for name in src.constant_names:
        if name not in const:
            raise ValueError(f"missing mapping for constant {name!r}")
        if not dst.has_constant(const[name]):
            raise ValueError(f"constant {name!r} maps to undeclared {const[name]!r}")
        want = ent[src.constant_sort(name)]
        got = dst.constant_sort(const[name])
        if want != got:
            raise ValueError(
                f"constant {name!r} maps to {const[name]!r} of sort {got!r}, expected {want!r}"
            )
    normalized: list[tuple[str, Formula]] = []
    for name in src.relation_names:
        if name not in rel_formula:
            raise ValueError(f"missing interpreting formula for relation {name!r}")
        formula = canonicalize(rel_formula[name])
        want_free = reserved_vars(src.profile(name), ent)
        got_free = free_vars(formula)
        if got_free != want_free:
            unexpected = sorted(set(got_free) - set(want_free))
            missing = sorted(set(want_free) - set(got_free))
            wrong = sorted(
                v for v in set(got_free) & set(want_free) if got_free[v] != want_free[v]
            )
            detail = "; ".join(
                part
                for part in (
                    f"unexpected {unexpected}" if unexpected else "",
                    f"missing {missing}" if missing else "",
                    f"wrong sort for {wrong}" if wrong else "",
                )
                if part
            )
            raise ValueError(
                f"formula for relation {name!r} must use exactly "
                f"{sorted(want_free)} free: {detail}"
            )
        validate_formula(dst, formula, want_free)
        normalized.append((name, formula))
    for extra in set(rel_formula) - set(src.relation_names):
        raise ValueError(f"interpreting formula for undeclared relation {extra!r}")
    return Interpretation(
        src,
        dst,
        tuple((n, ent[n]) for n in src.entity_types),
        tuple((n, const[n]) for n in src.constant_names),
        tuple(normalized),
    )


def lift_morphism(f: LanguageMorphism) -> Interpretation:
    """A renaming as an interpretation: R goes to the atom rel(R)(x1..xn)."""
    ent = dict(f.ent)
    rel_formula = {}
    for name in f.source.relation_names:
        profile = f.source.profile(name)
        args = tuple(Var(f"x{k}", ent[sort]) for k, sort in enumerate(profile, start=1))
        rel_formula[name] = Atom(f.map_relation(name), args)
    return make_interpretation(f.source, f.target, ent, dict(f.const), rel_formula)


# ---------------------------------------------------------------------------
# Sentence translation and model reducts


def _translate_term(m: LanguageMorphism | Interpretation, t: Term) -> Term:
    if isinstance(t, Var):
        return Var(t.name, m.map_entity(t.sort))
    return Const(m.map_constant(t.name))


def translate(m: LanguageMorphism | Interpretation, formula: Formula) -> Formula:
    """Translate a source formula into the target language.

    A renaming maps symbols homomorphically; an interpretation replaces
    each atom R(t1..tn) by its interpreting formula with x1..xn
    simultaneously substituted (capture-avoiding).  Equality, connectives,
    and quantifiers (with mapped sorts) pass through.  The result is
    canonicalized.
    """
    validate_formula(m.source, formula, free_vars(formula))

    def leaf(f: Atom | Eq, env: None) -> Formula:
        if isinstance(f, Eq):
            return Eq(_translate_term(m, f.left), _translate_term(m, f.right))
        args = tuple(_translate_term(m, t) for t in f.args)
        if isinstance(m, LanguageMorphism):
            return Atom(m.map_relation(f.rel), args)
        body = m.formula_for(f.rel)
        return substitute(body, {f"x{k}": t for k, t in enumerate(args, start=1)})

    def binder(f: Forall | Exists, env: None) -> tuple[str, str, None]:
        return f.var, m.map_entity(f.sort), env

    return canonicalize(_map(formula, None, leaf, binder))


def reduct(h: Interpretation, model: Structure) -> Structure:
    """Pull a target model back along an interpretation.

    Each source sort borrows the carrier of its image sort; a source
    relation holds of a tuple exactly when its interpreting formula is
    true there; constants follow the constant map.
    """
    if model.signature != h.target:
        raise SignatureMismatchError("model is not over the interpretation's target signature")
    src = h.source
    carriers = {sort: model.carrier(h.map_entity(sort)) for sort in src.entity_types}
    relations: dict[str, list[tuple[str, ...]]] = {}
    for name in src.relation_names:
        profile = src.profile(name)
        formula = h.formula_for(name)
        held = []
        for tup in itertools.product(*(carriers[sort] for sort in profile)):
            env = {f"x{k}": elem for k, elem in enumerate(tup, start=1)}
            if eval_formula(model, formula, env):
                held.append(tup)
        relations[name] = held
    constants = {name: model.constant(h.map_constant(name)) for name in src.constant_names}
    return Structure.make(src, carriers, relations, constants)


# ---------------------------------------------------------------------------
# Infomorphisms


@dataclass(frozen=True)
class InfomorphismCheck:
    """Outcome of the satisfaction-transfer check; falsy on failure.

    ``witness`` is the first (target instance, source type) pair where
    the two sides of the bi-implication disagree.
    """

    ok: bool
    witness: tuple[Hashable, Hashable] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_infomorphism(
    a: fca.Classification,
    b: fca.Classification,
    type_map: Mapping[Hashable, Hashable],
    instance_map: Mapping[Hashable, Hashable],
) -> InfomorphismCheck:
    """Check: instance_map(j) is an ``a``-instance of t iff j is a ``b``-instance of type_map(t).

    Compares rows: the ``a``-row of each mapped instance against the
    ``b``-row of ``j`` read back through ``type_map``; the witness is the
    first ``a``-type where they differ.
    """
    image: list[int] = []
    for t in a.types:
        if t not in type_map:
            raise ValueError(f"unmapped type {t!r}")
        if type_map[t] not in b._tpos:
            raise ValueError(f"type {t!r} maps to unknown {type_map[t]!r}")
        image.append(b._tpos[type_map[t]])
    source: list[int] = []
    for j in b.instances:
        if j not in instance_map:
            raise ValueError(f"unmapped instance {j!r}")
        if instance_map[j] not in a._ipos:
            raise ValueError(f"instance {j!r} maps to unknown {instance_map[j]!r}")
        source.append(a._ipos[instance_map[j]])
    for j, p, row in zip(b.instances, source, b._rows):
        pulled = sum(1 << k for k, q in enumerate(image) if row >> q & 1)
        diff = a._rows[p] ^ pulled
        if diff:
            return InfomorphismCheck(False, (j, a.types[(diff & -diff).bit_length() - 1]))
    return InfomorphismCheck(True)


@dataclass(frozen=True)
class TruthInfomorphism:
    """The contravariant pair induced by an interpretation.

    ``type_map`` sends each source pool sentence (by key) to its
    translation's key; ``instance_map`` sends each target model index to
    the index of its reduct.  The satisfaction-transfer property is
    verified exhaustively at construction and holds for every pair.
    """

    interpretation: Interpretation
    source: TruthClassification
    target: TruthClassification
    type_map: tuple[tuple[str, str], ...]
    instance_map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_type_map", dict(self.type_map))

    def map_sentence(self, sentence: Formula) -> Formula:
        return self.target.sentence(self._type_map[sentence_key(sentence)])

    def map_model(self, index: int) -> int:
        return self.instance_map[index]


def truth_infomorphism(
    h: Interpretation | LanguageMorphism,
    tc1: TruthClassification,
    tc2: TruthClassification,
) -> TruthInfomorphism:
    """Build and verify the infomorphism (translate, reduct) between two
    truth classifications.

    Preconditions checked with named witnesses: every translated pool
    sentence must be in the target pool, and every target model's reduct
    must be among the source models.
    """
    if isinstance(h, LanguageMorphism):
        h = lift_morphism(h)
    if h.source != tc1.signature:
        raise SignatureMismatchError("interpretation source differs from the source classification")
    if h.target != tc2.signature:
        raise SignatureMismatchError("interpretation target differs from the target classification")

    type_map: list[tuple[str, str]] = []
    missing: list[str] = []
    for s in tc1.pool:
        image = translate(h, s)
        if tc2.in_pool(image):
            type_map.append((sentence_key(s), sentence_key(image)))
        else:
            missing.append(sentence_key(image))
    if missing:
        raise InfomorphismError(
            "translated pool sentences are missing from the target pool: "
            + "; ".join(missing)
        )

    instance_map: list[int] = []
    for m in tc2.models:
        r = reduct(h, m)
        try:
            instance_map.append(tc1.models.index(r))
        except ValueError:
            raise InfomorphismError(
                "reduct of a target model is not among the source models:\n"
                + format_structure(r)
            ) from None

    check = check_infomorphism(
        tc1.classification,
        tc2.classification,
        dict(type_map),
        dict(enumerate(instance_map)),
    )
    if not check:
        j, t = check.witness
        raise InfomorphismError(
            f"satisfaction transfer fails at target model {j} and sentence {t!r}"
        )
    return TruthInfomorphism(h, tc1, tc2, tuple(type_map), tuple(instance_map))


# ---------------------------------------------------------------------------
# Concept morphisms (adjoint pairs)


@dataclass(frozen=True)
class ConceptMorphism:
    """Monotone maps between two lattices of theories, adjoint in the
    inclusion form dir(C1) <= C2 iff C1 <= inv(C2) (axiom-set inclusion)."""

    infomorphism: TruthInfomorphism
    source: TheoryLattice
    target: TheoryLattice
    _dir: dict = field(repr=False, compare=False)
    _inv: dict = field(repr=False, compare=False)

    def dir(self, theory: ClosedTheory) -> ClosedTheory:
        """Translate the axioms, close in the target lattice."""
        try:
            return self._dir[theory.axioms]
        except KeyError:
            raise ValueError("foreign theory: not a closed theory of the source lattice") from None

    def inv(self, theory: ClosedTheory) -> ClosedTheory:
        """The source sentences whose translations lie in the theory."""
        try:
            return self._inv[theory.axioms]
        except KeyError:
            raise ValueError("foreign theory: not a closed theory of the target lattice") from None


def concept_morphism(
    im: TruthInfomorphism,
    lat1: TheoryLattice,
    lat2: TheoryLattice,
) -> ConceptMorphism:
    """Build the adjoint pair and verify closedness and the adjunction.

    Failures of either verification indicate an internal inconsistency
    and raise with the witnessing theories.
    """
    if lat1.tc != im.source or lat2.tc != im.target:
        raise SignatureMismatchError("lattices do not match the infomorphism's classifications")
    ctx1 = lat1.tc.classification
    intents1, intents2 = lat1.lattice._intents, lat2.lattice._intents
    # target pool position of each source pool sentence's image
    image = [lat2.tc._pos[im.map_sentence(a)] for a in lat1.pool]

    dir_map: dict[frozenset, ClosedTheory] = {}
    dir_intents: list[int] = []
    for c1 in lat1.theories:
        closed = lat2.closure([im.map_sentence(a) for a in c1.axioms])
        dir_map[c1.axioms] = closed
        dir_intents.append(intents2[lat2.index(closed)])

    inv_map: dict[frozenset, ClosedTheory] = {}
    inv_intents: list[int] = []
    for c2, intent2 in zip(lat2.theories, intents2):
        pre = sum(1 << p for p, q in enumerate(image) if intent2 >> q & 1)
        extent = ctx1._extent(pre)
        if ctx1._intent(extent) != pre:
            raise InfomorphismError(
                "inverse image is not closed for target theory "
                f"{sorted(map(sentence_key, c2.axioms))}: got "
                f"{sorted(lat1.tc.pool_keys[p] for p in fca._bits(pre))}"
            )
        inv_map[c2.axioms] = lat1.theories[lat1.lattice._by_extent[extent]]
        inv_intents.append(pre)

    for c1, intent1, forward_image in zip(lat1.theories, intents1, dir_intents):
        for c2, intent2, inverse_image in zip(lat2.theories, intents2, inv_intents):
            forward = forward_image & ~intent2 == 0
            backward = intent1 & ~inverse_image == 0
            if forward != backward:
                raise InfomorphismError(
                    "adjunction fails at "
                    f"{sorted(map(sentence_key, c1.axioms))} / "
                    f"{sorted(map(sentence_key, c2.axioms))}"
                )
    return ConceptMorphism(im, lat1, lat2, dir_map, inv_map)


def is_theory_morphism(
    f: LanguageMorphism | Interpretation,
    t1: Theory,
    t2: Theory,
    tc2: TruthClassification,
) -> bool:
    """True when the target theory entails every translated source axiom."""
    if t1.signature != f.source:
        raise SignatureMismatchError("first theory is not over the morphism's source")
    if t2.signature != f.target or tc2.signature != f.target:
        raise SignatureMismatchError("second theory and classification must be over the target")
    return all(entails(tc2, t2, translate(f, a)) for a in t1.axioms)


# ---------------------------------------------------------------------------
# File formats

_ARROW_LINE = re.compile(r"(entity|relation|constant)\s+(.+?)\s*->\s*(\S.*?)\s*$")
_REL_HEAD = re.compile(r"(\S+?)\s*\(\s*([^()]*?)\s*\)\s*$")


def parse_morphism(
    src: Signature,
    dst: Signature,
    text: str,
    *,
    path: str | None = None,
) -> LanguageMorphism:
    """Parse a renaming file: ``entity E -> E2`` / ``relation P -> Q`` /
    ``constant c -> d`` lines, ``#`` comments."""
    maps: dict[str, dict[str, str]] = {"entity": {}, "relation": {}, "constant": {}}
    for lineno, line in _source_lines(text):
        m = _ARROW_LINE.match(line)
        if m is None:
            raise ParseError(f"unrecognized morphism line: {line!r}", line=lineno, path=path)
        kind, left, right = m.group(1), m.group(2).strip(), m.group(3).strip()
        if " " in left or "(" in left or "(" in right:
            raise ParseError(f"unrecognized morphism line: {line!r}", line=lineno, path=path)
        if left in maps[kind]:
            raise ParseError(f"duplicate {kind} mapping for {left!r}", line=lineno, path=path)
        maps[kind][left] = right
    try:
        return make_language_morphism(src, dst, maps["entity"], maps["relation"], maps["constant"])
    except ValueError as exc:
        raise ParseError(str(exc), path=path)


def parse_interpretation(
    src: Signature,
    dst: Signature,
    text: str,
    *,
    path: str | None = None,
) -> Interpretation:
    """Parse an interpretation file.

    Lines: ``entity E -> E2``, ``constant c -> d``, and
    ``relation R(x1,...,xn) -> FORMULA`` where FORMULA uses exactly
    x1..xn free.
    """
    ent: dict[str, str] = {}
    const: dict[str, str] = {}
    rel_formula: dict[str, Formula] = {}
    for lineno, line in _source_lines(text):
        m = _ARROW_LINE.match(line)
        if m is None:
            raise ParseError(f"unrecognized interpretation line: {line!r}", line=lineno, path=path)
        kind, left, right = m.group(1), m.group(2).strip(), m.group(3).strip()
        if kind == "relation":
            head = _REL_HEAD.match(left)
            if head is None:
                raise ParseError(
                    f"relation line must look like 'relation R(x1,...,xn) -> FORMULA'",
                    line=lineno,
                    path=path,
                )
            name, raw_vars = head.group(1), head.group(2)
            if name in rel_formula:
                raise ParseError(f"duplicate relation mapping for {name!r}", line=lineno, path=path)
            if not src.has_relation(name):
                raise ParseError(f"undeclared relation {name!r}", line=lineno, path=path)
            profile = src.profile(name)
            declared = tuple(v.strip() for v in raw_vars.split(",")) if raw_vars.strip() else ()
            expect = tuple(f"x{k}" for k in range(1, len(profile) + 1))
            if declared != expect:
                raise ParseError(
                    f"relation {name!r} must declare variables {', '.join(expect)}",
                    line=lineno,
                    path=path,
                )
            for sort in profile:
                if sort not in ent:
                    raise ParseError(
                        f"entity mapping for {sort!r} must precede relation {name!r}",
                        line=lineno,
                        path=path,
                    )
            free = reserved_vars(profile, ent)
            try:
                rel_formula[name] = parse_formula(dst, right, free, path=path)
            except ParseError as exc:
                raise ParseError(exc.message, line=lineno, path=path)
        else:
            target_map = ent if kind == "entity" else const
            if " " in left or "(" in left:
                raise ParseError(f"unrecognized interpretation line: {line!r}", line=lineno, path=path)
            if left in target_map:
                raise ParseError(f"duplicate {kind} mapping for {left!r}", line=lineno, path=path)
            target_map[left] = right
    try:
        return make_interpretation(src, dst, ent, const, rel_formula)
    except ValueError as exc:
        raise ParseError(str(exc), path=path)
