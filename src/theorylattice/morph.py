"""Signature maps and structure transport.

A signature map (an interpretation) maps sorts to sorts, constants to
constants of the image sort, and each relation R of profile (E1..En) to
a target formula over the reserved variables x1..xn.  A map whose
formulas are atoms R'(x1..xn) renames relations; it is built, read and
composed by the same code as every other map.  Maps compose (:func:`compose`, with
:func:`identity_morphism` as unit).  A signature map translates sentences
forward and pulls target models back to source models (reducts), and the
contravariant pair (translate, reduct) is an infomorphism between truth
classifications: a target model satisfies a translated sentence exactly
when its reduct satisfies the original, which is checked a column at a
time over the reducts of whole groups of models, with no map of them.  On
the lattices of theories the pair induces an adjoint pair of monotone
maps, each checked at construction against its definition: the direct
image is the closure of the translated theory, the inverse image the
preimage of a theory, closed.  The adjunction and monotonicity follow.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import Hashable, Iterable, Mapping, Sequence

from . import fca
from ._value import Value
from .errors import InfomorphismError, ParseError, SignatureMismatchError
from .logic import (
    _at_line,
    _column,
    _fault,
    _Group,
    _listed_groups,
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
    format_structure,
    free_vars,
    parse_formula,
    sentence_key,
    substitute,
    validate_formula,
)
from .truth import ClosedTheory, Theory, TheoryLattice, TruthClassification


# ---------------------------------------------------------------------------
# Signature maps


def reserved_vars(profile: Iterable[str], ent: Mapping[str, str]) -> dict[str, str]:
    """The fixed free-variable context x1..xn for a relation profile."""
    return {f"x{k}": ent[sort] for k, sort in enumerate(profile, start=1)}


class Interpretation(Value):
    """Relations mapped to target formulas over reserved variables x1..xn."""

    _fields = ("source", "target", "ent", "const", "rel_formula")
    source: Signature
    target: Signature
    ent: tuple[tuple[str, str], ...]
    const: tuple[tuple[str, str], ...]
    rel_formula: tuple[tuple[str, Formula], ...]

    def _check(self) -> None:
        object.__setattr__(self, "_ent", dict(self.ent))
        object.__setattr__(self, "_const", dict(self.const))
        object.__setattr__(self, "_rel", dict(self.rel_formula))

    def map_entity(self, name: str) -> str:
        return self._ent[name]

    def map_constant(self, name: str) -> str:
        return self._const[name]

    def formula_for(self, relation: str) -> Formula:
        return self._rel[relation]


_SYMBOLS = {
    "entity": ("entity type", Signature.has_entity_type),
    "constant": ("constant", Signature.has_constant),
}
# A map line or a formula for a relation the source does not declare.
_UNDECLARED_RELATION = "mapping for undeclared relation {!r}"


def _check_symbol(src: Signature, dst: Signature, kind: str, name: str, image: str) -> None:
    """One ``entity`` or ``constant`` mapping: a source symbol to a declared target."""
    what, declares = _SYMBOLS[kind]
    if not declares(src, name):
        raise ValueError(f"mapping for undeclared {what} {name!r}")
    if not declares(dst, image):
        raise ValueError(f"{what} {name!r} maps to undeclared {image!r}")


def _check_relation(
    src: Signature, dst: Signature, ent: Mapping[str, str], name: str, image: str
) -> None:
    """One ``relation name -> image`` mapping of a declared source relation:
    onto a declared target relation of its arity, each profile position's
    sort mapped by the total entity map ``ent`` to the image's sort there.
    A fault names the node ``("relation", name)``."""
    if not dst.has_relation(image):
        raise _fault(("relation", name), f"relation {name!r} maps to undeclared {image!r}")
    src_profile, dst_profile = src.profile(name), dst.profile(image)
    if len(src_profile) != len(dst_profile):
        raise _fault(
            ("relation", name),
            f"relation {name!r} has arity {len(src_profile)} but {image!r} "
            f"has arity {len(dst_profile)}",
        )
    for pos, (s, d) in enumerate(zip(src_profile, dst_profile), start=1):
        if ent[s] != d:
            raise _fault(
                ("relation", name),
                f"relation {name!r} position {pos}: sort {s!r} maps to "
                f"{ent[s]!r} but {image!r} expects {d!r}",
            )


def _symbol_maps(
    src: Signature, dst: Signature, ent: Mapping[str, str], const: Mapping[str, str]
) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """Validate the entity and constant maps of a signature map.

    Both must be total on the source, name only source symbols, and land
    on declared targets; a constant must land on a constant of its sort's
    image.  Returns both maps as pairs in source declaration order.
    """
    for kind, names, mapping in (("entity", src.entity_types, ent), ("constant", src.constant_names, const)):
        for name in names:
            if name not in mapping:
                raise ValueError(f"missing mapping for {_SYMBOLS[kind][0]} {name!r}")
        for name, image in mapping.items():
            _check_symbol(src, dst, kind, name, image)
    for name in src.constant_names:
        sort, got = src.constant_sort(name), dst.constant_sort(const[name])
        if ent[sort] != got:
            raise _fault(
                ("constant", name),
                f"constant {name!r} of sort {sort!r} maps to {const[name]!r} of sort "
                f"{got!r}, expected {ent[sort]!r}",
            )
    return (
        tuple((n, ent[n]) for n in src.entity_types),
        tuple((n, const[n]) for n in src.constant_names),
    )


def make_interpretation(
    src: Signature,
    dst: Signature,
    ent: Mapping[str, str],
    const: Mapping[str, str],
    rel_formula: Mapping[str, Formula | str],
) -> Interpretation:
    """Validate sort/constant transport and the reserved-variable contract.

    Each relation R of profile (E1..En) must map either to a target
    formula whose free variables are exactly x1:ent(E1) .. xn:ent(En), and
    which is well-typed over the target, or to the name of a target
    relation, which stands for its atom over x1..xn and must be declared
    with the mapped profile.  A relation mapping that the source does not
    declare, a bad relation name and a formula's wrong free variables are
    faults that name the node ``("relation", R)``.
    """
    return _interpretation(src, dst, ent, const, rel_formula, typed=False)


def _interpretation(
    src: Signature,
    dst: Signature,
    ent: Mapping[str, str],
    const: Mapping[str, str],
    rel_formula: Mapping[str, Formula | str],
    typed: bool,
) -> Interpretation:
    """:func:`make_interpretation`; ``typed`` formulas come from the parser,
    which checked each against its reserved variables, and are not checked
    again."""
    ent_pairs, const_pairs = _symbol_maps(src, dst, ent, const)
    for name in rel_formula:
        if not src.has_relation(name):
            raise _fault(("relation", name), _UNDECLARED_RELATION.format(name))
    normalized: list[tuple[str, Formula]] = []
    for name in src.relation_names:
        if name not in rel_formula:
            raise ValueError(f"missing mapping for relation {name!r}")
        image = rel_formula[name]
        if isinstance(image, str):
            _check_relation(src, dst, ent, name, image)
            normalized.append((name, _renaming_atom(src, ent, name, image)))
            continue
        formula = canonicalize(image)
        want_free = reserved_vars(src.profile(name), ent)
        got_free = free_vars(formula)
        if got_free != want_free:
            unexpected = sorted(set(got_free) - set(want_free))
            missing = sorted(set(want_free) - set(got_free))
            wrong = sorted(
                v for v in set(got_free) & set(want_free) if got_free[v] != want_free[v]
            )
            detail = "; ".join(
                f"{what} {names}"
                for what, names in (("unexpected", unexpected), ("missing", missing), ("wrong sort for", wrong))
                if names
            )
            raise _fault(
                ("relation", name),
                f"formula for relation {name!r} must use exactly {sorted(want_free)} free: {detail}",
            )
        if not typed:
            validate_formula(dst, formula, want_free)
        normalized.append((name, formula))
    return Interpretation(src, dst, ent_pairs, const_pairs, tuple(normalized))


def _renaming_atom(src: Signature, ent: Mapping[str, str], name: str, image: str) -> Atom:
    """The formula of ``relation name -> image``: the atom image(x1..xn)."""
    return Atom(image, tuple(Var(v, sort) for v, sort in reserved_vars(src.profile(name), ent).items()))


def identity_morphism(sig: Signature) -> Interpretation:
    return make_interpretation(
        sig,
        sig,
        {n: n for n in sig.entity_types},
        {n: n for n in sig.constant_names},
        {n: n for n in sig.relation_names},
    )


def compose(f: Interpretation, g: Interpretation) -> Interpretation:
    """The composite map: apply ``f``, then ``g``.

    The entity and constant maps compose, and the formula for a relation R
    is ``f``'s formula for R translated along ``g``.  Each such formula was
    checked against ``f``'s target when ``f`` was built, so once ``g``'s
    source is found to be that target it is translated unchecked; a
    composite of valid maps is valid, so it is not checked again either.
    """
    if f.target != g.source:
        raise SignatureMismatchError("cannot compose: target of the first is not source of the second")
    return Interpretation(
        f.source,
        g.target,
        tuple((n, g.map_entity(image)) for n, image in f.ent),
        tuple((n, g.map_constant(image)) for n, image in f.const),
        tuple((n, _translate(g, formula)) for n, formula in f.rel_formula),
    )


# ---------------------------------------------------------------------------
# Sentence translation and model reducts


def _translate_term(m: Interpretation, t: Term) -> Term:
    """The term with its sort or constant mapped; one the map leaves
    unchanged is returned itself, not copied."""
    if isinstance(t, Var):
        sort = m.map_entity(t.sort)
        return t if sort == t.sort else Var(t.name, sort)
    name = m.map_constant(t.name)
    return t if name == t.name else Const(name)


def translate(m: Interpretation, formula: Formula) -> Formula:
    """Translate a source formula into the target language.

    The formula is checked first: its free variables must each have one
    sort, and it must be well-typed over the map's source with them free
    (``ValueError``).  It is then translated by :func:`_translate`.
    """
    validate_formula(m.source, formula, free_vars(formula))
    return _translate(m, formula)


def _translate(m: Interpretation, formula: Formula) -> Formula:
    """:func:`translate` without its check, for a formula already known to
    be well-typed over ``m.source``: a pool sentence, an axiom of a
    :class:`~theorylattice.truth.Theory` or the formula of a map.

    Each atom R(t1..tn) becomes its interpreting formula with x1..xn
    simultaneously substituted (capture-avoiding), so an atom formula
    R'(x1..xn) makes R'(t1..tn).  Equality, connectives, and
    quantifiers (with mapped sorts) pass through.  The result is
    canonicalized.
    """

    def leaf(f: Atom | Eq, env: None) -> Formula:
        if isinstance(f, Eq):
            return Eq(_translate_term(m, f.left), _translate_term(m, f.right))
        args = {f"x{k}": _translate_term(m, t) for k, t in enumerate(f.args, start=1)}
        return substitute(m.formula_for(f.rel), args)

    def binder(f: Forall | Exists, env: None) -> tuple[str, str, None]:
        return f.var, m.map_entity(f.sort), env

    return canonicalize(_map(formula, None, leaf, binder))


def _reducts(h: Interpretation, target: _Group) -> _Group:
    """The reducts of a group of target models, as a group over the same
    positions: each source sort borrows the carrier of its image sort, the
    ground atom ``R(t)`` holds where the formula for ``R`` holds with
    ``x1..xn`` bound to ``t``, and a constant denotes what its image denotes."""
    carrier = {sort: target.carrier[h.map_entity(sort)] for sort in h.source.entity_types}

    def atom(rel: str, tup: tuple[str, ...]) -> int:
        env = {f"x{k}": elem for k, elem in enumerate(tup, start=1)}
        return _column(target, h.formula_for(rel), env)

    def denotes(const: str, elem: str) -> int:
        return target.denotes(h.map_constant(const), elem)

    return _Group(h.source, carrier, target.full, atom, denotes)


def reduct(h: Interpretation, model: Structure) -> Structure:
    """Pull a target model back along an interpretation.

    Each source sort borrows the carrier of its image sort; a source
    relation holds of a tuple exactly when its interpreting formula is
    true there; constants follow the constant map.
    """
    if model.signature != h.target:
        raise SignatureMismatchError("model is not over the interpretation's target signature")
    src, group = h.source, _reducts(h, _listed_groups(model.signature, (model,))[0])
    cs = group.carrier
    relations = {
        name: [t for t in itertools.product(*(cs[s] for s in src.profile(name))) if group.atom(name, t)]
        for name in src.relation_names
    }
    constants = {
        name: next(e for e in cs[src.constant_sort(name)] if group.denotes(name, e))
        for name in src.constant_names
    }
    return Structure.make(src, cs, relations, constants)


# ---------------------------------------------------------------------------
# Infomorphisms


class InfomorphismCheck(Value):
    """Outcome of the satisfaction-transfer check; falsy on failure.

    ``witness`` is the first (target instance, source type) pair where
    the two sides of the bi-implication disagree.
    """

    _fields = ("ok", "witness")
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

    Exhaustive over every pair, compared a column at a time: each
    ``a``-column, read at the mapped instances, against the ``b``-column
    of its type's image.  The witness is the first ``b``-instance, in
    position order, where the two sides differ, with the first ``a``-type
    that differs there.
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
        p = a._position(instance_map[j])
        if p is None:
            raise ValueError(f"instance {j!r} maps to unknown {instance_map[j]!r}")
        source.append(p)
    pulled = fca._pullbacks(a._columns, source, len(a.instances))
    return _witness([col ^ b._columns[q] for col, q in zip(pulled, image)], b.instances, a.types)


def _witness(
    diffs: Sequence[int], instances: Sequence[Hashable], types: Sequence[Hashable]
) -> InfomorphismCheck:
    """The outcome of a transfer check from the ``b``-instances where each
    ``a``-type's two sides differ: the witness is the lowest such instance,
    with the first type that differs there."""
    first = functools.reduce(operator.or_, diffs, 0)
    if not first:
        return InfomorphismCheck(True)
    j = (first & -first).bit_length() - 1
    k = next(k for k, diff in enumerate(diffs) if diff >> j & 1)
    return InfomorphismCheck(False, (instances[j], types[k]))


class TruthInfomorphism(Value):
    """The contravariant pair induced by an interpretation.

    ``type_map`` sends each source pool sentence (by key) to its
    translation's key.  No map of the models is kept: :meth:`map_model`
    finds the index of one target model's reduct, and ``instance_map``
    lists it for every target model, one :func:`reduct` each, when first
    read.  The satisfaction-transfer property is verified exhaustively at
    construction and holds for every pair.
    """

    _fields = ("interpretation", "source", "target", "type_map")
    interpretation: Interpretation
    source: TruthClassification
    target: TruthClassification
    type_map: tuple[tuple[str, str], ...]

    def _check(self) -> None:
        object.__setattr__(self, "_type_map", dict(self.type_map))

    def map_model(self, index: int) -> int:
        """The source model index of the reduct of target model ``index``."""
        p = self.source._model_position(reduct(self.interpretation, self.target.models[index]))
        if p is None:
            raise ValueError("reduct of the target model is not among the source models")
        return p

    @functools.cached_property
    def instance_map(self) -> tuple[int, ...]:
        return tuple(map(self.map_model, range(len(self.target.models))))


def _check_signatures(h: Interpretation, source: Signature, target: Signature) -> None:
    """The map runs from the source classification's signature to the target's."""
    if h.source != source:
        raise SignatureMismatchError("interpretation source differs from the source classification")
    if h.target != target:
        raise SignatureMismatchError("interpretation target differs from the target classification")


def truth_infomorphism(
    h: Interpretation,
    tc1: TruthClassification,
    tc2: TruthClassification,
) -> TruthInfomorphism:
    """Build and verify the infomorphism (translate, reduct) between two
    truth classifications.

    Preconditions checked with named witnesses: every translated pool
    sentence must be in the target pool, and every target model's reduct
    must be among the source models.  The pool sentences were checked when
    ``tc1`` was built, so once the map's source is found to be its
    signature they are translated by :func:`_translate`, unchecked.

    The transfer is checked a column at a time, with no map of the
    models: for each group of target models that share their carriers,
    each source pool sentence is evaluated over the group's reducts
    (:func:`_reducts`) and compared with the target column of its image.
    When the source models are every structure over some carriers (the
    source's ``_carriers``) and each group's reducts have those carriers,
    every reduct is a source model.  Otherwise (listed source models, other
    carriers) each target model's reduct is built by :func:`reduct`, the
    public per-model function, and looked up among the source models by
    its hash or its encoding; the first one missing is printed in the
    error.  A failing transfer names the lowest target model where the two
    sides differ, with the first source sentence that differs there.
    """
    _check_signatures(h, tc1.signature, tc2.signature)
    type_map: list[tuple[str, str]] = []
    image: list[int] = []  # target pool position of each translated pool sentence
    missing: list[str] = []
    for key, s in zip(tc1.pool_keys, tc1.pool):
        translated, q = tc2._lookup(_translate(h, s))
        if q is None:
            missing.append(sentence_key(translated))
        else:
            type_map.append((key, tc2.pool_keys[q]))
            image.append(q)
    if missing:
        raise InfomorphismError(
            "translated pool sentences are missing from the target pool: "
            + "; ".join(missing)
        )

    reducts = [_reducts(h, group) for group in tc2._groups]
    if not all(r.carrier == tc1._carriers for r in reducts):
        for m in tc2.models:
            r = reduct(h, m)
            if tc1._model_position(r) is None:
                raise InfomorphismError(
                    "reduct of a target model is not among the source models:\n"
                    + format_structure(r)
                )

    targets = tc2.classification._columns
    diffs = [0] * len(image)
    for group in reducts:
        for k, (s, q) in enumerate(zip(tc1.pool, image)):
            diffs[k] |= (_column(group, s, {}) ^ targets[q]) & group.full
    check = _witness(diffs, tc2.classification.instances, tc1.pool_keys)
    if not check:
        j, t = check.witness
        raise InfomorphismError(
            f"satisfaction transfer fails at target model {j} and sentence {t!r}"
        )
    return TruthInfomorphism(h, tc1, tc2, tuple(type_map))


# ---------------------------------------------------------------------------
# Concept morphisms (adjoint pairs)


class ConceptMorphism(Value):
    """Monotone maps between two lattices of theories, adjoint in the
    inclusion form dir(C1) <= C2 iff C1 <= inv(C2) (axiom-set inclusion),
    kept as the index of each theory's image in the other lattice; see
    :func:`concept_morphism` for why they are."""

    _fields = ("infomorphism", "source", "target", "_dir", "_inv")
    _compared = _shown = _fields[:3]
    infomorphism: TruthInfomorphism
    source: TheoryLattice
    target: TheoryLattice
    _dir: tuple[int, ...]
    _inv: tuple[int, ...]

    def dir(self, theory: ClosedTheory) -> ClosedTheory:
        """Translate the axioms, close in the target lattice."""
        try:
            k = self.source.index(theory)
        except ValueError:
            raise ValueError("foreign theory: not a closed theory of the source lattice") from None
        return self.target.theories[self._dir[k]]

    def inv(self, theory: ClosedTheory) -> ClosedTheory:
        """The source sentences whose translations lie in the theory."""
        try:
            k = self.target.index(theory)
        except ValueError:
            raise ValueError("foreign theory: not a closed theory of the target lattice") from None
        return self.source.theories[self._inv[k]]


def concept_morphism(
    im: TruthInfomorphism,
    lat1: TheoryLattice,
    lat2: TheoryLattice,
) -> ConceptMorphism:
    """Build the adjoint pair, each map checked against its definition.

    With ``h`` the type map and ``cl2`` the closure of the target lattice,
    ``dir(C1)`` is ``cl2(h[C1])``: the lattice's lookup of ``h[C1]`` must
    have the intent that the target classification's ``_closure`` gives,
    else the error names the source theory.  ``inv(C2)`` is the preimage
    ``h^-1[C2]``, which must be closed.  It depends only on the sentences
    of ``C2`` that are images of source sentences, so it is computed once
    per distinct such set; a failure names the first target theory, in
    lattice order, whose inverse image is not closed.

    The two maps are then adjoint, and so monotone (Ganter & Wille 1999,
    section 1.1; Davey & Priestley 2002, ch. 7).  ``cl2`` is extensive and
    monotone and ``C2`` is closed, so ``dir(C1) <= C2`` iff
    ``h[C1] <= C2`` iff ``C1 <= h^-1[C2] = inv(C2)``.  If ``C1 <= C1'``,
    then ``C1 <= inv(dir(C1'))``, so ``dir(C1) <= dir(C1')``; ``inv`` is
    monotone as preimages are.  Neither the order nor the covers of either
    lattice are read.
    """
    if lat1.tc != im.source or lat2.tc != im.target:
        raise SignatureMismatchError("lattices do not match the infomorphism's classifications")
    ctx1, ctx2 = lat1.tc.classification, lat2.tc.classification
    # target pool position of each source pool sentence's image; dir maps
    # an intent's bits through it and closes, inv pulls an intent back
    image = [ctx2._tpos[im._type_map[k]] for k in ctx1.types]
    dir_index: list[int] = []
    for k, intent1 in enumerate(lat1.lattice._intents):
        mapped = fca._mask([image[p] for p in fca._bits(intent1)], len(ctx2.types))
        at = lat2.lattice._closing(mapped)
        if lat2.lattice._intents[at] != ctx2._closure(mapped):
            raise InfomorphismError(
                "direct image is not the closure for source theory "
                f"{list(lat1.theories[k].keys())}: got {list(lat2.theories[at].keys())}"
            )
        dir_index.append(at)
    reach = fca._mask(image, len(ctx2.types))
    pulled: dict[int, int] = {}
    inv_index: list[int] = []
    for k, intent2 in enumerate(lat2.lattice._intents):
        key = intent2 & reach
        at = pulled.get(key)
        if at is None:
            pre = sum(1 << p for p, q in enumerate(image) if key >> q & 1)
            at = pulled[key] = lat1.lattice._closing(pre)
            if lat1.lattice._intents[at] != pre:
                raise InfomorphismError(
                    "inverse image is not closed for target theory "
                    f"{list(lat2.theories[k].keys())}: got {list(lat1.tc._theory(pre).keys())}"
                )
        inv_index.append(at)
    return ConceptMorphism(im, lat1, lat2, tuple(dir_index), tuple(inv_index))


def is_theory_morphism(
    f: Interpretation,
    t1: Theory,
    t2: Theory,
    tc2: TruthClassification,
) -> bool:
    """True when the target theory entails every translated source axiom.

    The axioms were checked when ``t1`` was built, so once its signature is
    found to be the map's source they are translated unchecked.  The
    target theory's models are found once, and each translated axiom's
    column is tested against them."""
    if t1.signature != f.source:
        raise SignatureMismatchError("first theory is not over the morphism's source")
    if t2.signature != f.target or tc2.signature != f.target:
        raise SignatureMismatchError("second theory and classification must be over the target")
    models = tc2._models_mask(t2)
    return all(models & ~tc2._column(_translate(f, a)) == 0 for a in t1.axioms)


# ---------------------------------------------------------------------------
# File formats

_ARROW_LINE = re.compile(r"(entity|relation|constant)\s+(.+?)\s*->\s*(\S.*?)\s*$")
_REL_HEAD = re.compile(r"(\S+?)\s*\(\s*([^()]*?)\s*\)\s*$")


def _relation_formula(
    src: Signature, dst: Signature, ent: Mapping[str, str], name: str, raw_vars: str, body: str
) -> Formula:
    """The formula of a ``relation R(x1,...,xn) -> FORMULA`` line, read over
    R's reserved variables, whose sorts the entity lines above it map."""
    if not src.has_relation(name):
        raise ParseError(_UNDECLARED_RELATION.format(name))
    profile = src.profile(name)
    declared = tuple(v.strip() for v in raw_vars.split(",")) if raw_vars.strip() else ()
    expect = tuple(f"x{k}" for k in range(1, len(profile) + 1))
    if declared != expect:
        raise ParseError(f"relation {name!r} must declare variables {', '.join(expect)}")
    for sort in profile:
        if sort not in ent:
            raise ParseError(f"entity mapping for {sort!r} must precede relation {name!r}")
    return parse_formula(dst, body, reserved_vars(profile, ent))


def parse_interpretation(
    src: Signature,
    dst: Signature,
    text: str,
    *,
    path: str | None = None,
) -> Interpretation:
    """Parse a map file.

    Lines are ``entity E -> E2``, ``constant c -> d`` and relation lines of
    two shapes, told apart by the left side; one file may mix them:

    - ``relation R(x1,...,xn) -> FORMULA``, where FORMULA uses exactly
      x1..xn free and the entity lines for R's sorts come first;
    - ``relation P -> Q``, which maps P to the atom Q(x1..xn) and may come
      before its entity lines.

    ``#`` starts a comment.  Each line is read where it stands, so a fault
    in its shape, a duplicate, the symbols of an entity or constant line and
    the relation and formula of a ``R(x1,...,xn)`` line are a ``ParseError``
    with the path and the line.  The rest is checked once the file is read,
    as :func:`make_interpretation` checks it, and reported at its line: the
    sort of each constant's image, the free variables of each formula, and
    each ``P -> Q`` line, once (P and Q declared, of one arity, and each
    position's sort mapped to Q's sort there).  Only a missing mapping has
    no line.
    """
    ent: dict[str, str] = {}
    const: dict[str, str] = {}
    rel: dict[str, Formula | str] = {}
    maps = {"entity": ent, "constant": const, "relation": rel}
    lines: dict[tuple[str, str], int] = {}  # the line of each mapping
    for lineno, line in _source_lines(text):
        with _at_line(lineno, path):
            m = _ARROW_LINE.match(line)
            if m is None:
                raise ParseError(f"unrecognized map line: {line!r}")
            kind, left, right = m.group(1), m.group(2).strip(), m.group(3).strip()
            if kind != "relation":
                if " " in left or "(" in left:
                    raise ParseError(f"unrecognized map line: {line!r}")
                _check_symbol(src, dst, kind, left, right)
            elif head := _REL_HEAD.match(left):
                left, right = head.group(1), _relation_formula(src, dst, ent, *head.groups(), right)
            elif " " in left or "(" in left or "(" in right:
                raise ParseError(
                    "relation line must look like 'relation P -> Q' "
                    "or 'relation R(x1,...,xn) -> FORMULA'"
                )
            if left in maps[kind]:
                raise ParseError(f"duplicate {kind} mapping for {left!r}")
            maps[kind][left] = right
        lines[kind, left] = lineno
    with _at_line(lines, path):
        return _interpretation(src, dst, ent, const, rel, typed=True)
