"""Independent oracles and corpus generators for the test suite.

Everything here recomputes expected values by a different method than
the library: satisfaction by ground substitution, one model at a time,
instead of bitset columns over a model set; structures by filtering the
tuple space per relation instead of decoding a position; concepts by
closing every subset, and in the library's order by NextClosure over the
instances, instead of the intersection closure of the row classes' columns,
derivations on sets of pairs instead of bitsets, Hasse edges by scanning
every triple instead of neighbour search, meets/joins by scanning the
order relation, the adjunction by checking every pair of theories
instead of the unit/counit form, reducts by ground substitution into each
relation's formula instead of columns over a reduct group, and the
infomorphism by one such reduct per target model and a comparison of rows
instead of columns.  Tests freeze
fixture expectations against these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from types import SimpleNamespace

from theorylattice.errors import SizeCapError
from theorylattice.fca import DEFAULT_CONCEPT_CAP, Classification, FormalConcept
from theorylattice.logic import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Structure,
    Var,
    free_vars,
)
from theorylattice.morph import InfomorphismCheck, Interpretation, make_interpretation
from theorylattice.truth import build_truth_classification


# ---------------------------------------------------------------------------
# Ground-substitution satisfaction


@dataclass(frozen=True)
class _Elem:
    """A carrier element plugged into a term position."""

    value: str


def _subst_var(formula: Formula, name: str, elem: _Elem) -> Formula:
    def term(t):
        return elem if isinstance(t, Var) and t.name == name else t

    if isinstance(formula, Atom):
        return Atom(formula.rel, tuple(term(t) for t in formula.args))
    if isinstance(formula, Eq):
        return Eq(term(formula.left), term(formula.right))
    if isinstance(formula, Not):
        return Not(_subst_var(formula.body, name, elem))
    if isinstance(formula, (And, Or, Implies, Iff)):
        return type(formula)(
            _subst_var(formula.left, name, elem), _subst_var(formula.right, name, elem)
        )
    if isinstance(formula, (Forall, Exists)):
        if formula.var == name:
            return formula
        return type(formula)(formula.var, formula.sort, _subst_var(formula.body, name, elem))
    raise TypeError(formula)


def oracle_satisfies(structure: Structure, sentence: Formula) -> bool:
    """Quantifiers expand by substituting each carrier element in turn."""

    def value(t) -> str:
        if isinstance(t, _Elem):
            return t.value
        if isinstance(t, Const):
            return structure.constant(t.name)
        raise ValueError(f"unbound variable {t!r}")

    def ev(f: Formula) -> bool:
        if isinstance(f, Atom):
            return tuple(value(t) for t in f.args) in structure.relation(f.rel)
        if isinstance(f, Eq):
            return value(f.left) == value(f.right)
        if isinstance(f, Not):
            return not ev(f.body)
        if isinstance(f, And):
            return ev(f.left) and ev(f.right)
        if isinstance(f, Or):
            return ev(f.left) or ev(f.right)
        if isinstance(f, Implies):
            return not ev(f.left) or ev(f.right)
        if isinstance(f, Iff):
            return ev(f.left) == ev(f.right)
        if isinstance(f, (Forall, Exists)):
            ground = (ev(_subst_var(f.body, f.var, _Elem(e))) for e in structure.carrier(f.sort))
            return all(ground) if isinstance(f, Forall) else any(ground)
        raise TypeError(f)

    return ev(sentence)


def brute_structures(sig: Signature, carriers) -> list[Structure]:
    """Every structure over the carriers in the documented order: each
    relation's extensions as bit-vectors over its lexicographic tuple
    order, earlier relations slower, constant denotations fastest."""
    extensions = []
    for name in sig.relation_names:
        space = list(product(*(carriers[sort] for sort in sig.profile(name))))
        extensions.append(
            [[t for k, t in enumerate(space) if bits >> k & 1] for bits in range(2 ** len(space))]
        )
    denotations = [carriers[sig.constant_sort(name)] for name in sig.constant_names]
    out = []
    for combo in product(*extensions, *denotations):
        relations = dict(zip(sig.relation_names, combo))
        constants = dict(zip(sig.constant_names, combo[len(extensions):]))
        out.append(Structure.make(sig, carriers, relations, constants))
    return out


# ---------------------------------------------------------------------------
# Brute-force concepts and closed theories


def brute_concepts(instances, types, incidence) -> set[tuple[frozenset, frozenset]]:
    """Close every type subset; the distinct (extent, intent) pairs."""
    pairs = set()
    for r in range(len(types) + 1):
        for ys in combinations(types, r):
            extent = frozenset(i for i in instances if all((i, t) in incidence for t in ys))
            intent = frozenset(t for t in types if all((i, t) in incidence for i in extent))
            pairs.add((extent, intent))
    return pairs


def brute_covers(concepts) -> tuple[tuple[int, int], ...]:
    """Hasse edges (lower, upper) by scanning every triple of extents."""
    cs = concepts
    below = [
        [j for j in range(len(cs)) if j != i and cs[j].extent < cs[i].extent]
        for i in range(len(cs))
    ]
    edges = []
    for i, js in enumerate(below):
        for j in js:
            if not any(cs[j].extent < cs[k].extent < cs[i].extent for k in js):
                edges.append((j, i))
    return tuple(sorted(edges))


def reference_next_closure(ctx: Classification, cap: int = DEFAULT_CONCEPT_CAP) -> SimpleNamespace:
    """The concept lattice by NextClosure over type sets (Ganter, 1984),
    over the instances themselves.

    Intents are generated in lectic order.  A candidate type set is closed
    by ANDing its columns into an extent and taking every type whose
    column contains that extent; the extent of the current intent's types
    below each position is kept as a prefix, so a candidate costs one AND
    and one closure.  The concept list is then sorted canonically, by
    extent size, then by the list of the extent's instance positions.
    Raises once more than ``cap`` concepts have been found.  Returns the
    classification, the extent and intent masks in that order, and the
    concepts as :class:`FormalConcept` objects of id sets.
    """
    cols = ctx._columns
    m = len(cols)

    def types_holding(extent: int) -> int:
        # a column scan of its own: the oracle shares no derivation with fca
        return sum(1 << j for j, col in enumerate(cols) if col & extent == extent)

    found: list[tuple[int, int]] = []
    nxt: tuple[int, int] | None = (ctx._full, types_holding(ctx._full))
    while nxt is not None:
        found.append(nxt)
        if len(found) > cap:
            raise SizeCapError("concept enumeration", f"more than {cap}", cap)
        _, intent = nxt
        prefix = []
        acc = ctx._full
        for j in range(m):
            prefix.append(acc)
            if intent >> j & 1:
                acc &= cols[j]
        nxt = None
        for i in reversed(range(m)):
            if intent >> i & 1:
                continue
            cand = prefix[i] & cols[i]
            closed = types_holding(cand)
            below = (1 << i) - 1
            if closed & below == intent & below:
                nxt = (cand, closed)
                break

    def size_then_positions(concept: tuple[int, int]) -> tuple[int, list[int]]:
        positions = [p for p in range(len(ctx.instances)) if concept[0] >> p & 1]
        return len(positions), positions

    found.sort(key=size_then_positions)
    extents, intents = zip(*found)

    def ids(names, mask):
        return frozenset(x for p, x in enumerate(names) if mask >> p & 1)

    concepts = tuple(FormalConcept(ids(ctx.instances, e), ids(ctx.types, i)) for e, i in found)
    return SimpleNamespace(classification=ctx, extents=extents, intents=intents, concepts=concepts)


def set_derive_types(types, incidence, xs) -> frozenset:
    """X-prime by scanning the incidence pairs."""
    return frozenset(t for t in types if all((i, t) in incidence for i in xs))


def set_derive_instances(instances, incidence, ys) -> frozenset:
    """Y-prime by scanning the incidence pairs."""
    return frozenset(i for i in instances if all((i, t) in incidence for t in ys))


def set_closure(ctx: Classification, intent: int) -> int:
    """The double-prime closure of a type mask by the set derivations."""
    ys = [t for q, t in enumerate(ctx.types) if intent >> q & 1]
    xs = set_derive_instances(ctx.instances, ctx.incidence, ys)
    closed = set_derive_types(ctx.types, ctx.incidence, xs)
    return sum(1 << q for q, t in enumerate(ctx.types) if t in closed)


def brute_closed_theories(models, pool) -> set[frozenset]:
    """Close every pool subset using the ground-substitution evaluator."""
    truth = {s: frozenset(i for i, m in enumerate(models) if oracle_satisfies(m, s)) for s in pool}
    everyone = frozenset(range(len(models)))
    closures = set()
    for r in range(len(pool) + 1):
        for axioms in combinations(pool, r):
            mods = everyone
            for s in axioms:
                mods &= truth[s]
            closures.add(frozenset(s for s in pool if mods <= truth[s]))
    return closures


# ---------------------------------------------------------------------------
# Reference renderings of the exports, from the concept and theory objects


def _rank(concepts, extent) -> int:
    return next(k for k, c in enumerate(concepts) if c.extent == extent)


def reference_lattice_text(lat) -> str:
    """``lattice_text`` rendered from the ClosedTheory and FormalConcept
    views, with Hasse edges by scanning triples."""
    concepts = lat.lattice.concepts
    below = [[] for _ in concepts]
    above = [[] for _ in concepts]
    for low, high in brute_covers(concepts):
        below[high].append(str(low))
        above[low].append(str(high))
    lines = [f"closed theories: {len(lat.theories)}", f"models: {len(lat.tc.models)}"]
    for k, (theory, concept) in enumerate(zip(lat.theories, concepts)):
        models = " ".join(map(str, sorted(concept.extent)))
        lines += [
            "",
            f"theory {k}",
            f"  axioms: {'; '.join(theory.keys()) or '(none)'}",
            f"  models: {models or '(none)'}",
            f"  covers: {' '.join(below[k]) or '(none)'}",
            f"  covered-by: {' '.join(above[k]) or '(none)'}",
        ]
    return "\n".join(lines) + "\n"


def reference_lattice_dot(lat, name: str = "lattice") -> str:
    """``lattice_dot`` rendered from the FormalConcept view: each instance
    and type is attached where its set-derived embedding lands."""
    ctx, concepts = lat.classification, lat.concepts
    attached = [([], []) for _ in concepts]
    for t in ctx.types:
        extent = set_derive_instances(ctx.instances, ctx.incidence, [t])
        attached[_rank(concepts, extent)][0].append(str(t))
    for i in ctx.instances:
        intent = set_derive_types(ctx.types, ctx.incidence, [i])
        extent = set_derive_instances(ctx.instances, ctx.incidence, intent)
        attached[_rank(concepts, extent)][1].append(str(i))
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for k, (types, insts) in enumerate(attached):
        parts = [f"{tag}: " + ", ".join(xs) for tag, xs in (("t", types), ("i", insts)) if xs]
        label = "\\n".join(p.replace("\\", "\\\\").replace('"', '\\"') for p in parts)
        lines.append(f'  c{k} [label="{label or f"c{k}"}"];')
    lines += [f"  c{low} -> c{high};" for low, high in brute_covers(concepts)]
    return "\n".join(lines + ["}"]) + "\n"


def reference_concepts_text(lat) -> str:
    """``ctx concepts --format text`` rendered from the FormalConcept view."""
    lines = [f"concepts: {len(lat.concepts)}"]
    for k, c in enumerate(lat.concepts):
        extent = ", ".join(sorted(map(str, c.extent)))
        intent = ", ".join(sorted(map(str, c.intent)))
        lines.append(f"concept {k}: extent {{{extent}}} intent {{{intent}}}")
    return "\n".join(lines) + "\n"


def order_meet(elements, leq, a, b):
    """The greatest lower bound, found by scanning the order relation."""
    lowers = [c for c in elements if leq(c, a) and leq(c, b)]
    best = [c for c in lowers if all(leq(d, c) for d in lowers)]
    assert len(best) == 1, "not a lattice"
    return best[0]


def order_join(elements, leq, a, b):
    uppers = [c for c in elements if leq(a, c) and leq(b, c)]
    best = [c for c in uppers if all(leq(c, d) for d in uppers)]
    assert len(best) == 1, "not a lattice"
    return best[0]


# ---------------------------------------------------------------------------
# Fixed corpora

# The M ladder input: 256 models, 2508 closed theories, 10791 cover edges.
M_SIG = "entity E\nrelation P(E)\nrelation Q(E)\nrelation R(E,E)\n"
M_POOL = (
    [f"{q} x:E. {lit}" for lit in ("P(x)", "Q(x)", "R(x,x)", "~P(x)", "~Q(x)")
     for q in ("forall", "exists")]
    + [s for a, b in (("P(x)", "Q(x)"), ("P(x)", "R(x,x)"), ("Q(x)", "R(x,x)"))
       for s in (f"forall x:E. {a} -> {b}", f"exists x:E. {a} & {b}")]
    + [
        "forall x:E. exists y:E. R(x,y)",
        "exists x:E. forall y:E. R(x,y)",
        "forall x:E. forall y:E. R(x,y) -> R(y,x)",
        "forall x:E. forall y:E. forall z:E. R(x,y) & R(y,z) -> R(x,z)",
    ]
)
# ST: the M sentences without Q, with P renamed S and R renamed T, read
# back into M by an interpretation (194 closed theories over {a,b}).
ST_SIG = "entity E\nrelation S(E)\nrelation T(E,E)\n"
ST_POOL = [s.replace("P(", "S(").replace("R(", "T(") for s in M_POOL if "Q(" not in s]
ST_TO_M = "entity E -> E\nrelation S(x1) -> P(x1)\nrelation T(x1,x2) -> R(x1,x2)\n"


# ---------------------------------------------------------------------------
# Randomized corpora (seeded by callers for determinism)


def random_context(rng: random.Random, max_instances: int = 4, max_types: int = 4):
    """A random classification as raw (instances, types, incidence) parts."""
    n = rng.randint(0, max_instances)
    m = rng.randint(0, max_types)
    instances = tuple(range(n))
    types = tuple("abcdefgh"[:m])
    incidence = frozenset(
        (i, t) for i in instances for t in types if rng.random() < rng.choice((0.3, 0.5, 0.7))
    )
    return instances, types, incidence


def random_wide_context(rng: random.Random, max_instances: int = 6) -> Classification:
    """A classification of 9 to 24 types, so that its type masks span more
    than one byte, over at most ``max_instances`` instances.  Each column
    after the first is drawn afresh, copied from an earlier one, an
    earlier one with instances added or removed (so columns nest, often
    across bytes), every instance or none."""
    n = rng.randint(0, max_instances)
    columns = [rng.getrandbits(n)]
    for _ in range(rng.randint(9, 24) - 1):
        earlier, fresh = rng.choice(columns), rng.getrandbits(n)
        columns.append(rng.choice((fresh, earlier, earlier | fresh, earlier & fresh, (1 << n) - 1, 0)))
    return Classification.from_columns(
        tuple(f"i{p}" for p in range(n)), tuple(f"t{j}" for j in range(len(columns))), tuple(columns)
    )


def _random_formula(
    rng: random.Random, sig: Signature, free: dict[str, str], depth: int, equality: bool = False
) -> Formula:
    """A well-typed formula over ``sig`` using only the given free variables.

    With ``equality``, equations between terms of one sort are drawn as
    atoms too; without it the draws are the same as they always were.
    """
    atoms = []
    for rel in sig.relation_names:
        profile = sig.profile(rel)
        choices = []
        for sort in profile:
            pool = [Var(v, s) for v, s in free.items() if s == sort]
            pool += [Const(c) for c in sig.constant_names if sig.constant_sort(c) == sort]
            choices.append(pool)
        if all(choices):
            atoms.append((rel, choices))
    if equality:
        for sort in sig.entity_types:
            terms = [Var(v, s) for v, s in free.items() if s == sort]
            terms += [Const(c) for c in sig.constant_names if sig.constant_sort(c) == sort]
            if terms:
                atoms.append((None, [terms, terms]))

    def atom(rel, choices) -> Formula:
        args = tuple(rng.choice(c) for c in choices)
        return Eq(*args) if rel is None else Atom(rel, args)

    if depth == 0 or (not atoms and depth < 2):
        if atoms:
            return atom(*rng.choice(atoms))
        name, sort = rng.choice(sorted(free.items()))
        return Eq(Var(name, sort), Var(name, sort))
    kind = rng.randrange(6)
    if kind == 0 and atoms:
        return atom(*rng.choice(atoms))
    if kind == 1:
        return Not(_random_formula(rng, sig, free, depth - 1, equality))
    if kind in (2, 3):
        op = rng.choice((And, Or, Implies, Iff))
        return op(
            _random_formula(rng, sig, free, depth - 1, equality),
            _random_formula(rng, sig, free, depth - 1, equality),
        )
    sort = rng.choice(sig.entity_types)
    var = f"q{len(free)}"
    quant = Forall if kind == 4 else Exists
    return quant(var, sort, _random_formula(rng, sig, {**free, var: sort}, depth - 1, equality))


def random_sentence(
    rng: random.Random, sig: Signature, depth: int = 3, equality: bool = False
) -> Formula:
    sort = rng.choice(sig.entity_types)
    quant = rng.choice((Forall, Exists))
    return quant("q0", sort, _random_formula(rng, sig, {"q0": sort}, depth - 1, equality))


def random_interpretation_case(rng: random.Random):
    """A random interpretation with both truth classifications.

    The source enumerates every structure over the carriers the reducts
    live in, so the model-closure precondition holds by construction; the
    target pool contains the translated source pool by construction.
    """
    from theorylattice.morph import translate

    n_sorts = rng.randint(1, 2)
    src_sorts = tuple(f"S{k}" for k in range(n_sorts))
    dst_sorts = tuple(f"T{k}" for k in range(n_sorts))
    ent = dict(zip(src_sorts, dst_sorts))

    dst_rels = []
    for k in range(rng.randint(1, 2)):
        arity = rng.randint(1, 2)
        dst_rels.append((f"D{k}", tuple(rng.choice(dst_sorts) for _ in range(arity))))
    dst_consts = tuple(
        (f"c{k}", rng.choice(dst_sorts)) for k in range(rng.randint(0, 1))
    )
    dst_sig = Signature(dst_sorts, tuple(dst_rels), dst_consts)

    src_rels = []
    for k in range(rng.randint(1, 2)):
        arity = rng.randint(1, 2)
        src_rels.append((f"R{k}", tuple(rng.choice(src_sorts) for _ in range(arity))))
    src_sig = Signature(src_sorts, tuple(src_rels), ())

    rel_formula = {}
    for name, profile in src_rels:
        free = {f"x{k}": ent[s] for k, s in enumerate(profile, start=1)}
        body = _random_formula(rng, dst_sig, dict(free), rng.randint(1, 2))
        used = set()

        def walk(f):
            if isinstance(f, Atom):
                used.update(t.name for t in f.args if isinstance(t, Var))
            elif isinstance(f, Eq):
                used.update(t.name for t in (f.left, f.right) if isinstance(t, Var))
            elif isinstance(f, Not):
                walk(f.body)
            elif isinstance(f, (And, Or, Implies, Iff)):
                walk(f.left)
                walk(f.right)
            elif isinstance(f, (Forall, Exists)):
                walk(f.body)

        walk(body)
        for v, s in free.items():
            if v not in used:
                body = And(body, Eq(Var(v, s), Var(v, s)))
        rel_formula[name] = body
    h = make_interpretation(src_sig, dst_sig, ent, {}, rel_formula)

    dst_carriers = {s: [f"{s.lower()}{i}" for i in range(rng.randint(1, 2))] for s in dst_sorts}
    src_carriers = {s: dst_carriers[ent[s]] for s in src_sorts}

    pool1 = []
    for _ in range(rng.randint(1, 3)):
        s = random_sentence(rng, src_sig, depth=2)
        if s not in pool1:
            pool1.append(s)
    pool2 = [translate(h, s) for s in pool1]
    for _ in range(rng.randint(0, 2)):
        s = random_sentence(rng, dst_sig, depth=2)
        pool2.append(s)

    tc1 = build_truth_classification(src_sig, pool1, carriers=src_carriers)
    tc2 = build_truth_classification(dst_sig, pool2, carriers=dst_carriers)
    return h, tc1, tc2


def random_map_from(rng: random.Random, sig: Signature, carriers):
    """A random map out of ``sig`` and the carriers of its target models.

    Each source sort goes to a target sort of its own, in shuffled order,
    and each constant to a constant of its own; each relation goes to a
    random formula that may quantify, draws equations as well as atoms,
    and may pass its variables in any order.  A target sort gets the
    carrier the source sort mapped onto it has in ``carriers``, so the
    reducts of the target models over the returned carriers are the
    source models over ``carriers``.
    """
    dst_sorts = [f"U{k}" for k in range(len(sig.entity_types))]
    rng.shuffle(dst_sorts)
    ent = dict(zip(sig.entity_types, dst_sorts))
    const = {c: f"e{k}" for k, c in enumerate(sig.constant_names)}
    dst_rels = tuple(
        (f"G{k}", tuple(rng.choice(dst_sorts) for _ in range(rng.randint(1, 2))))
        for k in range(rng.randint(1, 2))
    )
    dst_consts = tuple((const[c], ent[sig.constant_sort(c)]) for c in sig.constant_names)
    dst_sig = Signature(tuple(sorted(dst_sorts)), dst_rels, dst_consts)
    rel_formula = {}
    for name in sig.relation_names:
        free = {f"x{k}": ent[s] for k, s in enumerate(sig.profile(name), start=1)}
        body = _random_formula(rng, dst_sig, dict(free), rng.randint(1, 2), equality=True)
        for v, s in free.items():
            if v not in free_vars(body):
                body = And(body, Eq(Var(v, s), Var(v, s)))
        rel_formula[name] = body
    g = make_interpretation(sig, dst_sig, ent, const, rel_formula)
    return g, {ent[s]: list(carriers[s]) for s in sig.entity_types}


# ---------------------------------------------------------------------------
# The adjoint pair between two lattices of theories, on sets of keys


def reference_adjoint_pair(ctx1, ctx2, type_map):
    """dir and inv on sets of pool keys, by set derivations on the pairs.

    dir(C) is the target closure of the images of C's keys; inv(D) is the
    set of source keys whose images lie in D.
    """

    def direct(keys):
        images = {type_map[k] for k in keys}
        extent = set_derive_instances(ctx2.instances, ctx2.incidence, images)
        return set_derive_types(ctx2.types, ctx2.incidence, extent)

    def inverse(keys):
        return frozenset(k for k in ctx1.types if type_map[k] in keys)

    return direct, inverse


def pairwise_adjunction(theories1, theories2, direct, inverse):
    """The check over every pair: the first (C1, C2) of key sets at which
    dir(C1) <= C2 and C1 <= inv(C2) disagree (axiom-set inclusion), or
    None when the two maps are adjoint."""
    images = [direct(c1) for c1 in theories1]
    preimages = [inverse(c2) for c2 in theories2]
    for c1, image in zip(theories1, images):
        for c2, preimage in zip(theories2, preimages):
            if (image <= c2) != (c1 <= preimage):
                return c1, c2
    return None


# ---------------------------------------------------------------------------
# The infomorphism, one target model and one row at a time


def oracle_reduct(h: Interpretation, model: Structure) -> Structure:
    """The reduct of a target model, one tuple at a time: a source relation
    holds of ``t`` when its formula, with ``t`` substituted for ``x1..xn``,
    is true by :func:`oracle_satisfies`."""
    ent, const, src = dict(h.ent), dict(h.const), h.source
    carriers = {sort: model.carrier(ent[sort]) for sort in src.entity_types}
    relations = {}
    for name, formula in h.rel_formula:
        relations[name] = []
        for tup in product(*(carriers[sort] for sort in src.profile(name))):
            ground = formula
            for k, elem in enumerate(tup, start=1):
                ground = _subst_var(ground, f"x{k}", _Elem(elem))
            if oracle_satisfies(model, ground):
                relations[name].append(tup)
    constants = {name: model.constant(image) for name, image in const.items()}
    return Structure.make(src, carriers, relations, constants)


def reference_instance_map(h, tc1, tc2) -> list[int]:
    """The source position of each target model's reduct, found by building
    the reduct by ground substitution and looking it up among the source
    models."""
    return [tc1.models.index(oracle_reduct(h, m)) for m in tc2.models]


def reference_rows(ctx: Classification) -> list[int]:
    """Each instance's row, an int over type positions, read from the
    columns cell by cell."""
    return [
        sum((col >> p & 1) << q for q, col in enumerate(ctx._columns)) for p in range(len(ctx.instances))
    ]


def reference_check_infomorphism(a, b, type_map, instance_map) -> InfomorphismCheck:
    """The satisfaction-transfer check by rows: the ``a``-row of each mapped
    instance against the ``b``-row of ``j`` read back through ``type_map``;
    the witness is the first ``b``-instance, then the first ``a``-type,
    where they differ.  The positions are looked up in maps built here."""
    apos = {i: p for p, i in enumerate(a.instances)}
    bpos = {t: q for q, t in enumerate(b.types)}
    image: list[int] = []
    for t in a.types:
        if t not in type_map:
            raise ValueError(f"unmapped type {t!r}")
        if type_map[t] not in bpos:
            raise ValueError(f"type {t!r} maps to unknown {type_map[t]!r}")
        image.append(bpos[type_map[t]])
    source: list[int] = []
    for j in b.instances:
        if j not in instance_map:
            raise ValueError(f"unmapped instance {j!r}")
        if instance_map[j] not in apos:
            raise ValueError(f"instance {j!r} maps to unknown {instance_map[j]!r}")
        source.append(apos[instance_map[j]])
    arows = reference_rows(a)
    for j, p, row in zip(b.instances, source, reference_rows(b)):
        pulled = sum(1 << k for k, q in enumerate(image) if row >> q & 1)
        diff = arows[p] ^ pulled
        if diff:
            return InfomorphismCheck(False, (j, a.types[(diff & -diff).bit_length() - 1]))
    return InfomorphismCheck(True)
