"""Independent oracles and corpus generators for the test suite.

Everything here recomputes expected values by a different method than
the library: satisfaction by ground substitution, one model at a time,
instead of bitset columns over a model set; structures by filtering the
tuple space per relation instead of decoding a position; concepts by
closing every subset instead of NextClosure,
derivations on sets of pairs instead of bitsets, Hasse edges by scanning
every triple instead of neighbour search, and meets/joins by scanning the
order relation.  Tests freeze fixture
expectations against these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

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
)
from theorylattice.morph import Interpretation, make_interpretation
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


def set_derive_types(types, incidence, xs) -> frozenset:
    """X-prime by scanning the incidence pairs."""
    return frozenset(t for t in types if all((i, t) in incidence for i in xs))


def set_derive_instances(instances, incidence, ys) -> frozenset:
    """Y-prime by scanning the incidence pairs."""
    return frozenset(i for i in instances if all((i, t) in incidence for t in ys))


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
