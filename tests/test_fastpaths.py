"""The bitset FCA core and the trusted lattice theories against independent
references: brute-force concepts and covers, derivations on sets of
pairs, order-scanning meets and joins, and closure by the ground
evaluator."""

from __future__ import annotations

import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_closed_theories,
    brute_concepts,
    brute_covers,
    order_join,
    order_meet,
    random_context,
    random_sentence,
    set_derive_instances,
    set_derive_types,
)
from theorylattice.fca import (
    Classification,
    FormalConcept,
    concept_lattice,
    derive_instances,
    derive_types,
    lattice_join,
    lattice_meet,
)
from theorylattice.logic import Signature
from theorylattice.truth import build_truth_classification, closure, theory_lattice


def subsets(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def corpus(seed: int, count: int) -> list[Classification]:
    rng = random.Random(seed)
    out = [Classification(*random_context(rng, 5, 5)) for _ in range(count)]
    return out + [Classification.make([], [], []), Classification.make([1], ["a"], [])]


@st.composite
def contexts(draw):
    instances = tuple(range(draw(st.integers(0, 5))))
    types = tuple("abcdef"[: draw(st.integers(0, 5))])
    pairs = [(i, t) for i in instances for t in types]
    incidence = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    return Classification(instances, types, incidence)


def check_against_references(ctx: Classification) -> None:
    lat = concept_lattice(ctx)
    assert {(c.extent, c.intent) for c in lat.concepts} == brute_concepts(
        ctx.instances, ctx.types, ctx.incidence
    )
    assert lat.covers() == brute_covers(lat.concepts)

    for xs in subsets(ctx.instances):
        assert derive_types(ctx, xs) == set_derive_types(ctx.types, ctx.incidence, xs)
    for ys in subsets(ctx.types):
        assert derive_instances(ctx, ys) == set_derive_instances(ctx.instances, ctx.incidence, ys)

    for i in ctx.instances:
        intent = set_derive_types(ctx.types, ctx.incidence, [i])
        extent = set_derive_instances(ctx.instances, ctx.incidence, intent)
        assert lat.instance_concept(i) == FormalConcept(extent, intent)
    for t in ctx.types:
        extent = set_derive_instances(ctx.instances, ctx.incidence, [t])
        intent = set_derive_types(ctx.types, ctx.incidence, extent)
        assert lat.type_concept(t) == FormalConcept(extent, intent)

    assert lattice_meet(lat, []) == lat.top
    assert lattice_join(lat, []) == lat.bottom
    for c in lat.concepts:
        for d in lat.concepts:
            assert lattice_meet(lat, [c, d]) == order_meet(lat.concepts, lat.leq, c, d)
            assert lattice_join(lat, [c, d]) == order_join(lat.concepts, lat.leq, c, d)


def test_fast_paths_on_random_corpus():
    for ctx in corpus(20261017, 150):
        check_against_references(ctx)


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_fast_paths_on_generated_contexts(ctx):
    check_against_references(ctx)


def test_covers_on_a_boolean_lattice():
    # the complement of equality on 5 points: 2^5 concepts, 5 * 2^4 edges
    n = 5
    ctx = Classification.make(range(n), range(n), [(i, j) for i in range(n) for j in range(n) if i != j])
    lat = concept_lattice(ctx)
    assert lat.covers() == brute_covers(lat.concepts)
    assert len(lat.covers()) == n * 2 ** (n - 1)


def reference_unknown_message(known, ids, what):
    unknown = set(ids) - set(known)
    return f"unknown {what} id {sorted(map(repr, unknown))[0]}"


@pytest.mark.parametrize(
    "ids", [[9], [1, 9], ["x", 9, "y"], [(1, 2)], ["b", "a"]]
)
def test_unknown_id_messages_match_the_set_reference(ids):
    ctx = Classification.make([1, 2, 3], ["a", "b", "c"], [(1, "a"), (2, "b")])
    if set(ids) - set(ctx.instances):
        with pytest.raises(ValueError) as exc:
            derive_types(ctx, ids)
        assert str(exc.value) == reference_unknown_message(ctx.instances, ids, "instance")
    if set(ids) - set(ctx.types):
        with pytest.raises(ValueError) as exc:
            derive_instances(ctx, ids)
        assert str(exc.value) == reference_unknown_message(ctx.types, ids, "type")


def random_truth_case(rng: random.Random):
    sig = Signature(("E",), (("P", ("E",)), ("R", ("E", "E"))), ())
    pool = []
    for _ in range(rng.randint(1, 6)):
        s = random_sentence(rng, sig, depth=rng.randint(1, 3))
        if s not in pool:
            pool.append(s)
    carriers = {"E": ["a", "b"][: rng.randint(1, 2)]}
    return build_truth_classification(sig, pool, carriers=carriers)


def test_closure_and_theory_lattice_match_brute_force_on_random_pools():
    rng = random.Random(4242)
    for _ in range(25):
        tc = random_truth_case(rng)
        want = brute_closed_theories(tc.models, tc.pool)
        lat = theory_lattice(tc)
        assert {t.axioms for t in lat.theories} == want
        assert len(lat.theories) == len(want)
        for axioms in subsets(tc.pool):
            closed = closure(tc, axioms)
            brute = [t for t in want if set(axioms) <= t]
            assert closed.axioms == min(brute, key=len)
            assert closed in lat
