from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reduced_word
from qschur.symgrp import (CompositionBlocks, all_permutations, compose,
                           coset_reps, double_coset, double_cosets,
                           identity, invert, length, transposition,
                           young_subgroup)


def test_length_examples():
    assert length((1, 2, 3)) == 0
    assert length((2, 1)) == 1
    assert length((3, 2, 1)) == 3


def test_compose_convention():
    # (u*v)(p) = v(u(p)): u acts first; with this reading s2*s1 is the
    # distinguished coset representative below
    s1, s2 = transposition(3, 1), transposition(3, 2)
    assert compose(s1, s2) == (3, 1, 2)
    assert compose(s2, s1) == (2, 3, 1)


def test_invert():
    assert invert((2, 3, 1)) == (3, 1, 2)
    w = (4, 1, 3, 2)
    assert compose(w, invert(w)) == identity(4)


def test_size_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


@given(st.permutations(range(1, 6)))
def test_length_of_reduced_word(perm):
    w = tuple(perm)
    word = reduced_word(w)
    assert len(word) == length(w)
    acc = identity(5)
    for i in word:
        acc = compose(acc, transposition(5, i))
    assert acc == w


def test_length_changes_by_one():
    for w in all_permutations(4):
        for i in range(1, 4):
            assert abs(length(compose(w, transposition(4, i))) - length(w)) == 1


def test_young_subgroup_examples():
    assert set(young_subgroup(CompositionBlocks((3,)))) == set(all_permutations(3))
    assert young_subgroup(CompositionBlocks((1, 1, 1))) == [identity(3)]
    assert set(young_subgroup(CompositionBlocks((2, 1)))) == {(1, 2, 3), (2, 1, 3)}


def test_young_subgroup_size():
    for comp in [(2, 2), (3, 1), (1, 2, 1), (2, 1, 1)]:
        bl = CompositionBlocks(comp)
        expected = 1
        for part in comp:
            expected *= factorial(part)
        assert len(young_subgroup(bl)) == expected


def left_coset_reps(bl):
    """The shortest element of each left coset S_blocks w in S_n."""
    return coset_reps(bl, identity(bl.n), CompositionBlocks((bl.n,)))


def test_coset_reps_examples():
    assert left_coset_reps(CompositionBlocks((3,))) == [identity(3)]
    assert left_coset_reps(CompositionBlocks((1, 1))) == [(1, 2), (2, 1)]
    # {id, s2, s2*s1}, the first the shortest
    s1, s2 = transposition(3, 1), transposition(3, 2)
    assert left_coset_reps(CompositionBlocks((2, 1))) == \
        [identity(3), s2, compose(s2, s1)]


def check_coset_factorization(comp):
    """Every w in S_n is u x for exactly one u in S_blocks and one x in
    `coset_reps`, with lengths adding."""
    bl = CompositionBlocks(comp)
    factors = {}
    for u in young_subgroup(bl):
        for x in left_coset_reps(bl):
            w = compose(u, x)
            assert w not in factors
            assert length(u) + length(x) == length(w)
            factors[w] = (u, x)
    assert set(factors) == set(all_permutations(bl.n))


def test_coset_factorization_unique():
    for comp in [(2, 1), (1, 2), (2, 2), (1, 1, 2), (3, 1), (2, 1, 1)]:
        check_coset_factorization(comp)


def test_coset_factorization_n5():
    check_coset_factorization((3, 2))


def test_double_cosets_trivial_cases():
    full = double_cosets(CompositionBlocks((3,)), CompositionBlocks((3,)))
    assert len(full) == 1
    rep, members = full[0]
    assert rep == identity(3) and len(members) == 6

    singletons = double_cosets(CompositionBlocks((1, 1, 1)),
                               CompositionBlocks((1, 1, 1)))
    assert len(singletons) == 6
    assert all(len(m) == 1 for _, m in singletons)


def test_double_cosets_partition_and_minimality():
    for left, right in [((2, 1), (1, 2)), ((2, 2), (2, 2)), ((2, 1), (2, 1))]:
        dcs = double_cosets(CompositionBlocks(left), CompositionBlocks(right))
        n = sum(left)
        seen = set()
        for rep, members in dcs:
            assert rep in members
            assert min(length(x) for x in members) == length(rep)
            assert not (seen & members)
            seen |= members
        assert len(seen) == factorial(n)


def compositions(n, cuts):
    """The composition of n cut at the given points of 0..n; a repeated
    cut, or a cut at 0 or n, gives a zero part."""
    cuts = sorted(cuts)
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


def all_products_cosets(left, right):
    """Each permutation's double coset by the all-products comprehension,
    the reference for `double_coset`; computed once per double coset."""
    lgrp, rgrp = young_subgroup(left), young_subgroup(right)
    found = {}
    for d in all_permutations(left.n):
        if d not in found:
            coset = {compose(compose(u, d), v) for u in lgrp for v in rgrp}
            found.update(dict.fromkeys(coset, coset))
    return found


def check_double_coset(left, right):
    lb, rb = CompositionBlocks(left), CompositionBlocks(right)
    for d, coset in all_products_cosets(lb, rb).items():
        assert double_coset(lb, d, rb) == coset, (left, d, right)


def test_double_coset_equals_all_products_small():
    # every pair of compositions of n <= 3 into at most n + 1 parts
    for n in range(1, 4):
        comps = {compositions(n, cuts) for k in range(n + 1)
                 for cuts in product(range(n + 1), repeat=k)}
        for left in comps:
            for right in comps:
                check_double_coset(left, right)
    with pytest.raises(ValueError):
        double_coset(CompositionBlocks((2,)), identity(3), CompositionBlocks((3,)))


def compositions_of(n):
    return st.lists(st.integers(0, n), max_size=n).map(
        lambda cuts: compositions(n, cuts))


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 5).flatmap(
    lambda n: st.tuples(compositions_of(n), compositions_of(n))))
def test_double_coset_equals_all_products(pair):
    check_double_coset(*pair)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(compositions_of(n), compositions_of(n))))
def test_coset_reps_deal_each_left_coset_once(pair):
    lb, rb = (CompositionBlocks(c) for c in pair)
    for d, coset in all_products_cosets(lb, rb).items():
        reps = coset_reps(lb, d, rb)
        assert len(set(reps)) == len(reps)
        assert double_coset(lb, d, rb) == coset
        shortest = min(length(x) for x in coset)
        assert [x for x in coset if length(x) == shortest] == [reps[0]]
