from functools import reduce
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qschur.symgrp import (CompositionBlocks, all_permutations, compose,
                           coset_reps, identity, invert, young_subgroup)
from qschur.tableaux import (MultiShape, Multicomposition, NumericTableau,
                             TypedTableau, addable_nodes, bar_tableau,
                             bracket_leq, bracket_reversed,
                             canonical_tableaux, chi, chi_ge, chi_gt,
                             column_stabilizer, dominance_composition,
                             dominance_multiweight,
                             enumerate_multicompositions, enumerate_ssyt,
                             gamma, gamma_inverse, one_A, remove_node,
                             removable_nodes, row_stabilizer, superstandard,
                             t_lambda_x, w_S, w_lambda, w_of_labelled)

LAM_MIXED = Multicomposition([(3, 1), (2, 1), (2,)])


# -- enumeration --------------------------------------------------------------

def test_multicomposition_counts():
    items = enumerate_multicompositions(2, MultiShape((2, 2)))
    assert len(items) == 10
    assert len(set(w.parts for w in items)) == 10
    assert enumerate_multicompositions(0, MultiShape((2, 2)))[0].n == 0
    assert len(enumerate_multicompositions(0, MultiShape((2, 2)))) == 1
    parts = enumerate_multicompositions(2, MultiShape((2,)), partitions_only=True)
    assert {p.parts for p in parts} == {((2, 0),), ((1, 1),)}


def test_multicomposition_count_formula():
    for n, m in [(2, (2, 2)), (3, (2, 1)), (4, (3,)), (3, (1, 1, 2))]:
        items = enumerate_multicompositions(n, MultiShape(m))
        assert len(items) == comb(n + sum(m) - 1, sum(m) - 1)


def test_dual_examples():
    assert Multicomposition([(3, 2)]).dual().trimmed() == [[2, 2, 1]]
    assert LAM_MIXED.dual().trimmed() == [[1, 1], [2, 1], [2, 1, 1]]
    one_col = Multicomposition([(1, 1, 1)]).dual()
    assert one_col.trimmed() == [[3]]


def test_dual_involution():
    for lam in enumerate_multicompositions(4, MultiShape((3, 2)),
                                           partitions_only=True):
        again = lam.dual().dual()
        assert again.trimmed() == lam.trimmed()


def test_bar_and_bracket():
    assert LAM_MIXED.bar() == (3, 1, 2, 1, 2)
    assert LAM_MIXED.bracket() == (0, 4, 7, 9)
    omega = Multicomposition([(0, 0), (1, 1, 1)], m=(2, 3))
    assert omega.bracket() == (0, 0, 3)
    empty = Multicomposition([(0,), (0,)], m=(1, 1))
    assert empty.bar() == (0, 0)
    assert empty.bracket() == (0, 0, 0)


def test_dominance():
    assert dominance_composition((1, 1), (2, 0))
    assert not dominance_composition((2, 0), (1, 1))
    lam = Multicomposition([(2, 0), (1,)], m=(2, 1))
    assert dominance_multiweight(lam, lam)
    assert bracket_leq((0, 1, 2), (0, 2, 2))
    assert not bracket_leq((0, 2, 2), (0, 1, 2))
    with pytest.raises(ValueError):
        dominance_composition((1, 1), (3,))


@st.composite
def _weight_pairs(draw):
    """Two multicompositions with the same m and n, each dealt its n boxes
    into random slots."""
    m = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = draw(st.integers(0, 6))
    weights = []
    for _ in range(2):
        slots = draw(st.lists(st.integers(0, sum(m) - 1), min_size=n, max_size=n))
        bar = [slots.count(k) for k in range(sum(m))]
        weights.append(Multicomposition(MultiShape(m).split(bar), m=m))
    return weights


@settings(max_examples=300, deadline=None)
@given(_weight_pairs())
def test_dominance_multiweight_is_dominance_of_the_bars(case):
    lam, mu = case
    expected = all(sum(lam.bar()[:k]) >= sum(mu.bar()[:k])
                   for k in range(len(lam.bar()) + 1))
    assert dominance_multiweight(lam, mu) == expected
    assert dominance_composition(mu.bar(), lam.bar()) == expected


def test_split_cuts_a_bar_into_components():
    shape = MultiShape((2, 1, 3))
    assert shape.split((1, 2, 3, 4, 5, 6)) == [(1, 2), (3,), (4, 5, 6)]
    assert shape.split([0, 0, 0, 1, 0, 0]) == [[0, 0], [0], [1, 0, 0]]
    lam = Multicomposition([(2, 0), (0,), (1, 0, 0)], m=(2, 1, 3))
    assert shape.split(lam.bar()) == list(lam.parts)
    assert lam.trimmed() == [[2], [], [1]]


def test_dominance_implies_bracket_order():
    shape = MultiShape((2, 2))
    weights = enumerate_multicompositions(3, shape)
    for lam in weights:
        for mu in weights:
            if dominance_multiweight(lam, mu):
                assert bracket_leq(mu.bracket(), lam.bracket())


# -- canonical tableaux and w_lambda ------------------------------------------

def test_canonical_tableaux_worked_examples():
    sup, sub = canonical_tableaux(LAM_MIXED)
    assert sup.rows == (((1, 2, 3), (4,)), ((5, 6), (7,)), ((8, 9),))
    assert sub.rows == (((6, 8, 9), (7,)), ((3, 5), (4,)), ((1, 2),))
    sup2, sub2 = canonical_tableaux(Multicomposition([(3, 2)]))
    assert sup2.rows == (((1, 2, 3), (4, 5)),)
    assert sub2.rows == (((1, 3, 5), (2, 4)),)


def test_canonical_single_row():
    sup, sub = canonical_tableaux(Multicomposition([(4,)]))
    assert sup == sub


def test_w_lambda_values():
    w, _ = w_lambda(Multicomposition([(3, 2)]))
    assert w == (1, 3, 5, 2, 4)
    w, _ = w_lambda(LAM_MIXED)
    assert w == (6, 8, 9, 7, 3, 5, 4, 1, 2)
    for lam in [Multicomposition([(4,)]), Multicomposition([(1, 1, 1)])]:
        w, _ = w_lambda(lam)
        assert w == identity(lam.n)


def test_w_lambda_factors():
    w, factors = w_lambda(LAM_MIXED)
    blockrev, _ = w_lambda(Multicomposition([(4,), (3,), (2,)], m=(1, 1, 1)))
    assert compose(reduce(compose, factors), blockrev) == w


def test_trivial_intersection_property():
    # w_lam^{-1} S_lam w_lam  meets  S_{lam'} trivially, partitions of n <= 5
    for n in range(1, 6):
        for lam in enumerate_multicompositions(n, MultiShape((n,)),
                                               partitions_only=True):
            w, _ = w_lambda(lam)
            young = young_subgroup(CompositionBlocks(lam.bar()))
            dual_young = set(young_subgroup(
                CompositionBlocks(lam.dual().bar())))
            conj = {compose(compose(invert(w), u), w) for u in young}
            assert conj & dual_young == {identity(n)}


# -- chi matrices ---------------------------------------------------------------

def all_fillings(lam):
    n = lam.n
    sup, _ = canonical_tableaux(lam)
    out = []
    for w in all_permutations(n):
        out.append(sup.act(w))
    return out


def test_chi_example():
    sup, _ = canonical_tableaux(Multicomposition([(2, 1)]))
    assert chi(sup, sup) == ((1, 2, 2), (2, 3, 3), (2, 3, 3))


def test_chi_corner_is_n():
    for lam in [Multicomposition([(2, 2)]), Multicomposition([(3, 1)])]:
        for t in all_fillings(lam)[:6]:
            assert chi(t, t)[-1][-1] == lam.n


def _chi_identity_data(n):
    shapes = enumerate_multicompositions(n, MultiShape((n,)),
                                         partitions_only=True)
    tableaux = []
    for lam in shapes:
        tableaux.extend(all_fillings(lam))
    index = {t: i for i, t in enumerate(tableaux)}
    table = [[chi(t1, t2) for t2 in tableaux] for t1 in tableaux]
    acted = {}
    for w in all_permutations(n):
        acted[w] = [index[t.act(w)] for t in tableaux]
    return tableaux, index, table, acted


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chi_identities_exhaustive(n):
    tableaux, index, table, acted = _chi_identity_data(n)
    perms = all_permutations(n)
    # simultaneous relabelling: chi(t1 w, t2 w) = chi(t1, t2) for every w
    for w in perms:
        relabel = acted[w]
        for i in range(len(tableaux)):
            for j in range(len(tableaux)):
                assert table[relabel[i]][relabel[j]] == table[i][j]
    # chi(t1 w, t2) = chi(t1, t2) for w in the row stabilizer of t1
    for i, t1 in enumerate(tableaux):
        stab = row_stabilizer(t1)
        for w in stab:
            relabel = acted[w]
            for j in range(len(tableaux)):
                assert table[relabel[i]][j] == table[i][j]
    # chi(t1, t2 w) = chi(t1, t2) for w in the column stabilizer of t2
    for j, t2 in enumerate(tableaux):
        stab = column_stabilizer(t2)
        for w in stab:
            relabel = acted[w]
            for i in range(len(tableaux)):
                assert table[i][relabel[j]] == table[i][j]


def test_row_stabilizer_of_canonical_is_young_subgroup():
    lam = Multicomposition([(2, 1)])
    sup, sub = canonical_tableaux(lam)
    assert set(row_stabilizer(sup)) == set(
        young_subgroup(CompositionBlocks((2, 1))))
    assert set(column_stabilizer(sub)) == set(
        young_subgroup(CompositionBlocks((2, 1))))


def test_chi_comparisons():
    sup, sub = canonical_tableaux(Multicomposition([(2, 1)]))
    a = chi(sup, sup)
    assert chi_ge(a, a) and not chi_gt(a, a)


# -- labelled tableaux, w_S, flattening -------------------------------------------

def test_w_of_labelled_worked_example():
    w = (1, 2, 4, 3, 5)
    res = w_of_labelled(w, (3, 2), ((1, 2, 3), (1, 2)), 3)
    assert res == (1, 3, 2, 5, 4)


def test_w_S_identity_on_superstandard():
    shape = MultiShape((2, 2))
    lam = Multicomposition([(1, 1), (1, 0)], m=(2, 2))
    A = superstandard(lam, shape)
    assert one_A(A) == identity(3)


def test_bar_tableau_values():
    shape = MultiShape((2, 2))
    lam = Multicomposition([(1, 0), (1, 0)], m=(2, 2))
    A = TypedTableau(lam, shape, [[[(1, 2)], []], [[(2, 2)], []]])
    comp, rows = bar_tableau(A)
    assert comp == (1, 0, 1, 0)
    assert rows == ((3,), (), (4,), ())


def test_w_S_lands_in_distinguished_set():
    for m, lam_parts in [((4,), [(2, 2)]), ((4,), [(2, 1, 1)]),
                         ((2, 2), [(1, 1), (1, 0)]), ((2, 2), [(2, 0), (1, 1)])]:
        shape = MultiShape(m)
        lam = Multicomposition(lam_parts, m=[max(1, len(c)) for c in lam_parts])
        for A in enumerate_ssyt(lam, shape):
            # 1_A is the shortest element of S_type 1_A S_lam
            d = one_A(A)
            assert d == coset_reps(CompositionBlocks(A.type_weight().bar()), d,
                                   CompositionBlocks(lam.bar()))[0]


def test_bar_of_semistandard_is_row_standard():
    shape = MultiShape((2, 2))
    for lam_parts in [[(2, 0), (1, 1)], [(1, 1), (2, 0)], [(2, 2), (0, 0)]]:
        lam = Multicomposition(lam_parts, m=(2, 2))
        for A in enumerate_ssyt(lam, shape):
            _, rows = bar_tableau(A)
            assert all(all(a <= b for a, b in zip(row, row[1:]))
                       for row in rows)


# -- semistandard enumeration ------------------------------------------------------

def test_ssyt_counts():
    assert len(enumerate_ssyt(Multicomposition([(2,)], m=(2,)),
                              MultiShape((2,)))) == 3
    assert len(enumerate_ssyt(Multicomposition([(1, 1)], m=(2,)),
                              MultiShape((2,)))) == 1
    lam = Multicomposition([(1, 0), (1, 0)], m=(2, 2))
    assert len(enumerate_ssyt(lam, MultiShape((2, 2)))) == 8


def test_ssyt_typed_enumeration():
    lam = Multicomposition([(2,)], m=(2,))
    shape = MultiShape((2,))
    mu = Multicomposition([(1, 1)], m=(2,))
    tabs = enumerate_ssyt(lam, shape, mu)
    assert len(tabs) == 1
    assert tabs[0].entries == ((((1, 1), (2, 1)), ()),)


def test_ssyt_all_semistandard():
    shape = MultiShape((2, 2))
    for lam in enumerate_multicompositions(3, shape, partitions_only=True):
        for A in enumerate_ssyt(lam, shape):
            assert A.is_semistandard()
            assert A.type_weight().n == lam.n


@pytest.mark.parametrize("n,m", [(3, (3, 3)), (2, (2, 2, 2)), (5, (3,)),
                                 (4, (2, 2))])
def test_enumerated_tableaux_equal_the_checked_constructor(n, m):
    # enumerate_ssyt skips the checks of TypedTableau.__init__; each tableau
    # it returns must be the one the checked constructor builds
    shape = MultiShape(m)
    for lam in enumerate_multicompositions(n, shape, partitions_only=True):
        for A in enumerate_ssyt(lam, shape):
            checked = TypedTableau(lam, shape, A.entries)
            assert A == checked and hash(A) == hash(checked)
            assert A.shape is lam and A.bounds is shape
            assert type(A.entries) is tuple and all(
                type(comp) is tuple and all(
                    type(row) is tuple and all(
                        type(sym) is tuple and all(type(x) is int for x in sym)
                        for sym in row) for row in comp)
                for comp in A.entries)


def test_semistandard_rule_against_every_filling():
    # every filling of each multipartition of 3 over (2,2): is_semistandard
    # holds, and enumerate_ssyt lists the filling, exactly when each entry
    # (i, s) has s >= its component and, in the order (s, i), rows weakly
    # and columns strictly increase
    shape = MultiShape((2, 2))
    for lam in enumerate_multicompositions(3, shape, partitions_only=True):
        boxes = lam.boxes()
        listed = set(enumerate_ssyt(lam, shape))
        kept = set()
        for syms in product(shape.symbols(), repeat=len(boxes)):
            at = dict(zip(boxes, syms))
            A = TypedTableau(lam, shape, [
                [[at[(a, b, c)] for b in range(1, w + 1)]
                 for a, w in enumerate(comp, start=1)]
                for c, comp in enumerate(lam.parts, start=1)])
            key = {box: (s, i) for box, (i, s) in at.items()}
            rule = all(
                s >= c
                and key.get((a, b - 1, c), (0, 0)) <= key[(a, b, c)]
                and key.get((a - 1, b, c), (0, 0)) < key[(a, b, c)]
                for (a, b, c), (i, s) in at.items())
            assert A.is_semistandard() == rule == (A in listed), A
            if rule:
                kept.add(A)
        assert kept == listed and kept


def test_superstandard_is_unique_of_its_type():
    shape = MultiShape((3,))
    lam = Multicomposition([(2, 1)], m=(3,))
    assert enumerate_ssyt(lam, shape, lam) == [superstandard(lam, shape)]


# -- nodes ---------------------------------------------------------------------------

def test_removable_nodes_follow_formal_definition():
    lam = Multicomposition([(3, 1), (2, 2), (1,)])
    nodes = removable_nodes(lam)
    # the informal worked example omits (2,2,2); the formal condition
    # includes it
    assert set(nodes) == {(1, 3, 1), (2, 1, 1), (2, 2, 2), (1, 1, 3)}
    assert nodes == [(1, 1, 3), (2, 2, 2), (2, 1, 1), (1, 3, 1)]


def test_removable_single_shapes():
    assert removable_nodes(Multicomposition([(4,)])) == [(1, 4, 1)]
    assert removable_nodes(Multicomposition([(1, 1, 1)])) == [(3, 1, 1)]


def test_addable_nodes():
    lam = Multicomposition([(2, 1)], m=(3,))
    assert set(addable_nodes(lam)) == {(1, 3, 1), (2, 2, 1), (3, 1, 1)}
    empty = Multicomposition([(0, 0)], m=(2,))
    assert addable_nodes(empty) == [(1, 1, 1)]


def test_remove_node():
    lam = Multicomposition([(2, 1)], m=(3,))
    assert remove_node(lam, (1, 2, 1)).parts == ((1, 1, 0),)
    with pytest.raises(ValueError):
        remove_node(lam, (1, 1, 1))


def test_t_lambda_x_examples():
    bounds = MultiShape((2, 2))
    lam = Multicomposition([(1, 0), (1, 0)], m=(2, 2))
    T = t_lambda_x(lam, (1, 1, 2), bounds)
    assert T.entry(1, 1, 1) == (1, 1) and T.entry(1, 1, 2) == (2, 2)
    T2 = t_lambda_x(lam, (1, 1, 1), bounds)
    assert T2.entry(1, 1, 1) == (2, 2) and T2.entry(1, 1, 2) == (1, 2)


def test_t_lambda_x_always_semistandard():
    bounds = MultiShape((4, 4))
    for n in (1, 2, 3):
        for lam in enumerate_multicompositions(n, bounds, partitions_only=True):
            for node in removable_nodes(lam):
                assert t_lambda_x(lam, node, bounds).is_semistandard()


# -- the row-appending embedding --------------------------------------------------------

def test_gamma_examples():
    g = gamma(Multicomposition([(1,), (0,)], m=(1, 1)))
    assert g.parts == ((1,), (0, 1)) and g.m == (1, 2)
    assert gamma_inverse(g).parts == ((1,), (0,))


def test_gamma_injective_and_image():
    src = enumerate_multicompositions(2, MultiShape((2, 1)))
    images = [gamma(w) for w in src]
    assert len({im.parts for im in images}) == len(src)
    for im in images:
        assert im.parts[-1][-1] == 1
        assert gamma_inverse(im).parts == src[images.index(im)].parts


def test_branching_bijection_combinatorial():
    # A -> (marked node, A minus the marked box) is a bijection from the
    # embedded-type semistandard tableaux onto the disjoint union over
    # removable nodes, for n+1 <= 4
    for r, m in [(1, (4,)), (2, (4, 4))]:
        big = MultiShape(m)
        mprime = m[:-1] + (m[-1] - 1,)
        small = MultiShape(mprime)
        top = (m[-1], r)
        for total in range(1, 5):
            for lam in enumerate_multicompositions(total, big,
                                                   partitions_only=True):
                marked = [A for A in enumerate_ssyt(lam, big)
                          if len(A.positions_of(top)) == 1
                          and A.type_weight().parts[-1][-1] == 1]
                buckets = {}
                for A in marked:
                    node = A.positions_of(top)[0]
                    buckets.setdefault(node, []).append(A)
                assert set(buckets) <= set(removable_nodes(lam))
                for node in removable_nodes(lam):
                    lam_small = Multicomposition(
                        [list(c) for c in remove_node(lam, node).parts],
                        m=mprime)
                    stripped = set()
                    for A in buckets.get(node, []):
                        entries = []
                        for c, comp in enumerate(lam_small.parts, start=1):
                            entries.append(
                                [[A.entry(a, b, c) for b in range(1, w + 1)]
                                 for a, w in enumerate(comp, start=1)])
                        stripped.add(TypedTableau(lam_small, small, entries))
                    assert stripped == set(enumerate_ssyt(lam_small, small))


# -- serialization -----------------------------------------------------------------------

def test_multicomposition_json_roundtrip():
    lam = Multicomposition([(3, 1, 0), (2, 1), (2, 0)], m=(3, 2, 2))
    data = lam.to_json()
    assert data == [[3, 1], [2, 1], [2]]
    back = Multicomposition.from_json(data, m=(3, 2, 2))
    assert back == lam


def test_typed_tableau_json_roundtrip():
    shape = MultiShape((2, 2))
    lam = Multicomposition([(1, 1), (0, 0)], m=(2, 2))
    for A in enumerate_ssyt(lam, shape):
        assert TypedTableau.from_json(A.to_json()) == A
