"""The point rings Q and F_p at a rational point, and the certificates
built on them.

Evaluation at a point, and reduction mod p after it, are ring
homomorphisms, so multiplying over the point ring must agree with
multiplying generically and then specialising (and reducing); every
at-point check relies on that.  The rank certificates
(`AlgebraContext.ranks_at`) rank a block over F_p, and exactly over Q at
the same point when it is short mod p or the point does not map to F_p.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (random_element, rank_exact, specialize,
                      specialize_vector, tableaux_by_type)
from qschur import cli, hecke, schur
from qschur.hecke import AKElement, AlgebraContext
from qschur.linalg import RowSpace
from qschur.ring import PRIME, PointContext, Specialization, UnmappablePoint
from qschur.schur import SchurContext
from qschur.symgrp import all_permutations
from qschur.tableaux import enumerate_multicompositions

CONTEXTS = {(n, r): AlgebraContext(n, r) for n, r in ((2, 2), (3, 2), (2, 3))}

nonzero = st.integers(-60, 60).filter(bool)
rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 15))


@st.composite
def points(draw, r):
    q = Fraction(draw(nonzero), draw(st.integers(1, 15)))
    return Specialization(q, tuple(draw(rationals) for _ in range(r)))


def residue(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def image(point: AlgebraContext, e: AKElement) -> AKElement:
    """The image of a generic element over a point algebra: specialise each
    coefficient at the point, then reduce mod p over F_p."""
    S = point.scalars
    lift = Fraction if S.modulus is None else residue
    terms = {k: lift(specialize(v, S.spec)) for k, v in e.terms.items()}
    return AKElement(point, {k: v for k, v in terms.items() if v})


def check_products_at_point(ctx, modulus, data):
    n, r = ctx.n, ctx.r
    point = ctx.over(PointContext(data.draw(points(r)), modulus))
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    a, b = random_element(ctx, rng), random_element(ctx, rng)
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(-3, 3))
    perms = data.draw(st.lists(st.sampled_from(all_permutations(n)), unique=True))
    ra, rb = image(point, a), image(point, b)
    for generic, at_point in (
            (a * b, ra * rb), (a + b, ra + rb), (-a, -ra), (a - b, ra - rb),
            (a.lmul_gen(j), ra.lmul_gen(j)), (a * ctx.T(j), ra.rmul_gen(j)),
            (a.scale(-ctx.scalars.q(k)), ra.scale(-point.scalars.q(k))),
            (ctx.perm_sum(perms, "signed"), point.perm_sum(perms, "signed"))):
        assert image(point, generic) == at_point
        if modulus is not None:
            # every way to build an element ends in the ring's normal form
            assert all(type(v) is int and 0 < v < PRIME
                       for v in at_point.terms.values())


@pytest.mark.parametrize("n,r", sorted(CONTEXTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reduce_then_multiply_equals_multiply_then_reduce(n, r, data):
    check_products_at_point(CONTEXTS[(n, r)], PRIME, data)


@pytest.mark.parametrize("n,r", sorted(CONTEXTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_specialise_then_multiply_equals_multiply_then_specialise(n, r, data):
    check_products_at_point(CONTEXTS[(n, r)], None, data)


@pytest.mark.parametrize("n,r", sorted(CONTEXTS))
def test_relations_hold_mod_p(n, r):
    spec = Specialization.random(r, Random(n * 10 + r))
    fp = CONTEXTS[(n, r)].over(PointContext(spec, PRIME))
    assert all(fp.relation_reports().values())


def test_values_of_the_point_over_q():
    S = PointContext(Specialization(Fraction(2, 3), (Fraction(-5), Fraction(0))))
    assert S.q(-2) == Fraction(9, 4) and S.Q(1, 3) == -125
    assert S.elementary_symmetric(1) == -5 and not S.elementary_symmetric(2)
    assert all(type(x) is Fraction for x in (S.zero(), S.one(), S.q(), S.Q(2),
                                             S.from_int(3), S.elementary_symmetric(0)))
    assert S.from_rational(Fraction(1, 7)) * S.from_int(7) == S.one()
    with pytest.raises(ValueError):
        PointContext(S.spec, modulus=7)


def test_residues_of_the_point():
    S = PointContext(Specialization(Fraction(2, 3), (Fraction(-5), Fraction(0))),
                     PRIME)
    assert all(type(x) is int and 0 <= x < PRIME
               for x in (S.zero(), S.one(), S.q(), S.q(-1), S.Q(1), S.Q(2),
                         S.from_int(-5), S.elementary_symmetric(1)))
    assert S.q() * S.from_int(3) % PRIME == 2
    assert S.q(-2) * S.q(2) % PRIME == S.one()
    assert S.Q(1) == S.from_int(-5) and not S.Q(2)
    assert S.elementary_symmetric(1) == S.from_int(-5)
    assert not S.elementary_symmetric(2)
    assert S.q(-1) == residue(Fraction(3, 2))


def test_unmappable_points_are_refused():
    with pytest.raises(UnmappablePoint):
        PointContext(Specialization(Fraction(PRIME), (Fraction(3),)), PRIME)
    with pytest.raises(UnmappablePoint):
        PointContext(Specialization(Fraction(2), (Fraction(1, 2 * PRIME),)), PRIME)


def test_rings_do_not_mix(ak22):
    spec = Specialization.random(2, Random(0))
    fp = ak22.over(PointContext(spec, PRIME))
    qp = ak22.over(PointContext(spec))
    with pytest.raises(TypeError):
        ak22.one() * 2.5
    with pytest.raises(TypeError):
        ak22.one() * Fraction(1, 3)
    with pytest.raises(TypeError):
        fp.one() * ak22.scalars.q()
    with pytest.raises(TypeError):
        fp.one() * qp.scalars.q()
    with pytest.raises(ValueError):
        ak22.one() + fp.one()
    with pytest.raises(ValueError):
        qp.one() + fp.one()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
                min_size=1, max_size=5))
def test_row_space_rank_mod_p_matches_bareiss(rows):
    # minors of these matrices are far below p, so no rank is lost mod p
    space = RowSpace(5, modulus=PRIME)
    for row in rows:
        space.add(row)
    assert space.rank == rank_exact(rows)


def exact_block_ranks(sc, lam, spec):
    return [rank_exact([specialize_vector(sc.basis_vector(lam, mu, A), spec)
                        for A in As])
            for mu, As in tableaux_by_type(lam, sc.shape)]


@pytest.mark.parametrize("q", [Fraction(PRIME), Fraction(3 * PRIME, 7)])
def test_basis_falls_back_at_an_unmappable_point(q):
    sc = SchurContext(2, 2, (2, 2))
    spec = Specialization(q, (Fraction(3), Fraction(5, 2)))
    for lam in enumerate_multicompositions(sc.n, sc.shape,
                                           partitions_only=True):
        report = sc.verify_basis_independence(lam, spec=spec)
        ranks = exact_block_ranks(sc, lam, spec)
        assert [b["rank"] for b in report["blocks"]] == ranks
        assert report["rank"] == sum(ranks) == report["count"]
        assert report["certified"] and report["attempts"] == 1


def force_a_short_block(monkeypatch, sc, lam):
    """Record the certificate's builds of each tableau's summands, per
    (over F_p, type), and the points they are built at; over F_p, the
    tableaux of the largest block give no summands, so that block is
    short mod p and is rebuilt over Q.  A tableau's representatives are
    kept by the certificate from its walk to every build, so the walk's
    list tells which tableau, and so which type, a build is for."""
    sizes = {mu: len(As) for mu, As in tableaux_by_type(lam, sc.shape)}
    short_mu = max(sizes, key=sizes.get)
    assert sizes[short_mu] > 1 and len(sizes) > 1
    type_of = {}
    builds = Counter()
    fp_points, exact_points = set(), []
    walk, summands = SchurContext._walk, SchurContext._summands

    def recording_walk(self, lam, A):
        bar, reps = walk(self, lam, A)
        type_of[id(reps)] = A.type_weight()
        return bar, reps

    def recording_summands(self, lam, reps, algebra):
        mu = type_of[id(reps)]
        modular = algebra.scalars.modulus is not None
        builds[modular, mu] += 1
        if modular:
            fp_points.add(algebra.scalars.spec)
            if mu == short_mu:
                return []
        else:
            exact_points.append(algebra.scalars.spec)
        return summands(self, lam, reps, algebra)

    monkeypatch.setattr(SchurContext, "_walk", recording_walk)
    monkeypatch.setattr(SchurContext, "_summands", recording_summands)
    return sizes, short_mu, builds, fp_points, exact_points


def test_basis_rebuilds_only_the_short_block_exactly(monkeypatch):
    # a block full mod p is never built over Q; a block short mod p is
    # rebuilt over Q at the same point and ranked there
    sc = SchurContext(2, 2, (2, 2))
    lam = sc.weight([[1, 0], [1, 0]])
    sizes, short_mu, builds, fp_points, exact_points = force_a_short_block(
        monkeypatch, sc, lam)
    report = sc.verify_basis_independence(lam, seed=4)
    assert report["certified"] and report["attempts"] == 1
    assert builds == Counter({**{(True, mu): k for mu, k in sizes.items()},
                              (False, short_mu): sizes[short_mu]})
    assert len(fp_points) == 1 and exact_points == [*fp_points] * sizes[short_mu]
    assert report["specialization"] == exact_points[0].to_json()


def test_basis_deals_the_representatives_once_per_tableau(monkeypatch):
    # the certificate walks each tableau once and keeps its coset
    # representatives for every algebra it builds over, the Q rebuild of
    # a short block included
    sc = SchurContext(2, 2, (2, 2))
    lam = sc.weight([[1, 0], [1, 0]])
    sizes, short_mu, builds, _, _ = force_a_short_block(monkeypatch, sc, lam)
    dealt = Counter()
    deal = schur.coset_reps

    def counting_coset_reps(left, d, right):
        dealt[left, d, right] += 1
        return deal(left, d, right)

    monkeypatch.setattr(schur, "coset_reps", counting_coset_reps)
    assert sc.verify_basis_independence(lam, seed=4)["certified"]
    assert builds[False, short_mu] == sizes[short_mu]
    assert sum(dealt.values()) == sum(sizes.values()) == len(dealt)


def build_block(algebra, recipe):
    """The elements a recipe describes, built over `algebra`: a sum of
    scaled basis monomials (optionally times a generator), a repeat of an
    earlier element, a sum of two earlier ones, or p times an earlier one
    (zero mod p but not over Q)."""
    S = algebra.scalars
    basis = algebra.basis_monomials()
    elems = []
    for kind, *args in recipe:
        if kind == "terms":
            terms, j = args
            e = algebra.zero()
            for b, k, eq, i in terms:
                e = e + algebra.basis_element(*basis[b]) * (
                    S.from_int(k) * S.q(eq) * (S.Q(i) if i else S.one()))
            if j is not None:
                e = e.lmul_gen(j)
        elif kind == "repeat":
            e = elems[args[0]]
        elif kind == "sum":
            e = elems[args[0]] + elems[args[1]]
        else:
            e = elems[args[0]] * S.from_int(PRIME)
        elems.append(e)
    return elems


@st.composite
def recipes(draw, n, r):
    D = r ** n * factorial(n)
    term = st.tuples(st.integers(0, D - 1), st.integers(-5, 5),
                     st.integers(-2, 2), st.integers(0, r))
    fresh = st.tuples(st.just("terms"), st.lists(term, min_size=1, max_size=3),
                      st.none() | st.integers(0, n - 1))
    recipe = [draw(fresh)]
    for i in range(1, draw(st.integers(1, 5))):
        earlier = st.integers(0, i - 1)
        recipe.append(draw(fresh
                           | st.tuples(st.just("repeat"), earlier)
                           | st.tuples(st.just("sum"), earlier, earlier)
                           | st.tuples(st.just("times_p"), earlier)))
    return recipe


#: r = 1..3; at (4, 2), D = 384 exceeds 16 b + 256 for every block drawn,
#: so a short block passes all three column stages
RANK_CONTEXTS = {**CONTEXTS, **{(n, r): AlgebraContext(n, r)
                                for n, r in ((4, 1), (4, 2))}}


@pytest.mark.parametrize("n,r", sorted(RANK_CONTEXTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ranks_at_matches_exact_rank_of_generic_elements(n, r, data):
    # the staged rank of every block is its rank on all D columns over Q
    ctx = RANK_CONTEXTS[(n, r)]
    spec = data.draw(points(r) | st.just(
        Specialization(Fraction(PRIME), tuple(range(1, r + 1)))))
    blocks = data.draw(st.lists(recipes(n, r), min_size=1, max_size=3))

    def block(recipe):
        def fill(algebra, add):
            one = algebra.scalars.one()
            for e in build_block(algebra, recipe):
                add([(one, e)])
        return len(recipe), fill

    expected = [rank_exact([specialize_vector(e, spec)
                            for e in build_block(ctx, recipe)])
                for recipe in blocks]
    assert ctx.ranks_at(spec, [block(recipe) for recipe in blocks]) == expected


def stage_widths(monkeypatch, ctx, spec, elems):
    """ranks_at of the one block `elems(algebra)`, and the (columns,
    modulus) of each row space it ranks on, in order.  The block's vectors
    are elements, or lists of (scalar, element) pairs left unsummed."""
    widths = []

    class Recording(RowSpace):
        def __init__(self, ncols, modulus=None):
            widths.append((ncols, modulus))
            super().__init__(ncols, modulus)

    def fill(algebra, add):
        one = algebra.scalars.one()
        for e in elems(algebra):
            add(e if isinstance(e, list) else [(one, e)])

    monkeypatch.setattr(hecke, "RowSpace", Recording)
    return ctx.ranks_at(spec, [(len(elems(ctx)), fill)]), widths


def freeness_products(algebra, repeat):
    """v_a T_w for three w, the first again when `repeat`."""
    va = algebra.v_element((0, 2, 4))
    elems = [va * algebra.T(w) for w in all_permutations(4)[:3]]
    return elems + elems[:1] if repeat else elems


def test_a_full_block_is_certified_on_its_first_draw(monkeypatch):
    ctx = RANK_CONTEXTS[(4, 2)]
    spec = Specialization.random(2, Random(8))
    ranks, widths = stage_widths(monkeypatch, ctx, spec,
                                 lambda a: freeness_products(a, False))
    assert ranks == [3] and widths == [(3 + 8, PRIME)]


def test_a_repeated_vector_reaches_every_stage_and_its_exact_rank(monkeypatch):
    # short on b + 8 and 16 b + 256 columns and on all D mod p, so rebuilt
    # over Q and short there on every stage too: the exact rank is reported
    ctx = RANK_CONTEXTS[(4, 2)]
    spec = Specialization.random(2, Random(8))
    ranks, widths = stage_widths(monkeypatch, ctx, spec,
                                 lambda a: freeness_products(a, True))
    D = ctx.dimension()
    assert widths == [(4 + 8, PRIME), (16 * 4 + 256, PRIME), (D, PRIME),
                      (4 + 8, None), (16 * 4 + 256, None), (D, None)]
    exact = rank_exact([specialize_vector(e, spec)
                        for e in freeness_products(ctx, True)])
    assert ranks == [exact] == [3]


def point_rings(monkeypatch):
    """The moduli of the point rings `ranks_at` makes, in order."""
    made = []

    class Recording(PointContext):
        def __init__(self, spec, modulus=None):
            made.append(modulus)
            super().__init__(spec, modulus)

    monkeypatch.setattr(hecke, "PointContext", Recording)
    return made


def one_vector_block(monkeypatch, vector):
    """stage_widths of the block holding the one vector `vector(algebra)`,
    and the moduli of the point algebras it was built over, in order."""
    ctx = RANK_CONTEXTS[(4, 2)]
    spec = Specialization.random(2, Random(8))
    built = []

    def elems(algebra):
        if isinstance(algebra.scalars, PointContext):
            built.append(algebra.scalars.modulus)
        return [vector(algebra)]
    ranks, widths = stage_widths(monkeypatch, ctx, spec, elems)
    return ranks, widths, built


def test_a_one_vector_block_builds_no_row_space(monkeypatch):
    ranks, widths, built = one_vector_block(
        monkeypatch, lambda a: freeness_products(a, False)[0])
    assert ranks == [1] and widths == [] and built == [PRIME]


def p_times(algebra):
    """p e as the pairs (1, e) and (p - 1, e): each summand is nonzero mod
    p, and their sum is zero mod p but not over Q."""
    e = freeness_products(algebra, False)[0]
    S = algebra.scalars
    return [(S.one(), e), (S.from_int(PRIME - 1), e)]


def test_a_one_vector_block_zero_mod_p_is_rebuilt_over_q(monkeypatch):
    made = point_rings(monkeypatch)
    ranks, widths, built = one_vector_block(monkeypatch, p_times)
    assert ranks == [1] and widths == []
    assert built == made == [PRIME, None]


def test_the_zero_vector_ranks_zero_on_both_rings(monkeypatch):
    ranks, widths, built = one_vector_block(monkeypatch, lambda a: a.zero())
    assert ranks == [0] and widths == [] and built == [PRIME, None]


def test_no_q_algebra_is_made_when_every_block_is_full_mod_p(monkeypatch):
    made = point_rings(monkeypatch)
    ranks, widths, built = one_vector_block(
        monkeypatch, lambda a: freeness_products(a, False)[1])
    assert ranks == [1] and made == built == [PRIME]
    made.clear()
    ctx = RANK_CONTEXTS[(4, 2)]
    ranks, widths = stage_widths(monkeypatch, ctx,
                                 Specialization.random(2, Random(8)),
                                 lambda a: freeness_products(a, False))
    assert ranks == [3] and widths == [(3 + 8, PRIME)] and made == [PRIME]


def jm_factor_product(algebra, bracket, Q_index):
    """The product of the factors M_j - Q_{Q_index(i)}, j = 1..bracket[i],
    i = 1..r-1, that make u+ or u-, formed with `*`."""
    out = algebra.one()
    for i in range(1, algebra.r):
        x = algebra.from_scalar(algebra.scalars.Q(Q_index(i)))
        for j in range(1, bracket[i] + 1):
            out = out * (algebra.unscaled_jm(j) - x)
    return out


U_CONTEXTS = {(n, r): AlgebraContext(n, r) for n, r in ((3, 2), (2, 3), (4, 2))}


def check_u_by_l_steps(algebra):
    n, r = algebra.n, algebra.r
    for mids in combinations_with_replacement(range(n + 1), r - 1):
        bracket = (0, *mids, n)
        assert algebra.u_plus(bracket) == \
            jm_factor_product(algebra, bracket, lambda i: i + 1)
        assert algebra.u_minus(bracket) == \
            jm_factor_product(algebra, bracket, lambda i: r - i)


@pytest.mark.parametrize("n,r", sorted(U_CONTEXTS))
def test_u_by_l_steps_equals_the_product_of_its_factors(n, r):
    check_u_by_l_steps(U_CONTEXTS[(n, r)])


@pytest.mark.parametrize("n,r", sorted(U_CONTEXTS))
@pytest.mark.parametrize("modulus", [PRIME, None])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_u_by_l_steps_equals_the_product_of_its_factors_at_a_point(
        n, r, modulus, data):
    ctx = U_CONTEXTS[(n, r)]
    check_u_by_l_steps(ctx.over(PointContext(data.draw(points(r)), modulus)))


def test_closure_falls_back_at_an_unmappable_point(ak22):
    spec = Specialization(Fraction(PRIME), (Fraction(3), Fraction(7)))
    assert ak22.regular_closure_dim(spec=spec) == ak22.dimension()


@pytest.mark.parametrize("q", [Fraction(PRIME), Fraction(PRIME - 1)])
def test_lemma24_freeness_at_degenerate_points(monkeypatch, q):
    # q = p does not map to F_p; q = p - 1 maps to -1
    point = Specialization(q, (Fraction(3), Fraction(7)))
    monkeypatch.setattr(cli.Specialization, "random",
                        classmethod(lambda cls, r, rng: point))
    report = cli._lemma24_report(2, 2, 0, cli._Budget(None), 10_000)
    assert set(report["freeness_ranks"].values()) == {factorial(2)}
    assert report["pass"]
