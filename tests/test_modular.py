"""The F_p scalar ring at a rational point, and the certificates built on it.

Reduction mod p at a point is a ring homomorphism, so multiplying over F_p
must agree with multiplying generically and then reducing; the rank
certificates (`AlgebraContext.ranks_at`) rely on that, and rank a block
exactly over Q at the same point when it is short mod p or the point does
not map to F_p.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qschur import cli
from qschur.hecke import AKElement, AlgebraContext
from qschur.linalg import RowSpace, rank_exact
from qschur.ring import (PRIME, FpContext, FpScalar, Specialization,
                         UnmappablePoint)
from qschur.schur import SchurContext

CONTEXTS = {(n, r): AlgebraContext(n, r) for n, r in ((2, 2), (3, 2), (2, 3))}

nonzero = st.integers(-60, 60).filter(bool)
rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 15))


@st.composite
def points(draw, r):
    q = Fraction(draw(nonzero), draw(st.integers(1, 15)))
    return Specialization(q, tuple(draw(rationals) for _ in range(r)))


def residue(x: Fraction) -> FpScalar:
    return FpScalar(x.numerator * pow(x.denominator, -1, PRIME) % PRIME)


def reduce_element(fp_ctx: AlgebraContext, e: AKElement) -> AKElement:
    """The image of a generic element: specialise each coefficient at the
    point, then reduce mod p."""
    spec = fp_ctx.scalars.spec
    terms = {k: residue(v.specialize(spec)) for k, v in e.terms.items()}
    return AKElement(fp_ctx, {k: v for k, v in terms.items() if not v.is_zero()})


@pytest.mark.parametrize("n,r", sorted(CONTEXTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reduce_then_multiply_equals_multiply_then_reduce(n, r, data):
    ctx = CONTEXTS[(n, r)]
    spec = data.draw(points(r))
    fp = ctx.over(FpContext(spec))
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    a, b = ctx.random_element(rng), ctx.random_element(rng)
    j = data.draw(st.integers(0, n - 1))
    ra, rb = reduce_element(fp, a), reduce_element(fp, b)
    assert reduce_element(fp, a * b) == ra * rb
    assert reduce_element(fp, a + b) == ra + rb
    assert reduce_element(fp, a.lmul_gen(j)) == ra.lmul_gen(j)


@pytest.mark.parametrize("n,r", sorted(CONTEXTS))
def test_relations_hold_mod_p(n, r):
    spec = Specialization.random(r, Random(n * 10 + r))
    fp = CONTEXTS[(n, r)].over(FpContext(spec))
    assert all(fp.relation_reports().values())


def test_residues_of_the_point():
    S = FpContext(Specialization(Fraction(2, 3), (Fraction(-5), Fraction(0))))
    assert (S.q() * S.from_int(3)).v == 2
    assert (S.q(-2) * S.q(2)) == S.one()
    assert S.Q(1) == -S.from_int(5) and S.Q(2).is_zero()
    assert S.elementary_symmetric(1) == S.from_int(-5)
    assert S.elementary_symmetric(2).is_zero()
    assert S.q(-1) == residue(Fraction(3, 2))


def test_unmappable_points_are_refused():
    with pytest.raises(UnmappablePoint):
        FpContext(Specialization(Fraction(PRIME), (Fraction(3),)))
    with pytest.raises(UnmappablePoint):
        FpContext(Specialization(Fraction(2), (Fraction(1, 2 * PRIME),)))


def test_rings_do_not_mix(ak22):
    fp = ak22.over(FpContext(Specialization.random(2, Random(0))))
    with pytest.raises(TypeError):
        ak22.one() * 2.5
    with pytest.raises(TypeError):
        ak22.one() * FpScalar(3)
    with pytest.raises(TypeError):
        fp.one() * ak22.scalars.q()
    with pytest.raises(ValueError):
        ak22.one() + fp.one()


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
    groups = sorted(sc.tableaux_by_type(lam).items(), key=lambda kv: kv[0].parts)
    return [rank_exact([sc.basis_vector(lam, mu, A).elem.specialize_vector(spec)
                        for A in As]) for mu, As in groups]


@pytest.mark.parametrize("q", [Fraction(PRIME), Fraction(3 * PRIME, 7)])
def test_basis_falls_back_at_an_unmappable_point(q):
    sc = SchurContext(2, 2, (2, 2))
    spec = Specialization(q, (Fraction(3), Fraction(5, 2)))
    for lam in sc.partitions():
        report = sc.verify_basis_independence(lam, spec=spec)
        ranks = exact_block_ranks(sc, lam, spec)
        assert [b["rank"] for b in report["blocks"]] == ranks
        assert report["rank"] == sum(ranks) == report["count"]
        assert report["certified"] and report["attempts"] == 1


def test_basis_rebuilds_only_the_short_block_exactly(monkeypatch):
    # a block full mod p is never built over the generic ring; a block
    # short mod p is rebuilt generically and ranked at the same point
    sc = SchurContext(2, 2, (2, 2))
    lam = sc.weight([[1, 0], [1, 0]])
    sizes = {mu: len(As) for mu, As in sc.tableaux_by_type(lam).items()}
    short_mu = max(sizes, key=sizes.get)
    assert sizes[short_mu] > 1 and len(sizes) > 1
    builds = Counter()
    fp_points, exact_points = set(), []
    basis_vector = SchurContext.basis_vector
    specialize_vector = AKElement.specialize_vector

    def recording_basis_vector(self, lam, mu, A, algebra=None):
        h = basis_vector(self, lam, mu, A, algebra)
        modular = isinstance(algebra.scalars, FpContext)
        builds[modular, mu] += 1
        if modular:
            fp_points.add(algebra.scalars.spec)
            if mu == short_mu:
                return replace(h, elem=algebra.zero())
        return h

    def recording_specialize_vector(self, spec):
        exact_points.append(spec)
        return specialize_vector(self, spec)

    monkeypatch.setattr(SchurContext, "basis_vector", recording_basis_vector)
    monkeypatch.setattr(AKElement, "specialize_vector", recording_specialize_vector)
    report = sc.verify_basis_independence(lam, seed=4)
    assert report["certified"] and report["attempts"] == 1
    assert builds == Counter({**{(True, mu): k for mu, k in sizes.items()},
                              (False, short_mu): sizes[short_mu]})
    assert len(fp_points) == 1 and exact_points == [*fp_points] * sizes[short_mu]
    assert report["specialization"] == exact_points[0].to_json()


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


@pytest.mark.parametrize("n,r", sorted(CONTEXTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ranks_at_matches_exact_rank_of_generic_elements(n, r, data):
    ctx = CONTEXTS[(n, r)]
    spec = data.draw(points(r) | st.just(
        Specialization(Fraction(PRIME), tuple(range(1, r + 1)))))
    blocks = data.draw(st.lists(recipes(n, r), min_size=1, max_size=3))

    def block(recipe):
        def fill(algebra, add):
            for e in build_block(algebra, recipe):
                add(e)
        return len(recipe), fill

    expected = [rank_exact([e.specialize_vector(spec)
                            for e in build_block(ctx, recipe)])
                for recipe in blocks]
    assert ctx.ranks_at(spec, [block(recipe) for recipe in blocks]) == expected


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
