import sys
from concurrent.futures import ThreadPoolExecutor
from random import Random

import pytest

from conftest import (cellular_hom_dimension, coset_sum, hom_space_images,
                      one_A_reps, one_A_summands, rank_exact,
                      specialize_vector)
from qschur.hecke import Multiples
from qschur.linalg import RowSpace
from qschur.ring import PRIME, PointContext, Specialization
from qschur.schur import (FALLBACK_FLAGS, ConventionError, EFIndex,
                          ModuleElement, SchurContext, _weight_json,
                          validated_ef_conventions, verify_basis_with_fallback)
from qschur.symgrp import compose, invert, length, young_subgroup
from qschur.tableaux import (TypedTableau, enumerate_multicompositions,
                             enumerate_ssyt, one_A, superstandard, w_lambda)

QLEN = dict(m_convention="qlen", y_convention="signed")


def x_module(sc, mu):
    """x_mu over the generic algebra, tagged with its weight."""
    return ModuleElement(mu, sc.x_element(mu))


def test_z_examples(schur21):
    lam2 = schur21.weight([(2,)])
    assert schur21.z_element(lam2) == schur21.algebra.one() + schur21.algebra.T(1)
    lam11 = schur21.weight([(1, 1)])
    z11 = schur21.z_element(lam11)
    assert z11


def test_z_level_two_single_box():
    sc = SchurContext(1, 2, (1, 1))
    lam = sc.weight([(1,), (0,)])
    S = sc.algebra.scalars
    expected = sc.algebra.jucys_murphy(1) - sc.algebra.one().scale(S.Q(2))
    assert sc.z_element(lam) == expected


def test_z_rejects_non_partition(schur21):
    with pytest.raises(ValueError):
        schur21.z_element(schur21.weight([(0, 2)]))


def test_superstandard_vector_is_z(schur22):
    for lam in enumerate_multicompositions(schur22.n, schur22.shape,
                                           partitions_only=True):
        A = superstandard(lam, schur22.shape)
        h = schur22.basis_vector(lam, lam, A)
        assert h == schur22.z_element(lam)


def test_basis_vector_nonzero_and_counts(schur22):
    for lam in enumerate_multicompositions(schur22.n, schur22.shape,
                                           partitions_only=True):
        total = 0
        for A in enumerate_ssyt(lam, schur22.shape):
            vec = schur22.basis_vector(lam, A.type_weight(), A)
            assert vec
            total += 1
        assert total == schur22.weyl_dim_count(lam)


def test_basis_vector_membership(schur22):
    spec = Specialization.random(2, Random(71))
    algebra = schur22.point_algebra(spec)
    lam = schur22.weight([(1,), (1,)])
    for A in enumerate_ssyt(lam, schur22.shape):
        mu = A.type_weight()
        h = schur22.basis_vector(lam, mu, A, algebra)
        assert schur22.certify_membership(ModuleElement(mu, h), spec)
    # an element built over another ring is refused, not misread
    generic = schur22.basis_vector(lam, mu, A)
    with pytest.raises(ValueError):
        schur22.certify_membership(ModuleElement(mu, generic), spec)


def plain_chain(algebra, lam, mu, A):
    """h_A as the plain chain cs_A * u+_{[lam]} * T_{w_lam} * y_{lam'},
    cs_A the sum over the whole double coset, with no per-lambda table."""
    cs = coset_sum(algebra, mu.bar(), one_A(A), lam.bar())
    w, _ = w_lambda(lam)
    return (cs * algebra.u_plus(lam.bracket()) * algebra.T(w)
            * algebra.y_element(lam.dual()))


def check_against_plain_chain(n, r, m, rings, **flags):
    """h_A = sum over d of c(d) T_d z_lam, summed or left as summands,
    against the double-coset sum times u+ T_{w_lam} y_{lam'}."""
    sc = SchurContext(n, r, m, **flags)
    spec = Specialization.random(r, Random(13))
    for ring in rings:
        algebra = sc.algebra if ring == "generic" else sc.algebra.over(
            PointContext(spec, PRIME if ring == "F_p" else None))
        for lam in enumerate_multicompositions(sc.n, sc.shape,
                                               partitions_only=True):
            for A in enumerate_ssyt(lam, sc.shape):
                mu = A.type_weight()
                h = sc.basis_vector(lam, mu, A, algebra)
                assert h.ctx is algebra
                assert h == plain_chain(algebra, lam, mu, A)
                summands = sc.basis_summands(lam, mu, A, algebra)
                assert sum((e.scale(s) for s, e in summands),
                           algebra.zero()) == h


CHAIN_CONFIGS = [(3, 2, (3, 3), ("F_p", "Q")),
                 (2, 3, (2, 2, 2), ("F_p", "Q")),
                 (2, 2, (2, 2), ("generic",)),
                 (5, 1, (3,), ("F_p", "Q", "generic")),
                 (4, 2, (2, 2), ("F_p", "Q", "generic"))]


@pytest.mark.parametrize("n,r,m,rings", CHAIN_CONFIGS)
def test_basis_vector_table_matches_plain_chain(n, r, m, rings):
    check_against_plain_chain(n, r, m, rings)


@pytest.mark.parametrize("n,r,m,rings", CHAIN_CONFIGS)
def test_basis_vector_table_matches_plain_chain_under_fallback_flags(
        n, r, m, rings):
    check_against_plain_chain(n, r, m, rings, m_convention=FALLBACK_FLAGS[0],
                              y_convention=FALLBACK_FLAGS[1])


SUMMAND_CONFIGS = [(3, 2, (3, 3)), (2, 3, (2, 2, 2)), (5, 1, (3,)),
                   (4, 2, (2, 2))]


@pytest.mark.parametrize("flags", [{}, QLEN], ids=["plain", "qlen"])
@pytest.mark.parametrize("n,r,m", SUMMAND_CONFIGS)
def test_basis_summands_match_the_route_through_one_A(n, r, m, flags):
    # the (c(d), T_d z_lam) pairs, in order, against the coset
    # representatives of W_lam 1_A^-1 W_mu and a table of z_lam associated
    # as (x_lam T_{w_lam}) y_{lam'}
    sc = SchurContext(n, r, m, **flags)
    spec = Specialization.random(r, Random(17))
    for algebra in (sc.algebra, sc.algebra.over(PointContext(spec, PRIME))):
        for lam in enumerate_multicompositions(sc.n, sc.shape,
                                               partitions_only=True):
            w, _ = w_lambda(lam)
            table = Multiples(algebra.x_element(lam) * algebra.T(w)
                              * algebra.y_element(lam.dual()))
            for A in enumerate_ssyt(lam, sc.shape):
                mu = A.type_weight()
                assert sc.basis_summands(lam, mu, A, algebra) == \
                    one_A_summands(algebra, lam, mu, A, table)


WALK_CONFIGS = [(3, 2, (3, 3)), (3, 3, (1, 1, 1)), (5, 1, (3,)),
                (4, 2, (2, 2))]


@pytest.mark.parametrize("flags", [{}, QLEN], ids=["plain", "qlen"])
@pytest.mark.parametrize("n,r,m", WALK_CONFIGS)
def test_walk_matches_the_type_and_the_route_through_one_A(n, r, m, flags):
    # one pass over A's boxes gives the bar of A's type and the coset
    # representatives of W_lam 1_A^-1 W_mu, in the order `coset_reps`
    # deals them through the permutation 1_A
    sc = SchurContext(n, r, m, **flags)
    for lam in enumerate_multicompositions(sc.n, sc.shape,
                                           partitions_only=True):
        for A in enumerate_ssyt(lam, sc.shape):
            mu = A.type_weight()
            assert sc._walk(lam, A) == (mu.bar(), one_A_reps(lam, mu, A))


def test_basis_summands_refuse_a_tableau_of_another_lambda_or_mu(schur22):
    lam = schur22.weight([(2,), (0,)])
    A = TypedTableau(lam, schur22.shape, [[[(1, 1), (2, 1)], []], [[], []]])
    mu = A.type_weight()
    bad = TypedTableau(lam, schur22.shape, [[[(2, 1), (1, 1)], []], [[], []]])
    assert bad.type_weight() == mu and not bad.is_semistandard()
    for build in (schur22.basis_summands, schur22.basis_vector):
        build(lam, mu, A)
        with pytest.raises(ValueError, match="does not match"):
            build(lam, schur22.weight([(2,), (0,)]), A)
        with pytest.raises(ValueError, match="does not match"):
            build(lam, SchurContext(2, 2, (3, 1)).weight([(1, 1, 0), (0,)]),
                  A)
        with pytest.raises(ValueError, match="does not match"):
            build(schur22.weight([(1,), (1,)]), mu, A)
        with pytest.raises(ValueError, match="not semistandard"):
            build(lam, mu, bad)


def test_basis_vector_tables_follow_the_algebra_asked_for():
    sc = SchurContext(2, 2, (2, 2))
    spec = Specialization.random(2, Random(5))
    fp = sc.algebra.over(PointContext(spec, PRIME))
    q = sc.algebra.over(PointContext(spec))
    lam = sc.weight([(1,), (1,)])
    A = enumerate_ssyt(lam, sc.shape)[0]
    mu = A.type_weight()
    for algebra in (fp, q, fp, sc.algebra, q):
        h = sc.basis_vector(lam, mu, A, algebra)
        assert h.ctx is algebra
        assert h == plain_chain(algebra, lam, mu, A)
        # the kept record holds one algebra's values at a time
        owner, values = sc._kept
        assert owner is algebra and values
        assert all(value.ctx is algebra for value in values.values())


def test_fp_and_q_at_one_point_never_share_a_value():
    # the F_p and the Q algebra at one point: a memo keyed by the point
    # would hand each the other's x_mu, table or h_A
    sc = SchurContext(2, 2, (2, 2))
    spec = Specialization.random(2, Random(7))
    fp = sc.algebra.over(PointContext(spec, PRIME))
    lam = sc.weight([(1,), (1,)])
    A = enumerate_ssyt(lam, sc.shape)[0]
    mu = A.type_weight()
    for modulus in (PRIME, None, PRIME, None):
        algebra = fp if modulus else sc.point_algebra(spec)
        assert algebra.scalars.modulus == modulus
        x = sc.x_element(mu, algebra)
        table = sc._table(lam, algebra)
        h = sc.basis_vector(lam, mu, A, algebra)
        assert x.ctx is table.ctx is h.ctx is algebra
        assert x == algebra.x_element(mu)
        assert h == plain_chain(algebra, lam, mu, A)


def test_module_span_is_rebuilt_after_another_point():
    sc = SchurContext(2, 2, (2, 2))
    spec1 = Specialization.random(2, Random(11))
    spec2 = Specialization.random(2, Random(12))
    mu = sc.weight([(1,), (1,)])
    first = sc.module_span(mu, spec1)
    algebra = sc.point_algebra(spec1)
    assert sc.module_span(mu, spec1) is first
    assert sc.point_algebra(spec2) is not algebra
    again = sc.module_span(mu, spec1)
    assert again is not first and sc.point_algebra(spec1) is not algebra
    assert again.basis() == first.basis()


def test_basis_vector_tables_under_concurrent_readers():
    # eight threads share one context, asking for h_A over two algebras in
    # turn: they race to swap the kept algebra and to fill one table
    sc = SchurContext(3, 2, (3, 3))
    spec = Specialization.random(2, Random(29))
    algebras = [sc.algebra.over(PointContext(spec, modulus))
                for modulus in (PRIME, None)]
    jobs = [(lam, A, algebras[k % 2])
            for lam in enumerate_multicompositions(sc.n, sc.shape,
                                                   partitions_only=True)
            for k, A in enumerate(enumerate_ssyt(lam, sc.shape))]
    Random(3).shuffle(jobs)
    serial = [plain_chain(algebra, lam, A.type_weight(), A)
              for lam, A, algebra in jobs]

    def work(job):
        lam, A, algebra = job
        return sc.basis_vector(lam, A.type_weight(), A, algebra)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(work, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (_, _, algebra), s, p in zip(jobs, serial, parallel, strict=True):
        assert p.ctx is algebra and p == s


def test_final_slot_is_not_a_ladder_index(schur22):
    # (m_r, r) = (2, 2) has no alpha: refused like every other bad index
    x = x_module(schur22, schur22.weight([(1,), (1,)]))
    assert EFIndex(2, 2) not in schur22.ef_indices()
    for kind, sign in (("E", 1), ("F", -1)):
        with pytest.raises(ValueError, match="not a ladder index"):
            schur22.weight_step(x.weight, EFIndex(2, 2), sign)
        with pytest.raises(ValueError, match="not a ladder index"):
            schur22.ef_apply(EFIndex(2, 2), kind, x)
    with pytest.raises(ValueError):
        schur22.ef_apply(EFIndex(3, 1), "E", x)


def _reference_coset_factor(algebra, target, source, star, reps_side):
    """The reference coset factor, by explicit grouping: split the target
    bar group into right (or left) cosets of its intersection with the
    source bar group, shortest element first, and keep each coset's
    shortest element."""
    tgt = young_subgroup(target.bar())
    src = set(young_subgroup(source.bar()))
    inter = [w for w in tgt if w in src]
    reps = []
    seen = set()
    for w in sorted(tgt, key=lambda w: (length(w), w)):
        if w in seen:
            continue
        if reps_side == "right":
            coset = {compose(h, w) for h in inter}
        else:
            coset = {compose(w, h) for h in inter}
        seen |= coset
        reps.append(w)
    S = algebra.scalars
    out = algebra.zero()
    for x in reps:
        t = algebra.T(invert(x) if star == "inverse" else x)
        out = out + t.scale(S.q(length(x)))
    return out


@pytest.mark.parametrize("config", [(2, 2, (2, 2)), (3, 1, (3,)),
                                    (3, 2, (2, 2)), (2, 3, (2, 2, 2)),
                                    (3, 1, (4,))])
def test_coset_factor_is_the_two_reference_operators(config):
    # the ladder's factor is sum q^{l(x)} T_{x^-1} over right-coset
    # representatives, which is sum q^{l(x)} T_x over left-coset ones: the
    # left-coset representatives are the inverses of the right-coset ones
    sc = SchurContext(*config)
    alg = sc.algebra
    for target in sc.weights():
        for source in sc.weights():
            factor = sc._coset_factor(alg, target, source)
            assert factor == _reference_coset_factor(
                alg, target, source, "inverse", "right")
            assert factor == _reference_coset_factor(
                alg, target, source, "plain", "left")


@pytest.mark.parametrize("config", [(3, 1, (3,)), (3, 2, (1, 2))])
def test_ef_operator_validates_under_fallback_flags_only(config):
    # at n = 3 the ladder operator's images are module homomorphisms under
    # m_convention "qlen" and not under the literal flags, whose failure
    # carries the one operator's report
    n, r, m = config
    rng = Random(1)
    specs = [Specialization.random(r, rng), Specialization.random(r, rng)]
    fallback = SchurContext(n, r, m, *FALLBACK_FLAGS)
    assert validated_ef_conventions(fallback, specs)["validated"]
    with pytest.raises(ConventionError) as err:
        validated_ef_conventions(SchurContext(n, r, m), specs)
    [report] = err.value.reports
    assert report["star"] == "inverse" and not report["validated"]
    assert report["failures"]


def test_weyl_dim_counts(schur21, schur22):
    assert schur21.weyl_dim_count(schur21.weight([(2,)])) == 3
    assert schur21.weyl_dim_count(schur21.weight([(1, 1)])) == 1
    assert schur22.weyl_dim_count(schur22.weight([(1,), (1,)])) == 8


@pytest.mark.parametrize("n,r,m", [(2, 1, (2,)), (3, 1, (3,)),
                                   (2, 2, (2, 2)), (1, 2, (1, 1))])
def test_independence_certified_all_weights(n, r, m):
    sc = SchurContext(n, r, m)
    for lam in enumerate_multicompositions(sc.n, sc.shape,
                                           partitions_only=True):
        rep = sc.verify_basis_independence(lam, seed=0)
        assert rep["certified"], (lam.trimmed(), rep)
        assert rep["rank"] == rep["count"] == sc.weyl_dim_count(lam)


def test_independence_under_fallback_flags():
    sc = SchurContext(2, 2, (2, 2), **QLEN)
    for lam in enumerate_multicompositions(sc.n, sc.shape,
                                           partitions_only=True):
        rep = sc.verify_basis_independence(lam, seed=0)
        assert rep["certified"] and rep["literal_flags"] is False


def test_fallback_driver_reports_flags():
    rep = verify_basis_with_fallback(2, 2, (2, 2), [(1,), (1,)], seed=0)
    assert rep["certified"]
    assert rep["literal_flags"] is True
    assert rep["flags"] == {"m_convention": "plain", "y_convention": "plain"}
    assert FALLBACK_FLAGS == ("qlen", "signed")


def test_ef_zero_out_of_range(schur22):
    for mu in schur22.weights():
        for idx in schur22.ef_indices():
            for kind, sign in (("E", 1), ("F", -1)):
                if schur22.weight_step(mu, idx, sign) is None:
                    assert not schur22.ef_apply(
                        idx, kind, x_module(schur22, mu)).elem


def test_ef_apply_rejects_unknown_kind_on_both_branches(schur22):
    # an invalid kind reads as the F step (sign -1); both the step that
    # leaves the weight set and the one that stays must raise
    left = stayed = 0
    for mu in schur22.weights():
        me = x_module(schur22, mu)
        for idx in schur22.ef_indices():
            if schur22.weight_step(mu, idx, -1) is None:
                left += 1
            else:
                stayed += 1
            with pytest.raises(ValueError):
                schur22.ef_apply(idx, "X", me)
    assert left and stayed


def test_ef_hom_property(schur22):
    for mu in schur22.weights():
        me = x_module(schur22, mu)
        for idx in schur22.ef_indices():
            for kind in ("E", "F"):
                for j in range(schur22.n):
                    moved = ModuleElement(mu, me.elem * schur22.algebra.T(j))
                    lhs = schur22.ef_apply(idx, kind, moved).elem
                    rhs = schur22.ef_apply(idx, kind, me).elem * schur22.algebra.T(j)
                    assert lhs == rhs


def test_ef_conventions_validated(schur22):
    specs = [Specialization.random(2, Random(101)),
             Specialization.random(2, Random(202))]
    rep = schur22.ef_convention_report(specs)
    assert rep["validated"], rep["failures"]
    assert rep["failures"] == []


def test_ef_weight_behaviour(schur22):
    # 1_{mu+alpha} o E o 1_mu == E o 1_mu: the image is tagged mu+alpha
    mu = schur22.weight([(1,), (1,)])
    for idx in schur22.ef_indices():
        out = schur22.ef_apply(idx, "E", x_module(schur22, mu))
        tgt = schur22.weight_step(mu, idx, 1)
        if tgt is not None:
            assert out.weight == tgt


def test_hom_solver_oracle():
    # the cellular tableau count matches the solver under the
    # quasi-idempotent normalisation
    sc = SchurContext(2, 1, (2,), **QLEN)
    spec = Specialization.random(1, Random(5))
    mu, nu = sc.weight([(2,)]), sc.weight([(1, 1)])
    imgs = hom_space_images(sc, mu, nu, spec)
    assert len(imgs) == cellular_hom_dimension(sc, mu, nu) == 1
    imgs_id = hom_space_images(sc, mu, mu, spec)
    assert len(imgs_id) == cellular_hom_dimension(sc, mu, mu) == 1
    space = RowSpace(sc.algebra.dimension())
    for v in imgs_id:
        space.add(v)
    assert space.contains(specialize_vector(sc.x_element(mu), spec))
    # under the plain flags the module is the full algebra and the solver
    # honestly reports the larger dimension
    plain = SchurContext(2, 1, (2,))
    assert len(hom_space_images(plain, mu, nu, spec)) == 2


def test_ef_images_in_solved_space(schur22):
    spec = Specialization.random(2, Random(7))
    for mu in schur22.weights():
        for idx in schur22.ef_indices():
            for kind, sign in (("E", 1), ("F", -1)):
                tgt = schur22.weight_step(mu, idx, sign)
                img = schur22.ef_apply(idx, kind, x_module(schur22, mu)).elem
                if tgt is None:
                    assert not img
                    continue
                if not img:
                    continue
                space = RowSpace(schur22.algebra.dimension())
                for v in hom_space_images(schur22, mu, tgt, spec):
                    space.add(v)
                assert space.contains(specialize_vector(img, spec))


def test_basis_report_schema(schur21):
    rep = schur21.verify_basis_independence(schur21.weight([(2,)]), seed=4)
    for key in ("lambda", "count", "rank", "certified", "flags",
                "literal_flags", "specialization"):
        assert key in rep
    assert rep["flags"] == {"m_convention": "plain", "y_convention": "plain"}
    assert rep["literal_flags"] is True


@pytest.mark.parametrize("config", [(3, 2, (3, 3)), (2, 3, (2, 2, 2)),
                                    (3, 2, (1, 3)), (5, 1, (3,))])
def test_block_weight_json_read_off_the_bar(config):
    # a block's `mu` in the basis report, written from its bar, is the
    # weight's own JSON, trailing and empty components included
    sc = SchurContext(*config)
    for mu in sc.weights():
        assert _weight_json(mu.bar(), sc.m) == mu.to_json()


@pytest.mark.parametrize("config", [(2, 2, (2, 2)), (3, 2, (2, 2))])
def test_module_span_against_generic_products(config):
    # the span closed under the sparse right-multiplication rows, against
    # the Bareiss rank of x_mu * L^c T_w multiplied in the generic algebra
    sc = SchurContext(*config)
    alg = sc.algebra
    specs = [Specialization.random(2, Random(11)),
             Specialization.random(2, Random(12))]
    outcomes = set()
    for mu in sc.weights():
        xmu = sc.x_element(mu)
        products = [xmu * alg.basis_element(c, w)
                    for c, w in alg.basis_monomials()]
        for spec in specs:
            rows = [specialize_vector(e, spec) for e in products]
            rank = rank_exact(rows)
            span = sc.module_span(mu, spec)
            assert span.rank == rank
        # membership of the E/F images landing in mu, at the last point
        for src in sc.weights()[::3]:
            for idx in sc.ef_indices():
                for kind, sign in (("E", 1), ("F", -1)):
                    if sc.weight_step(src, idx, sign) != mu:
                        continue
                    img = sc.ef_apply(idx, kind, x_module(sc, src)).elem
                    vec = specialize_vector(img, spec)
                    inside = rank_exact(rows + [vec]) == rank
                    assert span.contains(vec) == inside
                    outcomes.add(inside)
    assert True in outcomes
