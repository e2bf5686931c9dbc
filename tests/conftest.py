"""Shared fixtures, and the references and random inputs the tests check
the package against: a Bareiss rank for `RowSpace`, one elimination per
pivot row for its one-pass `_reduce` and for the rows its `add` keeps by
back-substitution, a reduced word of a
permutation, term-by-term evaluation of generic scalars and elements for
the at-point rings, the
word-expansion product for both paths of `AKElement.__mul__`, the
per-term exchange formula for the generator tables of `lmul_gen`, the
literal double-coset sum for the h_A of `SchurContext.basis_vector`, the
route through 1_A for its coset representatives, the tableaux grouped by
their type weights for the blocks of the basis certificate, the
closure that steps by every generator for the pruned `AKElement.closure`,
a dense hom-space solver and its tableau count for the E/F images, the
span-membership highest-weight check for the one-expansion
`BranchContext.highest_weight_check`, and random generic scalars and
elements, and elements from coordinates."""

from fractions import Fraction
from math import gcd

import pytest

from qschur.hecke import AKElement, AlgebraContext, _accumulate
from qschur.linalg import RowSpace, _integer_row, nullspace
from qschur.schur import ModuleElement, SchurContext
from qschur.symgrp import coset_reps, double_coset, invert
from qschur.tableaux import (enumerate_multicompositions, enumerate_ssyt, one_A,
                             t_lambda_x)


def rank_exact(matrix) -> int:
    """Exact rank by fraction-free (Bareiss) elimination on integer rows.

    Deterministic: pivots are chosen as the first nonzero entry in
    column-major sweep order.
    """
    rows = [_integer_row(row) for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    nrows = len(rows)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        for i in range(rank + 1, nrows):
            ival = rows[i][col]
            for j in range(col, ncols):
                rows[i][j] = (pval * rows[i][j] - ival * rows[rank][j]) // prev
        prev = pval
        rank += 1
        if rank == nrows:
            break
    return rank


def _eliminate(vec, row, p, modulus):
    """vec with its entry at row's pivot column p cleared by row alone:
    over Q b*vec - a*row with (a, b) = (vec[p], row[p]) / gcd, content
    taken out; over F_p vec - vec[p]*row mod p (row[p] is 1)."""
    if modulus is None:
        g = gcd(vec[p], row[p])
        a, b = vec[p] // g, row[p] // g
        vec = [b * x - a * y for x, y in zip(vec, row)]
        g = gcd(*vec)
        return vec if g <= 1 else [x // g for x in vec]
    f = vec[p]
    return [(x - f * y) % modulus for x, y in zip(vec, row)]


def _entries(vec, modulus):
    """vec as integers over Q (scaled by its denominators' lcm) or as
    residues a * b^-1 mod p over F_p."""
    vec = [Fraction(x) for x in vec]
    if modulus is None:
        return _integer_row(vec)
    return [x.numerator * pow(x.denominator, -1, modulus) % modulus
            for x in vec]


def sequential_reduce(space, vec):
    """vec reduced by the stored rows of `space` one at a time, each hit
    row by an elimination that over Q takes the content out again: the
    reference for `RowSpace._reduce`, which reads every row's multiple off
    vec and takes the content out once."""
    vec = _entries(vec, space.modulus)
    for row, p in zip(space._rows, space._pivots):
        if vec[p]:
            vec = _eliminate(vec, row, p, space.modulus)
    return vec


class SequentialRowSpace:
    """The reference for the rows `RowSpace.add` keeps: a new row is
    reduced by `sequential_reduce`, scaled to a positive primitive (over
    Q) or monic (over F_p) pivot, and back-substituted into each stored
    row by one `_eliminate`."""

    def __init__(self, modulus=None):
        self.modulus = modulus
        self._rows = []
        self._pivots = []

    def add(self, vec) -> bool:
        red = sequential_reduce(self, vec)
        if not any(red):
            return False
        p = next(k for k, x in enumerate(red) if x)
        m = self.modulus
        if m is None:
            g = gcd(*red) if red[p] > 0 else -gcd(*red)
            red = [x // g for x in red]
        else:
            inv = pow(red[p], -1, m)
            red = [x * inv % m for x in red]
        self._rows = [_eliminate(row, red, p, m) if row[p] else row
                      for row in self._rows]
        self._rows.append(red)
        self._pivots.append(p)
        return True


def reduced_word(w):
    """A reduced word [i_1, ..., i_l] with w = s_{i_1} * ... * s_{i_l}."""
    w = list(w)
    word = []
    n = len(w)
    while True:
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                # stripping s_{i+1} off the left shortens w
                word.append(i + 1)
                w[i], w[i + 1] = w[i + 1], w[i]
                break
        else:
            return tuple(word)


def specialize(scalar, spec) -> Fraction:
    """The value of a generic `ExactScalar` at a rational point."""
    if len(spec.Q_values) != scalar.ctx.r:
        raise ValueError(
            f"specialization has {len(spec.Q_values)} Q-values, need {scalar.ctx.r}")
    total = Fraction(0)
    for exps, c in scalar.terms().items():
        v = Fraction(c) * (Fraction(spec.q_value) ** exps[0])
        for Qv, e in zip(spec.Q_values, exps[1:]):
            if e:
                v *= Fraction(Qv) ** e
        total += v
    return total


def specialize_vector(e, spec):
    """The coordinates of a generic element at a rational point, through
    `specialize`: the reference that elements built over a point ring
    (`AKElement.vector`) are compared against."""
    vec = [Fraction(0)] * e.ctx.dimension()
    for k, coeff in e.terms.items():
        vec[k] = specialize(coeff, spec)
    return vec


def from_vector(algebra, vec):
    """The element of `algebra`, over a `PointContext` ring, with the
    coordinates `vec`: the inverse of `AKElement.vector`."""
    lift = algebra.scalars.from_rational
    return AKElement(algebra, _accumulate(
        algebra.scalars, {}, ((k, lift(x)) for k, x in enumerate(vec) if x)))


def word_product(a, b):
    """a * b by word expansion: each term L^c T_w of `a` applies T_w to `b`
    as its reduced word, one generator at a time, then the L_i one at a
    time, and the scaled results are added up.  The reference for both
    paths of `AKElement.__mul__`: Horner in the L_i over the T_w b of one
    `hecke.Multiples` table, and that table's L^c T_w b."""
    a.ctx.compatible(b.ctx)
    out = a.ctx.zero()
    n = a.ctx.n
    for (c, w), coeff in a.sorted_terms():
        e = b
        for j in reversed(reduced_word(w)):
            e = e.lmul_gen(j)
        for i in range(n, 0, -1):
            for _ in range(c[i - 1]):
                e = e._lmul_L(i)
        out = out + e.scale(coeff)
    return out


def lmul_term(ctx, j, c, w):
    """T_j * (L^c T_w) as a term dict keyed by (c', w'), by the exchange
    formula term by term: the reference for `AKElement.lmul_gen`, which
    reads its terms off one table per generator."""
    S = ctx.scalars

    def pairs():
        if j == 0:
            c1 = c[0] + 1
            if c1 < ctx.r:
                yield ((c1,) + c[1:], w), S.one()
                return
            # L_1^r = e_1 L_1^{r-1} - e_2 L_1^{r-2} + ... -+ e_r
            for k in range(1, ctx.r + 1):
                coeff = S.elementary_symmetric(k)
                yield ((ctx.r - k,) + c[1:], w), coeff if k % 2 else -coeff
            return
        A, B = ctx.exchange(c[j - 1], c[j])
        up = w[j - 1] < w[j]
        wswap = w[:j - 1] + (w[j], w[j - 1]) + w[j + 1:]
        cq = S.q(1) - S.q(-1)
        for (x, y), coeff in A.items():
            ck = c[:j - 1] + (x, y) + c[j + 1:]
            # T_j T_w: either lengths add or the quadratic relation fires
            yield (ck, wswap), coeff
            if not up:
                yield (ck, w), coeff * cq
        for (x, y), coeff in B.items():
            yield (c[:j - 1] + (x, y) + c[j + 1:], w), coeff

    return _accumulate(S, {}, pairs())


def coset_sum(algebra, left_comp, d, right_comp):
    """Sum of T_w over the double coset S_left d S_right, any d in it, with
    the algebra's m-convention weighting: the literal definition, the
    reference for the coset representative sums of `basis_vector`."""
    return algebra.perm_sum(double_coset(left_comp, d, right_comp),
                            algebra.m_convention)


def one_A_reps(lam, mu, A):
    """`coset_reps` of W_lam 1_A^-1 W_mu from the bars, through the
    permutation 1_A: the reference for the representatives that
    `SchurContext._walk` deals."""
    return coset_reps(lam.bar(), invert(one_A(A)), mu.bar())


def one_A_summands(algebra, lam, mu, A, table):
    """The pairs (c(d), T_d z_lam) of `SchurContext.basis_summands` by the
    route through the permutation 1_A: `one_A_reps`, each inverted, and
    their `perm_sum` c_A; each term c(d) T_d of c_A gives (c(d), T_d
    z_lam), the product read from `table`, a `Multiples` of z_lam over
    `algebra`."""
    cs = algebra.perm_sum([invert(x) for x in one_A_reps(lam, mu, A)],
                          algebra.m_convention)
    one = algebra.scalars.one()
    return [(coeff, table.left(AKElement(algebra, {k: one})))
            for k, coeff in cs.terms.items()]


def tableaux_by_type(lam, shape):
    """The semistandard lam-tableaux grouped by `type_weight`, the groups
    in the order of the weights' parts: the blocks of the basis
    certificate, by the definition of a tableau's type."""
    groups = {}
    for A in enumerate_ssyt(lam, shape):
        groups.setdefault(A.type_weight(), []).append(A)
    return sorted(groups.items(), key=lambda kv: kv[0].parts)


def hom_space_images(sc, mu, nu, spec):
    """Basis of images-of-x_mu for Hom(M^mu, M^nu) at the point, for the
    `SchurContext` sc: a dense D x D solver, the reference the E/F images
    and `cellular_hom_dimension` are checked against.

    An image v must lie in the nu ideal and satisfy v * Ann(x_mu) = 0;
    the second condition makes h -> v h well defined on x_mu H."""
    algebra = sc.point_algebra(spec)
    D = algebra.dimension()
    x = sc.x_element(mu, algebra)
    # annihilator of x_mu: kernel of h -> x_mu h (columns = x_mu * b_j)
    cols = [(x * algebra.basis_element(c, w)).vector()
            for (c, w) in algebra.basis_monomials()]
    ann = nullspace([[cols[j][i] for j in range(D)] for i in range(D)], D)
    span_nu = sc.module_span(nu, spec).basis()
    if not span_nu:
        return []
    # constrain coefficients t with sum_i t_i (u_i * a) = 0 for all a,
    # where a = sum_j a_j b_j runs over the annihilator
    us = [from_vector(algebra, u) for u in span_nu]
    rows = []
    for a in ann:
        a_elem = from_vector(algebra, a)
        prods = [(u * a_elem).vector() for u in us]
        for coord in range(D):
            rows.append([prods[i][coord] for i in range(len(span_nu))])
    ts = nullspace(rows, len(span_nu))
    images = []
    for t in ts:
        v = [Fraction(0)] * D
        for ti, u in zip(t, span_nu):
            if ti:
                v = [x + ti * y for x, y in zip(v, u)]
        images.append(v)
    return images


def cellular_hom_dimension(sc, mu, nu) -> int:
    """Tableau-counting prediction for dim Hom(M^mu, M^nu)."""
    total = 0
    for lam in enumerate_multicompositions(sc.n, sc.shape,
                                           partitions_only=True):
        total += (len(enumerate_ssyt(lam, sc.shape, nu))
                  * len(enumerate_ssyt(lam, sc.shape, mu)))
    return total


def span_highest_weight_check(bc, i, spec) -> dict:
    """`bc.highest_weight_check(i, spec)` by span membership: each raising
    image of the layer's marked vector is tested against a fresh row space
    of the deeper labels of its weight."""
    node = bc.nodes[i - 1]
    X = t_lambda_x(bc.lam, node, bc.big.shape)
    tau = X.type_weight()
    hX = ModuleElement(tau, bc.basis_element(tau, X, spec))
    deeper = [lab for lab in bc.restriction_labels()
              if bc.layer_index(lab[1]) >= i + 1]
    checks = []
    certified = True
    for idx in bc.small_ef_indices():
        image = bc.big.ef_apply(idx, "E", hX)
        entry = {"idx": [idx.i, idx.k]}
        if not image.elem:
            entry["status"] = "zero_exact"
        else:
            span = RowSpace(bc.big.algebra.dimension())
            for mu, A in deeper:
                if mu == image.weight:
                    span.add(bc.basis_element(mu, A, spec).vector())
            inside = span.contains(image.elem.vector())
            entry["status"] = "in_deeper_span" if inside else "FAILED"
            certified = certified and inside
        checks.append(entry)
    return {"layer": i, "node": list(node), "tau": tau.to_json(),
            "checks": checks, "certified": certified}


def unpruned_closure(seed, step, add) -> None:
    """The closure of `seed` under `step(e, j)` for every generator j and
    every accepted element, with no step skipped: the reference for
    `AKElement.closure`, which leaves out the steps the relations span."""
    add(seed)
    queue = [seed]
    while queue:
        e = queue.pop()
        for j in range(seed.ctx.n):
            f = step(e, j)
            if add(f):
                queue.append(f)


def random_scalar(ctx, rng, max_terms: int = 4,
                  coeff_bound: int = 9, exp_bound: int = 3):
    """A random generic scalar of the `ScalarContext` ctx."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = (rng.randint(-exp_bound, exp_bound),) + tuple(
            rng.randint(0, exp_bound) for _ in range(ctx.r))
        terms[exps] = terms.get(exps, 0) + rng.randint(-coeff_bound, coeff_bound)
    return ctx.from_terms(terms)


def random_element(ctx, rng, max_terms: int = 3):
    """A random element of the generic `AlgebraContext` ctx."""
    out = ctx.zero()
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randrange(ctx.dimension())
        out = out + AKElement(ctx, {k: random_scalar(ctx.scalars, rng)})
    return out


@pytest.fixture(scope="session")
def ak22():
    return AlgebraContext(2, 2)


@pytest.fixture(scope="session")
def ak32():
    return AlgebraContext(3, 2)


@pytest.fixture(scope="session")
def ak23():
    return AlgebraContext(2, 3)


@pytest.fixture(scope="session")
def schur22():
    return SchurContext(2, 2, (2, 2))


@pytest.fixture(scope="session")
def schur21():
    return SchurContext(2, 1, (2,))
