"""Exact arithmetic in the Ariki-Koike algebra on its normal-form basis.

Elements are stored as sparse combinations of basis monomials
L_1^{c_1} ... L_n^{c_n} T_w with 0 <= c_i < r and w a permutation, each
keyed by its position k in `basis_monomials`: k = (index of c in
product(range(r), repeat=n)) * n! + (index of w in `all_permutations`).
Both enumerations are lexicographic, so int order is (c, w) order, and
printing sorts the ints and decodes each by arithmetic: c is the base-r
digits of k // n!, w the permutation whose Lehmer code is k mod n!.  One
pass over the Lehmer code of w gives both its key and its length
(`_perm_key`), and `AlgebraContext.perm_terms` is the one place that
pairs the key of T_w with a weight c(w), 1, q^{l(w)} or (-q)^{-l(w)}:
`perm_sum`, the basis summands of `schur` and its ladder factor all read
their keys and weights there.  The multiplication primitive is left
multiplication by a single generator, done as arithmetic on the keys:

  * T_0 = L_1 adds the stride of c_1; the cyclotomic relation
    (L_1 - Q_1)...(L_1 - Q_r) = 0 rewrites an overflowing power.
  * T_j (j >= 1) is pushed right through the L-part with a precomputed
    exchange table for T_j L_j^a L_{j+1}^b (a Bernstein-Lusztig-style
    string formula whose output exponents never exceed max(a, b)), then
    absorbed into the T-part by the standard-basis rule.

Each generator has one table per context, built once from these rules: per
index of c, and per w(j) < w(j+1), a row of (key offset, swapped, scalar),
merged and in the ring's normal form.  Whether w(j) < w(j+1), and the
change swap_j[w] - w of the index that a swapped term adds, depend only on
the Lehmer digits of w at places j and j + 1, so they are read from a
table of (n - j + 1)(n - j) entries per generator, kept once per n
(`_perm_steps`).  No table of the n! permutations is kept, and only
`basis_monomials` lists them.

The Jucys-Murphy elements L_i commute, so L_i * L^c T_w is the single
monomial L^{c+e_i} T_w, the key plus the stride n! r^(n-i), unless the
exponent c_i overflows; only then is L_i applied as its generator word
q^{-(i-1)} T_{i-1}..T_1 T_0 T_1..T_{i-1}, once per key, kept in an
int-keyed memo.  An L_i step (`_lmul_L`) shifts the keys that do not
overflow into one dict, sends only the others through `_termwise` on
their memo rows, and merges the two by `_accumulate`.  The context keeps
one `Multiples(T_j)` per generator for right multiplication: its entry
(L^c T_w) T_j is made from a shorter one, so terms share prefixes.

Sparse sums go through one helper, `_accumulate`, which adds (key,
scalar) pairs into a term dict and drops keys that cancel.  Multiplying
term by term (`AKElement._termwise`) keeps its own copy of that loop
inline: it is the innermost loop of every product, and the extra call per
term made basis certification measurably slower.  `lmul_gen` keeps one
more, with its table read inline, for the same reason.  These two test
only a sum for zero: a product of nonzero values is nonzero in every ring
(over F_p, as plain ints).  Every path that finishes a term dict hands it
to the ring's `normal`, so equal elements have equal term dicts in every
ring; a generator table row is finished so once, for all the terms read
off it.

General products a * b, a the sum of alpha_{c,w} L^c T_w, put the
commuting L_i on the left: a * b is the sum over c of L^c Y_c, where Y_c
is the sum of alpha_{c,w} T_w b over the T-parts w under the L-part c,
read from the T-entries of one `Multiples(b)` table (each T_w b one T_j
step from a shorter one).  The sum over c is evaluated by Horner in L_n,
..., L_1 (`AlgebraContext._jm_horner`), so an L_i step acts once on a
partial sum rather than once on each term's own chain; the L_i commute,
so every nesting gives the same element.  This path is taken only when
two terms of a share an L-part; every other product, and right
multiplication by a generator, reads each L^c T_w b off a `Multiples`
table (see there).  Nothing is kept between products.  Correctness is
established by the relation / associativity / closure-dimension test
suite rather than by a confluence proof.  One closure routine,
`AKElement.closure`, serves the closure dimension (left steps from 1) and
the module spans of `schur` (right steps from x_mu).  It skips a second
T_j (j >= 1) in a row and an r-th T_0 in a row, whose results the
quadratic relation T_j^2 = (q - q^-1) T_j + 1 and the cyclotomic relation
already span.

Coefficients come from a scalar ring passed to the context (default: the
generic ring `ScalarContext(r)`).  The engine uses only the `ScalarRing`
protocol of `ring`: the constructors zero / one / from_int / q / Q /
elementary_symmetric, the test is_scalar and the finishing step normal on
the ring, and + - * neg and the truth value (false at zero) on its
elements, so the plain `Fraction`s and ints of the rings at a point serve
as they are.  Any ring with that protocol works.  The generic ring
parses, prints and computes; every check at a rational point builds its
elements over `PointContext`, the image of the generic ring at the point.
The module spans and branching checks build over Q
(`SchurContext.point_algebra`) and read `vector()`.  `ranks_at` is the
one rank certificate at a point, used by the closure dimension, the basis
certificate in `schur` and the lemma-2.4 freeness ranks: it builds each
block over F_p at the point, where a full rank is a full rank at the point
because reduction is a ring homomorphism, and rebuilds only a block short
mod p (or every block, when the point does not map to F_p) over Q to rank
it exactly, making the algebra over Q only then.  A block of one vector
has rank 1 exactly when some coordinate on the keys of its terms is
nonzero (`_is_nonzero`).  A larger build is read through `_coordinates`,
on random column subsets first, a projection that can only lose rank
too, and on all columns only when those come out short.

A context and the elements created under it are safe for concurrent read
use from multiple threads: the generator tables and the exchange table
are filled once under the context's lock and only read after that, and
the L_i memo and the `Multiples` entries fill without one, concurrent
fills storing equal values.
"""

from __future__ import annotations

import json
import re
import threading
from functools import lru_cache
from itertools import product
from math import factorial
from random import Random

from .linalg import ResourceLimit, RowSpace
from .ring import (PRIME, PointContext, ScalarContext, ScalarRing,
                   Specialization, UnmappablePoint)
from .symgrp import all_permutations, transposition, young_subgroup
from .tableaux import Multicomposition, bracket_reversed, w_lambda

__all__ = ["AlgebraContext", "AKElement", "Multiples"]


def _accumulate(scalars: ScalarRing, out: dict, pairs) -> dict:
    """Add each (key, scalar) pair into `out`, dropping keys whose sum is
    zero; returns the ring's `normal` form of the result."""
    for key, scal in pairs:
        prev = out.get(key)
        cur = scal if prev is None else prev + scal
        if not cur:
            out.pop(key, None)
        else:
            out[key] = cur
    return scalars.normal(out)


def _perm_key(w) -> tuple:
    """(the index of w in `all_permutations`, l(w)), read from one pass
    over the Lehmer code of w: its digit at i is the place of w(i) among
    the values not yet read, and l(w) is the sum of the digits."""
    n = len(w)
    pool = list(range(1, n + 1))
    key = lw = 0
    for i, v in enumerate(w):
        digit = pool.index(v)
        del pool[digit]
        key = key * (n - i) + digit
        lw += digit
    return key, lw


def _perm_unrank(n: int, k: int) -> tuple:
    """The permutation at index k of `all_permutations(n)`."""
    pool, w = list(range(1, n + 1)), []
    for i in range(n - 1, -1, -1):
        d, k = divmod(k, factorial(i))
        w.append(pool.pop(d))
    return tuple(w)


@lru_cache(maxsize=None)
def _perm_steps(n: int):
    """Per generator j, how T_j moves the index of a permutation w: (div,
    mod, pairs), where index // div % mod = a (n - j) + b, a and b the
    Lehmer digits of w at places j and j + 1, and pairs[a (n - j) + b] is
    (w(j) < w(j+1), index of swap_j w minus index of w).  T_0 leaves w
    alone."""
    out = [(1, 1, ((False, 0),))]
    for j in range(1, n):
        hi, lo = factorial(n - j), factorial(n - j - 1)
        # w(j) < w(j+1) iff a <= b; the swap makes the digits (b + 1, a),
        # or (b, a - 1) when w(j) > w(j+1)
        out.append((lo, (n - j + 1) * (n - j), tuple(
            (True, (b + 1 - a) * hi + (a - b) * lo) if a <= b
            else (False, (b - a) * hi + (a - 1 - b) * lo)
            for a in range(n - j + 1) for b in range(n - j))))
    return out


def _coordinates(vec, cols, pos) -> list:
    """The entries on the keys `cols` (`pos[key]` is each one's place, or
    None off them) of the sum of scalar * element over the (scalar,
    element) pairs `vec`, unreduced; each pair is read by its terms or by
    the keys, whichever is fewer."""
    row = [0] * len(cols)
    for scal, e in vec:
        terms = e.terms
        if len(terms) < len(cols):
            for key, v in terms.items():
                i = pos[key]
                if i is not None:
                    row[i] += scal * v
        else:
            for i, key in enumerate(cols):
                v = terms.get(key)
                if v is not None:
                    row[i] += scal * v
    return row


def _is_nonzero(vec, modulus) -> bool:
    """Whether the sum of scalar * element over the (scalar, element)
    pairs `vec` is nonzero (mod `modulus`, when it is not None): the keys
    of the elements' terms are the only candidates, and each one's
    coordinate is summed in turn until one is nonzero."""
    seen = set()
    for _, e in vec:
        for key in e.terms:
            if key in seen:
                continue
            seen.add(key)
            x = 0
            for scal, f in vec:
                v = f.terms.get(key)
                if v is not None:
                    x += scal * v
            if x % modulus if modulus else x:
                return True
    return False


class AlgebraContext:
    """Shared data for one Ariki-Koike algebra: rank n, level r, the
    scalar ring, and the two convention flags.

    m_convention: weighting of Young-subgroup sums ("plain" = unit
    coefficients, "qlen" = q^{l(w)}).  y_convention: weighting of the
    sums used on the y-side ("plain", or "signed" = (-q)^{-l(w)}).
    scalars: the coefficient ring, `ScalarContext(r)` when omitted.
    """

    def __init__(self, n: int, r: int,
                 m_convention: str = "plain", y_convention: str = "plain",
                 scalars: ScalarRing | None = None):
        if n < 1 or r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        if m_convention not in ("plain", "qlen"):
            raise ValueError(f"unknown m_convention {m_convention!r}")
        if y_convention not in ("plain", "signed"):
            raise ValueError(f"unknown y_convention {y_convention!r}")
        self.n = n
        self.r = r
        self.m_convention = m_convention
        self.y_convention = y_convention
        if scalars is None:
            scalars = ScalarContext(r)
        elif scalars.r != r:
            raise ValueError(f"scalar ring has r={scalars.r}, need r={r}")
        self.scalars = scalars
        self._nperms = factorial(n)
        self._steps = _perm_steps(n)
        # the key stride of c_i, i = 1..n
        self._strides = tuple(self._nperms * r ** (n - i)
                              for i in range(1, n + 1))
        self._lock = threading.RLock()
        self._exchange = {}      # (a, b) -> (A, B) monomial dicts
        self._gen_tables = {}    # j -> rows of `_gen_rows`
        # per i, overflowing key -> tuple of (key, scalar) of L_i * key
        self._lmul_L_terms = [{} for _ in range(n)]
        self._rmul_tables = {}   # j -> Multiples(T_j)

    # -- bookkeeping -----------------------------------------------------

    def compatible(self, other: "AlgebraContext"):
        if self is other:
            return
        if (self.n, self.r, self.m_convention, self.y_convention,
                self.scalars) != (other.n, other.r, other.m_convention,
                                  other.y_convention, other.scalars):
            raise ValueError("algebra contexts differ")

    def over(self, scalars: ScalarRing) -> "AlgebraContext":
        """The same algebra (n, r, flags) over another scalar ring."""
        return AlgebraContext(self.n, self.r, self.m_convention,
                              self.y_convention, scalars=scalars)

    def dimension(self) -> int:
        return self.r ** self.n * factorial(self.n)

    def basis_monomials(self):
        """All (c, w) in (c, w) order; the position of each is its key."""
        perms = all_permutations(self.n)
        return [(c, w) for c in product(range(self.r), repeat=self.n)
                for w in perms]

    def _key(self, c, w) -> int:
        """The key of L^c T_w: its position in `basis_monomials`."""
        c, w = tuple(int(x) for x in c), tuple(w)
        if len(c) != self.n or any(not 0 <= e < self.r for e in c):
            raise ValueError(f"bad exponent vector {c}")
        if sorted(w) != list(range(1, self.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.n}")
        return _perm_key(w)[0] + sum(e * s for e, s in zip(c, self._strides))

    def _monomial(self, k: int):
        """The (c, w) of the key k, by arithmetic on it."""
        return (tuple(k // s % self.r for s in self._strides),
                _perm_unrank(self.n, k % self._nperms))

    # -- element constructors ---------------------------------------------

    def zero(self) -> "AKElement":
        return AKElement(self, {})

    def basis_element(self, c, w) -> "AKElement":
        return AKElement(self, {self._key(c, w): self.scalars.one()})

    def one(self) -> "AKElement":
        return AKElement(self, {0: self.scalars.one()})

    def T(self, arg) -> "AKElement":
        """T_w for a permutation, or the generator T_j for an index."""
        if isinstance(arg, int):
            if arg == 0:
                return self.jucys_murphy(1)
            return self.basis_element((0,) * self.n,
                                      transposition(self.n, arg))
        return self.basis_element((0,) * self.n, tuple(arg))

    def jucys_murphy(self, i: int) -> "AKElement":
        """L_i: the basis monomial L^{e_i}, or for r = 1 its reduction by
        the cyclotomic relation."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self.one()._lmul_L(i)

    def unscaled_jm(self, i: int) -> "AKElement":
        """The unscaled commuting family M_1 = T_0, M_i = T_{i-1} M_{i-1}
        T_{i-1}, i.e. M_i = q^{i-1} L_i.

        Symmetric polynomials in the M_i commute with the Iwahori-Hecke
        subalgebra under this presentation's quadratic relation; the L_i
        rescaling destroys that, and with it the vanishing lemma for the
        u-products.  The u / x / y / v elements are therefore built from
        the M_i: each factor M_j - x of u+ and u- as q^{j-1} (L_j -
        q^{1-j} x) (see `_jm_product`).
        """
        return self.jucys_murphy(i).scale(self.scalars.q(i - 1))

    def from_scalar(self, s) -> "AKElement":
        return self.one().scale(s)

    # -- exchange table -----------------------------------------------------

    def exchange(self, a: int, b: int):
        """T_j L_j^a L_{j+1}^b = sum A[(x,y)] L_j^x L_{j+1}^y T_j
                                 + sum B[(x,y)] L_j^x L_{j+1}^y.

        Built by the two one-step rules
            T u = q v T - (q^2 - 1) v,   T v = q^-1 u T + (q - q^-1) v,
        which close on monomials with exponents bounded by max(a, b).
        """
        with self._lock:
            cached = self._exchange.get((a, b))
            if cached is not None:
                return cached
            S = self.scalars
            q1 = S.q(1)
            qm1 = S.q(-1)
            csq = S.q(2) - S.one()            # q^2 - 1
            cqq = q1 - qm1                    # q - q^-1
            A = {(0, 0): S.one()}
            B = {}

            def shifted(table, dx, dy, scal):
                return [((x + dx, y + dy), coeff * scal)
                        for (x, y), coeff in table.items()]

            for _ in range(a):
                A, B = (_accumulate(S, {}, shifted(A, 0, 1, q1)),
                        _accumulate(S, {}, shifted(A, 0, 1, -csq)
                                    + shifted(B, 1, 0, S.one())))
            for _ in range(b):
                A, B = (_accumulate(S, {}, shifted(A, 1, 0, qm1)),
                        _accumulate(S, {}, shifted(A, 0, 1, cqq)
                                    + shifted(B, 0, 1, S.one())))

            bound = max(a, b)
            for table in (A, B):
                for (x, y) in table:
                    if x > bound or y > bound:
                        raise AssertionError(
                            f"exchange table escaped its string bound at {(a, b)}")
            self._exchange[(a, b)] = (A, B)
            return A, B

    # -- generator tables -------------------------------------------------------

    def _gen_table(self, j: int):
        """The rows of T_j (`_gen_rows`), built once per context."""
        table = self._gen_tables.get(j)
        if table is None:
            with self._lock:
                table = self._gen_tables.get(j)
                if table is None:
                    table = self._gen_tables[j] = self._gen_rows(j)
        return table

    def _gen_rows(self, j: int):
        """T_j * (L^c T_w) for every key: per index of c, the pair of rows
        for w(j) > w(j+1) and for w(j) < w(j+1), each a tuple of (key
        offset, swapped, scalar), one term each, its key the key of L^c T_w
        plus the offset, plus swap_j[w] - w when swapped; merged and in the
        ring's normal form.  A row depends only on (c_j, c_{j+1}) (on c_1
        for T_0), so the rows are shared."""
        S, r, strides = self.scalars, self.r, self._strides
        rows = {}
        if j == 0:
            # L_1^r = e_1 L_1^{r-1} - e_2 L_1^{r-2} + ... -+ e_r
            cyc = _accumulate(S, {}, (
                (r - k, S.elementary_symmetric(k) if k % 2
                 else -S.elementary_symmetric(k)) for k in range(1, r + 1)))
            wrap = tuple(((x - r + 1) * strides[0], False, s)
                         for x, s in cyc.items())
            bump = ((strides[0], False, S.one()),)
            for a in range(r):
                rows[a,] = (bump, bump) if a + 1 < r else (wrap, wrap)
        else:
            cq = S.q(1) - S.q(-1)
            for a, b in product(range(r), repeat=2):
                A, B = self.exchange(a, b)

                def offset(x, y):
                    return (x - a) * strides[j - 1] + (y - b) * strides[j]
                pair = []
                for up in (False, True):
                    pairs = []
                    for xy, coeff in A.items():
                        # T_j T_w: either lengths add or the quadratic
                        # relation fires
                        pairs.append(((offset(*xy), True), coeff))
                        if not up:
                            pairs.append(((offset(*xy), False), coeff * cq))
                    pairs += [((offset(*xy), False), coeff)
                              for xy, coeff in B.items()]
                    pair.append(tuple((off, swap, s) for (off, swap), s
                                      in _accumulate(S, {}, pairs).items()))
                rows[a, b] = tuple(pair)
        lo = j - 1 if j else 0
        return [rows[c[lo:j + 1]]
                for c in product(range(r), repeat=self.n)]

    def _lmul_L_word(self, i: int, k: int):
        """L_i * (L^c T_w), k its key, as a tuple of (key, scalar), through
        the generator word of L_i."""
        # L_i = q^{-(i-1)} T_{i-1}..T_1 T_0 T_1..T_{i-1}
        e = AKElement(self, {k: self.scalars.one()})
        for j in list(range(i - 1, 0, -1)) + [0] + list(range(1, i)):
            e = e.lmul_gen(j)
        return tuple(e.scale(self.scalars.q(1 - i)).terms.items())

    def _jm_horner(self, parts: dict) -> "AKElement":
        """The sum of L^c Y_c over the pairs (index of c, Y_c) of `parts`,
        by Horner in L_n, then L_{n-1}, ..., then L_1; the L_i commute, so
        every nesting gives the same element."""
        r = self.r
        for i in range(self.n, 0, -1):
            # per index of (c_1, ..., c_{i-1}): the sum so far and its c_i
            acc = {}
            for c in sorted(parts, reverse=True):
                prefix, e = divmod(c, r)
                y = parts[c]
                if prefix in acc:
                    x, d = acc[prefix]
                    for _ in range(d - e):
                        x = x._lmul_L(i)
                    y = x + y
                acc[prefix] = (y, e)
            parts = {}
            for prefix, (x, e) in acc.items():
                for _ in range(e):
                    x = x._lmul_L(i)
                parts[prefix] = x
        return parts[0]

    # -- distinguished elements ----------------------------------------------

    def perm_terms(self, perms, weight) -> list:
        """The pairs (c(w), key of T_w), one per permutation of `perms` and
        in its order, where c(w) is 1 for the weight "plain", q^{l(w)} for
        "qlen" and (-q)^{-l(w)} for "signed"."""
        S = self.scalars
        if weight == "plain":
            one = S.one()
            return [(one, _perm_key(w)[0]) for w in perms]
        if weight == "qlen":
            return [(S.q(lw), key) for key, lw in map(_perm_key, perms)]
        if weight == "signed":
            return [(-S.q(-lw) if lw % 2 else S.q(-lw), key)
                    for key, lw in map(_perm_key, perms)]
        raise ValueError(f"unknown weight {weight!r}")

    def perm_sum(self, perms, weight) -> "AKElement":
        """Sum of c(w) T_w over the distinct permutations `perms`, c(w) as
        in `perm_terms`."""
        return AKElement(self, self.scalars.normal(
            {key: c for c, key in self.perm_terms(perms, weight)}))

    def young_sum(self, composition, weight=None) -> "AKElement":
        """Sum of T_w over the Young subgroup, with the context's
        m-convention weighting unless an explicit weight is requested."""
        return self.perm_sum(young_subgroup(composition),
                             weight or self.m_convention)

    def _check_bracket(self, bracket):
        bracket = tuple(int(x) for x in bracket)
        if len(bracket) != self.r + 1 or bracket[0] != 0 or bracket[-1] != self.n:
            raise ValueError(f"bad bracket {bracket} for (n={self.n}, r={self.r})")
        if any(a > b for a, b in zip(bracket, bracket[1:])):
            raise ValueError(f"bracket {bracket} is not monotone")
        return bracket

    def _jm_product(self, bracket, Q_index) -> "AKElement":
        """The product over i = 1..r-1 of pi_{a_i}(Q_{Q_index(i)}), a_i =
        bracket[i] and pi_a(x) = (M_1 - x)(M_2 - x)...(M_a - x), built
        factor by factor on the left: M_j - x = q^{j-1} (L_j - q^{1-j} x)
        is one L_j step less a scaled copy, and the powers of q are
        collected into one scale at the end.  The M_j commute, so this is
        the product in any order."""
        bracket = self._check_bracket(bracket)
        S = self.scalars
        out, shift = self.one(), 0
        for i in range(1, self.r):
            x = S.Q(Q_index(i))
            for j in range(1, bracket[i] + 1):
                out = out._lmul_L(j) - out.scale(x * S.q(1 - j))
                shift += j - 1
        return out.scale(S.q(shift)) if shift else out

    def u_plus(self, bracket) -> "AKElement":
        """u+_a, the product over i of pi_{a_i}(Q_{i+1})."""
        return self._jm_product(bracket, lambda i: i + 1)

    def u_minus(self, bracket) -> "AKElement":
        """u-_a, the product over i of pi_{a_i}(Q_{r-i})."""
        return self._jm_product(bracket, lambda i: self.r - i)

    def v_element(self, bracket) -> "AKElement":
        """v_a = u+_a T_{w_a} u-_{a'} with w_a the block-reversal element."""
        bracket = self._check_bracket(bracket)
        sizes = [bracket[i + 1] - bracket[i] for i in range(self.r)]
        wa, _ = w_lambda(Multicomposition([(s,) for s in sizes], m=(1,) * self.r))
        return self.u_plus(bracket) * self.T(wa) * self.u_minus(bracket_reversed(bracket))

    def x_element(self, lam: Multicomposition) -> "AKElement":
        """x_lam = u+_{[lam]} * m_{bar lam}."""
        if lam.n != self.n or lam.r != self.r:
            raise ValueError("weight does not match the algebra context")
        return self.u_plus(lam.bracket()) * self.young_sum(lam.bar())

    def y_element(self, lam: Multicomposition) -> "AKElement":
        """y_lam = u-_{[lam]} * (y-convention sum over the bar shape)."""
        if lam.n != self.n:
            raise ValueError("weight does not match the algebra context")
        return self.u_minus(lam.bracket()) * self.young_sum(
            lam.bar(), weight=self.y_convention)

    def m_element(self, lam: Multicomposition) -> "AKElement":
        """The Young-subgroup sum of a multicomposition's bar."""
        return self.young_sum(lam.bar())

    # -- global sanity oracle --------------------------------------------------

    def regular_closure_dim(self, seed: int = 0, spec: Specialization | None = None,
                            max_dim: int = 10_000) -> int:
        """Dimension of the span of all generator products starting from 1,
        at a generic specialization.  Must equal r^n * n!."""
        D = self.dimension()
        if D > max_dim:
            raise ResourceLimit(f"closure dimension {D} exceeds limit {max_dim}")
        if spec is None:
            spec = Specialization.random(self.r, Random(seed))

        def fill(algebra, add):
            one = algebra.scalars.one()
            algebra.one().closure(AKElement.lmul_gen, lambda e: add([(one, e)]))
        return self.ranks_at(spec, [(D, fill)])[0]

    def ranks_at(self, spec: Specialization, blocks) -> list[int]:
        """Rank at the rational point `spec` of each block of vectors.

        A block is a pair (size, fill): `fill(algebra, add)` builds the
        block's vectors over `algebra` and passes each to `add` as a list
        of (scalar, element) pairs, the vector being the sum of scalar *
        element.  The basis vectors of `schur` come as h_A = sum over d of
        c(d) T_d z_lam: the pairs (c(d), T_d z_lam), read from one table
        per lam, so no h_A is summed.

        Every block is built once over F_p at the point; a block short
        there, or every block when the point does not map to F_p, is built
        once over Q at the point, and the algebra over Q is made only when
        a block first needs it.  A block of one vector (with D > 1) has
        rank 1 exactly when the vector is not zero: its coordinates on the
        keys of its pairs' terms are summed in turn, reduced mod p over
        F_p, until one is nonzero, with no column draw and no `RowSpace`.
        A block of 1 < b < D vectors (D the dimension) is ranked on
        min(b + 8, D) columns, then on 16 b + 256, then on all D; the
        columns are drawn from a `Random` seeded by the point's JSON, and a
        coordinate is summed from the pairs' terms on its key, so nothing
        dense is formed before the last stage.
        Projection onto columns, like evaluation and reduction, is linear
        and can only lose rank, so a rank of b at any stage is the rank at
        the point; a block short on all D columns over Q is ranked exactly.
        A block of D vectors or more (a closure) is ranked on all D columns
        as it is built, and there `add` returns whether the span grew.
        """
        try:
            modular = self.over(PointContext(spec, PRIME))
        except UnmappablePoint:
            modular = None
        exact = None
        rng = Random(json.dumps(spec.to_json()))
        ranks = []
        for size, fill in blocks:
            rank = -1
            if modular is not None:
                rank = self._block_rank(modular, size, fill, rng)
            if rank < size:
                if exact is None:
                    exact = self.over(PointContext(spec))
                rank = self._block_rank(exact, size, fill, rng)
            ranks.append(rank)
        return ranks

    def _block_rank(self, algebra, size, fill, rng) -> int:
        """The rank over `algebra` of one `ranks_at` block, by its stages;
        one vector has rank 1 exactly when it is not zero."""
        D, modulus = self.dimension(), algebra.scalars.modulus
        keys = range(D)
        if size >= D:
            space = RowSpace(D, modulus)
            fill(algebra, lambda vec: space.add(_coordinates(vec, keys, keys)))
            return space.rank
        vectors = []
        fill(algebra, vectors.append)
        if size == 1:
            return int(_is_nonzero(vectors[0], modulus))
        for k in (size + 8, 16 * size + 256, D):
            if k < D:
                cols, pos = sorted(rng.sample(keys, k)), [None] * D
                for i, key in enumerate(cols):
                    pos[key] = i
            else:
                k, cols, pos = D, keys, keys
            space = RowSpace(k, modulus)
            for vec in vectors:
                space.add(_coordinates(vec, cols, pos))
            if space.rank == size or k == D:
                return space.rank

    def relation_reports(self) -> dict:
        """Each defining relation checked as an identity of left
        multiplication operators on every basis monomial."""
        S = self.scalars
        q1, qm1 = S.q(1), S.q(-1)
        names = ["cyclotomic", "quadratic", "braid_zero", "braid_adjacent",
                 "commute_far_T0", "commute_far"]
        results = {name: True for name in names}
        n = self.n
        # (relation, word, word) with equal products; braid_zero needs n >= 2
        words = [("braid_zero", [0, 1, 0, 1], [1, 0, 1, 0])][:n - 1]
        words += [("braid_adjacent", [i, i + 1, i], [i + 1, i, i + 1])
                  for i in range(1, n - 1)]
        words += [("commute_far_T0", [0, j], [j, 0]) for j in range(2, n)]
        words += [("commute_far", [i, j], [j, i])
                  for i in range(1, n) for j in range(i + 2, n)]

        def word_apply(idxs, e):
            for j in reversed(idxs):
                e = e.lmul_gen(j)
            return e

        for key in range(self.dimension()):
            b = AKElement(self, {key: S.one()})
            e = b
            for k in range(self.r, 0, -1):
                e = e.lmul_gen(0) - e * S.Q(k)
            if e:
                results["cyclotomic"] = False
            for i in range(1, self.n):
                ti = b.lmul_gen(i)
                if ti.lmul_gen(i) - ti * (q1 - qm1) - b:
                    results["quadratic"] = False
            for name, u, v in words:
                if word_apply(u, b) != word_apply(v, b):
                    results[name] = False
        return results

    # -- parsing ------------------------------------------------------------

    _TERM = re.compile(
        r"\((?P<coeff>[^()]*)\)\s*\*\s*(?P<ls>(?:L\d+\^\d+\*?)+)\s*\*\s*"
        r"T\[(?P<w>[\d,\s]*)\]")

    def parse(self, text: str) -> "AKElement":
        text = text.strip()
        if text == "0":
            return self.zero()
        terms = []
        matches = list(self._TERM.finditer(text))
        rebuilt = " + ".join(m.group(0) for m in matches)
        if not matches or rebuilt != text:
            raise ValueError(f"bad element text {text!r}")
        for mt in matches:
            coeff = self.scalars.parse(mt.group("coeff"))
            c = [0] * self.n
            for piece in mt.group("ls").split("*"):
                lm = re.match(r"^L(\d+)\^(\d+)$", piece)
                if not lm:
                    raise ValueError(f"bad L factor {piece!r}")
                c[int(lm.group(1)) - 1] = int(lm.group(2))
            w = tuple(int(x) for x in mt.group("w").split(","))
            terms.append((self._key(c, w), coeff))
        return AKElement(self, _accumulate(self.scalars, {}, terms))

    def from_json(self, data) -> "AKElement":
        if isinstance(data, str):
            data = json.loads(data)
        pairs = [(self._key(t["c"], (int(x) for x in t["w"])),
                  self.scalars.from_json(t["coeff"])) for t in data["terms"]]
        return AKElement(self, _accumulate(self.scalars, {}, pairs))

    def __repr__(self):
        return (f"AlgebraContext(n={self.n}, r={self.r}, "
                f"m={self.m_convention!r}, y={self.y_convention!r})")


class Multiples:
    """The left multiples L^c T_w b of one element b, each one step from a
    shorter one: T_w b = T_j (T_{s_j w} b), j the first descent of w, and
    L^c T_w b = L_i (L^{c-e_i} T_w b), i the first index with c_i > 0.
    Filled lazily; concurrent fills store equal values.

    When two terms of a share an L-part, `AKElement.__mul__` reads only
    the T-entries T_w b and applies the L_i by Horner.  The L-entries are
    still read, through `left` and `summands`, in two cases.  A product
    whose terms each have their own L-part (a JM polynomial such as u+,
    which multiplies m_lambda T_{w_lambda} y_lambda' into z_lambda, or a
    single monomial) merges no L_i step under Horner, and measured slower
    there.  A table that lives across calls, the context's
    `Multiples(T_j)` of `rmul_gen` and the per-lambda `Multiples(z_lambda)`
    of `schur`, makes each L-entry once and then only reads it, where
    Horner would redo its L_i steps on every call."""

    def __init__(self, b: "AKElement"):
        self.ctx = b.ctx
        self._entries = {0: b}

    def _entry(self, k: int) -> "AKElement":
        """L^c T_w b, k the key of L^c T_w."""
        e = self._entries.get(k)
        if e is None:
            ctx = self.ctx
            if k < ctx._nperms:
                # j the first descent of w, where T_j shortens T_w
                for j, (div, mod, pairs) in enumerate(ctx._steps):
                    up, swap = pairs[k // div % mod]
                    if j and not up:
                        break
                e = self._entry(k + swap).lmul_gen(j)
            else:
                # the first c_i > 0 has the largest stride not above k
                i = next(i for i, s in enumerate(ctx._strides) if s <= k)
                e = self._entry(k - ctx._strides[i])._lmul_L(i + 1)
            self._entries[k] = e
        return e

    def left(self, a: "AKElement") -> "AKElement":
        """a * b, one pass over the terms of `a`."""
        a.ctx.compatible(self.ctx)
        return a._termwise(lambda k: self._entry(k).terms.items())

    def summands(self, terms):
        """a * b left unsummed, a the sum of coeff L^c T_w over the pairs
        (coeff, key of L^c T_w) `terms`: the pairs (coeff, L^c T_w b)."""
        return [(coeff, self._entry(k)) for coeff, k in terms]


class AKElement:
    """A normal-form element; immutable after construction."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- ring structure -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "AKElement") -> "AKElement":
        self.ctx.compatible(other.ctx)
        return AKElement(self.ctx, _accumulate(
            self.ctx.scalars, dict(self.terms), other.terms.items()))

    def __neg__(self):
        return AKElement(self.ctx, self.ctx.scalars.normal(
            {k: -v for k, v in self.terms.items()}))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "AKElement":
        if isinstance(scalar, int):
            scalar = self.ctx.scalars.from_int(scalar)
        if not scalar:
            return self.ctx.zero()
        if scalar is self.ctx.scalars.one():
            return self
        return AKElement(self.ctx, self.ctx.scalars.normal(
            {k: v * scalar for k, v in self.terms.items()}))

    def __mul__(self, other):
        if not isinstance(other, AKElement):
            if self.ctx.scalars.is_scalar(other):
                return self.scale(other)
            return NotImplemented
        table, ctx = Multiples(other), self.ctx
        # the T-parts of self under each L-part c, keyed by the index of c
        parts = {}
        for k, coeff in self.terms.items():
            parts.setdefault(k // ctx._nperms, {})[k % ctx._nperms] = coeff
        if len(parts) == len(self.terms):
            return table.left(self)
        return ctx._jm_horner({c: table.left(AKElement(ctx, part))
                               for c, part in parts.items()})

    def __rmul__(self, other):
        if self.ctx.scalars.is_scalar(other):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AKElement):
            return NotImplemented
        self.ctx.compatible(other.ctx)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- generator multiplication --------------------------------------------

    def lmul_gen(self, j: int) -> "AKElement":
        """Left multiplication by the generator T_j (T_0 = L_1)."""
        ctx = self.ctx
        if not 0 <= j <= ctx.n - 1:
            raise ValueError(f"generator index {j} out of range")
        rows, nperms = ctx._gen_table(j), ctx._nperms
        div, mod, steps = ctx._steps[j]
        # the loop of `_termwise`, with the table read inline: a call per
        # term to build its pairs made the `basis` benchmark 6% slower
        # (10 of 10 alternating pairs; BENCH_index_terms.json)
        one = ctx.scalars.one()
        out = {}
        for k, coeff in self.terms.items():
            # div * mod divides n!, so k // div % mod reads w's digits
            up, swap = steps[k // div % mod]
            for off, swapped, scal in rows[k // nperms][up]:
                key = k + off + swap if swapped else k + off
                cur = (coeff if scal is one else scal if coeff is one
                       else coeff * scal)
                prev = out.get(key)
                if prev is None:
                    out[key] = cur
                elif cur := prev + cur:
                    out[key] = cur
                else:
                    del out[key]
        return AKElement(ctx, ctx.scalars.normal(out))

    def rmul_gen(self, j: int) -> "AKElement":
        """Right multiplication by the generator T_j (T_0 = L_1), read from
        the context's `Multiples(T_j)`."""
        if not 0 <= j <= self.ctx.n - 1:
            raise ValueError(f"generator index {j} out of range")
        ctx = self.ctx
        with ctx._lock:
            table = ctx._rmul_tables.get(j)
            if table is None:
                table = ctx._rmul_tables[j] = Multiples(ctx.T(j))
        return table.left(self)

    def _lmul_L(self, i: int) -> "AKElement":
        """Left multiplication by the Jucys-Murphy element L_i: the key
        plus the stride of c_i, or where c_i overflows the context's memo
        of the generator word (`_lmul_L_word`)."""
        ctx = self.ctx
        stride, r = ctx._strides[i - 1], ctx.r
        memo = ctx._lmul_L_terms[i - 1]
        # distinct keys shift to distinct keys, so these stay in normal form
        shifted, over = {}, {}
        for k, coeff in self.terms.items():
            if k // stride % r < r - 1:
                shifted[k + stride] = coeff
            else:
                over[k] = coeff
        if not over:
            return AKElement(ctx, shifted)

        def row(k):
            terms = memo.get(k)
            if terms is None:
                terms = memo[k] = ctx._lmul_L_word(i, k)
            return terms
        words = AKElement(ctx, over)._termwise(row)
        return AKElement(ctx, _accumulate(ctx.scalars, shifted,
                                          words.terms.items()))

    def _termwise(self, terms) -> "AKElement":
        """The sum over the terms (k, coeff) of this element of coeff times
        the (key, scalar) pairs `terms(k)`."""
        # the loop of `_accumulate`, inlined: this is the innermost loop of
        # every product, and going through the helper made basis
        # certification 10-13% slower
        # a factor that is the ring's shared `one()` (a plain T-sum's
        # coefficient) needs no multiplication
        one = self.ctx.scalars.one()
        out = {}
        for k, coeff in self.terms.items():
            for key, scal in terms(k):
                cur = (coeff if scal is one else scal if coeff is one
                       else coeff * scal)
                prev = out.get(key)
                if prev is None:
                    out[key] = cur
                elif cur := prev + cur:
                    out[key] = cur
                else:
                    del out[key]
        return AKElement(self.ctx, self.ctx.scalars.normal(out))

    def closure(self, step, add) -> None:
        """The closure of this element under `step(e, j)` for each
        generator j: feeds each element to `add` and steps further, newest
        first, those it accepts.  `add` must accept exactly the elements
        outside the span of those it accepted, as two steps are skipped:
        T_j (j >= 1) after T_j, since e = f T_j gives e T_j = (q - q^-1) e
        + f, and T_0 after r - 1 T_0 steps from g, since the cyclotomic
        relation writes g T_0^r in g, ..., g T_0^{r-1} (likewise on the
        left)."""
        add(self)
        queue = [(self, 0, 0)]   # element, the T_j that made it, T_0 run
        while queue:
            e, last, run = queue.pop()
            for j in range(self.ctx.n):
                if (j and j == last) or (j == 0 and run == self.ctx.r - 1):
                    continue
                f = step(e, j)
                if add(f):
                    queue.append((f, j, 0 if j else run + 1))

    # -- evaluation -----------------------------------------------------------

    def vector(self):
        """Coordinates on basis_monomials over a `PointContext` ring: its
        values (Fractions over Q, ints in [0, p) over F_p) on the support,
        and 0 off it."""
        vec = [0] * self.ctx.dimension()
        for k, coeff in self.terms.items():
            vec[k] = coeff
        return vec

    # -- serialization ----------------------------------------------------------

    def sorted_terms(self):
        """The terms as ((c, w), coeff) pairs in (c, w) order."""
        monomial = self.ctx._monomial
        return [(monomial(k), coeff) for k, coeff in sorted(self.terms.items())]

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (c, w), coeff in self.sorted_terms():
            ls = "*".join(f"L{i + 1}^{e}" for i, e in enumerate(c))
            parts.append(f"({coeff.text()}) * {ls} * T[{','.join(map(str, w))}]")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {"terms": [{"coeff": coeff.to_json(), "c": list(c), "w": list(w)}
                          for (c, w), coeff in self.sorted_terms()]}

    def __repr__(self):
        return f"AKElement({self.text()})"
