"""The cyclotomic q-Schur layer.

Permutation-module homomorphisms are represented by the image of the
cyclic generator x_mu; the module generator z_lam, the semistandard basis
vectors h_A, exact independence certification and the E/F ladder
operators all live here.

The basis vector h_A is (sum of c(w) T_w over the double coset W_mu 1_A
W_lam) u+_{[lam]} T_{w_lam} y_{lam'}, c(w) being 1 or q^{l(w)}.  Each w
there is d v with d the shortest element of d W_lam, v in W_lam, and the
lengths adding, so c(w) = c(d) c(v); the v-sum m_lam commutes with u+,
as W_lam lies inside the bracket blocks, and u+ m_lam = x_lam.  Hence
h_A = sum over d of c(d) T_d z_lam: one `Multiples(z_lam)` table per lam
serves every h_A of lam, with one entry per distinguished coset
representative d (the inverses of `coset_reps` of W_lam 1_A^-1 W_mu).

A is read once (`_walk`), its boxes numbered row by row and component by
component as in `bar_tableau`: box p holds a symbol, block f of mu bar
once flattened, and 1_A^-1 sends p to the next unused place of that
block, so the boxes of one symbol fill its block in reading order.  The
same pass counts the symbols, which gives the bar of A's type mu; the
representatives x of W_lam 1_A^-1 W_mu are then dealt by `coset_reps`.
An algebra turns each d = x^-1 into its pair (c(d), key of T_d) through
`AlgebraContext.perm_terms`, which owns the keys and the weights c.

z_lam is associated as u+ (m_lam (T_{w_lam} y_{lam'})), u+ = u+_{[lam]}:
T_{w_lam} y_{lam'} is one chain of T-steps on y_{lam'}, m_lam then
multiplies it through the T-entries of one `Multiples` table, and u+
through the L-entries of another, one per distinct L-part of u+, each
one L_i step from a shorter one.  As x_lam (T_{w_lam} y_{lam'}), with
x_lam = u+ m_lam, the terms of x_lam share L-parts, and the product went
by Horner in the L_i over their T-parts; as (x_lam T_{w_lam}) y_{lam'}
it took two tables, one of T_{w_lam} over the terms of x_lam and one of
y_{lam'} over the terms of their product.  All give the same element.

`basis_summands` and `basis_vector` check that A matches (lam, mu), by
its shape and by the type `_walk` finds, and that A is semistandard.
The independence certificate walks each tableau of `enumerate_ssyt`,
which is semistandard already, once: it groups the tableaux by the bar
of their type and keeps their representatives, so each algebra it
builds over only turns them into summands.

Independence of the basis maps is certified per type block: maps whose
images lie in different weight summands never mix, so the certified rank
is the sum over types mu of the rank of {h_A : A of type mu} at a random
rational point, the point the report prints.  Each block is one
`AlgebraContext.ranks_at` block: each h_A comes as its summands (c(d),
T_d z_lam) over whatever algebra it hands in, and it decides how the
rank at the point is certified, on column subsets first, without summing
h_A.  A shortfall at the point is inconclusive and is retried at fresh
points.

Module spans, membership and the E/F convention checks build x_mu, the
ladder images and every product over `point_algebra(spec)`, the algebra
over Q at their point; a module span is the closure of x_mu there under
`AKElement.rmul_gen`.

There is one E/F ladder operator (see `_coset_factor`);
`validated_ef_conventions` returns its report when every image is a
certified module homomorphism, and raises `ConventionError` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .hecke import AKElement, AlgebraContext, Multiples
from .linalg import ResourceLimit, RowSpace
from .ring import PointContext, Specialization
from .symgrp import CompositionBlocks, coset_reps, identity, invert
from .tableaux import (MultiShape, Multicomposition, TypedTableau, _trim,
                       enumerate_multicompositions, enumerate_ssyt, w_lambda)

__all__ = [
    "SchurContext",
    "ModuleElement",
    "EFIndex",
    "FALLBACK_FLAGS",
    "ConventionError",
    "validated_ef_conventions",
    "verify_basis_with_fallback",
]

#: the recorded fallback convention flags, tried iff the literal pair fails
FALLBACK_FLAGS = ("qlen", "signed")

#: fresh random points tried after the first when no point is given
RETRIES = 3


@dataclass(frozen=True)
class ModuleElement:
    """An element of the permutation module of the tagged weight."""

    weight: Multicomposition
    elem: AKElement


@dataclass(frozen=True)
class EFIndex:
    """A ladder index (i, k): row i of component k, not the final slot."""

    i: int
    k: int


def _z_element(algebra: AlgebraContext, lam: Multicomposition) -> AKElement:
    """z_lam = u+_{[lam]} (m_lam (T_{w_lam} y_{lam'})) over `algebra` (see
    the module docstring for why it is associated so)."""
    w, _ = w_lambda(lam)
    return algebra.u_plus(lam.bracket()) * (algebra.m_element(lam) * (
        algebra.T(w) * algebra.y_element(lam.dual())))


def _weight_json(bar, m) -> list:
    """`Multicomposition.to_json` of the weight whose bar is `bar`, read
    off the bar: its components of lengths m, without trailing zeros."""
    return [_trim(comp) for comp in MultiShape(m).split(bar)]


class SchurContext:
    """Weights Lambda_{n,r}(m) over one Ariki-Koike algebra instance.

    What it builds over an algebra (x_mu, the tables of `basis_vector`,
    h_A, module spans) is kept by `_keep` for one algebra object at a
    time, so values over F_p and over Q at one point never meet;
    `point_algebra` hands out the kept algebra while it is the one over Q
    at the point.  Values fill lazily, and concurrent fills store equal
    values.  The factor of a ladder step is rebuilt on each `ef_apply`
    call: kept, those of one branching pass held about 0.5 MiB for a few
    percent of its time.
    """

    def __init__(self, n: int, r: int, m,
                 m_convention: str = "plain", y_convention: str = "plain"):
        self.shape = MultiShape(tuple(m))
        if self.shape.r != r:
            raise ValueError("m must have r components")
        self.n = n
        self.r = r
        self.algebra = AlgebraContext(n, r, m_convention=m_convention,
                                      y_convention=y_convention)
        self._weights = None
        self._kept = (self.algebra, {})  # (algebra, {key: value over it})
        self._block_cache = {}           # weight bar -> CompositionBlocks

    @property
    def m(self):
        return self.shape.m

    def flags(self) -> dict:
        return {"m_convention": self.algebra.m_convention,
                "y_convention": self.algebra.y_convention}

    # -- weights ---------------------------------------------------------

    def weights(self):
        if self._weights is None:
            self._weights = enumerate_multicompositions(self.n, self.shape)
        return self._weights

    def weight(self, parts) -> Multicomposition:
        return Multicomposition(parts, m=self.m)

    def point_algebra(self, spec: Specialization) -> AlgebraContext:
        """This context's algebra over Q at `spec`: the kept one while it is
        that, else a new one, which every check at the point then shares."""
        algebra = self._kept[0]
        S = algebra.scalars
        # identity first: comparing Fractions costs more than a memo hit
        if isinstance(S, PointContext) and S.modulus is None and (
                S.spec is spec or S.spec == spec):
            return algebra
        algebra = self.algebra.over(PointContext(spec))
        self._kept = (algebra, {})
        return algebra

    def _keep(self, algebra: AlgebraContext, key, make):
        """The value of `key` over `algebra`, made by `make()` once while
        `algebra` is kept; another algebra starts a new record."""
        owner, values = self._kept
        if owner is not algebra:
            owner, values = self._kept = (algebra, {})
        value = values.get(key)
        if value is None:
            value = values[key] = make()
        return value

    # -- distinguished elements -------------------------------------------

    def x_element(self, mu: Multicomposition,
                  algebra: AlgebraContext | None = None) -> AKElement:
        """x_mu over `algebra` (default: this context's), kept."""
        algebra = algebra or self.algebra
        return self._keep(algebra, ("x", mu.parts),
                          lambda: algebra.x_element(mu))

    def z_element(self, lam: Multicomposition) -> AKElement:
        """z_lam evaluated at the unit: x_lam T_{w_lam} y_{lam'}."""
        if not lam.is_partition():
            raise ValueError("z is defined for multipartitions")
        return _z_element(self.algebra, lam)

    def basis_vector(self, lam: Multicomposition, mu: Multicomposition,
                     A: TypedTableau,
                     algebra: AlgebraContext | None = None) -> AKElement:
        """h_A = (sum over the double coset W_mu 1_A W_lam of c(w) T_w)
        u+_{[lam]} T_{w_lam} y_{lam'} = sum over d of c(d) T_d z_lam; for
        the superstandard tableau this is z_lam (see `basis_summands`).

        Built over `algebra` (this context's by default; the at-point
        checks pass one over F_p or Q) and kept, keyed by all that the
        checks of A read, so a kept h_A skips them."""
        algebra = algebra or self.algebra

        def make():
            reps = self._checked_reps(lam, mu, A)
            return self._table(lam, algebra).left(algebra.perm_sum(
                [invert(x) for x in reps], algebra.m_convention))

        return self._keep(algebra, ("h", lam.parts, mu.parts, A.shape.parts,
                                    A.bounds.m, A.entries), make)

    def basis_summands(self, lam: Multicomposition, mu: Multicomposition,
                       A: TypedTableau, algebra: AlgebraContext | None = None):
        """h_A left unsummed: the pairs (c(d), T_d z_lam), one per
        distinguished coset representative d (see the module docstring)."""
        return self._summands(lam, self._checked_reps(lam, mu, A),
                              algebra or self.algebra)

    def _checked_reps(self, lam, mu, A):
        """The representatives of `_walk`, once A is known to match (lam,
        mu), by its shape and type, and to be semistandard."""
        if A.shape != lam or A.bounds.m != mu.m:
            raise ValueError("tableau does not match (lam, mu)")
        bar, reps = self._walk(lam, A)
        if bar != mu.bar():
            raise ValueError("tableau does not match (lam, mu)")
        if not A.is_semistandard():
            raise ValueError("tableau is not semistandard")
        return reps

    def _walk(self, lam, A):
        """(the bar of A's type, the `coset_reps` of W_lam 1_A^-1 W_mu, mu
        that type), from one pass over the boxes of A (see the module
        docstring)."""
        # symbol (i, s) is part i + m_1 + ... + m_{s-1} of mu bar
        base = [0]
        for mk in A.bounds.m:
            base.append(base[-1] + mk)
        counts = [0] * base[-1]
        places = []     # per box, (its part of mu bar, its place there)
        for comp in A.entries:
            for row in comp:
                for i, s in row:
                    f = base[s - 1] + i - 1
                    counts[f] += 1
                    places.append((f, counts[f]))
        bar = tuple(counts)
        right = self._blocks(bar)
        inv_one = tuple(right.bounds[f] + k for f, k in places)
        return bar, coset_reps(self._blocks(lam.bar()), inv_one, right)

    def _summands(self, lam, reps, algebra):
        """The pairs (c(d), T_d z_lam) over `algebra`, d the inverses of
        the representatives `reps` of `_walk`."""
        return self._table(lam, algebra).summands(algebra.perm_terms(
            [invert(x) for x in reps], algebra.m_convention))

    def _table(self, lam, algebra) -> Multiples:
        """Multiples(z_lam) over `algebra`, kept."""
        return self._keep(algebra, ("table", lam.parts),
                          lambda: Multiples(_z_element(algebra, lam)))

    def _blocks(self, bar) -> CompositionBlocks:
        """The blocks of a weight bar, made once per bar."""
        blocks = self._block_cache.get(bar)
        if blocks is None:
            blocks = self._block_cache[bar] = CompositionBlocks(bar)
        return blocks

    def weyl_dim_count(self, lam: Multicomposition) -> int:
        """Tableau-counting oracle for the module dimension."""
        return len(enumerate_ssyt(lam, self.shape))

    # -- independence certification ------------------------------------------

    def verify_basis_independence(self, lam: Multicomposition, seed: int = 0,
                                  spec: Specialization | None = None,
                                  max_dim: int = 10_000) -> dict:
        """Certify that the basis vectors of lam have full rank.

        Rank is computed per type block and summed; certification succeeds
        when the total equals the tableau count.  Specialisation failures
        are retried at fresh random points before reporting "not
        certified" (an inconclusive outcome, never a disproof).
        """
        if self.algebra.dimension() > max_dim:
            raise ResourceLimit("algebra dimension exceeds the configured limit")
        # the representatives of each tableau, grouped by the bar of its
        # type; bars sort as the weights' parts do
        groups = {}
        for A in enumerate_ssyt(lam, self.shape):
            bar, reps = self._walk(lam, A)
            groups.setdefault(bar, []).append(reps)
        groups = [(_weight_json(bar, self.m), block)
                  for bar, block in sorted(groups.items())]
        count = sum(len(block) for _, block in groups)

        def fill_block(block):
            def fill(algebra, add):
                for reps in block:
                    add(self._summands(lam, reps, algebra))
            return len(block), fill

        fills = [fill_block(block) for _, block in groups]
        rng = Random(seed)
        attempts = 0
        report = None
        while attempts < (1 if spec is not None else 1 + RETRIES):
            attempts += 1
            point = spec if spec is not None else Specialization.random(self.r, rng)
            ranks = self.algebra.ranks_at(point, fills)
            rank = sum(ranks)
            blocks = [{"mu": mu, "size": len(block), "rank": blk}
                      for (mu, block), blk in zip(groups, ranks)]
            report = {
                "lambda": lam.to_json(),
                "count": count,
                "rank": rank,
                "certified": rank == count,
                "flags": self.flags(),
                "literal_flags": self.flags() == {"m_convention": "plain",
                                                  "y_convention": "plain"},
                "specialization": point.to_json(),
                "attempts": attempts,
                "blocks": blocks,
            }
            if report["certified"]:
                break
        return report

    # -- module spans and membership -------------------------------------------

    def module_span(self, mu: Multicomposition, spec: Specialization) -> RowSpace:
        """Row space of the right ideal generated by x_mu at the point.

        The closure of x_mu over `point_algebra(spec)` under right
        multiplication by each generator T_j, in an exact `RowSpace`."""
        algebra = self.point_algebra(spec)

        def make():
            space = RowSpace(algebra.dimension())
            self.x_element(mu, algebra).closure(
                AKElement.rmul_gen, lambda e: space.add(e.vector()))
            return space

        return self._keep(algebra, ("span", mu.parts), make)

    def certify_membership(self, me: ModuleElement, spec: Specialization) -> bool:
        """One-sided membership certificate e in x_mu H at the point; e
        must be built over `point_algebra(spec)`."""
        self.point_algebra(spec).compatible(me.elem.ctx)
        return self.module_span(me.weight, spec).contains(me.elem.vector())

    # -- E/F ladder operators -----------------------------------------------------

    def ef_indices(self, bounds: MultiShape | None = None):
        """Gamma'(m): all (i, k) except the very last slot (m_r, r)."""
        bounds = bounds or self.shape
        out = [EFIndex(i, k) for k in range(1, bounds.r + 1)
               for i in range(1, bounds.m[k - 1] + 1)]
        return [idx for idx in out
                if (idx.i, idx.k) != (bounds.m[-1], bounds.r)]

    def _flat_pos(self, idx: EFIndex) -> int:
        return self.shape.flatten_symbol((idx.i, idx.k))

    def weight_step(self, mu: Multicomposition, idx: EFIndex, sign: int):
        """mu +- alpha_(i,k) as a weight, or None when it leaves Lambda.

        The final slot (m_r, r) has no alpha and is not a ladder index."""
        flat = list(mu.bar())
        p = self._flat_pos(idx) - 1
        if p + 1 == len(flat):
            raise ValueError(f"{idx} is not a ladder index")
        flat[p] += sign
        flat[p + 1] -= sign
        if flat[p] < 0 or flat[p + 1] < 0:
            return None
        return self.weight(self.shape.split(flat))

    def _coset_factor(self, algebra: AlgebraContext, target: Multicomposition,
                      source: Multicomposition) -> AKElement:
        """sum over X of q^{l(x)} T_{x^-1} over `algebra`: X holds the
        shortest elements of the left cosets W_source y, y in the target bar
        group W_target (`coset_reps` of W_source W_target, which all lie in
        W_target).  Their inverses are the shortest elements of the cosets
        y W_source, so this is also the sum of q^{l(x)} T_x over those."""
        reps = coset_reps(self._blocks(source.bar()), identity(self.n),
                          self._blocks(target.bar()))
        return algebra.perm_sum([invert(x) for x in reps], "qlen")

    def ef_apply(self, idx: EFIndex, kind: str, me: ModuleElement) -> ModuleElement:
        """Apply the ladder operator (see `_coset_factor`) to a tagged
        module element, over the algebra the element is built over.  A step
        leaving Lambda gives zero."""
        if kind not in ("E", "F"):
            raise ValueError("kind must be 'E' or 'F'")
        algebra = me.elem.ctx
        sign = 1 if kind == "E" else -1
        target = self.weight_step(me.weight, idx, sign)
        if target is None:
            return ModuleElement(me.weight, algebra.zero())
        S = algebra.scalars
        p = self._flat_pos(idx)
        flat = me.weight.bar()
        exp = 1 - (flat[p] if kind == "E" else flat[p - 1])
        g = self._coset_factor(algebra, target, me.weight).scale(S.q(exp))
        if kind == "E" and idx.i == self.m[idx.k - 1]:
            # boundary: one extra cyclotomic factor joins the u+ part
            N = me.weight.bracket()[idx.k]
            g = g * (algebra.unscaled_jm(N + 1)
                     - algebra.from_scalar(S.Q(idx.k + 1)))
        return ModuleElement(target, g * me.elem)

    def ef_convention_report(self, specs) -> dict:
        """Certify E/F images of every x_mu as module homomorphisms
        (membership of the image in the target ideal) at each point.

        A failed image is reported loudly; nothing is silently accepted.
        "star" and "reps_side" name the operator of `_coset_factor`, always
        "inverse" over "right" cosets."""
        checks = []
        for spec in specs:
            algebra = self.point_algebra(spec)
            for mu in self.weights():
                x_mu = ModuleElement(mu, self.x_element(mu, algebra))
                for idx in self.ef_indices():
                    for kind in ("E", "F"):
                        img = self.ef_apply(idx, kind, x_mu)
                        if img.elem and not self.certify_membership(img, spec):
                            checks.append({"mu": mu.to_json(),
                                           "idx": [idx.i, idx.k],
                                           "kind": kind,
                                           "specialization": spec.to_json()})
        return {"star": "inverse", "reps_side": "right",
                "validated": not checks, "failures": checks}


class ConventionError(RuntimeError):
    """The ladder operator failed the hom-membership suite; `reports` is
    the list holding its one failure report."""

    def __init__(self, reports):
        super().__init__(
            "the E/F operator failed the hom-membership suite: "
            + repr(reports))
        self.reports = reports


def validated_ef_conventions(sc: SchurContext, specs) -> dict:
    """The ladder operator's report when its E/F images are certified
    module homomorphisms at every given point; otherwise the failure is
    raised loudly as `ConventionError([report])`.

    At the configurations measured so far (README, "Conventions") it
    validates at n = 2 under every flag pair, and at n >= 3 exactly when
    m_convention is "qlen".
    """
    report = sc.ef_convention_report(specs)
    if not report["validated"]:
        raise ConventionError([report])
    return report


def verify_basis_with_fallback(n: int, r: int, m, lam_parts, seed: int = 0,
                               max_dim: int = 10_000) -> dict:
    """Run the independence certification under the literal convention
    flags first; on failure, rerun under the recorded fallback flags.
    The report always states which flags were used."""
    literal = SchurContext(n, r, m)
    lam = literal.weight(lam_parts)
    report = literal.verify_basis_independence(lam, seed=seed, max_dim=max_dim)
    if not report["certified"]:
        fb = SchurContext(n, r, m, m_convention=FALLBACK_FLAGS[0],
                          y_convention=FALLBACK_FLAGS[1])
        fb_report = fb.verify_basis_independence(fb.weight(lam_parts), seed=seed,
                                                 max_dim=max_dim)
        fb_report["literal_report"] = report
        return fb_report
    return report
