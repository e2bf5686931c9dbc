"""Symmetric group combinatorics: lengths, Young subgroups, coset reps.

Permutations are tuples of images in one-line notation, 1-based.  The
composition convention is fixed once and for all: permutations act on the
right of points, so compose(u, v) applies u first and then v,
(u*v)(p) = v(u(p)).  With this convention T_u T_v = T_{uv} in the Hecke
algebra whenever lengths add.

Everything here enumerates explicitly and is intended for n <= ~8.
"""

from __future__ import annotations

from itertools import permutations as _it_permutations

__all__ = [
    "identity",
    "transposition",
    "compose",
    "invert",
    "length",
    "reduced_word",
    "all_permutations",
    "CompositionBlocks",
    "common_refinement",
    "set_stabilizer",
    "young_subgroup",
    "is_min_coset_rep",
    "coset_factorize",
    "double_coset",
    "double_cosets",
]

Perm = tuple


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def transposition(n: int, i: int) -> Perm:
    """The Coxeter generator s_i = (i, i+1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")
    img = list(range(1, n + 1))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def compose(u: Perm, v: Perm) -> Perm:
    """u followed by v: (u*v)(p) = v(u(p))."""
    if len(u) != len(v):
        raise ValueError("size mismatch")
    return tuple(v[u[p] - 1] for p in range(len(u)))


def invert(w: Perm) -> Perm:
    inv = [0] * len(w)
    for p, im in enumerate(w, start=1):
        inv[im - 1] = p
    return tuple(inv)


def length(w: Perm) -> int:
    """Number of inversions; equals the Coxeter length."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def reduced_word(w: Perm):
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


def all_permutations(n: int):
    return [tuple(p) for p in _it_permutations(range(1, n + 1))]


class CompositionBlocks:
    """A composition of n together with its cumulative block bounds."""

    __slots__ = ("composition", "bounds", "n")

    def __init__(self, composition):
        comp = tuple(int(x) for x in composition)
        if any(x < 0 for x in comp):
            raise ValueError("composition parts must be non-negative")
        self.composition = comp
        bounds = [0]
        for part in comp:
            bounds.append(bounds[-1] + part)
        self.bounds = tuple(bounds)
        self.n = bounds[-1]

    def blocks(self):
        """Consecutive index intervals as ranges (zero parts give empties)."""
        return [range(self.bounds[i] + 1, self.bounds[i + 1] + 1)
                for i in range(len(self.composition))]

    def __repr__(self):
        return f"CompositionBlocks({self.composition})"

    def __eq__(self, other):
        return (isinstance(other, CompositionBlocks)
                and other.composition == self.composition)

    def __hash__(self):
        return hash(self.composition)


def common_refinement(a, b):
    """The composition cut at the block bounds of both a and b; its Young
    subgroup is the intersection of theirs."""
    ba, bb = CompositionBlocks(a), CompositionBlocks(b)
    if ba.n != bb.n:
        raise ValueError("size mismatch")
    cuts = sorted(set(ba.bounds) | set(bb.bounds))
    return tuple(hi - lo for lo, hi in zip(cuts, cuts[1:]))


def set_stabilizer(n: int, point_sets):
    """All permutations of 1..n fixing each given set of points setwise;
    the sets must be disjoint.  The order is fixed: the sets are taken in
    the given order, each one's points in ascending order."""
    members = [identity(n)]
    for points in point_sets:
        idxs = sorted(points)
        if len(idxs) < 2:
            continue
        extended = []
        for base in members:
            for perm in _it_permutations(idxs):
                img = list(base)
                for pos, val in zip(idxs, perm):
                    img[pos - 1] = val
                extended.append(tuple(img))
        members = extended
    return members


def young_subgroup(blocks: CompositionBlocks):
    """All permutations fixing each block interval setwise."""
    return set_stabilizer(blocks.n, blocks.blocks())


def is_min_coset_rep(blocks: CompositionBlocks, w: Perm) -> bool:
    """Whether w is the minimal-length representative of S_blocks * w."""
    for blk in blocks.blocks():
        vals = [w[p - 1] for p in blk]
        if any(a > b for a, b in zip(vals, vals[1:])):
            return False
    return True


def coset_factorize(blocks: CompositionBlocks, w: Perm):
    """The unique (u, d) with u in the Young subgroup, d distinguished,
    w = u * d and lengths adding."""
    # d sorts the values of w block-wise; u rearranges within blocks
    img = list(w)
    for blk in blocks.blocks():
        vals = sorted(img[p - 1] for p in blk)
        for p, v in zip(blk, vals):
            img[p - 1] = v
    d = tuple(img)
    u = compose(w, invert(d))
    return u, d


def double_coset(left: CompositionBlocks, d: Perm, right: CompositionBlocks):
    """The double coset S_left d S_right as a frozenset, each element formed
    once: the left cosets S_left x of the distinct shortest x in S_left d v,
    v in S_right."""
    if not left.n == len(d) == right.n:
        raise ValueError("size mismatch")
    reps = {coset_factorize(left, compose(d, v))[1] for v in young_subgroup(right)}
    return frozenset(compose(u, x) for u in young_subgroup(left) for x in reps)


def double_cosets(left: CompositionBlocks, right: CompositionBlocks):
    """All double cosets S_left w S_right as (rep, frozenset of elements).

    The representative is the unique minimal-length element.  Cosets are
    returned sorted by representative.
    """
    seen = set()
    out = []
    for w in all_permutations(left.n):
        if w in seen:
            continue
        coset = double_coset(left, w, right)
        seen |= coset
        minlen = min(length(x) for x in coset)
        reps = [x for x in coset if length(x) == minlen]
        if len(reps) != 1:
            raise AssertionError("double coset has no unique minimal element")
        out.append((reps[0], coset))
    out.sort(key=lambda item: item[0])
    return out
