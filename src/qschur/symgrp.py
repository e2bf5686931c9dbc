"""Symmetric group combinatorics: lengths, Young subgroups, coset reps.

Permutations are tuples of images in one-line notation, 1-based.  The
composition convention is fixed once and for all: permutations act on the
right of points, so compose(u, v) applies u first and then v,
(u*v)(p) = v(u(p)).  With this convention T_u T_v = T_{uv} in the Hecke
algebra whenever lengths add.

Everything here enumerates explicitly and is intended for n <= ~8.
"""

from __future__ import annotations

from itertools import permutations as _it_permutations, product

__all__ = [
    "identity",
    "transposition",
    "compose",
    "invert",
    "length",
    "all_permutations",
    "CompositionBlocks",
    "set_stabilizer",
    "young_subgroup",
    "coset_reps",
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


def _arrangements(labels):
    """The distinct orderings of a sorted tuple of labels, in lexicographic
    order."""
    if len(set(labels)) < 2:
        yield labels
        return
    for i, first in enumerate(labels):
        if i == 0 or first != labels[i - 1]:
            for tail in _arrangements(labels[:i] + labels[i + 1:]):
                yield (first,) + tail


def coset_reps(left: CompositionBlocks, d: Perm, right: CompositionBlocks):
    """The shortest element of each left coset S_left x in S_left d S_right,
    each formed once; the first is the shortest element of the double coset.

    Such an x is ascending on each left block, so it is fixed by the left
    block each value lands in, and x lies in the double coset iff each left
    block takes as many values of each right block as under d (Geck-Pfeiffer
    2000, 2.1).  So each right block's values are dealt out to the left
    blocks in every distinct order; the first deal gives each right block's
    smallest values to the earliest left blocks."""
    if not left.n == len(d) == right.n:
        raise ValueError("size mismatch")
    left_of = [i for i, blk in enumerate(left.blocks()) for _ in blk]
    right_of = [j for j, blk in enumerate(right.blocks()) for _ in blk]
    # per right block, the left blocks its values land in under d, sorted
    labels = [[] for _ in right.composition]
    for p, v in enumerate(d):
        labels[right_of[v - 1]].append(left_of[p])
    reps = []
    for deal in product(*(_arrangements(tuple(ls)) for ls in labels)):
        # the left block of each value; right blocks hold ascending runs
        block_of = [i for ls in deal for i in ls]
        reps.append(tuple(v + 1 for v in sorted(range(left.n),
                                                key=block_of.__getitem__)))
    return reps


def double_coset(left: CompositionBlocks, d: Perm, right: CompositionBlocks):
    """The double coset S_left d S_right as a frozenset, each element formed
    once as u x, u in S_left and x in `coset_reps`."""
    reps = coset_reps(left, d, right)
    return frozenset(compose(u, x) for u in young_subgroup(left) for x in reps)


def double_cosets(left: CompositionBlocks, right: CompositionBlocks):
    """All double cosets S_left w S_right as (rep, frozenset of elements).

    The representative is the unique minimal-length element.  Cosets are
    returned sorted by representative.
    """
    seen = set()
    out = []
    for x in coset_reps(left, identity(left.n), CompositionBlocks((left.n,))):
        if x not in seen:
            coset = double_coset(left, x, right)
            seen |= coset
            out.append((coset_reps(left, x, right)[0], coset))
    out.sort(key=lambda item: item[0])
    return out
