"""Symmetric group combinatorics: lengths, Young subgroups, coset reps.

Permutations are tuples of images in one-line notation, 1-based.  The
composition convention is fixed once and for all: permutations act on the
right of points, so compose(u, v) applies u first and then v,
(u*v)(p) = v(u(p)).  With this convention T_u T_v = T_{uv} in the Hecke
algebra whenever lengths add.

A composition of n is a plain tuple of non-negative ints; its blocks are
the consecutive runs of the points 1..n of those sizes, a zero part giving
an empty block.  Young subgroups and coset representatives take
compositions as they are, and refuse a negative part.

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


def _block_of(composition):
    """The block of each point of a composition of n: entry p - 1 is the
    index of the part that point p falls in.  A negative part is refused."""
    if any(part < 0 for part in composition):
        raise ValueError("composition parts must be non-negative")
    return [i for i, part in enumerate(composition) for _ in range(part)]


def young_subgroup(composition):
    """All permutations fixing each block of the composition setwise."""
    block_of = _block_of(composition)
    return set_stabilizer(len(block_of), [
        [p for p, b in enumerate(block_of, start=1) if b == i]
        for i in range(len(composition))])


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


def coset_reps(left, d: Perm, right):
    """The shortest element of each left coset S_left x in S_left d S_right,
    each formed once; the first is the shortest element of the double coset.
    `left` and `right` are compositions of n, as tuples of parts.

    Such an x is ascending on each left block, so it is fixed by the left
    block each value lands in, and x lies in the double coset iff each left
    block takes as many values of each right block as under d (Geck-Pfeiffer
    2000, 2.1).  So each right block's values are dealt out to the left
    blocks in every distinct order; the first deal gives each right block's
    smallest values to the earliest left blocks."""
    left_of, right_of = _block_of(left), _block_of(right)
    if not len(left_of) == len(d) == len(right_of):
        raise ValueError("size mismatch")
    # per right block, the left blocks its values land in under d, sorted
    labels = [[] for _ in right]
    for p, v in enumerate(d):
        labels[right_of[v - 1]].append(left_of[p])
    reps = []
    for deal in product(*(_arrangements(tuple(ls)) for ls in labels)):
        # the left block of each value; right blocks hold ascending runs
        block_of = [i for ls in deal for i in ls]
        reps.append(tuple(v + 1 for v in sorted(range(len(d)),
                                                 key=block_of.__getitem__)))
    return reps


def double_coset(left, d: Perm, right):
    """The double coset S_left d S_right as a frozenset, each element formed
    once as u x, u in S_left and x in `coset_reps`."""
    reps = coset_reps(left, d, right)
    return frozenset(compose(u, x) for u in young_subgroup(left) for x in reps)


def double_cosets(left, right):
    """All double cosets S_left w S_right as (rep, frozenset of elements).

    The representative is the unique minimal-length element.  Cosets are
    returned sorted by representative.
    """
    n = len(_block_of(left))
    seen = set()
    out = []
    for x in coset_reps(left, identity(n), (n,)):
        if x not in seen:
            coset = double_coset(left, x, right)
            seen |= coset
            out.append((coset_reps(left, x, right)[0], coset))
    out.sort(key=lambda item: item[0])
    return out
