"""Multipartition and multitableau combinatorics.

Covers multicompositions with fixed component lengths, dominance orders,
the canonical row/column fillings and their permutation w_lambda, the
chi intersection matrices, semistandard tableaux with typed entries
(i, s), node machinery for branching, and the distinguished-representative
map attached to a labelled tableau.

Entry symbols (i, s) are totally ordered with the component dominant:
(i, s) < (i', s') iff s < s', or s = s' and i < i'.  This matches the
flattening (i, s) -> i + m_1 + ... + m_{s-1}, which is an order
isomorphism onto 1..(m_1 + ... + m_r).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

from .symgrp import Perm, identity, set_stabilizer

__all__ = [
    "MultiShape",
    "Multicomposition",
    "NumericTableau",
    "TypedTableau",
    "Node",
    "enumerate_multicompositions",
    "dominance_composition",
    "dominance_multiweight",
    "bracket_leq",
    "bracket_reversed",
    "canonical_tableaux",
    "w_lambda",
    "chi",
    "chi_ge",
    "chi_gt",
    "row_stabilizer",
    "column_stabilizer",
    "w_of_labelled",
    "bar_tableau",
    "w_S",
    "one_A",
    "enumerate_ssyt",
    "superstandard",
    "removable_nodes",
    "addable_nodes",
    "remove_node",
    "t_lambda_x",
    "gamma",
    "gamma_inverse",
]


@dataclass(frozen=True)
class MultiShape:
    """Component row bounds m = (m_1, ..., m_r)."""

    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        if not self.m or any(x < 1 for x in self.m):
            raise ValueError("all component bounds must be >= 1")

    @property
    def r(self) -> int:
        return len(self.m)

    @property
    def total(self) -> int:
        return sum(self.m)

    def symbols(self):
        """All entry symbols (i, s), in increasing order."""
        return [(i, s) for s in range(1, self.r + 1)
                for i in range(1, self.m[s - 1] + 1)]

    def flatten_symbol(self, sym) -> int:
        i, s = sym
        if not (1 <= s <= self.r and 1 <= i <= self.m[s - 1]):
            raise ValueError(f"symbol {sym} out of bounds for m={self.m}")
        return i + sum(self.m[: s - 1])

    def split(self, bar):
        """bar cut into its r components, of lengths m_1, ..., m_r."""
        out, pos = [], 0
        for mk in self.m:
            out.append(bar[pos:pos + mk])
            pos += mk
        return out


def _trim(comp) -> list:
    """comp as a list, without its trailing zero parts."""
    w = len(comp)
    while w and not comp[w - 1]:
        w -= 1
    return list(comp[:w])


class Multicomposition:
    """An r-tuple of compositions with fixed component lengths m_k.

    Trailing zero parts are stored explicitly (the sets Lambda_{n,r}(m)
    fix component lengths); display and JSON trim them.
    """

    __slots__ = ("parts", "m", "n")

    def __init__(self, parts, m=None):
        parts = [tuple(int(x) for x in comp) for comp in parts]
        if m is None:
            m = tuple(max(1, len(comp)) for comp in parts)
        else:
            m = tuple(int(x) for x in m)
        if len(m) != len(parts):
            raise ValueError("component count disagrees with m")
        norm = []
        for comp, mk in zip(parts, m):
            if len(comp) > mk:
                if any(comp[mk:]):
                    raise ValueError(f"component {comp} exceeds bound {mk}")
                comp = comp[:mk]
            if any(x < 0 for x in comp):
                raise ValueError("parts must be non-negative")
            norm.append(comp + (0,) * (mk - len(comp)))
        self.parts = tuple(norm)
        self.m = tuple(m)
        self.n = sum(sum(c) for c in self.parts)

    # -- basic structure -------------------------------------------------

    @property
    def r(self) -> int:
        return len(self.parts)

    def is_partition(self) -> bool:
        return all(all(a >= b for a, b in zip(c, c[1:])) for c in self.parts)

    def bar(self):
        """Concatenation of the components into one composition."""
        out = []
        for c in self.parts:
            out.extend(c)
        return tuple(out)

    def bracket(self):
        """[a_0, a_1, ..., a_r] with a_i the cumulative component sizes."""
        out = [0]
        for c in self.parts:
            out.append(out[-1] + sum(c))
        return tuple(out)

    def dual(self) -> "Multicomposition":
        """Components reversed and each conjugated.

        The component length bookkeeping becomes the column bounds: the
        k-th dual component is padded to max(first part, 1) rows.
        """
        duals = []
        for comp in reversed(self.parts):
            width = comp[0] if comp and comp[0] > 0 else 0
            conj = tuple(sum(1 for x in comp if x >= j)
                         for j in range(1, width + 1))
            duals.append(conj if conj else (0,))
        return Multicomposition(duals)

    def boxes(self):
        """All diagram boxes (row a, col b, component c), 1-based, in
        component-major reading order."""
        out = []
        for cidx, comp in enumerate(self.parts, start=1):
            for a, width in enumerate(comp, start=1):
                for b in range(1, width + 1):
                    out.append((a, b, cidx))
        return out

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Multicomposition)
                and other.parts == self.parts and other.m == self.m)

    def __hash__(self):
        return hash((self.parts, self.m))

    def __repr__(self):
        return f"Multicomposition({self.trimmed()})"

    # -- serialization ------------------------------------------------------

    def trimmed(self):
        return [_trim(comp) for comp in self.parts]

    def to_json(self):
        return self.trimmed()

    @classmethod
    def from_json(cls, data, m=None):
        if isinstance(data, str):
            data = json.loads(data)
        return cls([tuple(c) for c in data], m=m)


# ---------------------------------------------------------------------------
# enumeration and orders
# ---------------------------------------------------------------------------

def _compositions_of(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_of(total - first, parts - 1):
            yield (first,) + rest


def _partitions_of(total, parts, cap=None):
    if cap is None:
        cap = total
    if parts == 0:
        if total == 0:
            yield ()
        return
    hi = min(cap, total)
    for first in range(hi, -1, -1):
        if first == 0 and total > 0:
            return
        for rest in _partitions_of(total - first, parts - 1, first):
            yield (first,) + rest


def enumerate_multicompositions(n, shape: MultiShape, partitions_only=False):
    """All of Lambda_{n,r}(m), or Lambda^+_{n,r}(m) when partitions_only.

    Deterministic order: lexicographic over the component size split,
    then over component fillings.
    """
    r = shape.r

    def rec(k, remaining):
        if k == r:
            if remaining == 0:
                yield ()
            return
        gen = _partitions_of if partitions_only else _compositions_of
        for size in range(remaining + 1):
            for comp in gen(size, shape.m[k]):
                for rest in rec(k + 1, remaining - size):
                    yield (comp,) + rest

    return [Multicomposition(parts, m=shape.m) for parts in rec(0, n)]


def dominance_composition(x, y) -> bool:
    """x is dominated by y: every prefix sum of x is <= that of y."""
    x, y = tuple(x), tuple(y)
    if sum(x) != sum(y):
        raise ValueError("dominance needs equal sizes")
    k = max(len(x), len(y))
    x += (0,) * (k - len(x))
    y += (0,) * (k - len(y))
    sx = sy = 0
    for a, b in zip(x, y):
        sx += a
        sy += b
        if sx > sy:
            return False
    return True


def dominance_multiweight(lam: Multicomposition, mu: Multicomposition) -> bool:
    """lam dominates mu in the multiweight order: every prefix sum of
    lam's bar is >= the one of mu's."""
    if lam.m != mu.m or lam.n != mu.n:
        raise ValueError("incomparable shapes")
    return dominance_composition(mu.bar(), lam.bar())


def bracket_leq(a, b) -> bool:
    """Componentwise order on bracket vectors."""
    if len(a) != len(b):
        raise ValueError("bracket lengths differ")
    return all(x <= y for x, y in zip(a, b))


def bracket_reversed(bracket):
    """The bracket of the reversed block sizes."""
    sizes = [bracket[i + 1] - bracket[i] for i in range(len(bracket) - 1)]
    out = [0]
    for s in reversed(sizes):
        out.append(out[-1] + s)
    return tuple(out)


# ---------------------------------------------------------------------------
# numeric tableaux
# ---------------------------------------------------------------------------

class NumericTableau:
    """A bijective filling of the diagram of a multicomposition by 1..n."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: Multicomposition, rows):
        self.shape = shape
        self.rows = tuple(tuple(tuple(row) for row in comp) for comp in rows)
        seen = sorted(v for comp in self.rows for row in comp for v in row)
        if seen != list(range(1, shape.n + 1)):
            raise ValueError("filling is not a bijection onto 1..n")
        for comp, widths in zip(self.rows, shape.parts):
            if tuple(len(row) for row in comp) != widths:
                raise ValueError("filling does not match the shape")

    def entry(self, a, b, c):
        return self.rows[c - 1][a - 1][b - 1]

    def act(self, w: Perm) -> "NumericTableau":
        """Entrywise action: each entry e is replaced by w(e)."""
        return NumericTableau(self.shape, [
            [[w[v - 1] for v in row] for row in comp] for comp in self.rows])

    def bar_rows(self):
        """Rows of the flattened (one-component) diagram, in order."""
        out = []
        for comp in self.rows:
            out.extend(comp)
        return tuple(out)

    def row_sets(self):
        return [frozenset(row) for row in self.bar_rows()]

    def column_sets(self):
        rows = self.bar_rows()
        width = max((len(r) for r in rows), default=0)
        return [frozenset(r[j] for r in rows if len(r) > j)
                for j in range(width)]

    def __eq__(self, other):
        return (isinstance(other, NumericTableau)
                and other.shape == self.shape and other.rows == self.rows)

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"NumericTableau({[list(map(list, c)) for c in self.rows]})"

    def to_json(self):
        return {"shape": self.shape.to_json(),
                "rows": [[list(row) for row in comp] for comp in self.rows]}


def canonical_tableaux(lam: Multicomposition):
    """(t_sup, t_sub): 1..n filled row-wise first component first, and
    column-wise starting in the last component."""
    sup = []
    counter = 1
    for comp in lam.parts:
        rows = []
        for width in comp:
            rows.append(list(range(counter, counter + width)))
            counter += width
        sup.append(rows)

    sub = [[[0] * width for width in comp] for comp in lam.parts]
    counter = 1
    for cidx in range(lam.r - 1, -1, -1):
        comp = lam.parts[cidx]
        width = max(comp, default=0)
        for b in range(1, width + 1):
            for a, rw in enumerate(comp, start=1):
                if rw >= b:
                    sub[cidx][a - 1][b - 1] = counter
                    counter += 1
    return (NumericTableau(lam, sup), NumericTableau(lam, sub))


def w_lambda(lam: Multicomposition):
    """The permutation with t_sup * w = t_sub, plus its per-component
    factors (each fixing everything outside its component's entries)."""
    t_sup, t_sub = canonical_tableaux(lam)
    n = lam.n
    img = [0] * n
    for box in lam.boxes():
        a, b, c = box
        img[t_sup.entry(a, b, c) - 1] = t_sub.entry(a, b, c)
    w = tuple(img)

    factors = []
    for cidx, comp in enumerate(lam.parts, start=1):
        # entries of this component in t_sup, column-read locally
        vals = sorted(t_sup.entry(a, b, cidx)
                      for (a, b, c) in lam.boxes() if c == cidx)
        fac = list(range(1, n + 1))
        width = max(comp, default=0)
        it = iter(vals)
        colread = []
        for b in range(1, width + 1):
            for a, rw in enumerate(comp, start=1):
                if rw >= b:
                    colread.append((a, b))
        for (a, b), v in zip(colread, it):
            fac[t_sup.entry(a, b, cidx) - 1] = v
        factors.append(tuple(fac))
    return w, factors


# ---------------------------------------------------------------------------
# chi matrices
# ---------------------------------------------------------------------------

def chi(t1: NumericTableau, t2: NumericTableau):
    """The n x n matrix of cardinalities |first i rows of t1 (by entries)
    cap first j columns of t2|.  Multitableaux are compared through their
    flattened diagrams."""
    n1, n2 = t1.shape.n, t2.shape.n
    if n1 != n2:
        raise ValueError("size mismatch")
    n = n1
    rows = t1.row_sets()
    cols = t2.column_sets()
    rmask = []
    acc = 0
    for i in range(n):
        if i < len(rows):
            for v in rows[i]:
                acc |= 1 << v
        rmask.append(acc)
    cmask = []
    acc = 0
    for j in range(n):
        if j < len(cols):
            for v in cols[j]:
                acc |= 1 << v
        cmask.append(acc)
    return tuple(tuple((rmask[i] & cmask[j]).bit_count() for j in range(n))
                 for i in range(n))


def chi_ge(m1, m2) -> bool:
    return all(a >= b for r1, r2 in zip(m1, m2) for a, b in zip(r1, r2))


def chi_gt(m1, m2) -> bool:
    return chi_ge(m1, m2) and m1 != m2


def row_stabilizer(t: NumericTableau):
    """All w preserving each row's entry set of t."""
    return set_stabilizer(t.shape.n, t.row_sets())


def column_stabilizer(t: NumericTableau):
    """All w preserving each column's entry set of t (flattened view)."""
    return set_stabilizer(t.shape.n, t.column_sets())


# ---------------------------------------------------------------------------
# typed tableaux
# ---------------------------------------------------------------------------

class TypedTableau:
    """A filling of a multipartition diagram by symbols (i, s).

    shape: the underlying Multicomposition (a multipartition in use);
    bounds: the MultiShape giving the symbol ranges 1 <= i <= m_s.
    """

    __slots__ = ("shape", "bounds", "entries")

    def __init__(self, shape: Multicomposition, bounds: MultiShape, entries):
        self.shape = shape
        self.bounds = bounds
        ent = tuple(tuple(tuple((int(i), int(s)) for (i, s) in row)
                          for row in comp) for comp in entries)
        for comp, widths in zip(ent, shape.parts):
            if tuple(len(row) for row in comp) != widths:
                raise ValueError("entries do not match the shape")
        for comp in ent:
            for row in comp:
                for (i, s) in row:
                    bounds.flatten_symbol((i, s))
        self.entries = ent

    @classmethod
    def _unchecked(cls, shape, bounds, entries) -> "TypedTableau":
        """A tableau whose `entries` are already tuples of int symbols in
        `bounds`, in rows of `shape`'s widths."""
        A = object.__new__(cls)
        A.shape, A.bounds, A.entries = shape, bounds, entries
        return A

    def entry(self, a, b, c):
        return self.entries[c - 1][a - 1][b - 1]

    def type_weight(self) -> Multicomposition:
        """Multiplicity of each symbol (i, s), as a weight over bounds."""
        counts = [[0] * mk for mk in self.bounds.m]
        for comp in self.entries:
            for row in comp:
                for (i, s) in row:
                    counts[s - 1][i - 1] += 1
        return Multicomposition(counts, m=self.bounds.m)

    def is_semistandard(self) -> bool:
        return all(
            _fits(sym, c, row[b - 1] if b else None,
                  comp[a - 1][b] if a and b < len(comp[a - 1]) else None)
            for c, comp in enumerate(self.entries, start=1)
            for a, row in enumerate(comp)
            for b, sym in enumerate(row))

    def positions_of(self, sym):
        out = []
        for cidx, comp in enumerate(self.entries, start=1):
            for a, row in enumerate(comp, start=1):
                for b, e in enumerate(row, start=1):
                    if e == tuple(sym):
                        out.append((a, b, cidx))
        return out

    def __eq__(self, other):
        return (isinstance(other, TypedTableau)
                and other.shape == self.shape
                and other.bounds == self.bounds
                and other.entries == self.entries)

    def __hash__(self):
        return hash((self.shape, self.bounds, self.entries))

    def __repr__(self):
        return f"TypedTableau({[list(map(list, c)) for c in self.entries]})"

    def to_json(self):
        return {"shape": self.shape.to_json(),
                "m": list(self.bounds.m),
                "entries": [[[list(e) for e in row] for row in comp]
                            for comp in self.entries]}

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        bounds = MultiShape(tuple(data["m"]))
        row_counts = tuple(max(1, len(comp)) for comp in data["entries"])
        shape = Multicomposition.from_json(data["shape"], m=row_counts)
        return cls(shape, bounds, data["entries"])


def _symkey(sym):
    i, s = sym
    return (s, i)


def _fits(sym, c, left, above) -> bool:
    """The semistandard rule for symbol (i, s) in component c, next to the
    entries `left` of it and `above` it (None where there is no box):
    s >= c, rows weakly increase, columns strictly increase."""
    return (sym[1] >= c
            and (left is None or _symkey(left) <= _symkey(sym))
            and (above is None or _symkey(above) < _symkey(sym)))


def enumerate_ssyt(lam: Multicomposition, bounds: MultiShape, type_weight=None):
    """All semistandard lam-tableaux over the symbol bounds.

    With type_weight a Multicomposition, restrict to that type; otherwise
    return the full union over all types.  lam must be a multipartition.
    """
    if not lam.is_partition():
        raise ValueError("shape must be a multipartition")
    symbols = bounds.symbols()
    budget = None
    if type_weight is not None:
        if type_weight.m != bounds.m:
            raise ValueError("type weight bookkeeping disagrees with bounds")
        if type_weight.n != lam.n:
            raise ValueError("type weight size disagrees with the shape")
        budget = {(i, s): type_weight.parts[s - 1][i - 1]
                  for (i, s) in symbols}

    boxes = lam.boxes()
    place = {box: p for p, box in enumerate(boxes)}
    # per box, in reading order: its component and the places of the
    # boxes left of it and above it (None where there is none)
    near = [(c, place.get((a, b - 1, c)), place.get((a - 1, b, c)))
            for a, b, c in boxes]
    cells = [None] * len(boxes)
    results = []

    def fill(idx):
        if idx == len(boxes):
            # rows of lam's widths holding symbols of `bounds`: the checks
            # of `TypedTableau.__init__` cannot fail
            it = iter(cells)
            results.append(TypedTableau._unchecked(lam, bounds, tuple(
                tuple(tuple(islice(it, w)) for w in comp)
                for comp in lam.parts)))
            return
        c, left, above = near[idx]
        left = None if left is None else cells[left]
        above = None if above is None else cells[above]
        for sym in symbols:
            if budget is not None and budget[sym] == 0:
                continue
            if not _fits(sym, c, left, above):
                continue
            cells[idx] = sym
            if budget is not None:
                budget[sym] -= 1
            fill(idx + 1)
            if budget is not None:
                budget[sym] += 1

    fill(0)
    return results


def superstandard(lam: Multicomposition, bounds: MultiShape) -> TypedTableau:
    """The unique semistandard tableau of type equal to its shape: every
    box of row a, component c holds (a, c)."""
    entries = [[[(a, c)] * w for a, w in enumerate(comp, start=1)]
               for c, comp in enumerate(lam.parts, start=1)]
    return TypedTableau(lam, bounds, entries)


# ---------------------------------------------------------------------------
# the distinguished representative attached to a labelled tableau
# ---------------------------------------------------------------------------

def w_of_labelled(w: Perm, shape_comp, labels, nrows: int) -> Perm:
    """Core of the labelled-tableau map.

    shape_comp is a plain composition, labels the same diagram filled by
    row indices 1..nrows.  Number the diagram row-wise (t_sup), relabel by
    w, then send each value i to the label of its box; sorting rows
    ascending gives a row-standard tableau of the label type, and the
    returned permutation carries its row-wise filling onto it.
    """
    n = sum(shape_comp)
    if len(w) != n:
        raise ValueError("permutation size disagrees with the shape")
    positions = {}
    counter = 1
    for ridx, width in enumerate(shape_comp):
        for b in range(width):
            positions[w[counter - 1]] = (ridx, b)
            counter += 1
    rows_out = [[] for _ in range(nrows)]
    for value in range(1, n + 1):
        ridx, b = positions[value]
        a = labels[ridx][b]
        rows_out[a - 1].append(value)
    img = [0] * n
    counter = 1
    for row in rows_out:
        for v in sorted(row):
            img[counter - 1] = v
            counter += 1
    return tuple(img)


def bar_tableau(S: TypedTableau):
    """Flatten a typed tableau: shape becomes the concatenated composition
    and each entry (i, s) becomes i + m_1 + ... + m_{s-1}."""
    shape_comp = S.shape.bar()
    rows = []
    for comp in S.entries:
        for row in comp:
            rows.append(tuple(S.bounds.flatten_symbol(e) for e in row))
    return shape_comp, tuple(rows)


def w_S(w: Perm, S: TypedTableau) -> Perm:
    """The distinguished representative determined by S and w.

    The result is minimal in its coset of the Young subgroup of the
    flattened type of S.
    """
    shape_comp, labels = bar_tableau(S)
    nrows = S.bounds.total
    return w_of_labelled(w, shape_comp, labels, nrows)


def one_A(A: TypedTableau) -> Perm:
    """w_S at the identity: the representative 1_A of a semistandard A."""
    return w_S(identity(A.shape.n), A)


# ---------------------------------------------------------------------------
# nodes, removal, branching combinatorics
# ---------------------------------------------------------------------------

Node = tuple  # (row i, column j, component k)


def _component_removable(comp):
    out = []
    for i, part in enumerate(comp, start=1):
        if part == 0:
            continue
        if i == len(comp) or part > comp[i]:
            out.append((i, part))
    return out


def _component_addable(comp):
    out = []
    for i, part in enumerate(comp, start=1):
        if i == 1 or comp[i - 2] > part:
            out.append((i, part + 1))
    return out


def _nodes(lam: Multicomposition, component_nodes):
    """The nodes (i, j, k) that `component_nodes` gives for each component
    k, in ascending node order: last component first, lowest row first."""
    if not lam.is_partition():
        raise ValueError("nodes are defined for multipartitions")
    nodes = [(i, j, k) for k, comp in enumerate(lam.parts, start=1)
             for (i, j) in component_nodes(comp)]
    nodes.sort(key=lambda node: (-node[2], -node[0]))
    return nodes


def removable_nodes(lam: Multicomposition):
    """Removable nodes in ascending node order: the first node is the
    least one (last component, lowest row)."""
    return _nodes(lam, _component_removable)


def addable_nodes(lam: Multicomposition):
    """Addable nodes, same ordering convention as removable_nodes.

    A node (i, lambda_i + 1) is addable when i = 1 or the row above is
    strictly longer (so the first empty row of a component is addable)."""
    return _nodes(lam, _component_addable)


def remove_node(lam: Multicomposition, node: Node, m=None) -> Multicomposition:
    i, j, k = node
    if node not in removable_nodes(lam):
        raise ValueError(f"node {node} is not removable from {lam}")
    parts = [list(c) for c in lam.parts]
    parts[k - 1][i - 1] -= 1
    return Multicomposition(parts, m=m if m is not None else lam.m)


def t_lambda_x(lam: Multicomposition, node: Node, bounds: MultiShape) -> TypedTableau:
    """The tableau with entry (a, c) everywhere except the maximal symbol
    (m_r, r) at the given removable node."""
    if node not in removable_nodes(lam):
        raise ValueError(f"node {node} is not removable from {lam}")
    top = (bounds.m[-1], bounds.r)
    entries = []
    for c, comp in enumerate(lam.parts, start=1):
        rows = []
        for a, w in enumerate(comp, start=1):
            rows.append([top if (a, b, c) == node else (a, c)
                         for b in range(1, w + 1)])
        entries.append(rows)
    T = TypedTableau(lam, bounds, entries)
    if not T.is_semistandard():
        raise AssertionError("marked tableau failed the semistandard check")
    return T


def gamma(lam: Multicomposition, m=None) -> Multicomposition:
    """Append a final part 1 to the last component (weight over the
    extended bookkeeping m)."""
    parts = [list(c) for c in lam.parts]
    parts[-1] = parts[-1] + [1]
    if m is None:
        m = lam.m[:-1] + (lam.m[-1] + 1,)
    return Multicomposition(parts, m=m)


def gamma_inverse(mu: Multicomposition, m=None) -> Multicomposition:
    """Inverse of gamma on its image (last part of the last component 1)."""
    if mu.parts[-1][-1] != 1:
        raise ValueError("weight is not in the image of the embedding")
    parts = [list(c) for c in mu.parts]
    parts[-1] = parts[-1][:-1]
    if m is None:
        m = mu.m[:-1] + (mu.m[-1] - 1,)
    return Multicomposition(parts, m=m)
