from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SequentialRowSpace, random_scalar, rank_exact,
                      sequential_reduce, specialize)
from qschur import linalg
from qschur.linalg import RowSpace, nullspace, solve_in_span
from qschur.ring import PRIME, ContextMismatch, ScalarContext, Specialization


CTX = ScalarContext(2)


def test_unit_relation():
    assert CTX.q(1) * CTX.q(-1) == CTX.one()


def test_additive_inverse():
    q, qi = CTX.q(1), CTX.q(-1)
    assert not ((q - qi) + (qi - q))


def test_difference_of_squares():
    Q1, Q2 = CTX.Q(1), CTX.Q(2)
    assert (Q1 + Q2) * (Q1 - Q2) == Q1 * Q1 - Q2 * Q2


def test_context_mismatch_rejected():
    other = ScalarContext(3)
    with pytest.raises(ContextMismatch):
        CTX.q(1) + other.q(1)
    with pytest.raises(ContextMismatch):
        CTX.q(1) == other.q(1)


def test_specialize_values():
    s = Specialization(Fraction(2), (Fraction(3), Fraction(5)))
    assert specialize(CTX.q(-1), s) == Fraction(1, 2)
    assert specialize(CTX.Q(1) * CTX.Q(2), s) == 15
    s1 = Specialization(1, (Fraction(3), Fraction(5)))
    assert specialize(CTX.q(1) - CTX.q(-1), s1) == 0


def test_specialize_arity_error():
    s = Specialization(Fraction(2), (Fraction(3),))
    with pytest.raises(ValueError):
        specialize(CTX.q(1), s)


def test_specialization_q_nonzero():
    with pytest.raises(ValueError):
        Specialization(0, (Fraction(1),))


def test_ring_axioms_randomized():
    # associativity and distributivity over 1000 random triples
    rng = Random(0)
    for _ in range(1000):
        a = random_scalar(CTX, rng)
        b = random_scalar(CTX, rng)
        c = random_scalar(CTX, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_specialize_is_homomorphism():
    rng = Random(1)
    for _ in range(300):
        s = Specialization.random(2, rng)
        a, b, c = (random_scalar(CTX, rng) for _ in range(3))
        lhs = specialize(a * b + c, s)
        rhs = specialize(a, s) * specialize(b, s) + specialize(c, s)
        assert lhs == rhs


def test_elementary_symmetric():
    e1 = CTX.elementary_symmetric(1)
    e2 = CTX.elementary_symmetric(2)
    assert e1 == CTX.Q(1) + CTX.Q(2)
    assert e2 == CTX.Q(1) * CTX.Q(2)


def test_text_form_example():
    s = CTX.q(-1) - CTX.q(1) + 2 * CTX.Q(1) * CTX.Q(2)
    assert s.text() == "1*q^-1 - 1*q^1 + 2*Q1^1*Q2^1"


@given(st.integers(-40, 40), st.integers(0, 6), st.integers(0, 6),
       st.integers(-5, 5))
def test_scalar_roundtrip(c, e1, e2, eq):
    s = CTX.from_terms({(eq, e1, e2): c}) + CTX.from_int(7)
    assert CTX.parse(s.text()) == s
    assert CTX.from_json(s.to_json()) == s


def test_random_scalar_roundtrip_bulk():
    rng = Random(3)
    for _ in range(500):
        s = random_scalar(CTX, rng, max_terms=6)
        assert CTX.parse(s.text()) == s
        assert CTX.from_json(s.to_json()) == s


# -- exact linear algebra ----------------------------------------------------

def test_rank_examples():
    assert rank_exact([[1, 2], [2, 4]]) == 1
    assert rank_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank_exact([[0] * 5, [0] * 5]) == 0


def test_rank_transpose_invariance():
    rng = Random(5)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(cols)] for _ in range(rows)]
        assert rank_exact(M) == rank_exact(list(zip(*M)))


def test_rank_against_rowspace():
    rng = Random(6)
    for _ in range(40):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)]
                for _ in range(rng.randint(1, 6))]
        space = RowSpace(4)
        for row in rows:
            space.add(row)
        assert rank_exact(rows) == space.rank


def test_nullspace_and_solve():
    rows = [[1, 2, 3], [2, 4, 6]]
    ns = nullspace(rows, 3)
    assert len(ns) == 2
    for v in ns:
        assert all(sum(Fraction(r[i]) * v[i] for i in range(3)) == 0
                   for r in rows)
    status, coeffs = solve_in_span([[1, 0], [0, 1]], [3, 4])
    assert status == "ok" and coeffs == [3, 4]
    status, _ = solve_in_span([[1, 0]], [0, 1])
    assert status == "inconsistent"
    status, _ = solve_in_span([[1, 0], [2, 0]], [1, 0])
    assert status == "nonunique"


def test_entries_beyond_ncols_are_refused():
    # entries beyond ncols are refused, never silently dropped
    with pytest.raises(ValueError):
        solve_in_span([[1, 0]], [1, 0, 5])
    with pytest.raises(ValueError):
        RowSpace(2).add([0, 0, 7])
    with pytest.raises(ValueError):
        RowSpace(2).contains([0, 0, 7])
    with pytest.raises(ValueError):
        nullspace([[1, 0], [0, 1, 9]], 2)
    with pytest.raises(ValueError):
        solve_in_span([[1, 0, 0]], [1, 0])


_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _systems(draw):
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.one_of(st.just(Fraction(0)), _fractions),
                   min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    if draw(st.booleans()):
        # a target inside the span
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                               max_size=len(rows)))
        target = [sum(c * r[j] for c, r in zip(coeffs, rows))
                  for j in range(ncols)]
    else:
        target = draw(row)
    return rows, target


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_elimination_against_bareiss(system):
    rows, target = system
    ncols = len(target)
    rank = rank_exact(rows)
    ns = nullspace(rows, ncols)
    assert len(ns) == ncols - rank
    for v in ns:
        assert all(sum(r[i] * v[i] for i in range(ncols)) == 0 for r in rows)
    status, coeffs = solve_in_span(rows, target)
    if rank_exact(rows + [target]) > rank:
        assert status == "inconsistent"
    elif rank < len(rows):
        assert status == "nonunique"
    else:
        assert status == "ok"
        assert [sum(c * r[j] for c, r in zip(coeffs, rows))
                for j in range(ncols)] == target


class _FractionGaussJordan:
    """Reference row space: plain Gauss-Jordan on Fraction rows, each
    pivot normalised to 1, every other row zero in a pivot column."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        vec = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if vec[p]:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec):
        red = self.reduce(vec)
        for p in range(self.ncols):
            if red[p]:
                red = [x / red[p] for x in red]
                for i, row in enumerate(self.rows):
                    if row[p]:
                        self.rows[i] = [a - row[p] * b for a, b in zip(row, red)]
                self.rows.append(red)
                self.pivots.append(p)
                return True
        return False

    def nullspace(self):
        basis = []
        for fc in sorted(set(range(self.ncols)) - set(self.pivots)):
            vec = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for row, pc in zip(self.rows, self.pivots):
                vec[pc] = -row[fc]
            basis.append(vec)
        return basis


def _reference_solve(rows, target):
    nb = len(rows)
    system = _FractionGaussJordan(nb + 1)
    for equation in zip(*rows, target):
        system.add(equation)
    if nb in system.pivots:
        return "inconsistent", None
    if len(system.rows) < nb:
        return "nonunique", None
    coeffs = [Fraction(0)] * nb
    for row, pc in zip(system.rows, system.pivots):
        coeffs[pc] = row[nb]
    return "ok", coeffs


@pytest.mark.parametrize("rows,target,expected", [
    # no vectors: only the zero target is in the (zero) span
    ([], [0, 0], ("ok", [])),
    ([], [0, 3], ("inconsistent", None)),
    # zero rows are a rank defect, unless the target escapes the span
    ([[0, 0]], [0, 0], ("nonunique", None)),
    ([[0, 0], [0, 0]], [Fraction(1, 2), 0], ("inconsistent", None)),
    ([[1, 0], [0, 0]], [5, 0], ("nonunique", None)),
    # duplicate rows: "inconsistent" takes precedence over "nonunique"
    ([[1, 2], [1, 2]], [2, 4], ("nonunique", None)),
    ([[1, 2], [1, 2]], [0, 1], ("inconsistent", None)),
    ([[1, 2], [2, 4], [0, 1]], [1, 3], ("nonunique", None)),
    # zero coordinates: every target is the empty one
    ([], [], ("ok", [])),
    ([[]], [], ("nonunique", None)),
    ([[], []], [], ("nonunique", None)),
    # one vector, fractional coefficient
    ([[2, 0, 4]], [3, 0, 6], ("ok", [Fraction(3, 2)])),
])
def test_solve_in_span_edge_cases(rows, target, expected):
    assert solve_in_span(rows, target) == expected
    assert _reference_solve(rows, target) == expected


# ints, small fractions with mixed denominators, and huge numerators
_entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6)),
)


@st.composite
def _vector_lists(draw):
    """Vectors, some of them zero, repeated, negated or scaled copies
    (negative pivots) and sums of earlier ones; plus one probe vector."""
    ncols = draw(st.integers(1, 6))
    vector = st.lists(_entries, min_size=ncols, max_size=ncols)
    vecs = draw(st.lists(vector, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(vecs) - 1))
        j = draw(st.integers(0, len(vecs) - 1))
        kind = draw(st.sampled_from(("zero", "repeat", "scaled", "sum")))
        if kind == "zero":
            new = [0] * ncols
        elif kind == "repeat":
            new = list(vecs[i])
        elif kind == "scaled":
            f = draw(st.sampled_from((-1, Fraction(-7, 3), Fraction(5, 10**12))))
            new = [f * x for x in vecs[i]]
        else:
            new = [a + b for a, b in zip(vecs[i], vecs[j])]
        vecs.insert(draw(st.integers(0, len(vecs))), new)
    probe = draw(st.one_of(vector, st.just([sum(col) for col in zip(*vecs)])))
    return vecs, probe


def _residues(vec):
    return [x.numerator * pow(x.denominator, -1, PRIME) % PRIME
            for x in map(Fraction, vec)]


@settings(max_examples=300, deadline=None)
@given(_vector_lists())
def test_integer_rowspace_matches_fraction_gauss_jordan(case):
    vecs, probe = case
    ncols = len(probe)
    space, ref = RowSpace(ncols), _FractionGaussJordan(ncols)
    for vec in vecs:
        assert space.add(vec) == ref.add(vec)
        assert space.rank == len(ref.rows)
        # stored rows: primitive integers, positive pivot, reduced
        for row, p in zip(space._rows, space._pivots):
            assert all(type(x) is int for x in row)
            assert gcd(*row) == 1 and row[p] > 0
            assert not any(row[:p])
            assert all(row[q] == 0 for q in space._pivots if q != p)
    basis = space.basis()
    assert basis == ref.rows
    assert all(type(x) is Fraction for row in basis for x in row)
    assert space.contains(probe) == ref.contains(probe)
    assert all(space.contains(vec) for vec in vecs)
    assert nullspace(vecs, ncols) == ref.nullspace()
    assert solve_in_span(vecs, probe) == _reference_solve(vecs, probe)
    assert solve_in_span(vecs[:1], vecs[0]) == _reference_solve(vecs[:1], vecs[0])
    # the F_p branch over the same inputs; the rank drops mod p = 2^61 - 1
    # only when p divides every maximal minor, a negligible chance here
    rank = rank_exact(vecs)
    fp = RowSpace(ncols, modulus=PRIME)
    for vec in vecs:
        fp.add(_residues(vec))
    assert fp.rank == rank == space.rank
    assert fp.contains(_residues(probe)) == (rank_exact(vecs + [probe]) == rank)


def _no_hit(space, vec):
    """vec with its entries at the pivots of `space` set to zero."""
    return [0 if p in space._pivots else x for p, x in enumerate(vec)]


def _assert_one_pass_matches(space, probes):
    for probe in probes:
        red = space._reduce(probe)
        assert red == sequential_reduce(space, probe)
        assert all(type(x) is int for x in red)


@settings(max_examples=300, deadline=None)
@given(_vector_lists(), st.booleans())
def test_one_pass_reduce_matches_row_by_row(case, backwards):
    # list for list over Q and over F_p, after every add; added backwards,
    # later rows tend to take earlier pivot columns
    vecs, probe = case
    if backwards:
        vecs = vecs[::-1]
    ncols = len(probe)
    spaces = RowSpace(ncols), RowSpace(ncols, modulus=PRIME)
    for vec in vecs:
        for space in spaces:
            space.add(vec)
            _assert_one_pass_matches(space, [
                probe, [-x for x in probe], [0] * ncols,
                _no_hit(space, probe), *vecs])


@pytest.mark.parametrize("modulus", [None, PRIME])
@pytest.mark.parametrize("rows,probes", [
    # pivots out of column order, and stored rows that are not monic
    ([[0, 0, 3, 1], [0, 2, 5, 0], [7, 1, 1, 1]],
     [[1, 2, 3, 4], [5, 0, 0, 0], [0, 0, 0, 9], [Fraction(1, 6), 0, 1, 0]]),
    # negative input pivots, and a probe hitting every row with huge entries
    ([[-4, 6, 0], [0, -9, 3]],
     [[10**40 + 1, -(10**35), Fraction(10**30, 7)], [-2, 3, 0]]),
    # no row hit, and the zero probe
    ([[0, 5, 0, 0]], [[3, 0, 1, 2], [0, 0, 0, 0]]),
])
def test_one_pass_reduce_cases(modulus, rows, probes):
    space = RowSpace(len(probes[0]), modulus=modulus)
    for row in rows:
        space.add(row)
    _assert_one_pass_matches(space, probes)


def test_one_pass_reduce_takes_content_out_once(monkeypatch):
    # one `_primitive` per reduction that hits a row over Q, none without
    # a hit, and none over F_p
    calls = []
    primitive = linalg._primitive

    def counted_primitive(vec):
        calls.append(vec)
        return primitive(vec)

    rows = [[2, 0, 1, 3], [0, 3, 0, 1], [0, 0, 5, 2]]
    spaces = RowSpace(4), RowSpace(4, modulus=PRIME)
    for space in spaces:
        for row in rows:
            space.add(row)
    monkeypatch.setattr(linalg, "_primitive", counted_primitive)
    q, fp = spaces
    q._reduce([1, Fraction(1, 2), 7, 4])
    assert len(calls) == 1
    q._reduce([0, 0, 0, 4])
    assert len(calls) == 1
    fp._reduce([1, 2, 7, 4])
    assert len(calls) == 1


@settings(max_examples=300, deadline=None)
@given(_vector_lists(), st.booleans())
def test_added_rows_match_row_by_row_back_substitution(case, backwards):
    # after every add, over Q and over F_p, the stored rows and pivots are
    # those of a space that back-substitutes one row at a time
    vecs, probe = case
    if backwards:
        vecs = vecs[::-1]
    for modulus in (None, PRIME):
        space, ref = RowSpace(len(probe), modulus), SequentialRowSpace(modulus)
        for vec in [*vecs, probe, [-x for x in probe]]:
            assert space.add(vec) == ref.add(vec)
            assert space._rows == ref._rows
            assert space._pivots == ref._pivots


def test_rowspace_refuses_other_moduli():
    for modulus in (7, 2, PRIME + 2):
        with pytest.raises(ValueError, match="None or PRIME"):
            RowSpace(3, modulus=modulus)


def test_fraction_entries_over_fp_are_residues():
    space = RowSpace(2, modulus=PRIME)
    assert space.add([Fraction(2), 1])
    third = pow(3, -1, PRIME)
    assert space._entries([Fraction(1, 3), Fraction(-2, 3)]) == [
        third, -2 * third % PRIME]
    assert space.contains([Fraction(4, 3), Fraction(2, 3)])
    assert not space.contains([Fraction(1, 3), 1])
    # the same rows as from the residues themselves
    same = RowSpace(2, modulus=PRIME)
    same.add([2, 1])
    assert same._rows == space._rows
    with pytest.raises(ValueError, match="0 mod"):
        space.add([Fraction(1, PRIME), 1])
    with pytest.raises(ValueError, match="0 mod"):
        space.contains([0, Fraction(5, 2 * PRIME)])


def test_specialization_random_distinct():
    rng = Random(9)
    for _ in range(50):
        s = Specialization.random(3, rng)
        vals = (s.q_value,) + s.Q_values
        assert len(set(vals)) == 4
        assert all(v not in (0, 1) for v in vals)
