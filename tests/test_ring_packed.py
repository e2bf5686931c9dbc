"""Packed scalars of `ExactScalar` against a tuple-keyed reference.

`ExactScalar` stores each Q-monomial Q_1^{e_1}..Q_r^{e_r} as one int key
and its q-polynomial as one int with a signed 64-bit slot per q-exponent
(wider when the coefficients need it), so a product adds keys and
multiplies the packed polynomials.  The reference below is the same
arithmetic keyed by exponent tuples: the add and multiply loops the ring
used before packing.  Every operation must agree with it through
`terms()`, for coefficients at and past the edges of a slot too; equal
values built along different paths must be equal and hash alike; `text()`
and `to_json()` must round-trip; and the guard bit at the top of each Q
slot must turn a Q-exponent of 2^31 into an error, never a wrapped key.
"""

import io
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

from qschur import cli
from qschur.ring import PRIME, ExponentOverflow, ScalarContext

LIMIT = 1 << 31   # first Q-exponent that does not fit its slot


# -- the reference: dicts keyed by exponent tuples ------------------------------

def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        nc = out.get(e, 0) + c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            nc = out.get(key, 0) + c1 * c2
            if nc:
                out[key] = nc
            else:
                del out[key]
    return out


def ref_pow(a, k, r):
    out = {(0,) * (r + 1): 1}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


# -- random scalars ----------------------------------------------------------

# small Q-exponents collide and cancel; large ones fill most of a slot, and
# any product of two of them (or a cube) still fits below the guard bit
Q_EXP = st.one_of(st.integers(0, 3), st.integers((1 << 29) - 3, 1 << 29))

# small coefficients collide and cancel; the others sit at the edges of a
# signed 64-bit slot, or are multiples of PRIME, or need several slots
EDGES = [s * c for c in ((1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64)
         for s in (1, -1)]
COEFF = st.one_of(st.integers(-50, 50), st.sampled_from(EDGES),
                  st.integers(-3, 3).map(lambda k: k * PRIME),
                  st.integers(-(1 << 200), 1 << 200))


@st.composite
def cases(draw):
    """(r, a, b, k, c): two scalars as {exponent tuple: coefficient}, a
    power and an int.  b is free, or -a (the sum cancels to zero), or
    cancels the lowest q-part of a (the sum must shift its slots down)."""
    r = draw(st.integers(1, 4))
    exps = st.tuples(st.integers(-60, 60), *[Q_EXP] * r)
    terms = st.dictionaries(exps, COEFF, max_size=5)
    a = {e: c for e, c in draw(terms).items() if c}
    b = {e: c for e, c in draw(terms).items() if c}
    mode = draw(st.sampled_from(("free", "zero", "low")))
    if mode == "zero":
        b = ref_neg(a)
    elif mode == "low" and a:
        lo = min(e[0] for e in a)
        b = {e: c for e, c in b.items() if e[0] > lo}
        b.update((e, -c) for e, c in a.items() if e[0] == lo)
    return r, a, b, draw(st.integers(0, 3)), draw(COEFF)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_arithmetic_agrees_with_tuple_reference(case):
    r, ta, tb, k, c = case
    ctx = ScalarContext(r)
    a, b = ctx.from_terms(ta), ctx.from_terms(tb)
    unit = (0,) * (r + 1)
    assert a.terms() == ta and b.terms() == tb
    assert (a + b).terms() == ref_add(ta, tb)
    assert bool(a + b) == bool(ref_add(ta, tb))
    assert (a - b).terms() == ref_add(ta, ref_neg(tb))
    assert (-a).terms() == ref_neg(ta)
    assert (a + c).terms() == ref_add(ta, {unit: c} if c else {})
    assert (a * b).terms() == ref_mul(ta, tb)
    assert (a * c).terms() == (ref_mul(ta, {unit: c}) if c else {})
    assert (a ** k).terms() == ref_pow(ta, k, r)
    assert (a == b) == (ta == tb)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a * b == ctx.one()) == (ref_mul(ta, tb) == {unit: 1})


@settings(max_examples=200, deadline=None)
@given(cases())
def test_one_value_built_along_two_paths_is_equal_and_hashes_alike(case):
    r, ta, tb, _, c = case
    ctx = ScalarContext(r)
    a, b = ctx.from_terms(ta), ctx.from_terms(tb)
    for s in ((a + b) - b, b + (a - b), (a + c) - c, -(-a), a * (b - b + 1)):
        assert s == a and hash(s) == hash(a)
    assert (a - a) == ctx.zero() and not (a - a) and hash(a - a) == hash(ctx.zero())
    ab = ctx.from_terms(ref_mul(ta, tb))
    assert a * b == ab and hash(a * b) == hash(ab)


def test_coefficients_past_a_slot_widen_and_narrow_again():
    ctx = ScalarContext(2)
    top = (1 << 63) - 1   # the largest coefficient a 64-bit signed slot holds
    ta = {(0, 0, 0): top, (1, 0, 0): -top, (1, 1, 0): 1}
    a = ctx.from_terms(ta)
    # the sum and the square carry out of a 64-bit slot unless they widen
    assert (a + a).terms() == ref_add(ta, ta)
    assert (a * a).terms() == ref_mul(ta, ta)
    assert (a * a * a).terms() == ref_pow(ta, 3, 2)
    for s in ((a + a) - a, (a * a - a * a) + a, (a * a + a) - a * a):
        assert s == a and hash(s) == hash(a)
    low = a - ctx.from_terms({(0, 0, 0): top})
    assert low.terms() == {(1, 0, 0): -top, (1, 1, 0): 1}
    assert low == ctx.q() * ctx.from_terms({(0, 0, 0): -top, (0, 1, 0): 1})


def test_a_sum_whose_lowest_q_part_cancels_moves_its_slots_down():
    ctx = ScalarContext(2)
    b = ctx.from_terms({(0, 0, 0): 5, (2, 0, 0): 1, (1, 1, 0): 2})
    low = b - 5
    assert low.terms() == {(2, 0, 0): 1, (1, 1, 0): 2}
    shifted = ctx.q() * ctx.from_terms({(1, 0, 0): 1, (0, 1, 0): 2})
    assert low == shifted and hash(low) == hash(shifted)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_text_and_json_round_trip(case):
    r, ta, tb, _, _ = case
    ctx = ScalarContext(r)
    for s in (ctx.from_terms(ta), ctx.from_terms(ta) * ctx.from_terms(tb)):
        assert ctx.parse(s.text()) == s
        assert ctx.from_json(s.to_json()) == s


def test_keys_decode_each_slot_with_a_negative_q_exponent():
    ctx = ScalarContext(3)
    exps = (-7, LIMIT - 1, 0, 5)
    s = ctx.from_terms({exps: 2})
    assert s.terms() == {exps: 2}
    assert s.text() == f"2*q^-7*Q1^{LIMIT - 1}*Q3^5"
    assert s.to_json() == {"terms": [{"c": "2", "q": -7, "Q": [LIMIT - 1, 0, 5]}]}
    assert (s * ctx.q(7)).terms() == {(0, LIMIT - 1, 0, 5): 2}
    assert ctx.elementary_symmetric(2).terms() == {
        (0, 1, 1, 0): 1, (0, 1, 0, 1): 1, (0, 0, 1, 1): 1}


# -- the guard bit ------------------------------------------------------------

@pytest.mark.parametrize("r", [1, 2, 4])
def test_constructors_refuse_a_q_exponent_at_the_slot_limit(r):
    ctx = ScalarContext(r)
    for k in range(1, r + 1):
        exps = [0] * (r + 1)
        exps[k] = LIMIT
        with pytest.raises(ValueError):
            ctx.Q(k, LIMIT)
        with pytest.raises(ValueError):
            ctx.from_terms({tuple(exps): 1})
        with pytest.raises(ValueError):
            ctx.parse(f"1*Q{k}^{LIMIT}")
        with pytest.raises(ValueError):
            ctx.from_json({"terms": [{"c": "1", "q": 0, "Q": exps[1:]}]})
        # one below the limit is a valid exponent
        assert ctx.Q(k, LIMIT - 1).terms() == {tuple(
            LIMIT - 1 if i == k else 0 for i in range(r + 1)): 1}


@pytest.mark.parametrize("r", [1, 2, 4])
def test_a_product_crossing_the_guard_bit_raises(r):
    ctx = ScalarContext(r)
    for k in range(1, r + 1):
        top = ctx.Q(k, LIMIT - 2) * ctx.Q(k)
        assert top.terms() == {tuple(
            LIMIT - 1 if i == k else 0 for i in range(r + 1)): 1}
        with pytest.raises(ExponentOverflow):
            top * ctx.Q(k)
        with pytest.raises(ExponentOverflow):
            ctx.Q(k, 1 << 30) * ctx.Q(k, 1 << 30)
        with pytest.raises(ExponentOverflow):
            (ctx.Q(k, 1 << 30) + ctx.q(-3)) ** 2


def test_the_cli_exits_3_on_exponent_overflow(monkeypatch):
    def overflow(args):
        ctx = ScalarContext(2)
        return ctx.Q(2, LIMIT - 1) * ctx.Q(2)

    monkeypatch.setattr(cli, "cmd_compute", overflow)
    with redirect_stderr(io.StringIO()) as err:
        code = cli.main(["compute", "L", "--i", "1", "--n", "1", "--r", "2"])
    assert code == cli.RESOURCE
    assert "resource limit" in err.getvalue()
