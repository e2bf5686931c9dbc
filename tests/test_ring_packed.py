"""Packed monomial keys of `ExactScalar` against a tuple-keyed reference.

`ExactScalar` stores each monomial q^{e_q} Q_1^{e_1}..Q_r^{e_r} as one int
key, so a product adds keys.  The reference below is the same arithmetic
keyed by exponent tuples: the add and multiply loops the ring used before
packing.  Every operation must agree with it through `terms()`, `text()`
and `to_json()` must round-trip, and the guard bit at the top of each Q
slot must turn a Q-exponent of 2^31 into an error, never a wrapped key.
"""

import io
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

from qschur import cli
from qschur.ring import ExponentOverflow, ScalarContext

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


@st.composite
def cases(draw):
    r = draw(st.integers(1, 4))
    exps = st.tuples(st.integers(-60, 60), *[Q_EXP] * r)
    terms = st.dictionaries(exps, st.integers(-50, 50), max_size=5)
    a, b = draw(terms), draw(terms)
    return (r, {e: c for e, c in a.items() if c}, {e: c for e, c in b.items() if c},
            draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_arithmetic_agrees_with_tuple_reference(case):
    r, ta, tb, k = case
    ctx = ScalarContext(r)
    a, b = ctx.from_terms(ta), ctx.from_terms(tb)
    assert a.terms() == ta and b.terms() == tb
    assert (a + b).terms() == ref_add(ta, tb)
    assert (a - b).terms() == ref_add(ta, ref_neg(tb))
    assert (-a).terms() == ref_neg(ta)
    assert (a * b).terms() == ref_mul(ta, tb)
    assert (a ** k).terms() == ref_pow(ta, k, r)
    assert (a == b) == (ta == tb)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a * b == ctx.one()) == (ref_mul(ta, tb) == {(0,) * (r + 1): 1})


@settings(max_examples=200, deadline=None)
@given(cases())
def test_text_and_json_round_trip(case):
    r, ta, tb, _ = case
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
