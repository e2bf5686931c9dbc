"""Scalar rings for the multiplication engine.

`ScalarContext` is the ground ring Z[q, q^-1, Q_1, ..., Q_r].  A scalar is
a sparse Laurent polynomial with plain Python integer coefficients; the
q-exponent may be negative, the Q-exponents may not.  It is stored as
q^lo times one packed int per Q-monomial (Kronecker substitution twice:
the packed monomials of Monagan and Pearce, ISSAC 2009, and integer-encoded
polynomials as in Fateman 2010 and Harvey, JSC 44 (2009)).

The Q-exponents of a monomial form one int key, each in a slot of
`_SLOT_BITS` = 32 bits, Q_1 lowest:

    key = e_r << 32 (r - 1) | ... | e_2 << 32 | e_1

so the product of two Q-monomials is the sum of their keys and the unit's
key is 0.  The top bit of each slot is a guard: constructors refuse a
Q-exponent >= 2^31 with ValueError, so the sum of two valid keys never
carries out of a slot, and a product with a guard bit set in any of its
keys raises ExponentOverflow instead of wrapping.

The q-polynomial of each Q-monomial, divided by q^lo, is that polynomial
evaluated at q = 2^w: coefficient i sits in the signed w-bit slot i, and
a negative slot borrows from the one above.  `lo` is the lowest
q-exponent of the whole scalar, so some Q-monomial has a nonzero slot 0.
A product of scalars adds keys and `lo`s and multiplies the packed ints,
one big-int multiply per pair of Q-monomials; a sum shifts the operand
with the higher `lo` up and strips the low slots that every Q-monomial
has lost.  Each scalar carries a bound on the sum of its absolute
coefficients (b1 + b2 for a sum, b1 * b2 for a product), which bounds
every coefficient an operation can make.  Operations run at w = 64 while
that bound fits a signed 64-bit slot; otherwise they run at a width that
holds it, and the result is re-encoded at the narrowest multiple of 64
bits that holds its coefficients.  So no coefficient ever wraps, every
value has one form, and `==` and `hash` compare `(lo, w, packed ints)`.
Only `terms()` (which returns exponent tuples), `text()`, `to_json()`
and `repr` decode.

`PointContext` is the image of that ring at one rational `Specialization`:
the exact ring Q there, whose elements are plain `Fraction`s, or F_p,
p = 2^61 - 1, whose elements are plain ints: a/b maps to a * b^-1 mod p.
Both maps are ring homomorphisms, so an element built over the image is
the generic element evaluated (and reduced) there, and a rank that is
full mod p is full at the rational point too.  Every check taken at a
point computes over one of these rings; the tests compare them with a
term-by-term evaluation of the generic scalar (`specialize` in
`tests/conftest.py`).

All rings satisfy `ScalarRing`, the small protocol that `hecke` relies
on; their elements satisfy `Scalar`: ring arithmetic and a truth value
that is false at zero.  Arithmetic on the ints of F_p is plain int
arithmetic, so a result may be negative, at least p, or a nonzero
multiple of p; the ring's `normal` reduces a finished term dict (value
by key) into [0, p) and drops its zeros.  The other rings' elements are
in normal form as they are, and their `normal` returns its argument.

All values are immutable after construction and all operations are pure,
so scalars are safe to share between threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from random import Random
from typing import Protocol

__all__ = [
    "ContextMismatch",
    "ExponentOverflow",
    "Scalar",
    "ScalarRing",
    "ScalarContext",
    "ExactScalar",
    "Specialization",
    "PRIME",
    "UnmappablePoint",
    "PointContext",
]


class ContextMismatch(ValueError):
    """Scalars from incompatible contexts (different r) were combined."""


class ExponentOverflow(OverflowError):
    """A product of scalars has a Q-exponent of 2^31 or more, which does
    not fit its slot of the packed monomial key.  The CLI exits 3
    (resource limit) on it."""


#: width of one Q-exponent slot of a packed monomial key
_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1
#: Q-exponents stay below this; its bit is the slot's guard bit
_Q_EXP_LIMIT = 1 << (_SLOT_BITS - 1)


def _width(b: int) -> int:
    """The narrowest q-slot width, a multiple of 64 bits, whose signed
    range holds every int of absolute value at most b."""
    return 64 * (b.bit_length() // 64 + 1)


def _encode(group: dict, lo: int, w: int) -> int:
    """{e: c} as the int sum c 2^(w (e - lo)): one signed w-bit slot per
    q-exponent from lo."""
    return sum(c << w * (e - lo) for e, c in group.items())


def _decode(terms: dict, lo: int, w: int) -> dict:
    """{key: {e: c}} of packed groups: the inverse of `_encode`, reading
    each slot as signed and borrowing from the slot above."""
    mask, half, full = (1 << w) - 1, 1 << (w - 1), 1 << w
    out = {}
    for key, p in terms.items():
        g, e = {}, lo
        while p:
            c = p & mask
            if c >= half:
                c -= full
            if c:
                g[e] = c
            p = (p - c) >> w
            e += 1
        out[key] = g
    return out


class Scalar(Protocol):
    """An element of a scalar ring, as the multiplication engine uses it:
    ring operations with elements of the same ring, and `bool`, false at
    zero: `ExactScalar`, `Fraction` over Q at a point, and int over F_p,
    where a nonzero multiple of p is zero too until the ring's `normal`
    reduces it."""

    def __add__(self, other): ...

    def __sub__(self, other): ...

    def __mul__(self, other): ...

    def __neg__(self): ...

    def __bool__(self) -> bool: ...


class ScalarRing(Protocol):
    """A coefficient ring for the engine: Z[q^+-1, Q_1..Q_r] or an image
    of it.  `is_scalar` tells the engine which operands it may treat as
    scalars (ints and the ring's own elements: `ExactScalar`, `Fraction`
    over Q at a point, int over F_p); `normal` puts a finished term dict
    in normal form."""

    r: int

    def zero(self) -> Scalar: ...

    def one(self) -> Scalar: ...

    def from_int(self, k: int) -> Scalar: ...

    def q(self, e: int = 1) -> Scalar: ...

    def Q(self, k: int, e: int = 1) -> Scalar: ...

    def elementary_symmetric(self, k: int) -> Scalar: ...

    def is_scalar(self, x) -> bool: ...

    def normal(self, terms: dict) -> dict: ...


def _term_sort_key(exps):
    # canonical order: Q-exponents first, then the q-exponent; this matches
    # the documented text form `1*q^-1 - 1*q^1 + 2*Q1^1*Q2^1`
    return exps[1:] + exps[:1]


class ScalarContext:
    """Fixes the number r >= 1 of cyclotomic parameters Q_1..Q_r."""

    __slots__ = ("r", "_guard", "_zero", "_one")

    def __init__(self, r: int):
        if r < 1:
            raise ValueError(f"need r >= 1, got {r}")
        self.r = int(r)
        self._guard = sum(_Q_EXP_LIMIT << (_SLOT_BITS * k) for k in range(self.r))
        # shared: scalars are immutable, and these are asked for per term
        self._zero = ExactScalar(self, {}, 0, 64, 0)
        self._one = ExactScalar(self, {0: 1}, 0, 64, 1)

    # -- packed keys and groups ------------------------------------------

    def _pack(self, qexps) -> int:
        """The key of the Q-exponents (e_1, ..., e_r)."""
        if len(qexps) != self.r:
            raise ValueError("exponent vector has wrong length")
        key = 0
        for e in reversed(qexps):
            if not 0 <= e < _Q_EXP_LIMIT:
                raise ValueError(f"Q-exponent {e} is negative or does not fit "
                                 f"its slot (limit 2^{_SLOT_BITS - 1})")
            key = key << _SLOT_BITS | e
        return key

    def _unpack(self, key: int) -> tuple:
        """The Q-exponents (e_1, ..., e_r) of a key."""
        return tuple(key >> (_SLOT_BITS * k) & _SLOT_MASK for k in range(self.r))

    def _build(self, groups) -> "ExactScalar":
        """The scalar sum c q^e Q^key over {key: {e: c}}, in canonical form:
        lowest q-exponent `lo`, and the narrowest width holding every c."""
        groups = {k: {e: c for e, c in g.items() if c} for k, g in groups.items()}
        groups = {k: g for k, g in groups.items() if g}
        if not groups:
            return self._zero
        coeffs = [c for g in groups.values() for c in g.values()]
        lo = min(e for g in groups.values() for e in g)
        w = _width(max(map(abs, coeffs)))
        return ExactScalar(self, {k: _encode(g, lo, w) for k, g in groups.items()},
                           lo, w, sum(map(abs, coeffs)))

    def compatible(self, other: "ScalarContext") -> None:
        if self.r != other.r:
            raise ContextMismatch(f"scalar contexts disagree: r={self.r} vs r={other.r}")

    def is_scalar(self, x) -> bool:
        return isinstance(x, (int, ExactScalar))

    def normal(self, terms: dict) -> dict:
        """A finished term dict: already in normal form here."""
        return terms

    # -- constructors --------------------------------------------------

    def zero(self) -> "ExactScalar":
        return self._zero

    def from_int(self, k: int) -> "ExactScalar":
        k = int(k)
        if k == 0:
            return self._zero
        return ExactScalar(self, {0: k}, 0, _width(abs(k)), abs(k))

    def one(self) -> "ExactScalar":
        return self._one

    def q(self, e: int = 1) -> "ExactScalar":
        return ExactScalar(self, {0: 1}, int(e), 64, 1)

    def Q(self, k: int, e: int = 1) -> "ExactScalar":
        if not 1 <= k <= self.r:
            raise ValueError(f"Q index {k} out of range 1..{self.r}")
        exps = [0] * self.r
        exps[k - 1] = int(e)
        return ExactScalar(self, {self._pack(exps): 1}, 0, 64, 1)

    def from_terms(self, terms) -> "ExactScalar":
        """The scalar with the given {(e_q, e_1, ..., e_r): coefficient}."""
        groups: dict = {}
        for exps, c in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.r + 1:
                raise ValueError("exponent vector has wrong length")
            g = groups.setdefault(self._pack(exps[1:]), {})
            g[exps[0]] = g.get(exps[0], 0) + int(c)
        return self._build(groups)

    def elementary_symmetric(self, k: int) -> "ExactScalar":
        """e_k(Q_1, ..., Q_r); e_0 = 1."""
        if k == 0:
            return self.one()
        if not 0 <= k <= self.r:
            raise ValueError(f"elementary symmetric degree {k} out of range")
        terms = {sum(1 << (_SLOT_BITS * (i - 1)) for i in subset): 1
                 for subset in combinations(range(1, self.r + 1), k)}
        return ExactScalar(self, terms, 0, 64, len(terms))

    # -- parsing --------------------------------------------------------

    def from_json(self, data) -> "ExactScalar":
        if isinstance(data, str):
            data = json.loads(data)
        terms = {}
        for t in data["terms"]:
            qs = list(t.get("Q", [0] * self.r))
            if len(qs) != self.r:
                raise ValueError("Q exponent list has wrong length")
            exps = (int(t["q"]),) + tuple(int(e) for e in qs)
            terms[exps] = terms.get(exps, 0) + int(t["c"])
        return self.from_terms(terms)

    _FACTOR = re.compile(r"^(q|Q(\d+))\^(-?\d+)$")

    def parse(self, text: str) -> "ExactScalar":
        """Inverse of ExactScalar.text()."""
        text = text.strip()
        if text == "0":
            return self.zero()
        terms: dict = {}
        # terms are joined by " + " / " - "; a leading sign has no space
        lead = "+"
        if text.startswith("-"):
            lead = "-"
            text = text[1:].lstrip()
        chunks = [lead] + re.split(r"\s+([+-])\s+", text)
        for sign, body in zip(chunks[0::2], chunks[1::2]):
            factors = body.split("*")
            coeff = int(factors[0])
            if sign == "-":
                coeff = -coeff
            exps = [0] * (self.r + 1)
            for f in factors[1:]:
                mt = self._FACTOR.match(f)
                if not mt:
                    raise ValueError(f"bad scalar factor {f!r}")
                e = int(mt.group(3))
                if mt.group(1) == "q":
                    exps[0] += e
                else:
                    k = int(mt.group(2))
                    if not 1 <= k <= self.r:
                        raise ValueError(f"Q index {k} out of range")
                    exps[k] += e
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return self.from_terms(terms)

    def __repr__(self):
        return f"ScalarContext(r={self.r})"

    def __eq__(self, other):
        return isinstance(other, ScalarContext) and other.r == self.r

    def __hash__(self):
        return hash(("ScalarContext", self.r))


class ExactScalar:
    """A sparse Laurent polynomial in q with polynomial Q-dependence.

    The value is q^`_lo` times the sum over `_terms` of Q^key P(q): each
    packed Q-key (see the module docstring) maps to a nonzero int, its
    q-polynomial P evaluated at q = 2^`_w`, one signed `_w`-bit slot per
    q-exponent, with some slot 0 nonzero.  `_bound` bounds the sum of the
    absolute coefficients; an operation whose bound does not fit a signed
    64-bit slot runs wider, and its result is re-encoded at the narrowest
    width holding its coefficients, so equal values have equal
    `(_lo, _w, _terms)`.  Never mutated after construction.
    """

    __slots__ = ("ctx", "_terms", "_lo", "_w", "_bound")

    def __init__(self, ctx: ScalarContext, terms: dict, lo: int, w: int, bound: int):
        self.ctx = ctx
        self._terms = terms
        self._lo = lo
        self._w = w
        self._bound = bound

    # -- inspection -----------------------------------------------------

    def terms(self):
        """{(e_q, e_1, ..., e_r): coefficient}, decoded from the groups."""
        unpack = self.ctx._unpack
        return {(e,) + unpack(k): c
                for k, g in _decode(self._terms, self._lo, self._w).items()
                for e, c in g.items()}

    def __bool__(self):
        return bool(self._terms)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.ctx is not self.ctx:
                self.ctx.compatible(other.ctx)
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    def _at(self, w):
        """The packed groups re-encoded at slot width w >= `_w`."""
        if w == self._w:
            return self._terms
        return {k: _encode(g, self._lo, w)
                for k, g in _decode(self._terms, self._lo, self._w).items()}

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self._terms and other._terms):
            return self if self._terms else other
        bound = self._bound + other._bound
        if self._w == other._w == 64 and not bound >> 63:
            w, out, b = 64, self._terms, other._terms
        else:
            w = max(self._w, other._w, _width(bound))
            out, b = self._at(w), other._at(w)
        lo, d = self._lo, other._lo - self._lo
        if d < 0:
            lo, d, out, b = other._lo, -d, b, out
        out = dict(out)
        d *= w
        for k, p in b.items():
            p = out.get(k, 0) + (p << d)
            if p:
                out[k] = p
            else:
                del out[k]
        if not out:
            return self.ctx._zero
        if not d and not any(p & ((1 << w) - 1) for p in out.values()):
            # the lowest q-part cancelled: strip the zero slots all share
            s = min(((p & -p).bit_length() - 1) // w for p in out.values())
            out = {k: p >> w * s for k, p in out.items()}
            lo += s
        if w != 64:
            return self.ctx._build(_decode(out, lo, w))
        return ExactScalar(self.ctx, out, lo, 64, bound)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.ctx, {k: -p for k, p in self._terms.items()},
                           self._lo, self._w, self._bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self._terms and other._terms):
            return self.ctx._zero
        bound = self._bound * other._bound
        if self._w == other._w == 64 and not bound >> 63:
            w, a, b = 64, self._terms, other._terms
        else:
            w = max(self._w, other._w, _width(bound))
            a, b = self._at(w), other._at(w)
        out: dict = {}
        get = out.get
        right = b.items()
        for k1, p1 in a.items():
            for k2, p2 in right:
                key = k1 + k2
                out[key] = get(key, 0) + p1 * p2
        if not all(out.values()):
            out = {k: p for k, p in out.items() if p}
        # valid slots add without carrying, so a set guard bit is the
        # only way a Q-exponent can leave its slot
        guard = self.ctx._guard
        for key in out:
            if key & guard:
                raise ExponentOverflow(
                    f"a Q-exponent of the product reaches 2^{_SLOT_BITS - 1}")
        # the lowest q-parts of both factors are nonzero polynomials in Q,
        # and so is their product: no slot needs stripping
        lo = self._lo + other._lo
        if w != 64:
            return self.ctx._build(_decode(out, lo, w))
        return ExactScalar(self.ctx, out, lo, 64, bound)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only exist for monomials in q")
        out = self.ctx.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        self.ctx.compatible(other.ctx)
        return (self._terms == other._terms and self._lo == other._lo
                and self._w == other._w)

    def __hash__(self):
        return hash((self.ctx.r, self._lo, self._w, frozenset(self._terms.items())))

    # -- serialization ----------------------------------------------------

    def text(self) -> str:
        if not self._terms:
            return "0"
        terms = self.terms()
        parts = []
        for exps in sorted(terms, key=_term_sort_key):
            c = terms[exps]
            factors = []
            if exps[0]:
                factors.append(f"q^{exps[0]}")
            for k in range(1, self.ctx.r + 1):
                if exps[k]:
                    factors.append(f"Q{k}^{exps[k]}")
            body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def to_json(self) -> dict:
        terms = self.terms()
        return {"terms": [
            {"c": str(terms[e]), "q": e[0], "Q": list(e[1:])}
            for e in sorted(terms, key=_term_sort_key)]}

    def __repr__(self):
        return f"ExactScalar({self.text()})"


@dataclass(frozen=True)
class Specialization:
    """Rational evaluation point for (q, Q_1, ..., Q_r); q must be nonzero."""

    q_value: Fraction
    Q_values: tuple

    def __post_init__(self):
        object.__setattr__(self, "q_value", Fraction(self.q_value))
        object.__setattr__(self, "Q_values",
                           tuple(Fraction(v) for v in self.Q_values))
        if self.q_value == 0:
            raise ValueError("q must be specialized to a nonzero value")

    @property
    def r(self) -> int:
        return len(self.Q_values)

    @classmethod
    def random(cls, r: int, rng: Random) -> "Specialization":
        """Pairwise-distinct nonzero points, |q| != 1, suitable for rank
        certification (distinctness keeps the point generic)."""
        seen = set()
        vals = []
        while len(vals) < r + 1:
            v = Fraction(rng.randint(2, 97), rng.randint(1, 13))
            if v in seen or v == 1:
                continue
            seen.add(v)
            vals.append(v)
        return cls(q_value=vals[0], Q_values=tuple(vals[1:]))

    def to_json(self) -> dict:
        return {"q": str(self.q_value), "Q": [str(v) for v in self.Q_values]}


#: the Mersenne prime 2^61 - 1; residues fit one machine word
PRIME = (1 << 61) - 1


class UnmappablePoint(ValueError):
    """The rational point has no image in F_p: a denominator, or q, is
    divisible by p."""


def _residue(x) -> int:
    """a/b as a * b^-1 mod p, in [0, p)."""
    if x.denominator % PRIME == 0:
        raise UnmappablePoint(f"denominator of {x} is 0 mod p")
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def _residue_pow(x: int, e: int) -> int:
    return pow(x, e, PRIME)


class PointContext:
    """The image of Z[q^+-1, Q_1..Q_r] at one rational point `spec`: the
    exact ring Q (`modulus=None`, elements plain `Fraction`s) or F_p
    (`modulus=PRIME`, elements plain ints, in [0, p) in a normal term
    dict).  A point with no image in F_p (a denominator, or q, is 0 mod
    p) is refused with UnmappablePoint."""

    __slots__ = ("spec", "r", "modulus", "_lift", "_pow", "_q", "_Q", "_e",
                 "_zero", "_one")

    def __init__(self, spec: Specialization, modulus: int | None = None):
        self.spec = spec
        self.r = spec.r
        self.modulus = modulus
        if modulus is None:
            self._lift, self._pow = Fraction, pow
        elif modulus == PRIME:
            self._lift, self._pow = _residue, _residue_pow
        else:
            raise ValueError(f"modulus must be None or PRIME, got {modulus}")
        self._q = self._lift(spec.q_value)
        if not self._q:
            raise UnmappablePoint(f"q = {spec.q_value} is 0 mod p")
        self._Q = tuple(self._lift(v) for v in spec.Q_values)
        # shared: elements are immutable, and these are asked for per term
        self._zero = self._lift(0)
        self._one = self._lift(1)
        self._e = tuple(self._lift(sum(map(prod, combinations(
            spec.Q_values, k)))) for k in range(self.r + 1))

    def is_scalar(self, x) -> bool:
        return isinstance(x, (int, type(self._one)))

    def from_rational(self, x):
        """The image of a rational number (or an int) in this ring."""
        return self._lift(x)

    from_int = from_rational

    def normal(self, terms: dict) -> dict:
        """A finished term dict in normal form: as given over Q; over F_p
        each value reduced into [0, p), and the zeros dropped."""
        if self.modulus is None:
            return terms
        return {k: r for k, v in terms.items() if (r := v % PRIME)}

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def q(self, e: int = 1):
        return self._pow(self._q, e)

    def Q(self, k: int, e: int = 1):
        if not 1 <= k <= self.r:
            raise ValueError(f"Q index {k} out of range 1..{self.r}")
        if e < 0:
            raise ValueError("Q-exponents must be non-negative")
        return self._pow(self._Q[k - 1], e)

    def elementary_symmetric(self, k: int):
        """e_k(Q_1, ..., Q_r); e_0 = 1."""
        if not 0 <= k <= self.r:
            raise ValueError(f"elementary symmetric degree {k} out of range")
        return self._e[k]

    def __repr__(self):
        return f"PointContext({self.spec!r}, modulus={self.modulus})"

    def __eq__(self, other):
        return (isinstance(other, PointContext) and other.spec == self.spec
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("PointContext", self.spec, self.modulus))
