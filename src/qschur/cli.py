"""Command line interface: enumeration, exact element printing, and the
verification suites, with deterministic machine-readable output.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 resource
limit exceeded (a size or time budget, or a Q-exponent too wide for the
packed scalar keys), 4 internal failure (an invariant of the package broke,
such as scalars of different contexts meeting or an AssertionError from
an internal check; a bug, not bad input).
All randomness flows from --seed (or QSCHUR_SEED).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from random import Random

from .branching import BranchContext
from .hecke import AlgebraContext
from .linalg import ResourceLimit
from .ring import ContextMismatch, ExponentOverflow, Specialization
from .schur import SchurContext, verify_basis_with_fallback
from .symgrp import all_permutations
from .tableaux import (MultiShape, Multicomposition, TypedTableau,
                       addable_nodes, bracket_leq, bracket_reversed,
                       enumerate_multicompositions, enumerate_ssyt,
                       removable_nodes)

USAGE_ERROR = 2
FAIL = 1
RESOURCE = 3
INTERNAL = 4


class _Budget:
    """Coarse wall-clock budget checked at natural checkpoints."""

    def __init__(self, max_seconds):
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds

    def check(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit("wall-clock budget exceeded")


def _nested_ints(x, depth) -> bool:
    if depth == 0:
        return type(x) is int
    return isinstance(x, list) and all(_nested_ints(y, depth - 1) for y in x)


def _parse_json_arg(text, what, depth):
    """The JSON value of an option, which must be ints (not booleans)
    nested in `depth` levels of lists: 1 for --m, 2 for a shape or weight,
    4 for a tableau."""
    try:
        value = json.loads(text)
    except (TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"malformed {what}: {text!r} ({exc})")
    if not _nested_ints(value, depth):
        raise UsageError(f"{what} must be a list of "
                         f"{'lists of ' * (depth - 1)}ints, got {text!r}")
    return value


class UsageError(ValueError):
    pass


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QSCHUR_SEED")
    return int(env) if env else 0


def _check_counts(args) -> None:
    """--max-dim and --samples count things and --max-seconds is a time: a
    negative or NaN one is a usage error, not a limit the run exceeded."""
    for name in ("max_dim", "samples", "max_seconds"):
        value = getattr(args, name, None)
        if value is not None and not value >= 0:
            option = "--" + name.replace("_", "-")
            raise UsageError(f"{option} must be >= 0, got {value}")


def _check_dim(n, r, max_dim) -> None:
    """Refuse an algebra whose dimension r^n n! exceeds --max-dim before it
    is built; an n or r below 1 is left to the constructors to refuse."""
    if min(n, r) >= 1 and r ** n * factorial(n) > max_dim:
        raise ResourceLimit("algebra dimension exceeds --max-dim")


def _flags(args) -> dict:
    out = {}
    if args.flags:
        for piece in args.flags.split(","):
            if "=" not in piece:
                raise UsageError(f"bad flag assignment {piece!r}")
            key, val = piece.split("=", 1)
            if key not in ("m_convention", "y_convention"):
                raise UsageError(f"unknown flag {key!r}")
            out[key] = val
    return out


def _shape_args(args):
    """(lambda, m, r) from --lambda, --m and --r: --m defaults to the row
    counts of lambda, and all three must agree on r >= 1."""
    if args.lam is None:
        raise UsageError("--lambda is required")
    lam_parts = _parse_json_arg(args.lam, "--lambda", 2)
    r = len(lam_parts)
    if r < 1:
        raise UsageError("--lambda needs at least one component")
    if args.m:
        m = _parse_json_arg(args.m, "--m", 1)
        if len(m) != r:
            raise UsageError(f"--lambda and --m disagree on r ({r}, {len(m)})")
    else:
        m = [max(1, len(c)) for c in lam_parts]
    if args.r is not None and args.r != r:
        raise UsageError(f"--lambda and --r disagree on r ({r}, {args.r})")
    return lam_parts, m, r


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        return json.dumps(payload, sort_keys=True)
    return "\n".join(text_lines)


# ---------------------------------------------------------------------------
# enum
# ---------------------------------------------------------------------------

def cmd_enum(args) -> int:
    fmt = args.format
    if args.what == "multicomp":
        if args.n is None or args.m is None:
            raise UsageError("enum multicomp needs --n and --m")
        if args.n < 1:
            raise UsageError("need n >= 1")
        m = _parse_json_arg(args.m, "--m", 1)
        items = enumerate_multicompositions(args.n, MultiShape(tuple(m)),
                                            partitions_only=args.partitions)
        payload = {"count": len(items), "items": [w.to_json() for w in items]}
        lines = [f"count: {len(items)}"] + [json.dumps(w.to_json()) for w in items]
        print(_emit(payload, fmt, lines))
        return 0
    if args.what == "ssyt":
        lam_parts, m, r = _shape_args(args)
        bounds = MultiShape(tuple(m))
        lam = Multicomposition(lam_parts)
        if args.mu and args.type:
            raise UsageError("enum ssyt takes --mu or --type, not both")
        weight = None
        if args.mu:
            weight = Multicomposition(_parse_json_arg(args.mu, "--mu", 2), m=m)
        if args.type:
            weight = Multicomposition(_parse_json_arg(args.type, "--type", 2), m=m)
        tabs = enumerate_ssyt(lam, bounds, weight)
        payload = {"count": len(tabs), "items": [t.to_json() for t in tabs]}
        lines = [f"count: {len(tabs)}"] + [json.dumps(t.to_json()["entries"])
                                           for t in tabs]
        print(_emit(payload, fmt, lines))
        return 0
    if args.what == "nodes":
        lam_parts, m, r = _shape_args(args)
        lam = Multicomposition(lam_parts)
        rem = removable_nodes(lam)
        add = addable_nodes(lam)
        note = ("removability follows the formal condition: a row end whose "
                "successor row is strictly shorter, or the last row of a "
                "component; informal listings sometimes omit interior nodes")
        payload = {"removable": [list(x) for x in rem],
                   "addable": [list(x) for x in add],
                   "count_removable": len(rem), "note": note}
        lines = [f"removable ({len(rem)}): " + " ".join(str(x) for x in rem),
                 f"addable ({len(add)}): " + " ".join(str(x) for x in add),
                 f"note: {note}"]
        print(_emit(payload, fmt, lines))
        return 0
    raise UsageError(f"unknown enum target {args.what!r}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    fmt = args.format
    seed = _seed(args)
    budget = _Budget(args.max_seconds)
    if args.what in ("relations", "lemma24"):
        if args.n is None or args.r is None:
            raise UsageError(f"verify {args.what} needs --n and --r")
        n, r = args.n, args.r
    else:
        lam_parts, m, r = _shape_args(args)
        n = sum(sum(c) for c in lam_parts)
    _check_dim(n, r, args.max_dim)
    if args.what == "relations":
        ctx = AlgebraContext(n, r, **_flags(args))
        rel = ctx.relation_reports()
        budget.check()
        rng = Random(seed)
        basis = ctx.basis_monomials()
        assoc_ok = True
        samples = args.samples
        for _ in range(samples):
            a = ctx.basis_element(*basis[rng.randrange(len(basis))])
            b = ctx.basis_element(*basis[rng.randrange(len(basis))])
            c = ctx.basis_element(*basis[rng.randrange(len(basis))])
            if (a * b) * c != a * (b * c):
                assoc_ok = False
                break
        budget.check()
        dim = ctx.regular_closure_dim(seed=seed, max_dim=args.max_dim)
        payload = {"n": n, "r": r, "relations": rel,
                   "associativity_samples": samples, "associativity": assoc_ok,
                   "closure_dim": dim, "expected_dim": ctx.dimension(),
                   "pass": all(rel.values()) and assoc_ok and dim == ctx.dimension()}
        lines = [f"{k}: {v}" for k, v in sorted(rel.items())]
        lines.append(f"associativity ({samples} samples): {assoc_ok}")
        lines.append(f"closure dimension: {dim} (expected {ctx.dimension()})")
        lines.append(f"pass: {payload['pass']}")
        print(_emit(payload, fmt, lines))
        return 0 if payload["pass"] else FAIL
    if args.what == "lemma24":
        payload = _lemma24_report(n, r, seed, budget, **_flags(args))
        lines = [f"vanishing (pairs checked {payload['pairs_checked']}): "
                 f"{payload['vanishing']}",
                 f"freeness ranks: {payload['freeness_ranks']}",
                 f"pass: {payload['pass']}"]
        print(_emit(payload, fmt, lines))
        return 0 if payload["pass"] else FAIL
    if args.what == "basis":
        flags = _flags(args)
        if flags:
            sc = SchurContext(n, r, tuple(m), **flags)
            report = sc.verify_basis_independence(
                sc.weight(lam_parts), seed=seed, max_dim=args.max_dim)
        else:
            report = verify_basis_with_fallback(n, r, tuple(m), lam_parts,
                                                seed=seed, max_dim=args.max_dim)
        budget.check()
        lines = [f"lambda: {json.dumps(report['lambda'])}",
                 f"count: {report['count']}", f"rank: {report['rank']}",
                 f"flags: {json.dumps(report['flags'], sort_keys=True)}",
                 f"certified: {report['certified']}"]
        print(_emit(report, fmt, lines))
        return 0 if report["certified"] else FAIL
    if args.what == "branch":
        bc = BranchContext(n - 1, r, tuple(m), lam_parts, **_flags(args))
        report = bc.branch_dim_identity()
        budget.check()
        lines = [f"lambda: {json.dumps(report['lambda'])}"]
        for layer in report["layers"]:
            lines.append(f"node {layer['node']}: quotient {layer['quotient_dim']}"
                         f" vs weyl {layer['weyl_dim']} -> {layer['match']}")
        lines.append(f"identity_holds: {report['identity_holds']}")
        print(_emit(report, fmt, lines))
        return 0 if report["identity_holds"] else FAIL
    raise UsageError(f"unknown verify target {args.what!r}")


def _lemma24_report(n, r, seed, budget, **flags):
    ctx = AlgebraContext(n, r, **flags)
    brackets = [(0, *c, n)
                for c in combinations_with_replacement(range(n + 1), r - 1)]

    vanish_ok = True
    pairs = 0
    basis = ctx.basis_monomials()
    for a in brackets:
        ua = ctx.u_plus(a)
        for b in brackets:
            if bracket_leq(a, b):
                continue
            pairs += 1
            ub = ctx.u_minus(bracket_reversed(b))
            for (c, w) in basis:
                if ua * ctx.basis_element(c, w) * ub:
                    vanish_ok = False
                    break
            budget.check()

    def freeness(a):
        def fill(algebra, add):
            va, one = algebra.v_element(a), algebra.scalars.one()
            for w in all_permutations(n):
                add([(one, va * algebra.T(w))])
            budget.check()
        return factorial(n), fill

    spec = Specialization.random(r, Random(seed))
    ranks = ctx.ranks_at(spec, [freeness(a) for a in brackets])
    free_ok = all(rk == factorial(n) for rk in ranks)
    return {"n": n, "r": r, "vanishing": vanish_ok, "pairs_checked": pairs,
            "freeness_ranks": {str(list(a)): rk for a, rk in zip(brackets, ranks)},
            "freeness": free_ok,
            "expected_rank": factorial(n), "pass": vanish_ok and free_ok}


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    fmt = args.format
    if args.what == "L":
        if args.i is None or args.n is None or args.r is None:
            raise UsageError("compute L needs --i, --n, --r")
        ctx = AlgebraContext(args.n, args.r, **_flags(args))
        elem = ctx.jucys_murphy(args.i)
        print(_emit(elem.to_json(), fmt, [elem.text()]))
        return 0
    lam_parts, m, r = _shape_args(args)
    n = sum(sum(c) for c in lam_parts)
    _check_dim(n, r, args.max_dim)
    sc = SchurContext(n, r, tuple(m), **_flags(args))
    lam = sc.weight(lam_parts)
    if args.what == "z":
        elem = sc.z_element(lam)
    elif args.what == "x":
        elem = sc.x_element(lam)
    elif args.what == "y":
        elem = sc.algebra.y_element(lam)
    elif args.what == "m":
        elem = sc.algebra.m_element(lam)
    elif args.what == "h":
        mu = lam
        if args.mu:
            mu = sc.weight(_parse_json_arg(args.mu, "--mu", 2))
        tabs = enumerate_ssyt(lam, sc.shape, mu)
        if not tabs:
            raise UsageError("no semistandard tableau for the given (lambda, mu)")
        index = args.index or 0
        if args.tableau:
            entries = _parse_json_arg(args.tableau, "--tableau", 4)
            if len(entries) != r:
                raise UsageError(f"--tableau needs {r} components")
            if any(len(sym) != 2 for comp in entries for row in comp
                   for sym in row):
                raise UsageError("each --tableau symbol is an [i, s] pair")
            # padded with empty rows as lambda is: `enum ssyt` prints a
            # component's rows up to its last nonempty one
            entries = [comp + [[]] * (mk - len(comp))
                       for comp, mk in zip(entries, sc.m)]
            try:
                A = TypedTableau(lam, sc.shape, entries)
            except ValueError as exc:
                raise UsageError(f"invalid tableau selector: {exc}")
            if A not in tabs:
                raise UsageError("tableau selector is not semistandard of the"
                                 " given type")
        else:
            if not 0 <= index < len(tabs):
                raise UsageError(f"tableau index {index} out of range"
                                 f" 0..{len(tabs) - 1}")
            A = tabs[index]
        elem = sc.basis_vector(lam, mu, A)
    else:
        raise UsageError(f"unknown compute target {args.what!r}")
    print(_emit(elem.to_json(), fmt, [elem.text()]))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing does not
    change it, and building it costs about a millisecond."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int)
    common.add_argument("--r", type=int)
    common.add_argument("--m")
    common.add_argument("--lambda", dest="lam")
    common.add_argument("--mu")
    common.add_argument("--type")
    common.add_argument("--seed", type=int)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--flags", help="m_convention=...,y_convention=...")
    common.add_argument("--max-dim", type=int, default=10_000)
    common.add_argument("--max-seconds", type=float)

    ap = argparse.ArgumentParser(
        prog="qschur",
        description="Exact Ariki-Koike / cyclotomic q-Schur verification tool")
    sub = ap.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enum", parents=[common],
                          help="enumerate weights, tableaux or nodes")
    enum.add_argument("what", choices=("multicomp", "ssyt", "nodes"))
    enum.add_argument("--partitions", action="store_true")

    verify = sub.add_parser("verify", parents=[common],
                            help="run a verification suite")
    verify.add_argument("what", choices=("relations", "lemma24", "basis", "branch"))
    verify.add_argument("--samples", type=int, default=500)

    compute = sub.add_parser("compute", parents=[common],
                             help="print exact elements")
    compute.add_argument("what", choices=("z", "x", "y", "m", "L", "h"))
    compute.add_argument("--i", type=int)
    compute.add_argument("--index", type=int)
    compute.add_argument("--tableau")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so that a replaced command function is the one run
    command = {"enum": cmd_enum, "verify": cmd_verify,
               "compute": cmd_compute}[args.command]
    try:
        _check_counts(args)
        return command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ResourceLimit, ExponentOverflow) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE
    except (ContextMismatch, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
