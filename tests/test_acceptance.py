"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each.  All tolerances are exact; no criterion is deferred.
"""

import io
import json
import time
from contextlib import redirect_stdout
from random import Random

import pytest

from conftest import random_element, rank_exact, specialize_vector
from qschur.branching import BranchContext
from qschur.cli import main as cli_main
from qschur.hecke import AlgebraContext
from qschur.ring import Specialization
from qschur.schur import SchurContext, validated_ef_conventions, verify_basis_with_fallback
from qschur.symgrp import (all_permutations, compose, identity, invert,
                           young_subgroup)
from qschur.tableaux import (MultiShape, Multicomposition, bracket_leq,
                             bracket_reversed, canonical_tableaux,
                             enumerate_multicompositions, enumerate_ssyt,
                             removable_nodes, w_lambda, w_of_labelled)


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_algebra_soundness():
    for (n, r, dim) in [(2, 2, 8), (3, 2, 48), (2, 3, 18)]:
        start = time.monotonic()
        ctx = AlgebraContext(n, r)
        rel = ctx.relation_reports()
        ok = all(rel.values())
        rng = Random(97)
        basis = ctx.basis_monomials()
        for _ in range(500):
            a = ctx.basis_element(*basis[rng.randrange(len(basis))])
            b = ctx.basis_element(*basis[rng.randrange(len(basis))])
            c = ctx.basis_element(*basis[rng.randrange(len(basis))])
            if (a * b) * c != a * (b * c):
                ok = False
                break
        closure = ctx.regular_closure_dim(seed=29)
        elapsed = time.monotonic() - start
        ok = ok and closure == dim and elapsed <= 60
        report(1, ok, f"(n,r)=({n},{r}): relations {rel}, 500 triples "
                      f"associative, closure {closure}=={dim}, {elapsed:.1f}s")


def test_criterion_02_u_product_vanishing_and_freeness():
    start = time.monotonic()
    vanish_ok = True
    for n in (1, 2, 3):
        ctx = AlgebraContext(n, 2)
        basis = ctx.basis_monomials()
        brackets = [(0, a1, n) for a1 in range(n + 1)]
        for a in brackets:
            ua = ctx.u_plus(a)
            for b in brackets:
                if bracket_leq(a, b):
                    continue
                ub = ctx.u_minus(bracket_reversed(b))
                for (c, w) in basis:
                    if ua * ctx.basis_element(c, w) * ub:
                        vanish_ok = False
    free_ok = True
    from math import factorial
    for n in (1, 2, 3):
        ctx = AlgebraContext(n, 2)
        spec = Specialization.random(2, Random(19))
        for a1 in range(n + 1):
            va = ctx.v_element((0, a1, n))
            rows = [specialize_vector(va * ctx.T(w), spec)
                    for w in all_permutations(n)]
            if rank_exact(rows) != factorial(n):
                free_ok = False
    elapsed = time.monotonic() - start
    ok = vanish_ok and free_ok and elapsed <= 120
    report(2, ok, f"vanishing unless a<=b (n<=3, r=2): {vanish_ok}; "
                  f"freeness rank n!: {free_ok}; {elapsed:.1f}s")


def test_criterion_03_combinatorial_fidelity():
    sup, sub = canonical_tableaux(Multicomposition([(3, 2)]))
    ok = sup.rows == (((1, 2, 3), (4, 5)),)
    ok = ok and sub.rows == (((1, 3, 5), (2, 4)),)
    lam = Multicomposition([(3, 1), (2, 1), (2,)])
    sup, sub = canonical_tableaux(lam)
    ok = ok and sup.rows == (((1, 2, 3), (4,)), ((5, 6), (7,)), ((8, 9),))
    ok = ok and sub.rows == (((6, 8, 9), (7,)), ((3, 5), (4,)), ((1, 2),))
    ok = ok and w_lambda(lam)[0] == (6, 8, 9, 7, 3, 5, 4, 1, 2)
    ok = ok and w_of_labelled((1, 2, 4, 3, 5), (3, 2),
                              ((1, 2, 3), (1, 2)), 3) == (1, 3, 2, 5, 4)
    nodes = removable_nodes(Multicomposition([(3, 1), (2, 2), (1,)]))
    # the formal definition adds (2,2,2) to the informally listed three
    ok = ok and set(nodes) == {(1, 3, 1), (2, 1, 1), (2, 2, 2), (1, 1, 3)}
    report(3, ok, "worked examples reproduce bit-exactly; removable-node "
                  "discrepancy documented")


BASIS_CONFIGS = [(2, 1, (2,)), (3, 1, (3,)), (2, 2, (2, 2)), (1, 2, (1, 1))]


def _basis_reports():
    out = []
    for (n, r, m) in BASIS_CONFIGS:
        shape = MultiShape(m)
        for lam in enumerate_multicompositions(n, shape, partitions_only=True):
            rep = verify_basis_with_fallback(n, r, m,
                                             [list(c) for c in lam.parts],
                                             seed=0)
            out.append(((n, r, m), lam, rep))
    return out


def test_criterion_04_basis_independence_certified():
    start = time.monotonic()
    reports = _basis_reports()
    ok = True
    used_flags = set()
    for (cfg, lam, rep) in reports:
        ok = ok and rep["certified"]
        used_flags.add((rep["flags"]["m_convention"],
                        rep["flags"]["y_convention"],
                        rep["literal_flags"]))
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 600
    spot = {str(lam.trimmed()): (rep["count"], rep["rank"])
            for (cfg, lam, rep) in reports
            if (cfg, lam.trimmed()) in [((2, 1, (2,)), [[2]]),
                                        ((2, 1, (2,)), [[1, 1]]),
                                        ((2, 2, (2, 2)), [[1], [1]])]}
    ok = ok and spot == {"[[2]]": (3, 3), "[[1, 1]]": (1, 1),
                         "[[1], [1]]": (8, 8)}
    report(4, ok, f"all lambda certified, flags used {sorted(used_flags)}, "
                  f"cited counts {spot}, {elapsed:.1f}s")


def test_criterion_05_rank_matches_dimension_oracle():
    ok = True
    for (cfg, lam, rep) in _basis_reports():
        n, r, m = cfg
        sc = SchurContext(n, r, m)
        oracle = sc.weyl_dim_count(sc.weight([list(c) for c in lam.parts]))
        ok = ok and rep["rank"] == oracle
    report(5, ok, "certified rank equals the tableau-counting oracle for "
                  "every tested lambda")


def test_criterion_06_chi_identities():
    from qschur.tableaux import chi, column_stabilizer, row_stabilizer
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        shapes = enumerate_multicompositions(n, MultiShape((n,)),
                                             partitions_only=True)
        tableaux = []
        for lam in shapes:
            supt, _ = canonical_tableaux(lam)
            tableaux.extend(supt.act(w) for w in all_permutations(n))
        index = {t: i for i, t in enumerate(tableaux)}
        table = [[chi(t1, t2) for t2 in tableaux] for t1 in tableaux]
        acted = {w: [index[t.act(w)] for t in tableaux]
                 for w in all_permutations(n)}
        for w, relabel in acted.items():
            for i in range(len(tableaux)):
                row = table[i]
                prow = table[relabel[i]]
                for j in range(len(tableaux)):
                    if prow[relabel[j]] != row[j]:
                        ok = False
        for i, t1 in enumerate(tableaux):
            for w in row_stabilizer(t1):
                relabel = acted[w]
                if any(table[relabel[i]][j] != table[i][j]
                       for j in range(len(tableaux))):
                    ok = False
        for j, t2 in enumerate(tableaux):
            for w in column_stabilizer(t2):
                relabel = acted[w]
                if any(table[i][relabel[j]] != table[i][j]
                       for i in range(len(tableaux))):
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 60
    report(6, ok, f"chi relabelling and stabilizer identities exhaustive "
                  f"for n <= 4, {elapsed:.1f}s")


def test_criterion_07_trivial_intersection():
    ok = True
    for n in range(1, 6):
        for lam in enumerate_multicompositions(n, MultiShape((n,)),
                                               partitions_only=True):
            w, _ = w_lambda(lam)
            conj = {compose(compose(invert(w), u), w)
                    for u in young_subgroup(lam.bar())}
            dual = set(young_subgroup(lam.dual().bar()))
            if conj & dual != {identity(n)}:
                ok = False
    report(7, ok, "w_lam^-1 S_lam w_lam meets S_lam' trivially for all "
                  "partitions of n <= 5")


def test_criterion_08_branching_combinatorial():
    ok = True
    example = None
    for (n_small, r, m) in [(0, 1, (2,)), (1, 1, (2,)), (2, 1, (3,)),
                            (0, 2, (2, 2)), (1, 2, (2, 2)), (2, 2, (3, 3))]:
        if n_small == 0:
            continue
        for lam in enumerate_multicompositions(n_small + 1, MultiShape(m),
                                               partitions_only=True):
            bc = BranchContext(n_small, r, m, [list(c) for c in lam.parts])
            rep = bc.branch_dim_identity()
            ok = ok and rep["identity_holds"]
            if lam.trimmed() == [[1], [1]] and m == (2, 2):
                example = sorted(l["quotient_dim"] for l in rep["layers"])
    ok = ok and example == [1, 3]
    report(8, ok, f"layer quotients equal the smaller tableau counts via the "
                  f"strip bijection; ((1),(1)): 4 = 3 + 1 (layers {example})")


def test_criterion_09_branching_algebraic():
    start = time.monotonic()
    sc = SchurContext(2, 2, (2, 2))
    specs = [Specialization.random(2, Random(101)),
             Specialization.random(2, Random(202))]
    conv = validated_ef_conventions(sc, specs)
    ok = conv["validated"]
    spec = specs[0]
    tri_ok = True
    hw_ok = True
    for lam in enumerate_multicompositions(2, MultiShape((2, 2)),
                                           partitions_only=True):
        bc = BranchContext(1, 2, (2, 2), [list(c) for c in lam.parts])
        for (mu, A) in bc.restriction_labels():
            for idx in bc.small_ef_indices():
                for kind in ("E", "F"):
                    rep = bc.triangularity_check(idx, kind, mu, A, spec)
                    tri_ok = tri_ok and rep["dominance_holds"]
        for i in range(1, len(bc.nodes) + 1):
            rep = bc.highest_weight_check(i, spec)
            hw_ok = hw_ok and rep["certified"]
    elapsed = time.monotonic() - start
    ok = ok and tri_ok and hw_ok and elapsed <= 600
    report(9, ok, f"conventions star={conv['star']} side={conv['reps_side']} "
                  f"certified at 2 points; triangularity exhaustive "
                  f"(n+1=2, r=2): {tri_ok}; highest-weight all layers: "
                  f"{hw_ok}; {elapsed:.1f}s")


def test_criterion_10_determinism_and_roundtrip():
    argv = ["verify", "basis", "--lambda", "[[1],[1]]", "--m", "[2,2]",
            "--r", "2", "--format", "json", "--seed", "7"]
    outs = set()
    for _ in range(3):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli_main(argv)
        outs.add(buf.getvalue())
    deterministic = len(outs) == 1
    rt_ok = True
    count = 0
    for (n, r) in [(2, 2), (3, 2), (2, 1)]:
        ctx = AlgebraContext(n, r)
        rng = Random(555 + n + r)
        for _ in range(334):
            e = random_element(ctx, rng)
            if ctx.parse(e.text()) != e or ctx.from_json(e.to_json()) != e:
                rt_ok = False
            count += 1
    ok = deterministic and rt_ok and count >= 1000
    report(10, ok, f"byte-identical CLI reports across runs: {deterministic}; "
                   f"round-trip on {count} random elements: {rt_ok}")
