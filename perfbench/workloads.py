"""The benchmark's three workloads.

Each workload turns a seed into the job list of one pass (plain data:
sizes, basis keys, points, command lines) with an expected verdict per
job that comes from outside the code under test: the algebra's defining
relations and associativity, the dimension r^n n!, the tableau count
`weyl_dim_count`, or the paper's claims for the branching checks.  The
seed picks values (the order of triples, points, CLI seeds); the kinds,
sizes and number of jobs are the same for every seed.  A pass runs its
list once on fresh contexts; caches warm up within a pass, as they would
for a user who runs these checks in one session.

Functions and classes of qschur are always looked up through the module
objects in `qs` at call time, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import namedtuple
from fractions import Fraction
from math import factorial
from random import Random

#: kind: what the job checks; config: the size it runs at; args: its inputs
Job = namedtuple("Job", "kind config args expected")

# Specialisation points are drawn with fixed bit sizes (7-bit prime
# numerators over 4-bit prime denominators, all distinct) so that the
# size of the rationals, which sets the cost of at-point arithmetic, does
# not change with the seed; only their values do.
_NUMERATORS = (67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)
_DENOMINATORS = (11, 13)


def spec_point(qs, rng: Random, r: int):
    nums = rng.sample(_NUMERATORS, r + 1)
    vals = [Fraction(a, rng.choice(_DENOMINATORS)) for a in nums]
    return qs.ring.Specialization(q_value=vals[0], Q_values=tuple(vals[1:]))


class Algebra:
    """Generic ring + hecke arithmetic on warm per-(n, r) contexts."""

    name = "algebra"
    why = ("generic ring+hecke arithmetic with warm caches: relations, "
           "associativity triples, closure dimension; linalg only in closure")
    CONFIGS = ((3, 2), (2, 3))
    # The triples form a fixed design in which every basis monomial appears
    # once per round in each slot.  The seed orders them (which decides
    # which triple meets a cold cache) and picks the closure point.  The
    # cost of a triple depends on its pairing, and random pairings would
    # make the work of a pass vary by several percent from seed to seed.
    ROUNDS = {(3, 2): 1, (2, 3): 3}
    known_defects = frozenset()

    def make_inputs(self, qs, seed):
        rng = Random(seed)
        jobs = []
        for n, r in self.CONFIGS:
            basis = qs.hecke.AlgebraContext(n, r).basis_monomials()
            d = len(basis)
            design = Random(f"triples {n} {r}")
            triples = [t for _ in range(self.ROUNDS[(n, r)])
                       for t in zip(*(design.sample(range(d), d) for _ in range(3)))]
            rng.shuffle(triples)
            jobs.append(Job("relations", (n, r), (), True))
            for i, j, k in triples:
                jobs.append(Job("associativity", (n, r),
                                (basis[i], basis[j], basis[k]), True))
            jobs.append(Job("closure", (n, r), (spec_point(qs, rng, r),),
                            r ** n * factorial(n)))
        return jobs

    def runner(self, qs):
        contexts = {}

        def run(job):
            ctx = contexts.get(job.config)
            if ctx is None:
                ctx = contexts[job.config] = qs.hecke.AlgebraContext(*job.config)
            if job.kind == "relations":
                return all(ctx.relation_reports().values()), None
            if job.kind == "associativity":
                a, b, c = (ctx.basis_element(*key) for key in job.args)
                return (a * b) * c == a * (b * c), None
            return ctx.regular_closure_dim(spec=job.args[0]), None
        return run


class Basis:
    """`qschur verify basis --format json` in-process, cold contexts per job."""

    name = "basis"
    why = ("CLI basis certification per multipartition: cold generic h_A "
           "builds, specialisation and Bareiss rank; r=1 and r=3 vary scalar width")
    CONFIGS = ((3, 2, (3, 3)), (3, 3, (1, 1, 1)), (5, 1, (3,)), (4, 2, (2, 2)))
    # at n = 4 only the multipartitions with at most this many basis vectors:
    # the larger ones take 1-6 s each, too long for several passes a run
    MAX_VECTORS = {4: 16}
    known_defects = frozenset()

    def make_inputs(self, qs, seed):
        rng = Random(seed)
        jobs = []
        for n, r, m in self.CONFIGS:
            oracle = qs.schur.SchurContext(n, r, m)
            for lam in qs.tableaux.enumerate_multicompositions(
                    n, qs.tableaux.MultiShape(m), partitions_only=True):
                count = oracle.weyl_dim_count(lam)
                if count > self.MAX_VECTORS.get(n, count):
                    continue
                argv = ["verify", "basis",
                        "--lambda", json.dumps([list(c) for c in lam.parts]),
                        "--m", json.dumps(list(m)), "--r", str(r),
                        "--format", "json", "--seed", str(rng.randrange(2 ** 31))]
                jobs.append(Job("basis", (n, r, m), tuple(argv),
                                (0, True, count, count)))
        return jobs

    def runner(self, qs):
        def run(job):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = qs.cli.main(list(job.args))
            out = buf.getvalue()
            rep = json.loads(out)
            return (code, rep["certified"], rep["count"], rep["rank"]), out
        return run


class Ladder:
    """Branching checks at a point: Fraction row spaces and dense right
    multiplication in schur."""

    name = "ladder"
    why = ("branching checks at a point: Gauss-Jordan RowSpace/solve_in_span "
           "over Fraction and dense right multiplication; known E/F defect counted")
    CONFIGS = ((3, 2, (3, 3)), (2, 3, (2, 2, 2)))
    EF_CONFIG = (3, 2, (2, 2))
    # Checks that fail at this version of qschur (the E/F ladder conventions
    # at n = 3); they count as failed jobs, but do not make the run incorrect.
    known_defects = frozenset({("triangularity", (3, 2, (3, 3))),
                               ("highest_weight", (3, 2, (3, 3))),
                               ("ef_conventions", (3, 2, (2, 2)))})

    def make_inputs(self, qs, seed):
        rng = Random(seed)
        jobs = []
        for big_n, r, m in self.CONFIGS:
            cfg = (big_n, r, m)
            for lam in qs.tableaux.enumerate_multicompositions(
                    big_n, qs.tableaux.MultiShape(m), partitions_only=True):
                parts = tuple(tuple(c) for c in lam.parts)
                spec = spec_point(qs, rng, r)
                bc = qs.branching.BranchContext(big_n - 1, r, m, parts)
                idxs = [(e.i, e.k) for e in bc.small_ef_indices()]
                jobs.append(Job("branch_dim", cfg, (parts,), True))
                for label in range(len(bc.restriction_labels())):
                    for idx in idxs:
                        for kind in ("E", "F"):
                            jobs.append(Job("triangularity", cfg,
                                            (parts, label, idx, kind, spec), True))
                # conventions_validated stays at its default, so the work
                # done does not depend on the ef_conventions verdict
                for layer in range(1, len(bc.nodes) + 1):
                    jobs.append(Job("highest_weight", cfg, (parts, layer, spec), True))
        specs = (spec_point(qs, rng, 2), spec_point(qs, rng, 2))
        jobs.append(Job("ef_conventions", self.EF_CONFIG, specs, True))
        return jobs

    def runner(self, qs):
        contexts = {}

        def branch(job):
            big_n, r, m = job.config
            parts = job.args[0]
            bc = contexts.get((job.config, parts))
            if bc is None:
                bc = contexts[(job.config, parts)] = qs.branching.BranchContext(
                    big_n - 1, r, m, parts)
            return bc

        def run(job):
            if job.kind == "ef_conventions":
                sc = qs.schur.SchurContext(*job.config)
                try:
                    return qs.schur.validated_ef_conventions(sc, job.args)["validated"], None
                except qs.schur.ConventionError:
                    return False, None
            bc = branch(job)
            if job.kind == "branch_dim":
                return bc.branch_dim_identity()["identity_holds"], None
            if job.kind == "highest_weight":
                _, layer, spec = job.args
                return bc.highest_weight_check(layer, spec)["certified"], None
            _, label, (i, k), kind, spec = job.args
            mu, tab = bc.restriction_labels()[label]
            rep = bc.triangularity_check(qs.schur.EFIndex(i, k), kind, mu, tab, spec)
            return rep["status"] in ("zero", "expanded") and rep["dominance_holds"], None
        return run


WORKLOADS = {w.name: w for w in (Algebra(), Basis(), Ladder())}
