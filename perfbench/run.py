"""qschur benchmark: closed-loop verification workloads, one client, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {algebra,basis,ladder,all} \
        --seed N --seconds S --trace {0,1}

With --trace 0 passes run back to back until the next one would end after
S seconds (at least one pass).  A pass is the workload's fixed job list,
drawn from a seed of its own derived from N, run once; the end-to-end
metrics are medians over the passes, with timings normalised to a nominal
machine speed (see speed.py).  With --trace 1 one untraced and one traced
pass run and the per-layer split is printed.  Every verdict is checked
against its expected value; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  `--workload all`
runs each workload in its own process and prints them together.

Exit codes: 0 result printed, 1 result printed but the run is not correct,
2 qschur could not be found or imported (nothing measured).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import stats
import tracer as tracing
from speed import Probes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
SETUP_REPEATS = 9


def with_units(values, section):
    """The metrics of one section of BENCHMARK.json, with their units; the
    values must be exactly the metrics that section names."""
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if set(values) != set(units):
        raise KeyError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def import_qschur():
    """Import qschur from this checkout's src, dropping any earlier import
    so that each set-up pays the whole import."""
    for name in [n for n in sys.modules if n == "qschur" or n.startswith("qschur.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qschur")
    importlib.import_module("qschur.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "qschur":
        raise ImportError(f"qschur imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(package=pkg, **{
        layer: sys.modules[f"qschur.{layer}"] for layer in tracing.LAYERS})


def pass_seed(seed, k):
    """Pass k of a run draws its inputs from its own seed, so that one run
    averages over several draws; the same run seed gives the same passes."""
    return f"{seed}.{k}"


def run_pass(workload, qs, jobs, probes, tr=None):
    """Run every job once while `probes` samples the machine's speed.

    Returns each job's (start, end), its raw and normalised latency and
    their sums (the pass's wall time without the probes), the failed jobs
    and a digest of each job's output."""
    run = workload.runner(qs)
    spans, failures, errors, digests = [], [], [], []
    output_bytes = 0
    for jid, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            if tr is None:
                verdict, out = run(job)
            else:
                verdict, out = tr.run_job(jid, job.kind, lambda: run(job))
        except Exception:
            spans.append((t0, time.perf_counter()))
            errors.append(f"job {jid} ({job.kind} {job.config}) raised:\n"
                          + traceback.format_exc())
            continue
        spans.append((t0, time.perf_counter()))
        if verdict != job.expected:
            failures.append((job.kind, job.config))
        if out is not None:
            data = out.encode()
            output_bytes += len(data)
            digests.append(hashlib.sha256(data).hexdigest())
    for err in errors:
        print(err, file=sys.stderr)
    raw, normalised = zip(*(probes.normalise(t0, t1) for t0, t1 in spans))
    return SimpleNamespace(spans=spans, raw=raw, latencies=normalised,
                           raw_wall=sum(raw), wall=sum(normalised),
                           failures=failures, errors=errors, digests=digests,
                           output_bytes=output_bytes,
                           key=hashlib.sha256(repr(jobs).encode()).hexdigest())


def check_determinism(workload, seed, passes):
    """Outputs must be byte-identical to those of every earlier pass with
    the same job list, in this run or in an earlier run in this checkout."""
    passes = [p for p in passes if p.digests]
    if not passes:
        return True
    path = STATE / f"{workload.name}-{seed}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    same = True
    for p in passes:
        same = same and seen.setdefault(p.key, p.digests) == p.digests
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen))
    tmp.replace(path)
    return same


def judge(workload, passes):
    """(attempted, failed, unexpected): jobs run, jobs whose verdict was
    wrong or that raised, and those of them that no known defect of the
    program explains (a job that raised is always unexpected)."""
    attempted = sum(len(p.latencies) for p in passes)
    raised = sum(len(p.errors) for p in passes)
    failed = raised + sum(len(p.failures) for p in passes)
    unexpected = raised + sum(1 for p in passes for f in p.failures
                              if f not in workload.known_defects)
    return attempted, failed, unexpected


def environment(args, passes):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "seed": args.seed, "seconds": args.seconds,
            "jobs_per_pass": len(passes[0].latencies), "passes": len(passes)}


def end_to_end(workload, args):
    """Set-ups, then passes until the next would end after args.seconds."""
    with Probes() as probes:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            qs = import_qschur()
            jobs = workload.make_inputs(qs, pass_seed(args.seed, 0))
            setups.append((t0, time.perf_counter()))
        passes = []
        t_start = time.perf_counter()
        while True:
            gc.collect()
            passes.append(run_pass(workload, qs, jobs, probes))
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median([p.raw_wall for p in passes]) > args.seconds:
                break
            jobs = workload.make_inputs(qs, pass_seed(args.seed, len(passes)))
        raw_setups, setups = zip(*(probes.normalise(a, b) for a, b in setups))
    tails = [stats.tail(p.latencies) for p in passes]
    p50s = [statistics.median(p.latencies) for p in passes]
    attempted, failed, unexpected = judge(workload, passes)
    deterministic = check_determinism(workload, args.seed, passes)
    values = {
        "wall_s": statistics.median([p.wall for p in passes]),
        "job_p50_ms": 1e3 * statistics.median(p50s),
        "job_tail_ms": 1e3 * statistics.median([v for v, _ in tails]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {"workload": workload.name, "why": workload.why,
              "environment": environment(args, passes),
              "failed_frac": failed / attempted,
              "unexpected_failures": unexpected,
              "tail": {"percentile": tails[0][1], "beyond": stats.TAIL_BEYOND},
              "deterministic_outputs": deterministic,
              "pass_walls_s": [p.wall for p in passes],
              "pass_p50_ms": [1e3 * v for v in p50s],
              "pass_tail_ms": [1e3 * v for v, _ in tails],
              "setups_s": list(setups),
              "raw": {"pass_walls_s": [p.raw_wall for p in passes],
                      "pass_p50_ms": [1e3 * statistics.median(p.raw) for p in passes],
                      "pass_tail_ms": [1e3 * stats.tail(p.raw)[0] for p in passes],
                      "setups_s": list(raw_setups)}}
    correct = unexpected == 0 and deterministic
    return report, {"correct": correct, "attempted": attempted,
                    "failed": failed, "metrics": with_units(values, "end_to_end")}


def per_layer(workload, args, qs):
    """Input generation plus the first pass, once untraced and once traced."""
    seed = pass_seed(args.seed, 0)

    def once(tr=None):
        """(wall with the probes in it, normalised wall, pass)"""
        gc.collect()
        with Probes() as probes:
            t0 = time.perf_counter()
            jobs = (workload.make_inputs(qs, seed) if tr is None else
                    tr.run_job(-1, "make_inputs", lambda: workload.make_inputs(qs, seed)))
            t1 = time.perf_counter()
            p = run_pass(workload, qs, jobs, probes, tr)
            norm = probes.normalise(t0, t1)[1] + p.wall
        return (t1 - t0) + sum(b - a for a, b in p.spans), norm, p

    _, norm_u, plain = once()
    tr = tracing.Tracer()
    tr.install(qs.package)
    try:
        wall_t, norm_t, traced = once(tr)
    finally:
        tr.uninstall()
    tr.add("cli.output_bytes", traced.output_bytes)
    span_us, agg_us = tracing.calibrate()
    self_s = tr.self_times()
    c = tr.calls
    adds = c["linalg.RowSpace.add"]
    tri = c["branching.BranchContext.triangularity_check"]
    layer_sum = sum(self_s.get(layer, 0.0) for layer in tracing.LAYERS)
    values = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in tracing.LAYERS}
    values.update({
        "ring.mul_calls": c["ring.ExactScalar.__mul__"] + c["ring.ExactScalar.__rmul__"],
        "ring.add_calls": c["ring.ExactScalar.__add__"] + c["ring.ExactScalar.__radd__"],
        "ring.specialize_calls": c["ring.ExactScalar.specialize"],
        "ring.max_terms": tr.maxima.get("ring.max_terms", 0),
        "ring.max_coeff_bits": tr.maxima.get("ring.max_coeff_bits", 0),
        "hecke.lmul_gen_calls": c["hecke.AKElement.lmul_gen"],
        "hecke.lmul_gen_terms_in": tr.counts["hecke.lmul_gen_terms_in"],
        "hecke.mul_calls": c["hecke.AKElement.__mul__"],
        "hecke.max_element_terms": tr.maxima.get("hecke.max_element_terms", 0),
        "schur.basis_vectors": c["schur.SchurContext.basis_vector"],
        "schur.module_spans": c["schur.SchurContext.module_span"],
        "schur.spec_attempts": tr.counts["schur.spec_attempts"],
        "schur.convention_combos_tried": c["schur.SchurContext.ef_convention_report"],
        "linalg.rank_calls": c["linalg.rank_exact"],
        "linalg.rank_cells": tr.counts["linalg.rank_cells"],
        "linalg.rowspace_adds": adds,
        "linalg.rowspace_accept_ratio": tr.counts["linalg.rowspace_accepted"] / adds if adds else 0.0,
        "linalg.solve_calls": c["linalg.solve_in_span"],
        "branching.checks": (tri + c["branching.BranchContext.highest_weight_check"]
                             + c["branching.BranchContext.branch_dim_identity"]),
        "branching.nonzero_image_ratio": tr.counts["branching.images_solved"] / tri if tri else 0.0,
        "tableaux.ssyt_enumerated": tr.counts["tableaux.ssyt_enumerated"],
        "symgrp.young_subgroup_elems": tr.counts["symgrp.young_subgroup_elems"],
        "cli.invocations": c["cli.main"],
        "cli.output_bytes": tr.counts["cli.output_bytes"],
        "trace.overhead_frac": norm_t / norm_u - 1,
        "trace.unattributed_frac": 1 - layer_sum / wall_t,
        "trace.call_cost_us": span_us,
        "trace.agg_call_cost_us": agg_us,
        "trace.spans": len(tr.spans),
    })
    passes = [plain, traced]
    attempted, failed, unexpected = judge(workload, passes)
    deterministic = check_determinism(workload, args.seed, passes)
    # the layers must account for the traced wall time up to the tracing
    # overhead, and the two runs must have been given the same inputs
    accounted = abs(values["trace.unattributed_frac"]) <= max(values["trace.overhead_frac"], 0.0)
    report = {"workload": workload.name, "why": workload.why,
              "environment": environment(args, passes),
              "untraced_wall_s": norm_u, "traced_wall_s": norm_t,
              "traced_raw_wall_s": wall_t,
              "layer_self_sum_s": layer_sum,
              "bench_self_s": self_s.get(tracing.BENCH, 0.0),
              "self_times_account_for_wall": accounted,
              "deterministic_outputs": deterministic}
    same_inputs = plain.key == traced.key
    correct = unexpected == 0 and deterministic and accounted and same_inputs
    return report, {"correct": correct, "attempted": attempted,
                    "failed": failed, "metrics": with_units(values, "per_layer")}


def run_one(args):
    if not (SRC / "qschur" / "__init__.py").is_file():
        print(f"error: no qschur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    try:
        qs = import_qschur()
    except ImportError as exc:
        print(f"error: cannot import qschur: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        report, result = per_layer(workload, args, qs)
    else:
        report, result = end_to_end(workload, args)
    print(json.dumps({"report": report}))
    for name, m in result["metrics"].items():
        print(f"{workload.name}.{name} = {m['value']} {m['unit']}")
    print(f"{workload.name}.failed_frac = {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, so that peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
