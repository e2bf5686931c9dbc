"""Check that the benchmark is steady: run each workload once per seed and
report, for every end-to-end metric, the median and the interquartile
spread as a share of the median, against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads algebra,basis,ladder --seeds 1-10 \
        [--save runs.json] [--compare earlier_runs.json]

A spread of a third of the bound or more is marked; setup_s is exempt from
the spread rule.  --compare reports how far each median moved from a set
saved earlier with --save.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text())["metrics"] if args.compare else {}
    runs, reports = {}, {}
    ok = True
    for name in args.workloads.split(","):
        values = {m: [] for m in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            res = json.loads(lines[-1])
            reports.setdefault(name, []).append(
                next(json.loads(l)["report"] for l in lines if l.startswith('{"report"')))
            if proc.returncode != 0 or not res["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, correct {res['correct']}")
                ok = False
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        runs[name] = values
        for m, vs in values.items():
            med = statistics.median(vs)
            sp = stats.spread(vs)
            flag = "" if m == "setup_s" or sp < bounds[m] / 3 else "  <-- spread >= bound/3"
            line = f"{name:8s} {m:13s} median {med:12.6g}  spread {sp:7.4f}  bound {bounds[m]}{flag}"
            if name in earlier:
                drift = med / statistics.median(earlier[name][m]) - 1
                line += f"  vs earlier {drift:+.4f}"
                ok = ok and drift <= bounds[m]
            ok = ok and not flag
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps({"metrics": runs, "reports": reports}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
