"""Steadiness check: run the benchmark repeatedly, one seed per run, and
report each metric's median and quartiles over the runs.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed0 1]
                                [--seconds T] [--trace 0|1]

Run from the root of a source checkout.  The spread of a metric is the
distance between its first and third quartile (statistics.quantiles, n=4)
as a share of its median; spreads above a tenth are flagged with "!", and
spreads above a third of the metric's bound in BENCHMARK.json with "bound".
The last stdout line is a JSON summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FLAG = 0.1


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in range(args.seed0, args.seed0 + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
            if proc.returncode or not result or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                if not result:
                    continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        print(f"== {workload} ({args.runs} runs)")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flags = "!" if spread > FLAG else ""
            bound = bounds.get(name)
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flags += " bound"
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name:48s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} {flags}")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
