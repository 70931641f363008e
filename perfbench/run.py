"""Benchmark of the melonic pipeline: rooted maps -> multigraph classes ->
trace-invariant contraction -> exact and Monte Carlo moments.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout (the directory holding src/melonic).
Nothing is installed: subprocesses get PYTHONPATH=src.

--trace 0 measures the end-to-end metrics of BENCHMARK.json.  Each round
runs the workload's CLI calls as subprocesses (wall_s, peak_rss_mb), then
one probe process (probe.py setup) that imports the package and makes one
cold and a few warm in-process calls of the same work (setup_s, warm_s).
Rounds repeat until T seconds have passed, at least MIN_ROUNDS times;
timings are medians over the run.

--trace 1 measures the per-layer metrics: interpreter start, import time
attributed by -X importtime, and probe processes that run the workload split
at its layer boundaries with spans and counters (probe.py trace), alternated
with untraced ones (probe.py pass) for the tracing overhead.  Metrics of
layers a workload does not enter are reported as 0.

Every CLI output and every in-process result is checked against the
references recorded in refs.json (exact columns and Fractions equal, float
columns within 1e-10 relative); a non-zero exit, an exception or a mismatch
counts as a failed operation.  The last stdout line is the result object;
the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60.0
# no new round starts this late, so a run stays inside its 180 s limit
LAST_ROUND_START_S = 100.0
REL_TOL = 1e-10


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall: float
    maxrss_kb: int


def run_child(argv: list[str], env: dict, cwd: Path) -> Child:
    """Run argv to completion; wall time and the child's own peak RSS (wait4)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    bufs: dict = {}
    readers = [
        threading.Thread(target=lambda k, f: bufs.__setitem__(k, f.read()), args=(k, f))
        for k, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for th in readers:
        th.start()
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for th in readers:
        th.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        proc.returncode, bufs["out"].decode(), bufs["err"].decode(), wall, usage.ru_maxrss
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

_INT = re.compile(r"[+-]?\d+")


def text_mismatch(got: str, ref: str) -> str | None:
    """None when got matches ref: JSON documents equal; CSV cells equal, or
    both non-integer numbers within REL_TOL relative."""
    if ref.startswith("["):
        try:
            return None if json.loads(got) == json.loads(ref) else "JSON differs"
        except ValueError as exc:
            return f"unparsable JSON: {exc}"
    glines, rlines = got.splitlines(), ref.splitlines()
    if len(glines) != len(rlines):
        return f"{len(glines)} lines, want {len(rlines)}"
    for i, (gline, rline) in enumerate(zip(glines, rlines)):
        gcells, rcells = gline.split(","), rline.split(",")
        if len(gcells) != len(rcells):
            return f"line {i}: {len(gcells)} cells, want {len(rcells)}"
        for a, b in zip(gcells, rcells):
            if a == b:
                continue
            if _INT.fullmatch(a) or _INT.fullmatch(b):
                return f"line {i}: {a!r} != {b!r}"
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                return f"line {i}: {a!r} != {b!r}"
            if not math.isclose(fa, fb, rel_tol=REL_TOL, abs_tol=0.0):
                return f"line {i}: {a} not within {REL_TOL:g} of {b}"
    return None


def result_mismatch(res: dict, ref: dict) -> str | None:
    """In-process results: Fractions equal to the first recorded ones, and
    each "cli" text matching the stdout of the CLI call at that index."""
    if "fractions" in res:
        got = res["fractions"]
        if not got or got != ref["fractions"][: len(got)]:
            return f"Fractions {got}"
    for idx, text in res["cli"].items():
        why = text_mismatch(text, ref["cli"][int(idx)])
        if why:
            return f"call {idx}: {why}"
    return None


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)
        return not problem


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.var = wl.variant(workload, seed)
        self.seconds = seconds
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.ref = json.loads((HERE / "refs.json").read_text())[workload][str(self.var)]
        self.tally = Tally()
        self.probe_env: dict = {}
        self.samples: dict = {}

    def child(self, argv: list[str]) -> Child:
        return run_child([sys.executable, *argv], self.env, self.root)

    def probe(self, mode: str) -> tuple[dict | None, float]:
        """One probe process; its result and the clock value at spawn."""
        t_spawn = time.monotonic()
        ch = self.child([str(PROBE), mode, self.workload, str(self.var)])
        what = f"probe {mode}"
        try:
            res = json.loads(ch.out.strip().splitlines()[-1]) if ch.code == 0 else None
        except (ValueError, IndexError):
            res = None
        if not self.tally.check(what, None if res else f"exit {ch.code}: {ch.err.strip()[-2000:]}"):
            return None, t_spawn
        self.probe_env = self.probe_env or res.get("env", {})
        for i, out in enumerate(res["results"]):
            self.tally.check(f"{what} result {i}", result_mismatch(out, self.ref))
        for problem in res["failures"]:
            self.tally.check(what, problem)
        return res, t_spawn

    def cli_round(self) -> tuple[float, int]:
        wall, rss = 0.0, 0
        for i, argv in enumerate(wl.cli_commands(self.workload, self.var)):
            ch = self.child(["-m", "melonic.cli", *argv])
            wall += ch.wall
            rss = max(rss, ch.maxrss_kb)
            problem = f"exit {ch.code}: {ch.err.strip()[-2000:]}" if ch.code else None
            self.tally.check(f"melonic {' '.join(argv)}", problem or text_mismatch(ch.out, self.ref["cli"][i]))
        return wall, rss

    def keep_going(self, t_begin: float, rounds: int, min_rounds: int) -> bool:
        elapsed = time.monotonic() - t_begin
        if elapsed > LAST_ROUND_START_S:
            return False
        return rounds < min_rounds or elapsed < self.seconds

    def end_to_end(self) -> dict:
        walls, setups, warms, rss = [], [], [], 0
        t_begin, rounds = time.monotonic(), 0
        while self.keep_going(t_begin, rounds, MIN_ROUNDS):
            wall, peak = self.cli_round()
            walls.append(wall)
            rss = max(rss, peak)
            res, t_spawn = self.probe("setup")
            if res:
                # what the cold call pays and its repeat does not; a repeat
                # can come out slower (allocator and GC state), which is no set-up
                setups.append(res["t_imported"] - t_spawn + max(0.0, res["cold_s"] - res["repeat_s"]))
                warms.extend(res["warm_s"])
            rounds += 1
        self.samples = {"wall_s": walls, "setup_s": setups, "warm_s": warms}
        t = self.tally
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "warm_s": statistics.median(warms) if warms else 0.0,
            "peak_rss_mb": rss / 1024.0,
            "success_rate": 1.0 - t.failed / max(t.attempted, 1),
        }

    def import_times(self) -> tuple[float, float]:
        """Cumulative import time of melonic and of the scipy imports it
        triggers, from -X importtime, in seconds."""
        ch = self.child(["-X", "importtime", "-c", "import melonic"])
        if not self.tally.check("import melonic", f"exit {ch.code}" if ch.code else None):
            return 0.0, 0.0
        rows = []
        for line in ch.err.splitlines():
            m = re.match(r"import time:\s*\d+ \|\s*(\d+) \| ( *)(\S+)", line)
            if m:
                rows.append((len(m.group(2)) // 2, m.group(3), int(m.group(1))))
        total = scipy = 0
        stack: list[tuple[int, str]] = []
        # importtime prints children before their parent; reversed, each
        # line's enclosing imports are the shallower lines on the stack
        for depth, name, cum in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
                scipy += cum
            if name == "melonic" and depth == 0:
                total = cum
            stack.append((depth, name))
        return total / 1e6, scipy / 1e6

    def traced(self, names: list[str]) -> dict:
        interp = [self.child(["-c", "pass"]).wall for _ in range(3)]
        imports = [self.import_times() for _ in range(3)]
        traced, plain = [], []
        t_begin, rounds = time.monotonic(), 0
        while self.keep_going(t_begin, rounds, 1):
            res, _ = self.probe("trace")
            if res:
                traced.append(res)
            res, _ = self.probe("pass")
            if res:
                plain.append(res["wall_s"])
            rounds += 1
        metrics = {name: 0.0 for name in names}
        for name in names:
            vals = [r["metrics"][name] for r in traced if name in r["metrics"]]
            if vals:
                metrics[name] = statistics.median(vals)
        metrics["cli.interp_s"] = statistics.median(interp)
        metrics["cli.import_s"] = statistics.median(i[0] for i in imports)
        metrics["cli.import_scipy_s"] = statistics.median(i[1] for i in imports)
        if traced and plain:
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            metrics["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1.0
        return metrics


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "melonic" / "__init__.py").is_file():
        print(f"no melonic sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    load_start = os.getloadavg()
    bench = Bench(root, args.workload, args.seed, args.seconds)
    t0 = time.monotonic()
    if args.trace:
        values = bench.traced([m["name"] for m in declared])
    else:
        values = bench.end_to_end()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": bench.var,
        "commit": commit(root),
        "src_sha256": source_digest(root),
        "python": sys.version.split()[0],
        **bench.probe_env,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "run_s": time.monotonic() - t0,
        "samples": bench.samples,
    }
    print(json.dumps({"env": env}))
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
