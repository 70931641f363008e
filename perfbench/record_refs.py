"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py      (from the root of a source checkout)

Writes perfbench/refs.json: for every workload and seed variant, the stdout
of each CLI call, plus the exact E[I_n] Fractions of the oracle-cli
workload.  Re-record only on purpose: a change to the program that alters
these outputs is a change of behaviour, not of speed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from melonic import tensor

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    refs: dict = {}
    for workload in wl.WORKLOADS:
        variants = range(wl.VARIANTS) if workload in wl.MC else [0]
        refs[workload] = {}
        for var in variants:
            outs = []
            for argv in wl.cli_commands(workload, var):
                proc = subprocess.run([sys.executable, "-m", "melonic.cli", *argv], env=env,
                                      cwd=root, capture_output=True, text=True, check=True)
                outs.append(proc.stdout)
            entry = {"cli": outs}
            if workload == "oracle-cli":
                dist = tensor.EntryDistribution.from_string(wl.DIST)
                entry["fractions"] = [
                    str(tensor.expected_balanced_invariant(wl.P, wl.ORACLE["n"], N, dist))
                    for N in wl.ORACLE["N"]
                ]
            refs[workload][str(var)] = entry
            print(f"{workload} variant {var}: {len(outs)} outputs", file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
