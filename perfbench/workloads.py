"""Workload definitions shared by the benchmark entry point (run.py), the
in-process probe (probe.py) and the reference recorder (record_refs.py).

Every workload runs the melonic CLI as subprocesses for the end-to-end wall
time, and the same work in-process through the package's public functions
for the set-up, warm and per-layer timings.  The benchmark seed only selects
the CLI ``--seed`` of the Monte Carlo workloads; oracle-cli has no random
input, so its inputs are the same for every seed.
"""

P = 3
DIST = "gaussian-gote"

# Monte Carlo seeds with recorded reference outputs: --seed s runs variant
# s % VARIANTS, which passes --seed 1 + variant to the program.
VARIANTS = 8

MC = {
    "mc-tetra": {"n": 4, "N": (32, 48, 64), "samples": 2},
    "mc-classes": {"n": 6, "N": (8, 16), "samples": 16},
}
ORACLE = {"n": 4, "N": (8, 16, 32)}
QUICK = (
    ("count", "--p", "3", "--n", "5"),
    ("classify", "--p", "3", "--n", "4"),
    ("enumerate", "--p", "3", "--n", "4"),
    ("law", "--p", "3"),
    ("law", "--p", "4"),
)

# Map counts fixed by the combinatorics, checked on every run that enumerates.
MAP_COUNTS = {(3, 4): 60, (3, 6): 1105}

WHY = {
    "mc-tetra": "one class, the tetrahedron K4, is over 90% of each sample: "
    "large contractions, sampling and dense expansion, no exact oracle",
    "mc-classes": "1105 maps in 17 classes on small tensors: class grouping "
    "and per-call contraction overhead, the opposite use of the contraction layer",
    "oracle-cli": "the exact oracle in Fractions (60 maps x Bell(6) partitions x 3 N) and "
    "five short CLI calls: import, counting, classification, Stieltjes inversion",
}
WORKLOADS = tuple(WHY)

# Warm timings of the full in-process call per probe process.
WARM_REPEATS = {"mc-tetra": 2, "mc-classes": 6, "oracle-cli": 1}


def variant(workload: str, seed: int) -> int:
    return seed % VARIANTS if workload in MC else 0


def mc_seed(var: int) -> int:
    return 1 + var


def cli_commands(workload: str, var: int) -> list[list[str]]:
    """Arguments of the melonic CLI calls that make up one workload round."""
    if workload in MC:
        spec = MC[workload]
        return [[
            "mc", "--p", str(P), "--n", str(spec["n"]),
            "--N", ",".join(map(str, spec["N"])),
            "--samples", str(spec["samples"]), "--seed", str(mc_seed(var)),
        ]]
    if workload == "oracle-cli":
        return [[
            "moments", "--p", str(P), "--n", str(ORACLE["n"]),
            "--N", ",".join(map(str, ORACLE["N"])), "--dist", DIST,
        ]] + [list(cmd) for cmd in QUICK]
    raise ValueError(f"unknown workload {workload!r}")
