"""In-process half of the benchmark, run by run.py in a fresh interpreter so
that every lazy cache of the package starts cold.

    python3 perfbench/probe.py MODE WORKLOAD VARIANT

MODE is one of
  setup  import melonic, time the set-up call cold and warm (setup_call),
         then WARM_REPEATS warm full calls in all;
  trace  run the workload pipeline (a cold pass, then a warm pass) with spans
         and counters recorded around the calls into each layer;
  pass   the same pipeline with tracing off, for the tracing overhead.

The last line of stdout is one JSON object.  The import of the package and
the interpreter start are timed by the caller from the clock values this
process reports.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import string  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import workloads as wl  # noqa: E402

T_IMPORT = time.monotonic()
import melonic  # noqa: E402,F401
from melonic import cli, experiments, limitlaw, maps, tensor  # noqa: E402

T_IMPORTED = time.monotonic()

import numpy as np  # noqa: E402  (already loaded by melonic)

perf = time.perf_counter


# ---------------------------------------------------------------------------
# the workloads' full in-process calls (untraced; what warm_s times)
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def estimate_csv(rows) -> str:
    """MomentEstimate-like rows in the CLI's CSV layout."""
    lines = ["N,n,mean,stderr,variance,target,deviation"]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def capture_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"cli.main{tuple(argv)} returned {code}")
    return buf.getvalue()


def oracle(Ns) -> list[str]:
    dist = tensor.EntryDistribution.from_string(wl.DIST)
    return [str(tensor.expected_balanced_invariant(wl.P, wl.ORACLE["n"], N, dist)) for N in Ns]


def quick_cli(tr=None) -> dict:
    """In-process cli.main for the short commands of oracle-cli, keyed by
    their position in the workload's CLI calls; spans per command if traced."""
    out = {}
    for i, argv in enumerate(wl.cli_commands("oracle-cli", 0)):
        if argv[0] == "moments":
            continue
        if tr is None:
            out[str(i)] = capture_cli(argv)
            continue
        with tr.span("cli." + argv[0] + (f".p{argv[2]}" if argv[0] == "law" else "")):
            out[str(i)] = capture_cli(argv)
    return out


def full_call(workload: str, var: int) -> dict:
    """The in-process counterpart of the workload's CLI calls.  Results carry
    "cli": {index of the CLI call: same stdout} and "fractions": E[I_n]."""
    if workload in wl.MC:
        spec = wl.MC[workload]
        cfg = experiments.ExperimentConfig(
            p=wl.P, n_max=spec["n"], N_grid=spec["N"], samples=spec["samples"],
            seed=wl.mc_seed(var), dist=wl.DIST,
        )
        rows = experiments.mc_moments(cfg)
        data = [(r.N, r.n, r.mean, r.stderr, r.variance, r.target, r.deviation) for r in rows]
        return {"cli": {"0": estimate_csv(data)}}
    return {"fractions": oracle(wl.ORACLE["N"]), "cli": quick_cli()}


def map_count_failures(workload: str) -> list[str]:
    """Map counts the combinatorics fixes, for the sizes this workload uses."""
    n = wl.MC[workload]["n"] if workload in wl.MC else wl.ORACLE["n"]
    want = wl.MAP_COUNTS.get((wl.P, n))
    got = len(maps.rooted_connected(wl.P, n))
    return [] if want is None or got == want else [f"{got} maps at (p, n) = ({wl.P}, {n}), want {want}"]


def setup_call(workload: str, var: int) -> dict:
    """The call whose cold and warm times give the set-up cost.  On
    oracle-cli the oracle runs at the smallest N only, whose warm repeat is
    cheaper and so less noisy than the whole sweep; elsewhere the full call."""
    if workload == "oracle-cli":
        return {"fractions": oracle(wl.ORACLE["N"][:1]), "cli": quick_cli()}
    return full_call(workload, var)


def timed(fn, *args):
    t0 = perf()
    out = fn(*args)
    return perf() - t0, out


def run_setup(workload: str, var: int) -> dict:
    cold, first = timed(setup_call, workload, var)
    repeat, again = timed(setup_call, workload, var)
    results = [first, again]
    warm = [] if workload == "oracle-cli" else [repeat]
    while len(warm) < wl.WARM_REPEATS[workload]:
        secs, out = timed(full_call, workload, var)
        warm.append(secs)
        results.append(out)
    return {"cold_s": cold, "repeat_s": repeat, "warm_s": warm, "results": results,
            "failures": map_count_failures(workload)}


# ---------------------------------------------------------------------------
# spans and counters around the calls into each layer
# ---------------------------------------------------------------------------


class Tracer:
    """Spans (phase, name, start, end, depth) and counters, kept in memory.

    Depth 1 marks a span opened directly by the pipeline; deeper spans come
    from wrappers installed on package functions the pipeline calls into.
    A span is not reopened inside a span of the same name, so nested calls
    of one layer are counted once.  With ``on`` false nothing is recorded
    and no wrapper is installed.
    """

    def __init__(self, on: bool):
        self.on = on
        self.phase = "cold"
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._depth = 0
        self._open: set = set()

    def _enter(self, name):
        if name in self._open:
            return None
        self._open.add(name)
        self._depth += 1
        return perf()

    def _exit(self, name, t0):
        t1 = perf()
        self.spans.append((self.phase, name, t0, t1, self._depth))
        self._depth -= 1
        self._open.discard(name)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        t0 = self._enter(name)
        try:
            yield
        finally:
            if t0 is not None:
                self._exit(name, t0)

    def wrap(self, owner, attr: str, name) -> None:
        """Time every call of owner.attr; ``name`` is a string or a function
        of the call's arguments.  Missing attributes are left alone."""
        fn = getattr(owner, attr, None)
        if not self.on or fn is None:
            return

        def timed(*args, **kwargs):
            label = name(*args) if callable(name) else name
            t0 = self._enter(label)
            if t0 is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(label, t0)

        setattr(owner, attr, timed)

    def count_calls(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr, None)
        if not self.on or fn is None:
            return

        def counted(*args, **kwargs):
            self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def count_yields(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr, None)
        if not self.on or fn is None:
            return

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[(self.phase, name)] += 1
                yield item

        setattr(owner, attr, counted)

    def total(self, phase: str, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == phase and s[1] == name)

    def calls(self, phase: str, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == phase and s[1] == name)

    def matching(self, phase: str, pattern: str) -> dict:
        """Total seconds and calls per span name matching the regex."""
        out: dict = defaultdict(lambda: [0.0, 0])
        rx = re.compile(pattern)
        for ph, name, t0, t1, _ in self.spans:
            if ph == phase and rx.fullmatch(name):
                out[name][0] += t1 - t0
                out[name][1] += 1
        return out

    def top_level(self, phases) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] in phases and s[4] == 1)


# ---------------------------------------------------------------------------
# multigraph classes, computed on the benchmark's side
# ---------------------------------------------------------------------------


def multigraph_label(b) -> str:
    """Canonical multigraph edge list, e.g. 01-02-03-12-13-23 for K4."""
    edges = maps.multigraph(b)
    best = min(
        tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        for perm in itertools.permutations(range(b.n))
    )
    return "-".join(f"{u}{v}" for u, v in best)


def map_classes(p: int, n: int):
    """label of every map, and (label, first member, size) per class, with
    the first member in enumeration order as representative."""
    memo: dict = {}
    label_of: dict = {}
    classes: dict = {}
    for b in maps.enumerate_rooted_connected(p, n):
        key = tuple(sorted(maps.multigraph(b)))
        if key not in memo:
            memo[key] = multigraph_label(b)
        label = memo[key]
        label_of[b] = label
        if label in classes:
            classes[label][1] += 1
        else:
            classes[label] = [b, 1]
    return label_of, [(lab, rep, cnt) for lab, (rep, cnt) in classes.items()]


def einsum_of(b) -> str:
    """The trace-invariant einsum: one operand per vertex, one letter per edge."""
    edge_of = {}
    for i, (h, k) in enumerate(maps.edge_list(b)):
        edge_of[h] = edge_of[k] = i
    return ",".join(
        "".join(string.ascii_letters[edge_of[h]] for h in cyc) for cyc in maps.cycles(b.sigma)
    ) + "->"


def planned_cost(b, N: int) -> tuple[float, float]:
    """FLOP count and largest intermediate (elements) that np.einsum_path
    reports for the greedy path with the memory budget trace_invariant uses
    at the time this benchmark was written: min(max(N^4, N^p), 2^26).
    Computed from shapes only; nothing is contracted."""
    eq = einsum_of(b)
    operand = np.broadcast_to(np.zeros(()), (N,) * b.p)
    budget = min(max(N**4, N**b.p), 1 << 26)
    info = np.einsum_path(eq, *([operand] * b.n), optimize=("greedy", budget))[1]
    flop = float(re.search(r"Optimized FLOP count:\s*(\S+)", info).group(1))
    elems = float(re.search(r"Largest intermediate:\s*(\S+)", info).group(1))
    return flop, elems


# ---------------------------------------------------------------------------
# traced pipelines: the workload's work, split at the layer boundaries
# ---------------------------------------------------------------------------


def dense(W):
    """Dense expansion, cached on the tensor where the package caches it."""
    return getattr(W, "_dense", W.to_dense)()


def estimate(N, ns, data):
    """The Monte Carlo summary rows (mean, stderr, variance against target)."""
    arr = np.asarray(data, dtype=np.float64)
    rows = []
    for j, n in enumerate(ns):
        col = arr[:, j]
        mean = float(np.mean(col))
        var = float(np.var(col, ddof=1))
        target = float(limitlaw.moment(wl.P, n))
        rows.append((N, n, mean, math.sqrt(var / len(col)), var, target, mean - target))
    return rows


def mc_pass(tr: Tracer, workload: str, var: int) -> dict:
    spec = wl.MC[workload]
    ns = list(range(1, spec["n"] + 1))
    dist = tensor.EntryDistribution.from_string(wl.DIST)
    seed = wl.mc_seed(var)
    with tr.span("maps.enumerate"):
        for n in ns:
            maps.rooted_connected(wl.P, n)
    # the first balanced_invariant call groups the maps into classes;
    # on a one-entry tensor the contractions themselves cost nothing
    with tr.span("tensor.class_group"):
        tiny = tensor.SymTensor.zeros(wl.P, 1)
        for n in ns:
            tensor.balanced_invariant(n, tiny)
    rows = []
    for N in spec["N"]:
        with tr.span(f"tensor.index_table.N{N}"):
            tensor.SymTensor.zeros(wl.P, N).to_dense()
        data = []
        for idx in range(spec["samples"]):
            with tr.span(f"tensor.sample.N{N}"):
                W = tensor.sample_wigner(wl.P, N, dist, (seed, N, 0, idx))
            with tr.span(f"tensor.dense.N{N}"):
                dense(W)
            with tr.span(f"tensor.invariants.N{N}"):
                data.append([tensor.balanced_invariant(n, W) / N for n in ns])
        with tr.span("experiments.estimate"):
            rows.extend(estimate(N, ns, data))
    return {"cli": {"0": estimate_csv(rows)}}


def oracle_cli_pass(tr: Tracer, workload: str, var: int) -> dict:
    with tr.span("maps.enumerate"):
        maps.rooted_connected(wl.P, wl.ORACLE["n"])
    vals = []
    for N in wl.ORACLE["N"]:
        with tr.span(f"tensor.expected_In.N{N}"):
            vals += oracle([N])
    return {"fractions": vals, "cli": quick_cli(tr)}


def install_wrappers(tr: Tracer, label_of: dict) -> None:
    tr.wrap(tensor, "trace_invariant",
            lambda b, T, *a: f"tensor.contract.{label_of.get(b, 'other')}.N{T.N}")
    tr.wrap(tensor, "expected_trace_partitions", "tensor.exact_point")
    tr.wrap(tensor, "merge_edges", "maps.merge_dual")
    tr.wrap(tensor, "dual", "maps.merge_dual")
    tr.wrap(tensor, "hypergraph_of", "hypergraph.of")
    tr.count_yields(maps, "enumerate_edge_partitions", "tensor.partitions_visited")
    tr.wrap(cli, "enumerate_rooted_connected", "maps.enumerate")
    tr.wrap(cli, "melonic_partition", "hypergraph.melonic")
    tr.wrap(cli, "is_melonic_graph", "hypergraph.melonic")
    tr.wrap(limitlaw, "density", lambda p, *a: f"limitlaw.density_grid.p{p}")
    tr.wrap(limitlaw, "inversion_density", lambda p, *a: f"limitlaw.density_grid.p{p}")
    tr.count_calls(limitlaw, "stieltjes", "limitlaw.stieltjes_calls")


def layer_metrics(tr: Tracer, workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pipeline, and counter mismatches."""
    m: dict = {}
    bad: list[str] = []
    m["maps.enumerate_s"] = tr.total("cold", "maps.enumerate")
    ns = range(1, wl.MC[workload]["n"] + 1) if workload in wl.MC else [wl.ORACLE["n"]]
    m["maps.count"] = sum(len(maps.rooted_connected(wl.P, n)) for n in ns)

    def repeats(name):
        cold, warm = tr.counts[("cold", name)], tr.counts[("warm", name)]
        if cold != warm:
            bad.append(f"{name}: {cold} in the cold pass, {warm} in the warm pass")
        return warm

    if workload in wl.MC:
        spec = wl.MC[workload]
        S, grid = spec["samples"], spec["N"]
        m["tensor.class_group_s"] = tr.total("cold", "tensor.class_group")
        for N in grid:
            m[f"tensor.index_table_ms.N{N}"] = 1e3 * tr.total("cold", f"tensor.index_table.N{N}")
            m[f"tensor.sample_ms.N{N}"] = 1e3 * tr.total("warm", f"tensor.sample.N{N}") / S
            m[f"tensor.dense_ms.N{N}"] = 1e3 * tr.total("warm", f"tensor.dense.N{N}") / S
        sizes = "|".join(map(str, grid))
        per_phase = {ph: tr.matching(ph, rf"tensor\.contract\..*\.N({sizes})") for ph in ("cold", "warm")}
        ncalls = {ph: sum(c for _, c in v.values()) for ph, v in per_phase.items()}
        if ncalls["cold"] != ncalls["warm"]:
            bad.append(f"contract calls: {ncalls['cold']} cold, {ncalls['warm']} warm")
        tensors = S * len(grid)
        for name, (secs, _) in per_phase["warm"].items():
            _, label, N = name.rsplit(".", 2)
            m[f"tensor.contract_ms.{label}.{N}"] = 1e3 * secs / S
        m["tensor.contract_ms"] = 1e3 * sum(s for s, _ in per_phase["warm"].values()) / tensors
        m["tensor.contract_calls"] = ncalls["warm"] / tensors
        m["tensor.classes"] = len({k.rsplit(".", 2)[1] for k in per_phase["warm"]})
    else:
        visited = repeats("tensor.partitions_visited")
        m["tensor.partitions_visited"] = visited
        points = tr.calls("warm", "tensor.exact_point")
        m["tensor.exact_point_ms"] = 1e3 * tr.total("warm", "tensor.exact_point") / max(points, 1)
        m["maps.merge_dual_us"] = 1e6 * tr.total("warm", "maps.merge_dual") / max(visited, 1)
        m["hypergraph.of_us"] = 1e6 * tr.total("warm", "hypergraph.of") / max(
            tr.calls("warm", "hypergraph.of"), 1)
        m["tensor.expected_In_s"] = sum(
            tr.total("warm", f"tensor.expected_In.N{N}") for N in wl.ORACLE["N"])
        m["hypergraph.melonic_ms"] = 1e3 * tr.total("warm", "hypergraph.melonic")
        m["counting.table_ms"] = 1e3 * tr.total("warm", "cli.count")
        for p in (3, 4):
            m[f"limitlaw.density_grid_s.p{p}"] = tr.total("warm", f"limitlaw.density_grid.p{p}")
        m["limitlaw.stieltjes_calls"] = repeats("limitlaw.stieltjes_calls")
    return m, bad


def class_sum_failures(workload: str, classes_by_n: dict, var: int) -> list[str]:
    """sum over classes of count * Tr_rep(W) must equal balanced_invariant(n, W),
    on the first sample at every N of the workload."""
    spec = wl.MC[workload]
    dist = tensor.EntryDistribution.from_string(wl.DIST)
    bad = []
    for N in spec["N"]:
        W = tensor.sample_wigner(wl.P, N, dist, (wl.mc_seed(var), N, 0, 0))
        for n, classes in classes_by_n.items():
            lib = tensor.balanced_invariant(n, W)
            mine = math.fsum(cnt * tensor.trace_invariant(rep, W) for _, rep, cnt in classes)
            if not math.isclose(lib, mine, rel_tol=1e-10, abs_tol=0.0):
                bad.append(f"class sum {mine!r} != balanced_invariant {lib!r} at n={n}, N={N}")
    return bad


def run_pipeline(workload: str, var: int, traced: bool) -> dict:
    tr = Tracer(traced)
    label_of: dict = {}
    classes_by_n: dict = {}
    if traced and workload in wl.MC:
        for n in range(2, wl.MC[workload]["n"] + 1, 2):
            labels, classes = map_classes(wl.P, n)
            label_of.update(labels)
            classes_by_n[n] = classes
    install_wrappers(tr, label_of)
    one_pass = mc_pass if workload in wl.MC else oracle_cli_pass
    results = []
    t0 = perf()
    for phase in ("cold", "warm"):
        tr.phase = phase
        results.append(one_pass(tr, workload, var))
    wall = perf() - t0
    res = {"wall_s": wall, "results": results, "failures": map_count_failures(workload)}
    if not traced:
        return res
    metrics, bad = layer_metrics(tr, workload)
    metrics["trace.unattributed_frac"] = 1.0 - tr.top_level(("cold", "warm")) / wall
    tr.phase = "check"
    if workload in wl.MC:
        bad += class_sum_failures(workload, classes_by_n, var)
    if workload == "mc-tetra":
        for label, rep, _ in classes_by_n[4]:
            for N in wl.MC[workload]["N"] + (96, 128):
                flop, elems = planned_cost(rep, N)
                metrics[f"tensor.contract_flop.{label}.N{N}"] = flop
                metrics[f"tensor.contract_max_elems.{label}.N{N}"] = elems
    res["metrics"] = metrics
    res["failures"] += bad
    return res


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "blas_threads": blas_threads(),
    }


def main(argv) -> int:
    mode, workload, var = argv[0], argv[1], int(argv[2])
    if workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if mode == "setup":
        res = run_setup(workload, var)
    elif mode in ("trace", "pass"):
        res = run_pipeline(workload, var, traced=mode == "trace")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    res.update(t_start=T_START, t_import=T_IMPORT, t_imported=T_IMPORTED, env=environment())
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
