"""Command-line interface.

Subcommands: enumerate | classify | count | moments | mc | var | law |
contract | heavytail | resolvent-check.  contract is mc of the k-fold
contracted tensor (--k 0 is mc), and law tabulates LimitLaw(p, k).
Tabular output is CSV (default) or JSON via --format; floats are
serialised with 17 significant digits so runs are bit-reproducible at a
fixed BLAS thread count (the matrix products of the contractions may round
differently with another OPENBLAS_NUM_THREADS, which shows at N >= 32).
Settings come from one ExperimentConfig: its defaults, then a JSON config
file (--config), then explicit flags.  Each subcommand accepts only the
flags it reads.  The package's own errors end the run with a one-line
message and the exit codes listed in _EXIT_CODES.  A reader that closes
stdout early (``| head``) ends the run quietly with exit code 1, the code of
Python's own exit on a broken pipe.
This module loads only errors and config, and each subcommand imports what
it runs when it starts: count counting, law limitlaw, enumerate maps,
classify maps and hypergraph, moments exact, maps and hypergraph; only mc,
var, contract, heavytail and resolvent-check load numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .config import ExperimentConfig
from .errors import ContractViolation, DomainError, NumericalError, ResourceLimitError


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, (tuple, list)):
        return " ".join(str(v) for v in x)
    if x is None:
        return ""
    return str(x)


def _emit_table(header, rows, out, fmt):
    """Write rows (sequences aligned with header) as CSV or JSON."""
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _estimate_table(rows):
    header = ["N", "n", "mean", "stderr", "variance", "target", "deviation"]
    data = [
        (r.N, r.n, r.mean, r.stderr, r.variance, r.target, r.deviation) for r in rows
    ]
    return header, data


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


# The flags that set ExperimentConfig fields; each dest is the field name.
_FLAGS = {
    "--p": dict(type=int, dest="p", help="tensor order / vertex valence"),
    "--n": dict(type=int, dest="n_max", help="degree (vertices of the maps)"),
    "--N": dict(type=_int_list, dest="N_grid", help="comma-separated dimensions"),
    "--samples": dict(type=int),
    "--seed": dict(type=int),
    "--dist": dict(
        help="gaussian-gote | gaussian-offdiag-only | rademacher | uniform"
        " | symmetrized-pareto:ALPHA"
    ),
    "--out": dict(help="output path (default stdout)"),
    "--format": dict(choices=("csv", "json"), dest="fmt"),
}
_TABLE = ("--p", "--n", "--out", "--format")
_MC = (*_TABLE, "--N", "--samples", "--seed", "--dist")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="melonic",
        description="Trace invariants of symmetric random tensors at desk scale.",
    )
    ap.add_argument("--config", help="JSON file with ExperimentConfig defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    def subcommand(name, help, flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        return sp

    subcommand("enumerate", "rooted connected p-regular maps", ("--p", "--n", "--out"))
    subcommand("classify", "melonic classification per map", _TABLE)
    subcommand("count", "Fuss-Catalan counting table", _TABLE)
    subcommand(
        "moments", "exact finite-N expectations per map", (*_TABLE, "--N", "--dist")
    )
    subcommand("mc", "Monte Carlo moments of I_n/N", _MC).set_defaults(k=0, random_unit=False)
    subcommand("var", "variance scaling of I_n/N", _MC)

    sp = subcommand("law", "limit-law density grid and moments", ("--p", "--out", "--format"))
    sp.add_argument("--k", type=int, default=0, help="contraction depth (default 0)")
    sp.add_argument("--grid", type=int, default=101, help="density grid points")

    sp = subcommand("contract", "contracted-tensor moments", _MC)
    sp.add_argument("--k", type=int, default=1, help="contraction depth (default 1)")
    sp.add_argument("--random-unit", action="store_true",
                    help="contract by a deterministic random unit vector instead of e1")

    sp = subcommand(
        "heavytail", "median moments with Pareto entries",
        (*_TABLE, "--N", "--samples", "--seed"),
    )
    sp.add_argument("--tail", type=float, default=3.5, help="Pareto tail index")

    sp = subcommand(
        "resolvent-check", "p=2 resolvent series vs dense trace",
        ("--N", "--seed", "--out", "--format"),
    )
    sp.add_argument("--z", type=float, default=3.0)
    sp.add_argument("--K", type=int, default=20)
    return ap


def _config(args) -> ExperimentConfig:
    """Dataclass defaults < config file < explicit flags; an output path
    that cannot be opened for writing is refused."""
    cfg = ExperimentConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:  # a missing file, or not JSON
            raise ContractViolation(f"cannot read config {args.config}: {exc}") from None
        cfg = ExperimentConfig.from_json(obj)
    flags = {
        f.name: getattr(args, f.name)
        for f in fields(cfg)
        if getattr(args, f.name, None) is not None
    }
    cfg = replace(cfg, **flags)
    if cfg.out:  # refused before any work; a file the check creates is removed
        existed = os.path.lexists(cfg.out)
        try:
            open(cfg.out, "a").close()
        except OSError as exc:
            raise ContractViolation(f"cannot write --out {cfg.out}: {exc}") from None
        if not existed:
            os.remove(cfg.out)
    return cfg


def _coded_maps(p: int, n: int):
    """(canonical code, map) of every rooted connected map, in listing order;
    the codes are the ones the enumerator sorted by."""
    from .maps import _coded_taus, enumerate_rooted_connected
    return zip((code for code, _ in _coded_taus(p, n)), enumerate_rooted_connected(p, n))


def _cmd_enumerate(args, cfg):
    from . import maps
    out = []
    for code, b in _coded_maps(cfg.p, cfg.n_max):
        obj = maps.map_to_json(b)
        obj["code"] = list(code)
        out.append(obj)
    _write(json.dumps(out, indent=2) + "\n", cfg.out)


def _cmd_classify(args, cfg):
    from .hypergraph import euler_deficiency, hypergraph_of, melonic_partition
    from .maps import dual
    rows = []
    for code, b in _coded_maps(cfg.p, cfg.n_max):
        # melonic classification is defined for p >= 3; p = 2 rows stay blank
        pi = melonic_partition(b) if cfg.p >= 3 else None
        melonic = pi is not None if cfg.p >= 3 else ""
        dualgraph = hypergraph_of(dual(b)).reduced()
        rows.append(
            (
                code,
                melonic,
                "|".join(" ".join(map(str, blk)) for blk in pi.blocks) if pi else "",
                euler_deficiency(dualgraph, cfg.p),
            )
        )
    _emit_table(["code", "melonic", "pi", "euler_deficiency"], rows, cfg.out, cfg.fmt)


def _cmd_count(args, cfg):
    from . import counting
    p, ns = cfg.p, range(cfg.n_max + 1)
    counting._check_count_table(p, cfg.n_max)
    fuss = [counting.fuss_catalan(p, n) for n in ns]
    dyck, noncrossing = counting.count_columns(p, cfg.n_max)
    melonic = [counting.count_melonic_maps(p, n) if p >= 3 else "" for n in ns]
    rows = [(p, n, fuss[n], dyck[n], noncrossing[n], melonic[n]) for n in ns]
    header = ["p", "n", "fuss_catalan", "dyck", "noncrossing", "melonic_maps"]
    _emit_table(header, rows, cfg.out, cfg.fmt)


def _cmd_moments(args, cfg):
    from . import exact
    rows = []
    table = exact.melonic_limit_table(cfg.p, cfg.n_max, cfg.N_grid, cfg.dist)
    for r in table:
        for N, val, dev in zip(cfg.N_grid, r.values, r.deviations):
            rows.append((r.code, N, val, r.alpha, dev))
    _emit_table(
        ["code", "N", "exact_expectation", "melonic_limit_alpha", "deviation"],
        rows,
        cfg.out,
        cfg.fmt,
    )


def _cmd_mc(args, cfg):
    """mc, and contract: mc of the tensor contracted --k times."""
    from . import experiments
    header, data = _estimate_table(experiments.mc_moments(cfg, args.k, args.random_unit))
    _emit_table(header, data, cfg.out, cfg.fmt)


def _cmd_var(args, cfg):
    from . import experiments
    res = experiments.variance_scaling(cfg)
    rows = [(N, v, res.slope) for N, v in res.rows]
    _emit_table(["N", "variance", "slope"], rows, cfg.out, cfg.fmt)


def _grid(lo: float, hi: float, points: int) -> list[float]:
    """points evenly spaced floats from lo to hi, bit for bit those of
    ``np.linspace(lo, hi, points)``."""
    if points == 1:
        return [lo]
    step = (hi - lo) / (points - 1)
    ys = [lo + i * step for i in range(points)]
    ys[-1] = hi
    return ys


def _cmd_law(args, cfg):
    from . import limitlaw
    p, k = cfg.p, args.k
    if args.grid < 1:
        raise ContractViolation(f"--grid must be at least 1, got {args.grid}")
    law = limitlaw.LimitLaw(p, k)
    ys = _grid(*law.support(), args.grid)
    # At k = 0 and p >= 4 the grid is inverted at the support endpoints too,
    # where law.density gives 0: `law --p 4 --grid 5` prints 1.88e-4 at
    # +-omega_c, while the order-4 law of `law --p 6 --k 2` prints 0 there.
    # perfbench/refs.json pins the `law --p 4` bytes, so the fork stays until
    # those references are re-recorded with the limit-law rework (ROADMAP
    # item 1).
    if k == 0 and p >= 4:
        dens = limitlaw.inversion_density(p, ys)
    else:
        dens = law.density(ys)
    _emit_table(["y", "density"], list(zip(ys, dens)), cfg.out, cfg.fmt)
    # the moment table always goes to stdout (next to the file, or below
    # the density grid)
    mom_rows = [(n, float(law.moment(n))) for n in range(0, 9)]
    _emit_table(["n", "moment"], mom_rows, None, cfg.fmt)


def _cmd_heavytail(args, cfg):
    from . import experiments
    rows = experiments.heavy_tail_moments(
        p=cfg.p,
        n=cfg.n_max,
        N_grid=cfg.N_grid,
        samples=cfg.samples,
        seed=cfg.seed,
        tail_index=args.tail,
    )
    data = [(r.N, r.n, r.median, r.iqr, r.target) for r in rows]
    _emit_table(["N", "n", "median", "iqr", "target"], data, cfg.out, cfg.fmt)


def _cmd_resolvent(args, cfg):
    from . import experiments
    checks = [experiments.resolvent_crosscheck(N, args.z, args.K, cfg.seed) for N in cfg.N_grid]
    rows = [
        (r.N, r.z.real, r.K, r.series, r.direct, r.gap, r.tail_bound, r.spectral_radius)
        for r in checks
    ]
    _emit_table(
        ["N", "z", "K", "series", "direct", "gap", "tail_bound", "spectral_radius"],
        rows,
        cfg.out,
        cfg.fmt,
    )


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "count": _cmd_count,
    "moments": _cmd_moments,
    "mc": _cmd_mc,
    "var": _cmd_var,
    "law": _cmd_law,
    "contract": _cmd_mc,
    "heavytail": _cmd_heavytail,
    "resolvent-check": _cmd_resolvent,
}


# Exit codes of the package's own errors; argparse exits with 2 on bad flags.
_EXIT_CODES = {ContractViolation: 3, DomainError: 4, ResourceLimitError: 5, NumericalError: 6}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args, _config(args))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except tuple(_EXIT_CODES) as exc:
        message = " ".join(str(exc).split())
        print(f"melonic {args.command}: {type(exc).__name__}: {message}", file=sys.stderr)
        return next(code for err, code in _EXIT_CODES.items() if isinstance(exc, err))
    except BrokenPipeError:
        # what is left to flush at exit goes to devnull, not to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
