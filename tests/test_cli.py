import argparse
import ast
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import melonic
from melonic import cli, counting, exact, experiments, maps, tensor
from melonic.cli import main
from melonic.counting import fuss_catalan
from melonic.errors import (
    ContractViolation,
    DomainError,
    InvalidPartitionError,
    NumericalError,
    ResourceLimitError,
)
from melonic.maps import enumerate_rooted_connected


def child_env(**extra):
    """This environment plus ``extra``, with this checkout's package first on
    the path of a child interpreter."""
    src = str(Path(melonic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def run_capped(*argv):
    """Run the CLI in a child process whose address space is capped at 2 GiB,
    so a guard that admits too much fails the run, not the host."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "melonic.cli", *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )


def run_cli(argv, **env):
    """stdout of the CLI in a child process, with ``env`` added to its
    environment."""
    done = subprocess.run(
        [sys.executable, "-m", "melonic.cli", *argv],
        env=child_env(**env),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    assert code == 0
    return out.read_text()


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestEnumerate:
    def test_json_schema(self, tmp_path):
        text = run(tmp_path, "enumerate", "--p", "3", "--n", "2")
        objs = json.loads(text)
        assert len(objs) == 5
        for o in objs:
            assert set(o) == {"p", "n", "sigma", "tau", "root", "code"}
            assert o["root"] == 0 and o["p"] == 3 and o["n"] == 2


class TestClassify:
    def test_melonic_column(self, tmp_path):
        header, rows = csv_rows(run(tmp_path, "classify", "--p", "3", "--n", "2"))
        assert header == ["code", "melonic", "pi", "euler_deficiency"]
        assert sum(r["melonic"] == "True" for r in rows) == 2
        for r in rows:
            assert (r["pi"] != "") == (r["melonic"] == "True")


class TestCount:
    def test_table_matches_library(self, tmp_path):
        header, rows = csv_rows(run(tmp_path, "count", "--p", "3", "--n", "4"))
        assert header == ["p", "n", "fuss_catalan", "dyck", "noncrossing", "melonic_maps"]
        for r in rows:
            n = int(r["n"])
            assert int(r["fuss_catalan"]) == fuss_catalan(3, n)
            assert r["fuss_catalan"] == r["dyck"] == r["noncrossing"]

    def test_n12_is_admitted(self, tmp_path):
        _, rows = csv_rows(run(tmp_path, "count", "--p", "3", "--n", "12"))
        assert rows[-1]["noncrossing"] == str(fuss_catalan(3, 12)) == "50067108"

    def test_n200_is_admitted(self, tmp_path):
        _, rows = csv_rows(run(tmp_path, "count", "--p", "3", "--n", "200"))
        assert len(rows) == 201
        for r in rows:
            assert r["dyck"] == r["noncrossing"] == str(fuss_catalan(3, int(r["n"])))


class TestMomentsExact:
    def test_exact_rows(self, tmp_path):
        header, rows = csv_rows(
            run(tmp_path, "moments", "--p", "3", "--n", "2", "--N", "8,16")
        )
        assert header == ["code", "N", "exact_expectation", "melonic_limit_alpha", "deviation"]
        assert len(rows) == 2 * len(enumerate_rooted_connected(3, 2))

    @pytest.mark.parametrize("p", ["3", "4"])
    def test_pairing_route_output_is_byte_identical(self, tmp_path, monkeypatch, p):
        # the group DP, Isserlis' pairings under gaussian-gote; forcing the
        # partition route of the tests must print the same bytes
        from conftest import in_powers, map_of_network, trace_polynomial

        args = ("moments", "--p", p, "--n", "4", "--N", "3,8,16", "--dist", "gaussian-gote")
        pairing = run(tmp_path, *args)

        def partition_route(net, dist):
            return in_powers(trace_polynomial(map_of_network(net), [dist])[0])

        monkeypatch.setattr(exact, "_polynomial", partition_route)
        assert run(tmp_path, *args).encode() == pairing.encode()


class TestMc:
    def test_float_format_and_determinism(self, tmp_path):
        args = ["mc", "--p", "3", "--n", "2", "--N", "8", "--samples", "6", "--seed", "9"]
        a = run(tmp_path, *args)
        b = run(tmp_path, *args)
        assert a == b
        header, rows = csv_rows(a)
        mean = rows[1]["mean"]
        assert len(mean.replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_bytes_do_not_depend_on_blas_threads_at_golden_size(self):
        # at N >= 32 they can: the thread count is part of the run's setting
        argv = ("mc", "--p", "3", "--n", "6", "--N", "8,16", "--samples", "4", "--seed", "7")
        outs = [run_cli(argv, OPENBLAS_NUM_THREADS=str(t)) for t in (1, 2)]
        assert outs[0] == outs[1] and outs[0].startswith("N,n,mean")

    def test_json_format(self, tmp_path):
        text = run(
            tmp_path, "mc", "--p", "2", "--n", "2", "--N", "8", "--samples", "4",
            "--seed", "1", "--format", "json",
        )
        objs = json.loads(text)
        assert {o["n"] for o in objs} == {1, 2}


class TestConfigFile:
    def test_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"p": 2, "n_max": 2, "N_grid": [8], "samples": 4, "seed": 11}
            )
        )
        out = tmp_path / "o.csv"
        main(["--config", str(cfg), "mc", "--out", str(out)])
        _, rows = csv_rows(out.read_text())
        assert {r["N"] for r in rows} == {"8"}
        # explicit flag beats the config file
        main(["--config", str(cfg), "mc", "--N", "4", "--out", str(out)])
        _, rows = csv_rows(out.read_text())
        assert {r["N"] for r in rows} == {"4"}


class TestLaw:
    def test_density_grid(self, tmp_path):
        header, rows = csv_rows(
            run(tmp_path, "law", "--p", "2", "--grid", "5")
        )
        assert header == ["y", "density"]
        assert len(rows) == 5
        assert float(rows[0]["density"]) == 0.0
        assert float(rows[2]["density"]) == pytest.approx(1 / 3.141592653589793)

    def test_contracted_grid(self, tmp_path):
        header, rows = csv_rows(
            run(tmp_path, "law", "--p", "3", "--k", "1", "--grid", "3")
        )
        ys = [float(r["y"]) for r in rows]
        assert ys[0] == pytest.approx(-(2**0.5))

    def test_grid_is_linspace_bit_for_bit(self):
        import numpy as np

        from melonic import limitlaw

        for p in range(2, 9):
            for k in (0, 1, 2):
                if k > p - 2:
                    continue
                law = limitlaw.LimitLaw(p, k)
                for points in (1, 2, 3, 9, 11, 33, 101, 201):
                    ys = cli._grid(*law.support(), points)
                    assert ys == np.linspace(*law.support(), points).tolist()

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_empty_grid_is_refused(self, capsys, grid):
        code = main(["law", "--p", "4", "--grid", grid])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1 and "Traceback" not in err
        assert f"ContractViolation: --grid must be at least 1, got {grid}" in err


class TestOtherSubcommands:
    def test_var(self, tmp_path):
        header, rows = csv_rows(
            run(
                tmp_path, "var", "--p", "3", "--n", "2", "--N", "8,16",
                "--samples", "16", "--seed", "2",
            )
        )
        assert header == ["N", "variance", "slope"]
        assert len({r["slope"] for r in rows}) == 1

    def test_contract(self, tmp_path):
        header, rows = csv_rows(
            run(
                tmp_path, "contract", "--p", "3", "--k", "1", "--N", "10",
                "--n", "2", "--samples", "6", "--seed", "3",
            )
        )
        by_n = {r["n"]: r for r in rows}
        assert float(by_n["2"]["target"]) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--p", "2", "--n", "4", "--N", "5,7", "--samples", "4", "--seed", "2"),
            ("--p", "3", "--n", "2", "--N", "6", "--samples", "5", "--seed", "3"),
            ("--p", "2", "--n", "2", "--N", "6", "--samples", "4", "--dist", "rademacher"),
            ("--p", "3", "--n", "2", "--N", "5", "--samples", "3", "--dist", "rademacher",
             "--format", "json"),
        ],
        ids=["p2", "p3", "p2-rademacher", "p3-rademacher-json"],
    )
    def test_contract_at_depth_0_is_mc(self, capsys, flags):
        assert main(["mc", *flags]) == 0
        mc = capsys.readouterr().out
        assert main(["contract", "--k", "0", *flags]) == 0
        assert capsys.readouterr().out == mc and mc.startswith(("N,n,", "["))

    def test_heavytail(self, tmp_path):
        header, rows = csv_rows(
            run(
                tmp_path, "heavytail", "--p", "3", "--n", "2", "--N", "8,16",
                "--samples", "8", "--seed", "4", "--tail", "3.5",
            )
        )
        assert header == ["N", "n", "median", "iqr", "target"]
        assert len(rows) == 2

    def test_resolvent_check(self, tmp_path):
        header, rows = csv_rows(
            run(
                tmp_path, "resolvent-check", "--N", "20", "--z", "3.0",
                "--K", "8", "--seed", "5",
            )
        )
        assert float(rows[0]["gap"]) <= float(rows[0]["tail_bound"])

    def test_resolvent_check_reads_every_N(self, tmp_path):
        # one row per N, each from its own substream: the row of its single-N run
        argv = ("resolvent-check", "--z", "3.0", "--K", "8", "--seed", "5")
        header, rows = csv_rows(run(tmp_path, *argv, "--N", "10,20"))
        assert [row["N"] for row in rows] == ["10", "20"]
        for N, row in zip(("10", "20"), rows):
            assert csv_rows(run(tmp_path, *argv, "--N", N)) == (header, [row])


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--samples", "4"],
            ["moments", "--seed", "1"],
            ["moments", "--threads", "2"],
            ["moments", "--exact"],
            ["resolvent-check", "--p", "2"],
            ["resolvent-check", "--n", "2"],
            ["resolvent-check", "--samples", "4"],
            ["resolvent-check", "--threads", "2"],
            ["resolvent-check", "--dist", "rademacher"],
            ["heavytail", "--dist", "rademacher"],
            ["law", "--n", "2"],
            ["enumerate", "--format", "json"],
            ["law", "--eta", "0.1"],
            ["mc", "--threads", "2"],
            ["var", "--threads", "2"],
            ["contract", "--threads", "2"],
            ["heavytail", "--threads", "2"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_flag_table_matches_parser(self):
        # each row of the README "subcommand | flags" table lists exactly the
        # option strings its subcommands accept (first code span of the cell)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = {}
        in_table = False
        for line in readme.splitlines():
            if line.startswith("| subcommand | flags |"):
                in_table = True
            elif in_table and line.startswith("| `"):
                names, flags = line.strip("|").split("|")
                for name in re.findall(r"`([^`]+)`", names):
                    table[name] = set(re.search(r"`([^`]+)`", flags).group(1).split())
            elif in_table and not line.startswith("|"):
                break
        sub = next(
            a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        parser = {
            name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()
        }
        assert table == parser

    def test_contract_honours_dist(self, tmp_path):
        args = ["contract", "--p", "3", "--k", "1", "--N", "10", "--n", "2",
                "--samples", "6", "--seed", "3"]
        gote = run(tmp_path, *args)
        flat = run(tmp_path, *args, "--dist", "gaussian-offdiag-only")
        assert flat != gote
        assert run(tmp_path, *args, "--dist", "gaussian-gote") == gote


class TestErrors:
    def fail(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return code, err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 3, "sede": 5}))
        code, err = self.fail(capsys, "--config", str(cfg), "count")
        assert code == 3 and "ContractViolation: unknown config keys: sede" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config"),
            ("{not json", "cannot read config"),
            ('{"N_grid": 5}', "N_grid must be a list of integers, got 5"),
            ('{"samples": "x"}', "samples must be an integer, got 'x'"),
            ('{"seed": -1}', "seed must be nonnegative, got -1"),
        ],
    )
    def test_malformed_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code, err = self.fail(capsys, "--config", str(cfg), "mc", "--samples", "2")
        assert code == 3 and f"ContractViolation: {message}" in err

    def test_malformed_tail_index(self, capsys):
        code, err = self.fail(
            capsys, "mc", "--N", "8", "--samples", "2", "--dist", "symmetrized-pareto:abc"
        )
        assert code == 3 and "tail index 'abc' is not a number" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("mc", "--seed", "-1"), "seed must be nonnegative, got -1"),
            (("var", "--seed", "-1"), "seed must be nonnegative, got -1"),
            (("mc", "--dist", "symmetrized-pareto:nan"), "needs a finite tail_index > 2"),
            (("mc", "--dist", "symmetrized-pareto:inf"), "needs a finite tail_index > 2"),
            (("heavytail", "--tail", "nan"), "needs a finite tail_index > 2"),
            (("heavytail", "--tail", "inf"), "needs a finite tail_index > 2"),
            (("resolvent-check", "--z", "nan"), "z must be finite and nonzero"),
            (("resolvent-check", "--z", "inf"), "z must be finite and nonzero"),
        ],
    )
    def test_negative_seed_and_non_finite_numbers(self, capsys, argv, message):
        code, err = self.fail(capsys, *argv)
        assert code == 3 and "ContractViolation" in err and message in err

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_unwritable_out_is_refused_before_the_work(self, tmp_path, monkeypatch, capsys, where):
        def no_work(*args):
            raise AssertionError("worked before the output check")

        monkeypatch.setitem(cli._COMMANDS, "law", no_work)
        out = tmp_path / where
        code, err = self.fail(capsys, "law", "--p", "3", "--out", str(out))
        assert code == 3 and f"ContractViolation: cannot write --out {out}" in err

    def test_out_check_leaves_no_file_behind(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, err = self.fail(capsys, "mc", "--p", "3", "--n", "8", "--out", str(out))
        assert code == 5 and not out.exists()
        out.write_text("kept")
        code, err = self.fail(capsys, "mc", "--p", "3", "--n", "8", "--out", str(out))
        assert code == 5 and out.read_text() == "kept"

    def test_law_at_large_p_is_a_numerical_error(self, capsys):
        # the homotopy overflows complex powers at p = 80; each overflow is
        # a refused step, so the point ends as a stalled homotopy
        code, err = self.fail(capsys, "law", "--p", "80", "--grid", "11")
        assert code == 6 and "NumericalError" in err

    def test_config_key_k_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1}))
        code, err = self.fail(capsys, "--config", str(cfg), "contract")
        assert code == 3 and "unknown config keys: k" in err

    def test_contract_refuses_non_gaussian_entries(self, capsys):
        code, err = self.fail(
            capsys, "contract", "--p", "3", "--N", "8", "--samples", "4",
            "--dist", "rademacher",
        )
        assert code == 3 and "Gaussian" in err

    @pytest.mark.parametrize(
        "p,k,dist,message",
        [
            ("3", "2", "gaussian-gote", r"depth k=2 outside \[0, 1\]"),
            ("2", "1", "gaussian-gote", r"depth k=1 outside \[0, 0\]"),
        ],
        ids=["p3-k2", "p2-k1"],
    )
    def test_contract_refusals_at_depth(self, capsys, p, k, dist, message):
        code, err = self.fail(
            capsys, "contract", "--p", p, "--k", k, "--N", "8", "--samples", "4",
            "--dist", dist,
        )
        assert code == 3 and re.search(message, err)

    def test_config_checks_apply_to_every_subcommand(self, capsys):
        code, err = self.fail(capsys, "heavytail", "--samples", "1")
        assert code == 3 and "2 samples" in err

    def test_resolvent_inside_spectrum(self, capsys):
        code, err = self.fail(capsys, "resolvent-check", "--N", "20", "--z", "0.5")
        assert code == 4 and "DomainError" in err

    def test_enumeration_guard(self, capsys):
        code, err = self.fail(capsys, "mc", "--p", "3", "--n", "8")
        assert code == 5 and "ResourceLimitError" in err

    @pytest.mark.parametrize(
        "cmd, p, n, count", [("enumerate", 3, 8, 27_120), ("classify", 4, 5, 100_278)]
    )
    def test_map_budget_refuses_before_building_maps(self, monkeypatch, capsys, cmd, p, n, count):
        def no_construction(p, n):
            raise AssertionError("maps built before the map budget")

        monkeypatch.setattr(maps, "_canonical_sigma", no_construction)
        code, err = self.fail(capsys, cmd, "--p", str(p), "--n", str(n))
        assert code == 5 and f"{count} maps at p={p}, n={n} exceed the map budget" in err

    def test_odd_order_without_maps_is_refused_before_sampling(self, monkeypatch, capsys):
        # no map has one vertex of odd valence, so only the index table's
        # order limit refuses sampling order-23 tensors
        def no_table(p, N):
            raise AssertionError("index table built before the guard")

        monkeypatch.setattr(tensor, "_IndexTable", no_table)
        code, err = self.fail(capsys, "mc", "--p", "23", "--n", "1", "--N", "2")
        assert code == 5 and "order 23 exceeds the index table's limit" in err

    def test_p2_edge_guard_refuses_before_sampling(self, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the edge guard")

        monkeypatch.setattr(experiments, "sample_invariants", no_sampling)
        code, err = self.fail(capsys, "mc", "--p", "2", "--n", "53", "--N", "4")
        assert code == 5 and "53 edges exceeds the contraction guard" in err

    @pytest.mark.parametrize(
        "argv, p, N",
        [
            (("mc", "--p", "4", "--n", "1", "--N", "200"), 4, 200),
            (("mc", "--p", "6", "--n", "2", "--N", "32"), 6, 32),
            (("mc", "--p", "8", "--n", "1"), 8, 16),
            (("contract", "--p", "8", "--k", "6", "--n", "2", "--N", "32"), 8, 32),
        ],
    )
    def test_storage_refused_under_a_memory_ceiling(self, argv, p, N):
        # the index table's 2p + 4 int64 columns and the 16 N^p dense bytes
        need = 8 * (2 * p + 4) * math.comb(N + p - 1, p) + 16 * N**p
        done = run_capped(*argv)
        assert done.returncode == 5, done.stderr
        assert f"order-{p} tensor at N={N} needs {need:.3g} bytes" in done.stderr

    def test_var_refuses_a_degree_without_maps(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self.fail(
                capsys, "var", "--p", "3", "--n", "7", "--N", "4,8", "--samples", "4"
            )
        assert code == 3 and "no map has p=3 and n=7" in err
        assert caught == []

    @pytest.mark.parametrize("n", ["9", "0"])
    def test_moments_refuses_a_degree_without_maps(self, monkeypatch, capsys, n):
        def no_route(*args):
            raise AssertionError("oracle priced before the degree check")

        monkeypatch.setattr(exact, "_price", no_route)
        code, err = self.fail(capsys, "moments", "--p", "3", "--n", n, "--N", "8")
        assert code == 3 and f"no map has p=3 and n={n}" in err

    def test_moments_over_the_oracle_guard_exits_before_any_map(self, monkeypatch, capsys):
        def no_enumeration(*args):
            raise AssertionError("maps enumerated before the oracle guard")

        monkeypatch.setattr(exact, "_coded_taus", no_enumeration)
        monkeypatch.setattr(maps, "_canonical_sigma", no_enumeration)
        code, err = self.fail(capsys, "moments", "--p", "5", "--n", "4", "--dist", "rademacher")
        assert code == 5
        assert "4497708 oracle terms per class of 4 vertices exceed the oracle guard" in err

    @pytest.mark.parametrize("n", ["3", "0"])
    def test_heavytail_refuses_a_degree_without_maps(self, monkeypatch, capsys, n):
        def no_pricing(*args):
            raise AssertionError("run priced before the degree check")

        monkeypatch.setattr(experiments, "_check_enumeration_feasible", no_pricing)
        code, err = self.fail(
            capsys, "heavytail", "--p", "3", "--n", n, "--N", "8", "--samples", "4"
        )
        assert code == 3 and f"no map has p=3 and n={n}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("mc", "--n", "0"), "the moments of I_n/N need n >= 1, got n=0"),
            (("mc", "--n", "-2"), "the moments of I_n/N need n >= 1, got n=-2"),
            (("contract", "--k", "1", "--n", "0"), "the moments of I_n/N need n >= 1, got n=0"),
            (("count", "--n", "-1"), "the count table needs n >= 0, got n=-1"),
        ],
    )
    def test_degree_without_rows_is_refused(self, monkeypatch, capsys, argv, message):
        # a table without a degree would be its header alone
        def no_row(*args, **kwargs):
            raise AssertionError("a row computed for a degree without rows")

        monkeypatch.setattr(experiments, "sample_invariants", no_row)
        monkeypatch.setattr(counting, "_excursions", no_row)
        code, err = self.fail(capsys, *argv)
        assert code == 3 and f"ContractViolation: {message}" in err

    def test_count_table_is_priced_before_any_row(self, monkeypatch, capsys):
        def no_row(*args):
            raise AssertionError("a row counted before the guard")

        monkeypatch.setattr(counting, "_excursions", no_row)
        code, err = self.fail(capsys, "count", "--p", "3", "--n", "300")
        assert code == 5 and "to n=300 at p=3 takes about 5.61e+07 big-integer additions" in err

    def test_contraction_cost_guard(self, monkeypatch, capsys):
        # every class is priced before the first sample; K4 is refused first
        def no_contraction(dense):
            raise AssertionError("contracted before the guard")

        monkeypatch.setattr(tensor, "_MAX_FLOP", 5 * 10**5)
        monkeypatch.setattr(tensor, "_k4_trace", no_contraction)
        code, err = self.fail(
            capsys, "mc", "--p", "3", "--n", "4", "--N", "16", "--samples", "2"
        )
        assert code == 5 and "predicted to take 7.52e+05 FLOP" in err

    @pytest.mark.parametrize(
        "error, code",
        [(ContractViolation, 3), (InvalidPartitionError, 3), (DomainError, 4),
         (ResourceLimitError, 5), (NumericalError, 6)],
    )
    def test_exit_code_per_error_type(self, monkeypatch, capsys, error, code):
        def boom(args, cfg):
            raise error("first line\nsecond line")

        monkeypatch.setitem(cli._COMMANDS, "count", boom)
        got, err = self.fail(capsys, "count")
        assert got == code
        assert err == f"melonic count: {error.__name__}: first line second line\n"

    def test_reader_closing_stdout_early_ends_the_run_quietly(self):
        # as with ``law --p 4 | head -2``, but the read end closes before the
        # first write, so every write meets the broken pipe
        child = subprocess.Popen(
            [sys.executable, "-m", "melonic.cli", "law", "--p", "4"],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert child.returncode == 1
        assert err == b""


def run_child(code):
    """stdout of ``python -c code`` in a fresh interpreter that imports this
    checkout's package."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# melonic.__all__: the names of the pipeline, from maps to the limit law; a
# definition only the tests use lives in the tests
EXPORTED = {
    "CombinatorialMap", "ContractViolation", "DomainError", "EdgePartition",
    "EntryDistribution", "ExperimentConfig", "GAUSSIAN_GOTE", "HeavyTailEstimate",
    "Hypergraph", "Hypermap", "InvalidPartitionError", "LimitLaw", "MomentEstimate",
    "NumericalError", "Permutation", "RADEMACHER", "ResourceLimitError", "SymTensor",
    "balanced_invariant", "balanced_invariant_variance", "canonical_code", "contract",
    "count_melonic_maps", "count_rooted_maps", "cycles", "density", "dual", "edge_list",
    "enumerate_rooted_connected", "euler_deficiency", "expected_balanced_invariant",
    "fuss_catalan", "heavy_tail_moments", "hypergraph_of", "inversion_density",
    "is_double_hypertree", "is_hypertree", "is_melonic_graph", "mc_moments",
    "melonic_limit_table", "melonic_partition", "merge_edges", "moment",
    "resolvent_crosscheck", "resolvent_series", "sample_gote", "sample_wigner", "stieltjes",
    "support_radius", "trace_invariant", "variance_scaling",
}
NUMPY_LOADED = "print('numpy' in sys.modules)"


class TestImport:
    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency: scipy serves the tests alone;
        # samples run in one thread, so no executor module is loaded either
        probe = (
            "import sys, melonic, melonic.cli, melonic.experiments, melonic.limitlaw;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
        )
        assert run_child(probe) == "[]\n"

    def test_import_loads_no_numpy(self):
        assert run_child(f"import sys, melonic, melonic.cli; {NUMPY_LOADED}") == "False\n"
        assert run_child(f"import sys, melonic.limitlaw; {NUMPY_LOADED}") == "False\n"

    @pytest.mark.parametrize(
        "argv, loads",
        [
            (["count", "--p", "3", "--n", "5"], False),
            (["classify", "--p", "3", "--n", "4"], False),
            (["enumerate", "--p", "3", "--n", "4"], False),
            (["moments", "--p", "3", "--n", "4", "--N", "8,16", "--dist", "gaussian-gote"], False),
            (["mc", "--p", "3", "--n", "2", "--N", "4", "--samples", "2"], True),
            (["law", "--p", "3"], False),
            (["law", "--p", "4"], False),
            (["law", "--p", "5", "--k", "1", "--format", "json"], False),
        ],
    )
    def test_only_array_subcommands_load_numpy(self, argv, loads):
        code = (
            "import contextlib, io, sys\n"
            "from melonic import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            f"{NUMPY_LOADED}\n"
        )
        assert run_child(code) == f"{loads}\n"

    def test_every_exported_name_resolves(self):
        assert set(melonic.__all__) == EXPORTED
        star: dict = {}
        exec("from melonic import *", star)
        for name in EXPORTED:
            assert star[name] is getattr(melonic, name)
        assert melonic.SymTensor is tensor.SymTensor
        assert melonic.melonic_limit_table is exact.melonic_limit_table
        assert set(dir(melonic)) >= EXPORTED | {"tensor", "experiments", "limitlaw"}
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            melonic.nothing

    def test_every_library_name_is_used_or_exported(self):
        # a module-level function, class or constant of the package is either
        # exported or named somewhere in the package outside its own definition,
        # and a module outside __init__.py reads every name it imports, unless
        # the import's line marks a re-export with "# noqa: F401"
        package = Path(melonic.__file__).resolve().parent
        defined, named, unread = [], [], []
        for path in sorted(package.glob("*.py")):
            source = path.read_text()
            tree = ast.parse(source)
            if path.name != "__init__.py":
                lines = source.splitlines()
                reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                for node in ast.walk(tree):
                    if not isinstance(node, (ast.Import, ast.ImportFrom)):
                        continue
                    if getattr(node, "module", None) == "__future__":
                        continue
                    if "# noqa: F401" in lines[node.lineno - 1]:
                        continue
                    bound = [a.asname or a.name.split(".")[0] for a in node.names]
                    unread += [f"{path.name}:{name}" for name in bound if name not in reads]
            for stmt in tree.body:
                nodes = list(ast.walk(stmt))
                named.append({n.id for n in nodes if isinstance(n, ast.Name)}
                             | {n.attr for n in nodes if isinstance(n, ast.Attribute)})
                if path.name == "__init__.py":
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    targets = [stmt.name]
                elif isinstance(stmt, ast.Assign):
                    targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    targets = [stmt.target.id]
                else:
                    targets = []
                defined += [(path.name, name, len(named) - 1) for name in targets]
        dead = [
            f"{module}:{name}"
            for module, name, own in defined
            if name not in melonic.__all__
            and not any(name in refs for i, refs in enumerate(named) if i != own)
        ]
        assert dead == []
        assert unread == []
