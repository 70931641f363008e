import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import melonic
from melonic import cli, experiments, maps, tensor
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


class TestMomentsExact:
    def test_exact_rows(self, tmp_path):
        header, rows = csv_rows(
            run(tmp_path, "moments", "--p", "3", "--n", "2", "--N", "8,16")
        )
        assert header == ["code", "N", "exact_expectation", "melonic_limit_alpha", "deviation"]
        assert len(rows) == 2 * len(enumerate_rooted_connected(3, 2))

    @pytest.mark.parametrize("p", ["3", "4"])
    def test_pairing_route_output_is_byte_identical(self, tmp_path, monkeypatch, p):
        # gaussian-gote takes the pairing route; forcing the partition route
        # must print the same bytes
        import math
        from functools import partial

        args = ("moments", "--p", p, "--n", "4", "--N", "3,8,16", "--dist", "gaussian-gote")
        pairing = run(tmp_path, *args)
        monkeypatch.setattr(
            experiments,
            "_exact_route",
            lambda p, n, dist: (partial(tensor._trace_polynomial, dist=dist), math.perm),
        )
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

    def test_contraction_cost_guard(self, monkeypatch, capsys):
        # the smaller classes contract first; K4 is refused before its kernel
        def no_contraction(dense):
            raise AssertionError("contracted before the guard")

        monkeypatch.setattr(tensor, "_MAX_FLOP", 10**6)
        monkeypatch.setattr(tensor, "_k4_trace", no_contraction)
        code, err = self.fail(
            capsys, "mc", "--p", "3", "--n", "4", "--N", "16", "--samples", "2"
        )
        assert code == 5 and "predicted to take 1.18e+06 FLOP" in err

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


class TestImport:
    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency: scipy serves the tests alone;
        # samples run in one thread, so no executor module is loaded either
        src = str(Path(melonic.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys, melonic, melonic.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'concurrent')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
