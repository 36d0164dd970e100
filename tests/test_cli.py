"""End-to-end CLI tests: exit codes, file outputs, schemas, determinism."""

import glob
import inspect
import itertools
import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

import scalar_reference as ref
from helpers import one_row
from modgrad.basin import exposed_cells, extract_component, verify_basin
from modgrad.cli import (
    _OPTIONS,
    _boundary_segments,
    _check_option,
    _write_csv,
    load_config,
    main,
)
from modgrad.equilibria import find_critical_points
from modgrad.errors import EvalDomainError
from modgrad.expr import parse
from modgrad.ode import SimOptions
from modgrad.stability import certify_all, ec_check

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMAS = os.path.join(REPO, "schemas")
CONFIGS = os.path.join(REPO, "configs")


def schema(name):
    with open(os.path.join(SCHEMAS, name)) as fh:
        return json.load(fh)


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


EX31_CONFIG = {"f": {"gallery": "ex31"}, "options": {"grid_per_axis": 20}}
EX21_CONFIG = {"f": {"gallery": "ex21"}, "options": {"grid_per_axis": 12}}


class TestAnalyze:
    def test_example_31(self, tmp_path):
        cfg = write_config(tmp_path, EX31_CONFIG)
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg, "--out", out, "--quiet"]) == 0
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        jsonschema.validate(report, schema("report.schema.json"))
        assert len(report) == 3
        conclusions = sorted(r["conclusion"] for r in report)
        assert conclusions == [
            "NoCertificate",
            "UniformlyAsymptoticallyStable",
            "UniformlyAsymptoticallyStable",
        ]
        saddle = next(r for r in report if r["conclusion"] == "NoCertificate")
        assert saddle["equilibrium"]["classification"] == "Saddle"

    def test_example_21_stable_not_asymptotic(self, tmp_path):
        cfg = write_config(tmp_path, EX21_CONFIG)
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg, "--out", out, "--quiet"]) == 0
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        jsonschema.validate(report, schema("report.schema.json"))
        (entry,) = report
        assert entry["conclusion"] == "UniformlyStable"
        assert entry["h3"]["kind"] == "ConvergentLikely"

    def test_non_psd_matrix_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "dimension": 2,
                "f": "x1 + x2",
                "P": [["-1", "0"], ["0", "1"]],
                "box": [[0, 1], [0, 1]],
            },
        )
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "H0" in capsys.readouterr().err

    def test_h0_samples_up_to_the_ec_horizon(self, tmp_path, capsys):
        # lambda_1 turns negative at t = 2e4: past 1e4, inside the horizon
        body = {"f": {"gallery": "ex31"}, "P": [["1", "0"], ["0", "1 - t/20000"]],
                "options": {"grid_per_axis": 8, "ec_horizon": 1e5}}
        cfg = write_config(tmp_path, body)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "H0 FAILED: min lambda_1 = -4 < -1e-10 at t = 100000" in err
        body["options"]["ec_horizon"] = 1e4  # sampled to 1e4 as before: passes
        cfg = write_config(tmp_path, body)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "H0: pass (min lambda_1 = 0.5 over 64 samples)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "ec"])
    def test_non_symmetric_matrix_exits_2(self, tmp_path, capsys, command):
        # the lower triangle is read, not mirrored from the upper one
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"}, "P": [["1", "5"], ["0", "1"]]})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "entry (2,1) is '0.0' but its mirror (1,2) is '5.0'" in err
        assert "Traceback" not in err
        # mirrors that differ only in spacing are the same entry
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"},
                                      "P": [["2", "1/4"], [" (1 / 4) ", "1"]]})
        assert main(["ec", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_seed_at_undefined_gradient_is_dropped(self, tmp_path, capsys):
        # the cone's apex, a grid seed, has no gradient
        cfg = write_config(
            tmp_path,
            {
                "dimension": 2,
                "f": "-sqrt(x1^2+x2^2)",
                "box": [[-1, 1], [-1, 1]],
                "options": {"grid_per_axis": 5},
            },
        )
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 2, 3)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        dropped = re.search(r"dropped_domain=(\d+)", captured.out)
        assert dropped is not None and int(dropped.group(1)) >= 1

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**EX31_CONFIG, "fieldd": "typo"})
        assert main(["analyze", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_option_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"}, "options": {"gird": 3}})
        assert main(["analyze", "--config", cfg]) == 2
        assert "unknown option keys" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ({"f": {"gallery": "ex31"}, "options": {"grid_per_axis": "5"}},
         "option 'grid_per_axis' must be an integer"),
        ({"f": {"gallery": "ex31"}, "options": {"grid_per_axis": True}},
         "option 'grid_per_axis' must be an integer"),
        ({"f": {"gallery": "ex31"}, "options": {"quad_tol": False}},
         "option 'quad_tol' must be a finite number"),
        ({"f": {"gallery": "ex31"}, "options": {"isolation_shells": [0.1, "a"]}},
         "option 'isolation_shells' must be a list of finite numbers"),
        ({"dimension": "2", "f": "x1 + x2", "box": [[0, 1], [0, 1]]},
         "'dimension' must be an integer"),
        ({"dimension": 2.0, "f": "x1 + x2", "box": [[0, 1], [0, 1]]},
         "'dimension' must be an integer"),
        ({"dimension": 2, "f": "x1 + x2", "box": [["0", 1], [0, 1]]},
         "'box' bounds must be finite numbers"),
        ({"dimension": 2, "f": "x1 + x2", "box": [[0, 1], [0, 1]], "P": [1, 2]},
         "'P' must be"),
        ({"f": {"gallery": "ex22", "depth": "3"}}, "'depth' must be an integer"),
        ({"f": {"gallery": "ex31"}, "P": []}, "matrix of expressions must not be empty"),
        ({"dimension": 1, "f": "x1 + t", "box": [[0, 1]]}, "'t' is not allowed"),
    ])
    def test_mistyped_config_exits_2(self, tmp_path, capsys, body, message):
        cfg = write_config(tmp_path, body)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_tokens_exit_2(self, tmp_path, capsys, token):
        path = tmp_path / "config.json"
        path.write_text('{"dimension": 2, "f": "x1 + x2", "box": [[%s, 1], [0, 1]]}' % token)
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"non-finite number {token}" in err and err.count("\n") == 1

    def test_overflowing_number_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"f": {"gallery": "ex31"}, "options": {"quad_tol": 1e999}}')
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "option 'quad_tol' must be a finite number" in capsys.readouterr().err

    def test_null_and_integer_values_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"f": {"gallery": "ex21"},
                                      "options": {"h_max": None, "ec_horizon": 100}})
        assert main(["ec", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2

    def test_deterministic_report_bytes(self, tmp_path):
        cfg = write_config(tmp_path, EX31_CONFIG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["analyze", "--config", cfg, "--out", out1, "--quiet"])
        main(["analyze", "--config", cfg, "--out", out2, "--quiet"])
        b1 = Path(out1, "report.json").read_bytes()
        b2 = Path(out2, "report.json").read_bytes()
        assert b1 == b2


class TestSimulate:
    def test_example_21_final_state(self, tmp_path):
        cfg = write_config(tmp_path, EX21_CONFIG)
        out = str(tmp_path / "out")
        assert main([
            "simulate", "--config", cfg, "--out", out, "--quiet",
            "--x0", "2,2", "--t-end", "1000",
        ]) == 0
        rows = np.loadtxt(os.path.join(out, "trajectory.csv"),
                          delimiter=",", skiprows=1)
        assert rows[-1, 0] == pytest.approx(1000.0)
        # closed form at t = 1000: 1 + e^-2 exp(2/1001), i.e. ~1.1356,
        # settling toward the limit 1 + e^-2 = 1.13534
        closed = 1.0 + np.exp(-2.0) * np.exp(2.0 / 1001.0)
        assert rows[-1, 1] == pytest.approx(closed, abs=1e-6)
        assert rows[-1, 1] == pytest.approx(1.13534, abs=1e-3)
        lyap = np.loadtxt(os.path.join(out, "lyapunov.csv"),
                          delimiter=",", skiprows=1)
        assert lyap.shape[1] == 5
        # V' <= -lambda1 |grad f|^2 row by row
        assert np.all(lyap[:, 2] <= -lyap[:, 3] * lyap[:, 4] + 1e-10)

    def test_start_at_equilibrium_converges_at_t0(self, tmp_path):
        cfg = write_config(tmp_path, EX31_CONFIG)
        out = str(tmp_path / "out")
        assert main([
            "simulate", "--config", cfg, "--out", out, "--quiet",
            "--x0", "2,4", "--t-end", "10", "--target", "2,4",
        ]) == 0
        rows = np.loadtxt(os.path.join(out, "trajectory.csv"),
                          delimiter=",", skiprows=1)
        assert rows.ndim == 1  # a single sample: converged at t0

    def test_example_22_annulus(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"f": {"gallery": "ex22", "depth": 20}, "options": {"h_max": 0.25}},
        )
        out = str(tmp_path / "out")
        assert main([
            "simulate", "--config", cfg, "--out", out, "--quiet",
            "--x0", "0.75,0", "--t-end", "200",
        ]) == 0
        rows = np.loadtxt(os.path.join(out, "trajectory.csv"),
                          delimiter=",", skiprows=1)
        r = np.hypot(rows[:, 1], rows[:, 2])
        assert abs(r[-1] - 0.5) < 1e-2

    def test_negative_vector_value(self, tmp_path):
        # argparse takes a token starting with '-' for a flag unless it is a
        # plain negative number; "-0.5,1" is a value here
        cfg = write_config(tmp_path, EX31_CONFIG)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out, "--quiet",
                     "--x0", "-0.5,1", "--t-end", "1"]) == 0
        rows = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1)
        assert rows[0, 1:3].tolist() == [-0.5, 1.0]

    def test_bad_vector_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, EX21_CONFIG)
        assert main(["simulate", "--config", cfg, "--x0", "2",
                     "--t-end", "10", "--quiet"]) == 2


class TestBasinCommand:
    def test_certified_component(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"f": {"gallery": "ex31"},
             "options": {"grid_per_axis": 20, "basin_samples": 25}},
        )
        out = str(tmp_path / "out")
        assert main([
            "basin", "--config", cfg, "--out", out, "--quiet",
            "--anchor", "2,1", "--c", "33", "--resolution", "256",
        ]) == 0
        with open(os.path.join(out, "hypotheses.json")) as fh:
            hyp = json.load(fh)
        jsonschema.validate(hyp, schema("hypotheses.schema.json"))
        assert all(hyp["hypotheses"][h]["pass"] for h in ("h4", "h5", "h6"))
        with open(os.path.join(out, "verification.json")) as fh:
            ver = json.load(fh)
        jsonschema.validate(ver, schema("verification.schema.json"))
        assert ver["converged_count"] == ver["sample_count"] == 25
        # file formats
        with open(os.path.join(out, "mask.pgm"), "rb") as fh:
            header = fh.read(15)
        assert header.startswith(b"P5\n256 256\n255\n")
        svg = Path(out, "basin.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg
        cells = np.loadtxt(os.path.join(out, "cells.csv"), delimiter=",", skiprows=1)
        assert cells.shape[1] == 2
        boundary = np.loadtxt(os.path.join(out, "boundary.csv"),
                              delimiter=",", skiprows=1)
        assert boundary.shape[1] == 4

    def test_dimension_above_grid_reach_exits_2(self, tmp_path, capsys):
        # no grid past n = 4, and no other basin region either
        f = "0 - x1^2 - x2^2 - x3^2 - x4^2 - x5^2"
        cfg = write_config(tmp_path, {"dimension": 5, "f": f, "box": [[-1, 1]] * 5})
        assert main(["basin", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                     "--anchor", "0,0,0,0,0", "--c", "-0.5"]) == 2
        assert capsys.readouterr().err == "input error: grid extraction supports dimension <= 4\n"

    def test_h6_failure_with_witnesses(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"f": {"gallery": "ex31"},
             "options": {"grid_per_axis": 20, "basin_samples": 5}},
        )
        out = str(tmp_path / "out")
        assert main([
            "basin", "--config", cfg, "--out", out, "--quiet",
            "--anchor", "2,4", "--c", "20", "--resolution", "256",
        ]) == 0
        with open(os.path.join(out, "hypotheses.json")) as fh:
            hyp = json.load(fh)
        assert not hyp["hypotheses"]["h6"]["pass"]
        witnesses = {
            tuple(round(v) for v in w) for w in hyp["hypotheses"]["h6"]["witnesses"]
        }
        assert witnesses == {(2, 1), (2, 2)}

    def test_negative_exponent_form_c(self, tmp_path):
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"},
                                      "options": {"grid_per_axis": 20, "basin_samples": 5}})
        out = str(tmp_path / "out")
        assert main(["basin", "--config", cfg, "--out", out, "--quiet",
                     "--anchor", "2,1", "--c", "-1e-3", "--resolution", "64"]) == 0
        with open(os.path.join(out, "hypotheses.json")) as fh:
            assert json.load(fh)["c"] == -1e-3

    def test_c_above_m_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EX31_CONFIG)
        assert main([
            "basin", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
            "--anchor", "2,1", "--c", "40",
        ]) == 2
        assert "below f(anchor)" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_non_finite_c_exits_2(self, tmp_path, capsys, c):
        cfg = write_config(tmp_path, EX31_CONFIG)
        out = tmp_path / "o"
        assert main([
            "basin", "--config", cfg, "--out", str(out), "--quiet",
            "--anchor", "2,1", f"--c={c}", "--resolution", "64",
        ]) == 2
        assert "finite" in capsys.readouterr().err
        assert not os.listdir(out)

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"f": {"gallery": "ex31"},
             "options": {"grid_per_axis": 10, "basin_samples": 10}},
        )
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            main([
                "basin", "--config", cfg, "--out", out, "--quiet",
                "--anchor", "2,1", "--c", "33", "--resolution", "64",
                "--seed", "5",
            ])
            outs.append(out)
        for fname in ("hypotheses.json", "verification.json", "mask.pgm",
                      "cells.csv", "boundary.csv", "basin.svg"):
            b1 = Path(outs[0], fname).read_bytes()
            b2 = Path(outs[1], fname).read_bytes()
            assert b1 == b2, fname


    def test_constant_field(self, tmp_path, capsys):
        # f = 5 evaluates to one number on the grid; the component is the
        # anchor cell alone, which is exempt from c < f < M
        cfg = write_config(tmp_path, {"dimension": 2, "f": "5", "box": [[0, 2], [0, 2]],
                                      "options": {"basin_samples": 4}})
        out = tmp_path / "out"
        assert main(["basin", "--config", cfg, "--out", str(out), "--quiet",
                     "--anchor", "1,1", "--c", "-10", "--resolution", "32"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "cells.csv").read_text() == "x1,x2\n1.03125,1.03125\n"

    def test_one_variable_field_matches_dense_grid(self, tmp_path):
        body = {"dimension": 2, "f": "x2", "box": [[0, 1], [0, 2]],
                "options": {"basin_samples": 4}}
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["basin", "--config", cfg, "--out", str(out), "--quiet",
                     "--anchor", "0.5,1.5", "--c", "0.25", "--resolution", "48"]) == 0
        field = load_config(cfg).system.field
        want = ref.extract_component(field, (0.5, 1.5), 0.25, 48)
        ref.write_csv(str(tmp_path / "cells.csv"), ["x1", "x2"], ref.masked_centers(want))
        ref.write_csv(str(tmp_path / "boundary.csv"), ["x1_a", "x2_a", "x1_b", "x2_b"],
                      ref.boundary_segments_from_stack(want))
        for name in ("cells.csv", "boundary.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


class TestWriters:
    """The array writers against the per-cell and per-value loops they
    replace (``scalar_reference``)."""

    @pytest.mark.parametrize("anchor, c", [((2.0, 1.0), 33.0), ((2.0, 4.0), 20.0)])
    def test_segments_match_double_loop_on_ex31(self, ex31, anchor, c):
        comp = extract_component(ex31.system.field, anchor, c, 256)
        segments = _boundary_segments(comp)
        assert segments.tolist() == [list(s) for s in ref.boundary_segments(comp)]

    def test_segments_match_double_loop_on_random_masks(self, ex21):
        comp = extract_component(ex21.system.field, (1.0, 1.0), 3.0, 40)
        rng = np.random.default_rng(40)
        for density in (0.2, 0.5, 0.9, 1.0):
            mask = rng.random((40, 33)) < density
            fake = type(comp)(**{**comp.__dict__, "mask": mask, "resolution": mask.shape,
                                 "boundary_cells": exposed_cells(mask)})
            want = [list(s) for s in ref.boundary_segments(fake)]
            assert _boundary_segments(fake).tolist() == want

    def test_csv_bytes_match_per_value_writer(self, tmp_path):
        special = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300,
                   5e-324, 1.7976931348623157e308, 0.1, -1 / 3]
        rng = np.random.default_rng(17)
        rows = np.concatenate([
            np.array(special).reshape(-1, 2),
            rng.standard_normal((9000, 2)) * 10.0 ** rng.integers(-300, 300, (9000, 2)),
        ])
        for name, data in [("rows", rows), ("tuples", [tuple(r) for r in rows[:50]]),
                           ("empty", [])]:
            got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
            _write_csv(str(got), ["a", "b"], data)
            ref.write_csv(str(want), ["a", "b"], data)
            assert got.read_bytes() == want.read_bytes(), name


class TestEcCommand:
    @pytest.mark.parametrize(
        "matrix,want",
        [
            ("identity", "DivergentLikely"),
            ([["(t+1)^(-1)"]], "DivergentLikely"),
            ([["(t+1)^(-2)"]], "ConvergentLikely"),
        ],
    )
    def test_verdicts(self, tmp_path, matrix, want):
        dim = 2 if matrix == "identity" else 1
        cfg = write_config(
            tmp_path,
            {
                "dimension": dim,
                "f": "0 - x1^2" if dim == 1 else "0 - x1^2 - x2^2",
                "P": matrix,
                "box": [[-1, 1]] * dim,
            },
        )
        out = str(tmp_path / "out")
        assert main(["ec", "--config", cfg, "--out", out, "--quiet",
                     "--horizon", "10000"]) == 0
        with open(os.path.join(out, "ec.json")) as fh:
            verdict = json.load(fh)
        jsonschema.validate(verdict, schema("ec.schema.json"))
        assert verdict["kind"] == want

    def test_ex21_convergent(self, tmp_path):
        cfg = write_config(tmp_path, EX21_CONFIG)
        out = str(tmp_path / "out")
        assert main(["ec", "--config", cfg, "--out", out, "--quiet"]) == 0
        with open(os.path.join(out, "ec.json")) as fh:
            assert json.load(fh)["kind"] == "ConvergentLikely"

    def test_horizon_defaults_to_config(self, tmp_path):
        # ec grades the eigenvalue condition at the T that analyze's H3 uses
        cfg = write_config(tmp_path, {"f": {"gallery": "ex21"},
                                      "options": {"grid_per_axis": 12, "ec_horizon": 200}})

        def run(command, name, *flags):
            out = str(tmp_path / command)
            assert main([command, "--config", cfg, "--out", out, "--quiet", *flags]) == 0
            with open(os.path.join(out, name)) as fh:
                return json.load(fh)

        ec = run("ec", "ec.json")
        report = run("analyze", "report.json")
        assert ec["horizon"] == 200
        assert report and all(entry["h3"] == ec for entry in report)
        assert run("ec", "ec.json", "--horizon", "300")["horizon"] == 300


class TestNoLapackIn2D:
    """2-D runs take no number from LAPACK or BLAS: with numpy's solvers,
    norms and fits patched to raise, every command still exits 0."""

    @pytest.fixture(autouse=True)
    def no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK or BLAS called on a 2-D path")
        for name in ("eigvalsh", "solve", "det", "norm", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np, "dot", refuse)

    @pytest.mark.parametrize("gid", ["ex21", "ex22", "ex31"])
    def test_analyze(self, tmp_path, gid):
        cfg = os.path.join(CONFIGS, f"{gid}.json")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_basin(self, tmp_path):
        assert main(["basin", "--config", os.path.join(CONFIGS, "ex31.json"),
                     "--out", str(tmp_path / "o"), "--quiet",
                     "--anchor", "2,4", "--c", "33", "--resolution", "64"]) == 0

    def test_ec_and_simulate(self, tmp_path):
        cfg = os.path.join(CONFIGS, "ex21.json")
        assert main(["ec", "--config", cfg, "--out", str(tmp_path / "e"), "--quiet"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet",
                     "--x0", "2,2", "--t-end", "100"]) == 0


class TestNumericInputs:
    """Integrator and quadrature settings that used to hang or pass
    silently end with one line on stderr and exit 2 or 3."""

    # a config option is refused by every command, ec included, which
    # never integrates; the ids keep the names these cases have always had
    @pytest.mark.parametrize("options, flags, message", [
        pytest.param({"h_max": 0}, [], "config error: option 'h_max' must be > 0, got 0",
                     id="options0-flags0-h_max must be > 0, got 0"),
        pytest.param({"h_min": 0}, [], "config error: option 'h_min' must be > 0, got 0",
                     id="options1-flags1-h_min must be > 0, got 0"),
        pytest.param({"rel_tol": -1e-9}, [],
                     "config error: option 'rel_tol' must be >= 0, got -1e-09",
                     id="options2-flags2-rel_tol must be >= 0, got -1e-09"),
        pytest.param({"abs_tol": -1}, [], "config error: option 'abs_tol' must be >= 0, got -1",
                     id="options3-flags3-abs_tol must be >= 0, got -1"),
        pytest.param({"rel_tol": 0, "abs_tol": 0}, [],
                     "config error: rel_tol and abs_tol must not both be 0",
                     id="options4-flags4-rel_tol and abs_tol must not both be 0"),
        ({}, ["--h-max", "0"], "h_max must be a finite number > 0"),
        ({}, ["--h-max", "-1"], "h_max must be a finite number > 0"),
        ({}, ["--h-max", "nan"], "h_max must be a finite number > 0"),
        ({}, ["--target", "1,1", "--radius", "nan"],
         "convergence_radius must be a finite number > 0"),
        ({}, ["--t-end", "inf"], "t_end < inf"),
        # below h_min the step would sit at h_max until max_steps
        pytest.param({"h_max": 1e-13}, [],
                     "config error: h_max must be >= h_min, got h_max = 1e-13", id="h_max-config"),
        pytest.param({}, ["--h-max", "1e-300"],
                     "input error: h_max must be >= h_min, got h_max = 1e-300", id="h_max-flag"),
    ])
    def test_bad_integrator_settings_exit_2(self, tmp_path, capsys, options, flags, message):
        cfg = write_config(tmp_path, {"f": {"gallery": "ex21"}, "options": options})
        # a repeated --t-end overrides the first
        runs = [["simulate", "--x0", "2,2", "--t-end", "10", *flags]]
        if options:
            runs.append(["ec"])
        for command, *rest in runs:
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                         *rest]) == 2
            err = capsys.readouterr().err
            assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, options, flags, message", [
        ("ec", {}, ["--horizon", "inf"], "horizon must be a finite number >= 100"),
        ("ec", {}, ["--horizon", "nan"], "horizon must be a finite number >= 100"),
    ])
    def test_bad_quadrature_settings_exit_2(self, tmp_path, capsys, command, options,
                                            flags, message):
        cfg = write_config(tmp_path, {"f": {"gallery": "ex21"}, "options": options})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                     *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"f": {"gallery": "ex21"}},
        {"f": {"gallery": "ex31"},
         "P": [["2+sin(t)", "0.5*cos(t)"], ["0.5*cos(t)", "1+1/(t+1)"]],
         "options": {"ec_horizon": 1000.0}},
    ])
    def test_unreachable_quad_tol_exits_3(self, tmp_path, capsys, config):
        # 1e-300 is under the rounding error of every panel's sum
        config = dict(config, options=dict(config.get("options", {}), quad_tol=1e-300))
        start = time.perf_counter()
        assert main(["ec", "--config", write_config(tmp_path, config),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert time.perf_counter() - start < 60.0
        err = capsys.readouterr().err
        assert "hit the rounding level" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["ec", "analyze"])
    def test_overflowing_matrix_path_exits_3(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"},
                                      "P": [["1e300*t*t*t*t", "1"], ["1", "2"]]})
        start = time.perf_counter()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert time.perf_counter() - start < 60.0
        err = capsys.readouterr().err
        assert "P(t) has a non-finite entry at t = " in err and err.count("\n") == 1


    # the ids keep the names these cases have always had
    @pytest.mark.parametrize("command, options, message", [
        pytest.param("analyze", {"newton_tol": 0}, "option 'newton_tol' must be > 0, got 0",
                     id="analyze-options0-newton_tol must be > 0, got 0"),
        pytest.param("analyze", {"newton_tol": -1}, "option 'newton_tol' must be > 0, got -1",
                     id="analyze-options1-newton_tol must be > 0, got -1"),
        pytest.param("analyze", {"max_newton_iters": 0},
                     "option 'max_newton_iters' must be >= 1, got 0",
                     id="analyze-options2-max_newton_iters must be >= 1, got 0"),
        pytest.param("basin", {"newton_tol": 0}, "option 'newton_tol' must be > 0, got 0",
                     id="basin-options3-newton_tol must be > 0, got 0"),
        pytest.param("basin", {"max_newton_iters": 0},
                     "option 'max_newton_iters' must be >= 1, got 0",
                     id="basin-options4-max_newton_iters must be >= 1, got 0"),
        ("analyze", {"grid_per_axis": 1}, "option 'grid_per_axis' must be >= 2, got 1"),
    ])
    def test_bad_finder_settings_exit_2(self, tmp_path, capsys, command, options, message):
        # a zero tolerance used to report one maximum twice; a negative one
        # or zero iterations found nothing, and basin passed H6 vacuously;
        # ec, which finds no critical points, refuses them too
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"}, "options": options})
        flags = ["--anchor", "2,4", "--c", "33", "--resolution", "64"] \
            if command == "basin" else []
        for argv in ([command, *flags], ["ec"]):
            assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                         *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert f"config error: {message}" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, option, value", [
        ("analyze", "descent_trajectories", -1),
        ("basin", "basin_samples", -2),
    ])
    def test_negative_counts_exit_2_up_front(self, tmp_path, capsys, command, option, value):
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"}, "options": {option: value}})
        flags = ["--anchor", "2,4", "--c", "33", "--resolution", "64"] \
            if command == "basin" else []
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet", *flags]) == 2
        err = capsys.readouterr().err
        assert f"option '{option}' must be >= 0, got {value}" in err and err.count("\n") == 1
        assert not out.exists()  # rejected before any stage ran

    BASIN_FLAGS = ["--anchor", "2,4", "--c", "33", "--resolution", "64"]

    @pytest.mark.parametrize("command, options, flags, message", [
        ("analyze", {"shell_radius": -1}, [], "option 'shell_radius' must be > 0, got -1"),
        ("analyze", {"shell_radius": 0}, [], "option 'shell_radius' must be > 0, got 0"),
        ("basin", {"tol_boundary": -1}, [], "option 'tol_boundary' must be >= 0, got -1"),
        ("analyze", {"psd_tol": -2}, [], "option 'psd_tol' must be >= 0, got -2"),
        ("analyze", {"grad_floor": -1}, [], "option 'grad_floor' must be >= 0, got -1"),
        ("basin", {"seed": -1}, [], "option 'seed' must be >= 0, got -1"),
        ("basin", {}, ["--seed", "-5"], "--seed must be >= 0, got -5"),
    ])
    def test_sign_invalid_options_exit_2(self, tmp_path, capsys, command, options, flags,
                                         message):
        # each used to run with a wrong verdict and exit 0, or to fail late
        # with a message that did not name the option
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"}, "options": options})
        out = tmp_path / "o"
        flags = (self.BASIN_FLAGS if command == "basin" else []) + flags
        assert main([command, "--config", cfg, "--out", str(out), "--quiet", *flags]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and err.count("\n") == 1
        assert not out.exists()

    # each exited 2 from the commands that use the option but was accepted
    # by the others (basin ran with a bad isolation_shells, analyze with a
    # bad basin_t_end, ec with a bad grid_per_axis or h_min), so the exit
    # code depended on the subcommand
    OUT_OF_RANGE = {
        "isolation_shells-neg": ({"isolation_shells": [0.1, -1]},
                                 "option 'isolation_shells' must be a non-empty list of "
                                 "numbers > 0, got [0.1, -1]"),
        "isolation_shells-empty": ({"isolation_shells": []},
                                   "option 'isolation_shells' must be a non-empty list of "
                                   "numbers > 0, got []"),
        "samples_per_shell-0": ({"samples_per_shell": 0},
                                "option 'samples_per_shell' must be >= 8, got 0"),
        "ec_horizon-neg": ({"ec_horizon": -1}, "option 'ec_horizon' must be >= 100, got -1"),
        "ec_horizon-99": ({"ec_horizon": 99.5},
                          "option 'ec_horizon' must be >= 100, got 99.5"),
        "descent_t_end-neg": ({"descent_t_end": -1},
                              "option 'descent_t_end' must be > 0, got -1"),
        "quad_tol-0": ({"quad_tol": 0}, "option 'quad_tol' must be > 0, got 0"),
        "quad_tol-neg": ({"quad_tol": -1}, "option 'quad_tol' must be > 0, got -1"),
        "basin_t_end-neg": ({"basin_t_end": -1}, "option 'basin_t_end' must be > 0, got -1"),
        "converge_radius-neg": ({"converge_radius": -1},
                                "option 'converge_radius' must be > 0, got -1"),
        "grid_per_axis-1": ({"grid_per_axis": 1}, "option 'grid_per_axis' must be >= 2, got 1"),
        "newton_tol-neg": ({"newton_tol": -1}, "option 'newton_tol' must be > 0, got -1"),
        "h_min-neg": ({"h_min": -1}, "option 'h_min' must be > 0, got -1"),
    }
    CONFIG_COMMANDS = {"analyze": [], "basin": BASIN_FLAGS,
                       "simulate": ["--x0", "2,4", "--t-end", "1"], "ec": []}

    @pytest.mark.parametrize("command, case", [
        pytest.param(command, case, id=f"{command}-{case}")
        for case, command in itertools.product(OUT_OF_RANGE, CONFIG_COMMANDS)
    ])
    def test_out_of_range_options_exit_2(self, tmp_path, capsys, command, case):
        options, message = self.OUT_OF_RANGE[case]
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"}, "options": options})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet",
                     *self.CONFIG_COMMANDS[command]]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not out.exists()

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        # 10^16 cells are past any address space: the one allocation of
        # grid size fails at once, and nothing else of grid size was built
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"}})
        assert main(["basin", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                     "--anchor", "2,4", "--c", "33", "--resolution", "100000000"]) == 2
        err = capsys.readouterr().err
        assert err == "input error: 10000000000000000 grid cells do not fit in memory\n"

    @pytest.mark.parametrize("option, value", [
        ("grid_per_axis", 10**7),
        ("samples_per_shell", 10**14),
        ("descent_trajectories", 10**14),
    ])
    def test_oversized_options_exit_2(self, tmp_path, capsys, option, value):
        # each asks for 728 TiB: numpy refuses the array at once, and the
        # run used to end in a traceback with exit 1
        cfg = write_config(tmp_path, {"f": {"gallery": "ex31"}, "options": {option: value}})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: out of memory: Unable to allocate 728. TiB")
        assert err.count("\n") == 1

    DEEP_SUM = "(" + "+".join(["x1"] * 3000) + ")/x2"

    @pytest.mark.parametrize("f, p00, argv", [
        ("(" * 300 + "x1" + ")" * 300, "1", ["analyze"]),
        ("x1 + x2", "(" * 300 + "1" + ")" * 300, ["analyze"]),
        ("-" * 1200 + "x1", "1", ["analyze"]),
        (DEEP_SUM, "1", ["basin", "--anchor", "0.5,0", "--c", "0"]),
    ], ids=["parens-in-f", "parens-in-P", "unary-minus", "long-sum"])
    def test_deep_expressions_exit_without_traceback(self, tmp_path, capsys, f, p00, argv):
        # nesting past the parser's bound is a config error; a long sum is
        # legitimately deep, and its domain error at x2 = 0 names the node
        cfg = write_config(tmp_path, {"dimension": 2, "f": f, "box": [[-1, 1], [-1, 1]],
                                      "P": [[p00, "0"], ["0", "1"]]})
        out = tmp_path / "o"
        assert main([argv[0], "--config", cfg, "--out", str(out), "--quiet", *argv[1:]]) in (2, 3)
        assert "Traceback" not in capsys.readouterr().err
        if f == self.DEEP_SUM:
            with pytest.raises(EvalDomainError) as exc:
                one_row(parse(f, 2), "eval", [0.5, 0.0])
            message = str(exc.value)
            assert message.startswith("division by zero in '(x1 + x1 + ")
            assert message.endswith(" + x1) / x2'")


class TestGalleryCommand:
    def test_list(self, capsys):
        assert main(["gallery", "list"]) == 0
        out = capsys.readouterr().out
        for gid in ("ex21", "ex22", "ex31"):
            assert gid in out

    def test_run(self, capsys):
        assert main(["gallery", "run", "ex21"]) == 0
        assert "self-test passed" in capsys.readouterr().out


class TestRepoConfigs:
    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.json"))),
                             ids=os.path.basename)
    def test_shipped_configs_match_schema(self, path):
        with open(path) as fh:
            jsonschema.validate(json.load(fh), schema("config.schema.json"))

    def test_schema_options_match_table(self):
        want = {name: {kind} | ({"null"} if default is None else set())
                for name, (default, kind, _, _) in _OPTIONS.items()}
        props = schema("config.schema.json")["properties"]["options"]["properties"]
        have = {name: set(np.atleast_1d(p["type"])) for name, p in props.items()}
        assert have == want
        def bound(p):
            p = p.get("items", p)  # a list's bound is on its items
            if "exclusiveMinimum" in p:
                return ">", p["exclusiveMinimum"]
            return (">=", p["minimum"]) if "minimum" in p else None

        signs = {name: bound(p) for name, p in props.items() if bound(p)}
        assert signs == {name: (sign, low) for name, (_, _, sign, low) in _OPTIONS.items()}
        # a bounded list must not be empty
        assert all(props[name].get("minItems") == 1
                   for name in signs if "array" in props[name]["type"])

    def test_option_defaults_are_valid(self, tmp_path):
        defaults = {name: spec[0] for name, spec in _OPTIONS.items()}
        for name, value in defaults.items():
            _check_option(name, value)
        spelled = {"f": {"gallery": "ex21"}, "options": defaults}
        jsonschema.validate(spelled, schema("config.schema.json"))
        for body in (spelled, {"f": {"gallery": "ex21"}}):  # load_config fills in every option
            assert vars(load_config(write_config(tmp_path, body)).options) == defaults

    @pytest.mark.parametrize("entry, shared", [
        (certify_all, {"shell_radius", "isolation_shells", "grad_floor", "samples_per_shell",
                       "ec_horizon", "quad_tol", "descent_trajectories", "descent_t_end"}),
        (find_critical_points, {"grid_per_axis", "newton_tol", "max_newton_iters"}),
        (verify_basin, {"basin_samples", "basin_t_end", "converge_radius", "seed"}),
        (ec_check, {"ec_horizon", "quad_tol"}),
        (SimOptions, {"rel_tol", "abs_tol", "h_min", "h_max"}),
    ], ids=["certify_all", "find_critical_points", "verify_basin", "ec_check", "SimOptions"])
    def test_library_defaults_match_table(self, entry, shared):
        # the library entries take these options under their config names
        params = inspect.signature(entry).parameters
        assert {name for name in params if name in _OPTIONS} == shared
        assert {name: params[name].default for name in shared} \
            == {name: _OPTIONS[name][0] for name in shared}

    @pytest.mark.parametrize("name", ["ex21.json", "ex31.json", "custom_example.json"])
    def test_shipped_configs_analyze(self, tmp_path, name):
        cfg = os.path.join(CONFIGS, name)
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_ex22_style_analyze_smoke(self, tmp_path):
        # shrunk variant of configs/ex22.json: same shape, desk-sized
        cfg = write_config(
            tmp_path,
            {
                "f": {"gallery": "ex22", "depth": 5},
                "options": {
                    "grid_per_axis": 7,
                    "isolation_shells": [0.5, 0.25, 0.125],
                    "h_max": 0.25,
                    "descent_trajectories": 2,
                    "descent_t_end": 2.0,
                },
            },
        )
        out = str(tmp_path / "out")
        assert main(["analyze", "--config", cfg, "--out", out, "--quiet"]) == 0
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        origin = next(
            r for r in report
            if np.linalg.norm(r["equilibrium"]["location"]) < 1e-8
        )
        # stable but NOT asymptotically stable, even though P = I meets EC
        assert origin["conclusion"] == "UniformlyStable"
        assert origin["h2"]["kind"] == "NotIsolated"
        assert origin["h3"]["kind"] == "DivergentLikely"
