"""End-to-end CLI tests: exit codes, file outputs, schemas, determinism."""

import json
import os
import re

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from modgrad.cli import main

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

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2

    def test_deterministic_report_bytes(self, tmp_path):
        cfg = write_config(tmp_path, EX31_CONFIG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["analyze", "--config", cfg, "--out", out1, "--quiet"])
        main(["analyze", "--config", cfg, "--out", out2, "--quiet"])
        b1 = open(os.path.join(out1, "report.json"), "rb").read()
        b2 = open(os.path.join(out2, "report.json"), "rb").read()
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
        svg = open(os.path.join(out, "basin.svg")).read()
        assert svg.startswith("<svg") and "circle" in svg
        cells = np.loadtxt(os.path.join(out, "cells.csv"), delimiter=",", skiprows=1)
        assert cells.shape[1] == 2
        boundary = np.loadtxt(os.path.join(out, "boundary.csv"),
                              delimiter=",", skiprows=1)
        assert boundary.shape[1] == 4

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

    def test_c_above_m_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EX31_CONFIG)
        assert main([
            "basin", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
            "--anchor", "2,1", "--c", "40",
        ]) == 2
        assert "below f(anchor)" in capsys.readouterr().err

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
            b1 = open(os.path.join(outs[0], fname), "rb").read()
            b2 = open(os.path.join(outs[1], fname), "rb").read()
            assert b1 == b2, fname


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
