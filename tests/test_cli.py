"""CLI contract: schemas, exit codes, artifact generation, reproducibility."""

import json
import math

import numpy as np
import pytest

from nsbox.cli import (
    EXIT_CONFIG,
    EXIT_INTEGRITY,
    EXIT_OK,
    apply_env_overrides,
    main,
)
from nsbox.io import read_snapshot, write_snapshot
from nsbox.solver import FlowState
from nsbox.spectral import PeriodicGrid, SpectralField

TWO_PI = 2.0 * np.pi


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def with_snapshots(tmp_path, text):
    """`text` with each placeholder SNAP_<dim>D_N8 replaced by the path of a
    zero state snapshot on the N = 8 grid of that dimension."""
    for dim in (2, 3):
        name = f"SNAP_{dim}D_N8"
        if name in text:
            path = tmp_path / f"zero{dim}d.snap"
            g = PeriodicGrid(L=TWO_PI, dim=dim, N=8)
            write_snapshot(path, FlowState(0.0, SpectralField.zeros(g, dim), np.zeros(dim)))
            text = text.replace(name, str(path))
    return text


SMALL_SCENARIO = {"N": 8, "T": 1.0, "windows": 1, "dt": 0.02, "calibration_fields": 20}


class TestConfigValidation:
    def test_unknown_key_named_in_message(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"solver": {"viscocity": 1.0}})
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "viscocity" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, message", [
        pytest.param("simulate", {"solver": {"nu": -1.0}}, "solver.nu", id="solver.nu"),
        # accepted by the schema, rejected when the objects are built
        pytest.param("simulate", {"solver": {"dt": 0.3, "t_end": 1.0}}, "dt must divide t_end",
                     id="dt-divides-t_end"),
        pytest.param("stability", {"scenario": {"T": 0.5, "dt": 0.3}},
                     "dt must divide the window length", id="dt-divides-window"),
        pytest.param("simulate", {"forcing": {"family": "example1", "mode": [0, 0]}},
                     "nonzero 2D integer mode", id="forcing-mode-zero"),
        pytest.param("simulate", {"forcing": {"family": "example1", "constant": [1, 0, 0]}},
                     "constant force needs 2 components", id="example1-constant-length"),
        # a forcing vector has one entry per velocity component
        pytest.param("simulate", {"forcing": {"family": "constant_mean", "constant": [1, 0, 0, 0]}},
                     "constant force needs 2 components, got 4", id="constant-mean-length"),
        pytest.param("certify", {"certificate": {"T": 5.0, "N": 8},
                                 "forcing": {"family": "oscillating_mean", "constant": [1, 0, 0]}},
                     "oscillating mean force needs 2 components, got 3",
                     id="oscillating-mean-length"),
        pytest.param("stability", {"scenario": {"force_mode": [0, 0]}},
                     "nonzero 2D integer mode", id="scenario-force-mode-zero"),
        pytest.param("stability", {"scenario": {"g_amplitude": 0.1, "g_mode": [0, 0, 0]}},
                     "nonzero 3D integer mode", id="scenario-g-mode-zero"),
        pytest.param("simulate", {"solver": {"dt": 0.1, "t_end": 0.2},
                                  "output": {"window_T": 0.05}},
                     "dt exceeds the window length", id="window-shorter-than-dt"),
        pytest.param("simulate", {"solver": {"dt": 0.1, "t_end": 0.2},
                                  "output": {"window_T": 0.5}},
                     "t_end shorter than one window", id="window-longer-than-t_end"),
        pytest.param("simulate", {"solver": {"dt": 0.1, "t_end": 0.2},
                                  "output": {"sample_times": [0.05]}},
                     "not a step time", id="sample-time-off-grid"),
        pytest.param("simulate", {"solver": {"dt": 0.1, "t_end": 0.2},
                                  "output": {"sample_times": [0.3]}},
                     "not a step time", id="sample-time-after-t_end"),
        pytest.param("simulate", {"solver": {"dealias": True}}, "solver.dealias",
                     id="solver.dealias-removed"),
        # list-valued keys given a scalar
        pytest.param("simulate", {"output": {"sample_times": 0.1}}, "output.sample_times",
                     id="output.sample_times"),
        pytest.param("simulate", {"initial": {"kind": "random", "band": 5}}, "initial.band",
                     id="initial.band"),
        pytest.param("simulate", {"forcing": {"family": "constant_mean", "constant": 2.0}},
                     "forcing.constant", id="forcing.constant"),
        pytest.param("stability", {"scenario": {"force_constant": 1.0}},
                     "scenario.force_constant", id="scenario.force_constant"),
        pytest.param("stability", {"scenario": {"g_mode": 1}}, "scenario.g_mode",
                     id="scenario.g_mode"),
        pytest.param("stability", {"perturbation": {"band": 3}}, "perturbation.band",
                     id="perturbation.band"),
        pytest.param("stability", {"perturbation": {"mean": 0.1}}, "perturbation.mean",
                     id="perturbation.mean"),
        pytest.param("stability", {"perturbation": {"gamma": 1e-4, "mean": [0.01, 0, 0]}},
                     "perturbation mean alone exceeds the smallness target",
                     id="perturbation-mean-too-large"),
        pytest.param("stability", {"perturbation": {"band": [3]}},
                     "perturbation band must be [lo, hi]", id="perturbation-band-length"),
        pytest.param("stability", {"perturbation": {"mean": [0.0]}},
                     "perturbation mean must have 3 entries", id="perturbation-mean-length"),
        # a perturbation spectrum with no mode: the band lies above N/4, or
        # the envelope exp(-|k|^2 / k0^2) underflows on every mode
        pytest.param("stability", {"scenario": SMALL_SCENARIO, "perturbation": {"band": [5, 9]}},
                     "band [5, 9]", id="perturbation-band-empty"),
        pytest.param("stability", {"scenario": SMALL_SCENARIO, "perturbation": {"k0": 0.001}},
                     "k0 = 0.001", id="perturbation-k0-underflow"),
        pytest.param("certify", {"certificate": {"T": 5.0, "N": 8},
                                 "initial_norms": {"l2_sq": 0.1}},
                     "initial_norms is missing grad_sq, grad2_sq", id="initial-norms-incomplete"),
        # accepted by the schema and the forcing, rejected by the chains
        pytest.param("certify", {"certificate": {"N": 8, "T": 4},
                                 "forcing": {"family": "example2", "window": 1e-320}},
                     "not window-integrable in H1", id="certify-chain-rejects-forcing"),
        # keys nothing reads: files go to --out, plots follow --svg, and the
        # grid's dimension follows `system`
        pytest.param("simulate", {"grid": {"N": 8}, "solver": {"dt": 0.01, "t_end": 0.02},
                                  "output": {"dir": "elsewhere"}}, "output.dir", id="output.dir"),
        pytest.param("simulate", {"grid": {"N": 8}, "solver": {"dt": 0.01, "t_end": 0.02},
                                  "output": {"svg": True}}, "output.svg", id="output.svg"),
        # only simulate reads an output section
        pytest.param("certify", {"certificate": {"T": 5.0, "N": 8},
                                 "output": {"window_T": 3}}, "unknown key 'output'",
                     id="certify-output"),
        pytest.param("stability", {"scenario": {"N": 8, "T": 1.0, "windows": 1, "dt": 0.02,
                                                "calibration_fields": 20},
                                   "output": {"window_T": 3}},
                     "unknown key 'output'", id="stability-output"),
        pytest.param("simulate", {"system": "base2d", "grid": {"N": 8, "dim": 3},
                                  "solver": {"dt": 0.01, "t_end": 0.02}}, "grid.dim",
                     id="grid.dim"),
        pytest.param("certify", {"certificate": {"T": 5.0, "N": 8, "k_max": -1},
                                 "forcing": {"family": "oscillating_mean"}},
                     "unknown key 'certificate.k_max'", id="certificate.k_max-negative"),
        pytest.param("stability", {"scenario": {"N": 8, "T": 1.0, "windows": 1, "dt": 0.02,
                                                "calibration_fields": 20, "k_max": -1}},
                     "unknown key 'scenario.k_max'", id="scenario.k_max-negative"),
        pytest.param("certify", {"certificate": {"T": 5.0, "N": 8, "calibration_seed": -1,
                                                 "constants_mode": "empirical_calibrated"}},
                     "certificate.calibration_seed", id="certificate.calibration_seed-negative"),
        pytest.param("certify", {"certificate": {"T": 5.0, "N": 8, "calibration_fields": 0,
                                                 "constants_mode": "empirical_calibrated"}},
                     "certificate.calibration_fields", id="certificate.calibration_fields-zero"),
        pytest.param("stability", {"scenario": {"N": 8, "T": 1.0, "windows": 1, "dt": 0.02,
                                                "calibration_fields": 20, "calibration_seed": -1}},
                     "scenario.calibration_seed", id="scenario.calibration_seed-negative"),
        pytest.param("stability", {"scenario": {"N": 8, "T": 1.0, "windows": 1, "dt": 0.02,
                                                "calibration_fields": -5}},
                     "scenario.calibration_fields", id="scenario.calibration_fields-negative"),
        # snapshot inputs: checked against the config before anything runs
        pytest.param("simulate", {"initial": {"kind": "snapshot"}},
                     "an initial state of kind 'snapshot' needs a path",
                     id="initial-snapshot-without-path"),
        pytest.param("simulate", {"initial": {"kind": "snapshot", "path": "no-such.snap"}},
                     "cannot read snapshot no-such.snap", id="initial-snapshot-missing"),
        pytest.param("simulate", {"grid": {"N": 16}, "solver": {"dt": 0.01, "t_end": 0.02},
                                  "initial": {"kind": "snapshot", "path": "SNAP_2D_N8"}},
                     "snapshot SNAP_2D_N8 holds 2 components on a 2D grid with N=8",
                     id="initial-snapshot-N-mismatch"),
        pytest.param("simulate", {"system": "pair", "grid": {"N": 8},
                                  "solver": {"dt": 0.01, "t_end": 0.02},
                                  "initial": {"kind": "snapshot", "path": "SNAP_3D_N8"}},
                     "snapshot SNAP_3D_N8 holds 3 components on a 3D grid",
                     id="pair-initial-3d-snapshot"),
        pytest.param("stability", {"scenario": {**SMALL_SCENARIO, "resume": "no-such.snap"}},
                     "cannot read snapshot no-such.snap", id="resume-missing"),
        pytest.param("stability", {"scenario": {**SMALL_SCENARIO, "N": 16,
                                                "resume": "SNAP_3D_N8"}},
                     "snapshot SNAP_3D_N8 holds 3 components on a 3D grid with N=8",
                     id="resume-N-mismatch"),
        pytest.param("stability", {"scenario": {**SMALL_SCENARIO, "resume": "SNAP_2D_N8"}},
                     "snapshot SNAP_2D_N8 holds 2 components on a 2D grid", id="resume-2d"),
        pytest.param("stability", {"scenarios": [{"scenario": SMALL_SCENARIO},
                                                 {"scenario": {**SMALL_SCENARIO,
                                                               "resume": "no-such.snap"}}]},
                     "cannot read snapshot no-such.snap", id="sweep-resume-missing"),
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, command, doc, message):
        cfg = write_cfg(tmp_path, json.loads(with_snapshots(tmp_path, json.dumps(doc))))
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert with_snapshots(tmp_path, message) in capsys.readouterr().err
        # rejected before any output is written
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_env_override(self):
        cfg = {"solver": {"nu": 1.0}}
        out = apply_env_overrides(cfg, {"NSBOX_SOLVER_NU": "2.5"})
        assert out["solver"]["nu"] == 2.5
        out2 = apply_env_overrides(cfg, {"NSBOX_SOLVER_SCHEME": "rk3-imex"})
        assert out2["solver"]["scheme"] == "rk3-imex"
        # a section with an underscore in its name: the longest section wins
        out3 = apply_env_overrides({"initial": {"kind": "zero"}}, {
            "NSBOX_INITIAL_NORMS_L2_SQ": "0.5", "NSBOX_G_FORCING_FAMILY": "zero",
            "NSBOX_INITIAL_KIND": "taylor_green",
        })
        assert out3 == {"initial": {"kind": "taylor_green"}, "initial_norms": {"l2_sq": 0.5},
                        "g_forcing": {"family": "zero"}}


class TestSimulate:
    def test_zero_data_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "system": "base2d",
                "grid": {"L": TWO_PI, "N": 8},
                "solver": {"nu": 1.0, "dt": 0.05, "t_end": 0.5},
                "initial": {"kind": "zero"},
                "forcing": {"family": "zero"},
            },
        )
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_OK
        series = (out / "series.csv").read_text().strip().split("\n")
        cols = series[0].split(",")
        idx = cols.index("l2_sq")
        assert all(float(line.split(",")[idx]) == 0.0 for line in series[1:])

    def test_taylor_green_preset_spot_value(self, tmp_path):
        # L2 energy at t=1 (nu=1) equals exp(-4) x initial within 1e-6 relative
        cfg = write_cfg(
            tmp_path,
            {
                "system": "base2d",
                "grid": {"L": TWO_PI, "N": 32},
                "solver": {"nu": 1.0, "dt": 1e-3, "t_end": 1.0},
                "initial": {"kind": "taylor_green", "amplitude": 1.0},
                "forcing": {"family": "zero"},
            },
        )
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_OK
        series = (out / "series.csv").read_text().strip().split("\n")
        cols = series[0].split(",")
        i_t, i_e = cols.index("t"), cols.index("l2_sq")
        rows = [line.split(",") for line in series[1:]]
        e0 = float(rows[0][i_e])
        efinal = float([r for r in rows if abs(float(r[i_t]) - 1.0) < 1e-12][0][i_e])
        assert abs(efinal / (e0 * math.exp(-4.0)) - 1.0) < 1e-6

    def test_solver_abort_exit4(self, tmp_path, capsys):
        # unstable configuration fails fast; the CLI maps it to exit 4
        cfg = write_cfg(
            tmp_path,
            {
                "system": "base2d",
                "grid": {"L": TWO_PI, "N": 16},
                "solver": {"nu": 1e-8, "dt": 0.9, "t_end": 90.0},
                "initial": {"kind": "random", "amplitude": 50.0, "seed": 99, "band": [1, 5]},
                "forcing": {"family": "zero"},
            },
        )
        with np.errstate(all="ignore"):
            rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 4
        assert "abort" in capsys.readouterr().err

    def test_non_finite_series_aborts(self, tmp_path, capsys):
        # dudt_sq, the difference quotient over dt = 1e-300, overflows while
        # the coefficients stay finite: the recorded series is checked too
        cfg = write_cfg(tmp_path, {
            "system": "base2d", "grid": {"N": 8}, "solver": {"dt": 1e-300, "t_end": 1e-300},
            "initial": {"kind": "taylor_green", "amplitude": 0.015},
            "forcing": {"family": "example1", "amplitude": 0.122, "mode": [1, 0]},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        assert "non-finite dudt_sq" in capsys.readouterr().err

    def test_cfl_ignores_the_advecting_mean(self, tmp_path):
        # advection by the mean goes into the integrating factor, so a large
        # constant mean force does not stop the run on CFL
        cfg = write_cfg(tmp_path, {
            "system": "base2d", "grid": {"N": 32},
            "solver": {"dt": 2.5e-3, "t_end": 1.0, "cfl_max": 1.2},
            "initial": {"kind": "taylor_green", "amplitude": 0.015},
            "forcing": {"family": "constant_mean", "constant": [100.0, 0.0]},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "state_series.json").read_text())
        assert sidecar["times"][-1] == pytest.approx(1.0, abs=1e-12)

    def test_window_T_does_not_set_the_example2_period(self, tmp_path):
        # output.window_T says when states are stored; the example-2 period
        # comes from forcing.window (default 1)
        doc = {"system": "base2d", "grid": {"N": 8}, "solver": {"dt": 0.01, "t_end": 0.2},
               "initial": {"kind": "taylor_green", "amplitude": 0.1},
               "forcing": {"family": "example2", "mode": [1, 0]}}
        series = []
        for name, extra in (("plain", {}), ("windowed", {"output": {"window_T": 0.05}})):
            cfg = write_cfg(tmp_path, {**doc, **extra}, name=f"{name}.json")
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
            series.append(json.loads((out / "state_series.json").read_text())["series"])
        assert series[0] == series[1]

    def test_pair_with_2d_forcing_mode(self, tmp_path):
        # the pair's forcing is built on the 2D grid only, so a 2D mode is valid
        cfg = write_cfg(
            tmp_path,
            {
                "system": "pair",
                "grid": {"L": TWO_PI, "N": 8},
                "solver": {"nu": 1.0, "dt": 0.05, "t_end": 0.1},
                "initial": {"kind": "taylor_green", "amplitude": 0.1},
                "forcing": {"family": "example2", "mode": [2, 0]},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "series.csv").exists()
        assert (out / "base" / "base_series.json").exists()

    def test_taylor_green_3d_keeps_its_mean(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "full3d", "grid": {"N": 8}, "solver": {"dt": 0.01, "t_end": 0.02},
            "initial": {"kind": "taylor_green", "amplitude": 0.1, "mean": [0.25, 0, 0]},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "state_series.json").read_text())
        assert sidecar["means"][0] == [0.25, 0.0, 0.0]

    def test_example1_on_the_3d_grid(self, tmp_path):
        # example 1's default constant force has one entry per component
        cfg = write_cfg(tmp_path, {
            "system": "full3d", "grid": {"N": 8}, "solver": {"dt": 0.01, "t_end": 0.02},
            "forcing": {"family": "example1", "mode": [1, 0, 0]},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "state_series.json").read_text())
        assert sidecar["means"][-1] == pytest.approx([0.02, 0.0, 0.0], rel=1e-12)

    def test_states_stored_at_window_boundaries_and_sample_times(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "base2d", "grid": {"N": 8}, "solver": {"dt": 0.01, "t_end": 0.2},
            "initial": {"kind": "taylor_green", "amplitude": 0.1},
            "output": {"window_T": 0.05, "sample_times": [0.07]},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        want = [0.0, 0.05, 0.07, 0.1, 0.15, 0.2]
        snaps = [read_snapshot(p).t for p in sorted(out.glob("state_*.snap"))]
        sidecar = json.loads((out / "state_series.json").read_text())
        assert snaps == pytest.approx(want, abs=1e-12)
        assert sidecar["times"] == snaps

    def test_snapshot_artifacts_readable(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "system": "base2d",
                "grid": {"L": TWO_PI, "N": 8},
                "solver": {"nu": 1.0, "dt": 0.1, "t_end": 0.2},
                "initial": {"kind": "taylor_green", "amplitude": 0.1},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        snaps = sorted(out.glob("state_*.snap"))
        assert snaps
        st = read_snapshot(snaps[0])
        assert st.field.grid.N == 8


@pytest.mark.parametrize("command, doc", [
    # 1 - exp(-c T) rounds to 0 below T ~ 1e-16; the chains divide by it
    pytest.param("certify", {"certificate": {"T": 1e-17, "N": 8}}, id="certify-tiny-T"),
    pytest.param("stability", {"scenario": {"N": 8, "T": 1e-300, "dt": 1e-300, "windows": 1,
                                            "calibration_fields": 8}}, id="stability-tiny-T"),
    # -expm1(-c T / 2) underflows to 0 at the smallest subnormal T; x > 0 over it is inf
    pytest.param("certify", {"certificate": {"T": 5e-324, "N": 8}}, id="certify-subnormal-T"),
    pytest.param("stability", {"scenario": {"N": 8, "T": 5e-324, "dt": 5e-324, "windows": 1,
                                            "calibration_fields": 8}}, id="stability-subnormal-T"),
])
def test_tiny_positive_window_runs(tmp_path, command, doc):
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    if command == "stability":
        # dudt_sq over such a dt is not finite: the run aborts, the chains stand
        assert json.loads((out / "report.json").read_text())["aborted"] is True


class TestCertify:
    def test_zero_data_membership(self, tmp_path):
        for T, expect in ((5.0, True), (2.0, False)):
            cfg = write_cfg(
                tmp_path,
                {
                    "certificate": {"nu": 1.0, "L": TWO_PI, "T": T, "N": 8},
                    "forcing": {"family": "zero"},
                    "initial_norms": {"l2_sq": 0.0, "grad_sq": 0.0, "grad2_sq": 0.0},
                },
                name=f"c{T}.json",
            )
            out = tmp_path / f"out{T}"
            assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
            doc = json.loads((out / "certificate.json").read_text())
            assert doc["abar_chain"]["abar3_sq"] == pytest.approx(1.0)
            # membership iff T >= t_star and T > 1
            assert doc["abar_chain"]["member"] is expect

    def test_example1_reports_infinite_time_bound(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "certificate": {"nu": 1.0, "L": TWO_PI, "T": 6.0, "N": 16},
                "forcing": {"family": "example1", "constant": [1.0, 0.0],
                            "amplitude": 1.0, "rate": 1.0, "mode": [1, 1]},
                "initial_norms": {"l2_sq": 0.0, "grad_sq": 0.0, "grad2_sq": 0.0},
            },
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "certificate.json").read_text())
        # profile has unit L2 norm and |k|^2 = 2, so the all-time H1 integral
        # of the fluctuation is (1 + 2) * 1 / (2 * rate)... reported bound uses
        # the H1 norm of the stored profile
        assert doc["inputs"]["abar1_sq_upper"] == pytest.approx(3.0 / 2.0, rel=1e-12)
        assert doc["a_chain"]["a9"] == "inf"

    def test_unit_h1_mode_gives_half(self, tmp_path):
        # unit-H1 fluctuation with rate 1: the reported all-time bound is 1/2
        cfg = write_cfg(
            tmp_path,
            {
                "certificate": {"nu": 1.0, "L": TWO_PI, "T": 6.0, "N": 16},
                "forcing": {"family": "example1", "constant": [1.0, 0.0],
                            "amplitude": 1.0, "rate": 1.0, "mode": [1, 1],
                            "normalize": "h1"},
                "initial_norms": {"l2_sq": 0.0, "grad_sq": 0.0, "grad2_sq": 0.0},
            },
        )
        out = tmp_path / "outh1"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["inputs"]["abar1_sq_upper"] == pytest.approx(0.5, rel=1e-12)

    def test_initial_mean_enters_the_drift(self, tmp_path):
        # zero constant force: the drift path is the initial mean for all time
        cfg = write_cfg(
            tmp_path,
            {
                "certificate": {"nu": 1.0, "L": TWO_PI, "T": 6.0, "N": 8},
                "forcing": {"family": "example1", "constant": [0, 0], "mode": [5, 0]},
                "initial": {"kind": "zero", "mean": [0.3, 0]},
            },
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["a_chain"]["a9"] == 0.3
        assert doc["abar_chain"]["abar4_sq"] == pytest.approx(0.09, rel=1e-15)
        assert "truncation" not in doc

    def test_example2_partial_period_sup(self, tmp_path):
        # a period just above T / 8: each window starts at a later phase, and the
        # sup over windows is the first one, n I(P) + I(r) with T = n P + r
        from nsbox.experiments import build_forcing
        from oracles import window_bar_sq

        forcing = {"family": "example2", "mode": [5, 0], "amplitude": 0.2, "window": 1.0001}
        cfg = write_cfg(tmp_path, {"certificate": {"T": 8, "N": 16}, "forcing": forcing})
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "certificate.json").read_text())
        f = build_forcing(PeriodicGrid(L=TWO_PI, dim=2, N=16), forcing, 8.0)
        windows = [window_bar_sq(f, k, 8.0, "h1") for k in range(65)]
        assert max(windows) == windows[0]
        assert doc["abar_chain"]["abar1_sq"] == pytest.approx(windows[0], rel=1e-10)
        assert doc["abar_chain"]["abar1_sq"] == pytest.approx(3.5970, rel=1e-4)

    def test_gamma_violation_in_report(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {
                "certificate": {"nu": 1.0, "L": TWO_PI, "T": 6.0, "N": 8, "gamma": 0.9,
                                "constants_mode": "empirical_calibrated",
                                "calibration_fields": 40},
                "forcing": {"family": "zero"},
                "initial_norms": {"l2_sq": 0.0, "grad_sq": 0.0, "grad2_sq": 0.0},
                "perturbation_norms": {"l2_sq": 0.0},
            },
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["gamma_hypothesis"] == "violated"
        # no simulated series: g2_budget is null, so the barrier hypotheses pass
        # without all being evaluated
        assert doc["hypotheses"]["g2_budget"] is None
        assert doc["barrier_hypotheses_evaluated"] is False
        capsys.readouterr()
        assert main(["report", "--config",
                     write_cfg(tmp_path, {"path": str(out / "certificate.json")}, "r.json"),
                     "--out", str(out)]) == EXIT_OK
        assert "  barrier_hypotheses_evaluated: False\n" in capsys.readouterr().out

    def test_gamma_zero_violates_the_gamma_hypothesis(self, tmp_path):
        # 0 < gamma <= gamma_star is decided once, by the b-chain: at gamma = 0
        # the flag and the top-level verdict agree that it fails
        cfg = write_cfg(tmp_path, {
            "certificate": {"T": 8, "N": 16, "gamma": 0},
            "forcing": {"family": "example1", "amplitude": 0.122, "mode": [5, 0]},
            "initial": {"kind": "taylor_green", "amplitude": 0.015},
            "perturbation_norms": {"l2_sq": 0.0},
        })
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["gamma_hypothesis"] == "violated"
        assert doc["hypotheses"]["pert.gamma_le_gamma_star"] is False
        assert doc["barrier_hypotheses_ok"] is False

    def test_example1_g_forcing_on_the_3d_grid(self, tmp_path):
        # g lives on the 3D grid: example 1's default constant force there
        # has three components, and its drift is unbounded
        cfg = write_cfg(tmp_path, {"certificate": {"N": 8, "gamma": 1e-4},
                                   "g_forcing": {"family": "example1", "mode": [1, 0, 0]}})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_OK
        doc = json.loads((tmp_path / "c" / "certificate.json").read_text())
        assert doc["b_chain"]["b6_mean_drift"] == "inf"

    def test_reproduces_the_stability_certificate(self, tmp_path):
        # certify on a stability run's scenario and initial perturbation energy
        # gives that run's certificate: the two commands evaluate one set of
        # chains and one forcing-size budget, here with a g whose pointwise
        # sup exceeds it
        stab = write_cfg(tmp_path, {
            "scenario": {"N": 16, "T": 0.05, "windows": 1, "dt": 2.5e-3,
                         "calibration_fields": 8, "g_amplitude": 0.01, "g_rate": 10.0},
            "perturbation": {"gamma": 1e-4, "seed": 3},
        }, name="stability.json")
        assert main(["stability", "--config", stab, "--out", str(tmp_path / "s")]) == EXIT_OK
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        s, run = report["scenario"], report["certificate"]
        cert = write_cfg(tmp_path, {
            "certificate": {"nu": s["nu"], "L": s["L"], "T": s["T"], "N": s["N"],
                            "constants_mode": s["constants_mode"],
                            "calibration_seed": s["calibration_seed"],
                            "calibration_fields": s["calibration_fields"],
                            "gamma": s["perturbation"]["gamma"], "epsilon": s["epsilon"]},
            "forcing": {"family": s["force_family"], "constant": s["force_constant"],
                        "amplitude": s["force_amplitude"], "rate": s["force_rate"],
                        "mode": s["force_mode"]},
            "g_forcing": {"family": "decaying_mode", "amplitude": s["g_amplitude"],
                          "rate": s["g_rate"], "mode": s["g_mode"]},
            "initial": {"kind": "taylor_green", "amplitude": s["base_amplitude"]},
            "perturbation_norms": {
                "l2_sq": run["smallness"]["gbar_addends"]["initial_energy"]},
        }, name="certify.json")
        assert main(["certify", "--config", cert, "--out", str(tmp_path / "c")]) == EXIT_OK
        doc = json.loads((tmp_path / "c" / "certificate.json").read_text())
        for key in ("abar_chain", "a_chain", "b_chain", "constants", "poincare",
                    "gamma_hypothesis"):
            assert doc[key] == run[key], key
        for key in ("gbar_addends", "gbar"):
            assert doc["smallness"][key] == run["smallness"][key], key
        assert doc["hypotheses"]["gbar_budget"] is False
        # only the G^2 budget needs the simulated series
        assert doc["hypotheses"].pop("g2_budget") is None
        assert run["hypotheses"].pop("g2_budget") is not None
        assert doc["hypotheses"] == run["hypotheses"]


class TestStability:
    def _scn_cfg(self, **over):
        scn = {
            "N": 8, "T": 4.0, "windows": 1, "dt": 0.02, "calibration_fields": 40,
        }
        scn.update(over)
        return {"scenario": scn, "perturbation": {"gamma": 1e-4, "seed": 3, "band": [1, 2]}}

    def test_run_and_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, self._scn_cfg())
        out = tmp_path / "out"
        rc = main(["stability", "--config", cfg, "--out", str(out), "--svg"])
        assert rc == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["barrier"]["never_exceeded"] is True
        assert isinstance(doc["barrier"]["violations_cubic"], int)
        assert (out / "series.csv").exists()
        assert (out / "windows.csv").exists()
        assert (out / "x2_vs_gamma.svg").exists()

    def test_rerun_reproducible_modulo_timestamp(self, tmp_path):
        cfg = write_cfg(tmp_path, self._scn_cfg())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["stability", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["stability", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        d1 = json.loads((out1 / "report.json").read_text())
        d2 = json.loads((out2 / "report.json").read_text())
        assert d1["content_hash"] == d2["content_hash"]
        d1.pop("timestamp"), d2.pop("timestamp")
        assert d1 == d2
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_resume_matches_fresh_run(self, tmp_path):
        # resuming from a snapshot of the seeded perturbation reproduces the
        # fresh run bit for bit; the snapshot path stays out of the report
        from nsbox.experiments import PerturbationSpec, make_perturbation
        from nsbox.spectral import PeriodicGrid

        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        snap = tmp_path / "u0.snap"
        u0 = make_perturbation(g3, PerturbationSpec(gamma=1e-4, seed=3, band=(1, 2)))
        write_snapshot(snap, u0)
        docs = []
        for name, over in (("fresh", {}), ("resumed", {"resume": str(snap)})):
            cfg = write_cfg(tmp_path, self._scn_cfg(**over), name=f"{name}.json")
            assert main(["stability", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
            docs.append(json.loads((tmp_path / name / "report.json").read_text()))
        for doc in docs:
            assert "_resume" not in doc["scenario"]
            # the scenario is written once, at the top level
            assert "inputs" not in doc["certificate"]
        assert docs[0]["barrier"]["never_exceeded"] is True
        assert docs[1]["content_hash"] == docs[0]["content_hash"]
        series = [(tmp_path / name / "series.csv").read_bytes() for name in ("fresh", "resumed")]
        assert series[1] == series[0]

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda blob: blob[:-3] + bytes([blob[-3] ^ 0x55]) + blob[-2:], id="payload"),
        pytest.param(lambda blob: blob.replace(b'"N": 8', b'"N": 9', 1), id="header"),
        pytest.param(lambda blob: blob.replace(b'"time": 0.0', b'"time": 1.0', 1),
                     id="header-time"),
        pytest.param(lambda blob: blob.replace(b'"mean": [0.0', b'"mean": [0.5', 1),
                     id="header-mean"),
    ])
    def test_corrupted_resume_snapshot_exit3(self, tmp_path, capsys, corrupt):
        # build a valid perturbation snapshot, then corrupt it
        from nsbox.experiments import PerturbationSpec, make_perturbation
        from nsbox.spectral import PeriodicGrid

        g3 = PeriodicGrid(L=TWO_PI, dim=3, N=8)
        u0 = make_perturbation(g3, PerturbationSpec(gamma=1e-4, seed=3, band=(1, 2)))
        snap = tmp_path / "u0.snap"
        write_snapshot(snap, u0)
        blob = snap.read_bytes()
        snap.write_bytes(corrupt(blob))
        assert snap.read_bytes() != blob
        cfg_doc = self._scn_cfg(resume=str(snap))
        cfg = write_cfg(tmp_path, cfg_doc)
        rc = main(["stability", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_INTEGRITY
        assert "integrity" in capsys.readouterr().err

    def test_sweep_multiple_scenarios(self, tmp_path):
        doc = {"scenarios": [self._scn_cfg(), self._scn_cfg(T=5.0, dt=0.025)]}
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "sweep"
        assert main(["stability", "--config", cfg, "--out", str(out), "--jobs", "2"]) == EXIT_OK
        for i in range(2):
            doc_i = json.loads((out / f"scenario_{i:03d}" / "report.json").read_text())
            assert doc_i["barrier"]["never_exceeded"] is True

    def test_solver_abort_report_keeps_the_chains(self, tmp_path):
        # the run blows up (no CFL limit): the report keeps the certificate
        # without the simulated sections
        cfg = write_cfg(tmp_path, {"scenario": {
            "N": 8, "T": 9.0, "windows": 1, "dt": 0.9, "nu": 1e-8, "base_amplitude": 50.0,
            "cfl_max": math.inf, "calibration_fields": 20,
        }})
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["stability", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["aborted"] is True and "non-finite" in doc["abort_diagnostic"]
        assert doc["barrier"] is None and doc["checks"] == {} and doc["windows"] == []
        assert "b_chain" in doc["certificate"] and "smallness" not in doc["certificate"]
        assert not (out / "series.csv").exists()

    def test_cfl_stop_writes_the_aborted_report(self, tmp_path):
        # a CFL stop is a solver abort: the report keeps the chains
        cfg = write_cfg(tmp_path, {"scenario": {**SMALL_SCENARIO, "base_amplitude": 50.0,
                                                "cfl_max": 0.01}})
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["aborted"] is True and "CFL" in doc["abort_diagnostic"]
        assert doc["barrier"] is None
        assert all(k in doc["certificate"] for k in ("abar_chain", "a_chain", "b_chain"))

    def test_report_prints_verdicts_and_checks(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self._scn_cfg())
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        rep = write_cfg(tmp_path, {"path": str(out / "report.json")}, "r.json")
        assert main(["report", "--config", rep, "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        cert = doc["certificate"]
        assert f"  gamma_hypothesis: {cert['gamma_hypothesis']}\n" in printed
        assert f"  barrier_hypotheses_ok: {cert['barrier_hypotheses_ok']}\n" in printed
        assert cert["barrier_hypotheses_evaluated"] is True
        assert "  barrier_hypotheses_evaluated: True\n" in printed
        assert f"  check.all_ok: {doc['checks']['all_ok']}\n" in printed
        assert f"  check.x_le_y: {doc['checks']['x_le_y']}\n" in printed
        # every record, the checks' and the smallness budgets', with its ok and bound
        records = {**{f"check.{k}": v for k, v in doc["checks"].items()},
                   **{f"smallness.{k}": v for k, v in cert["smallness"].items()}}
        printed_records = [n for n, rec in records.items() if isinstance(rec, dict) and "ok" in rec]
        assert len(printed_records) == 10
        for name in printed_records:
            rec = records[name]
            assert f"  {name}: ok={rec['ok']} bound={rec['bound']}\n" in printed

    @pytest.mark.parametrize("content", [None, "not json"], ids=["missing", "not-json"])
    def test_unreadable_report_exit2(self, tmp_path, capsys, content):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content)
        rep = write_cfg(tmp_path, {"path": str(path)}, "r.json")
        assert main(["report", "--config", rep, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"cannot read report {path}" in capsys.readouterr().err

    def test_sweep_applies_seed(self, tmp_path, capsys):
        doc = {"scenarios": [self._scn_cfg(), self._scn_cfg(T=5.0, dt=0.025)]}
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "sweep"
        assert main(["stability", "--config", cfg, "--out", str(out), "--seed", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        for i, line in enumerate(lines):
            report = out / f"scenario_{i:03d}" / "report.json"
            assert line == f"stability: never_exceeded=True report={report}"
            assert json.loads(report.read_text())["scenario"]["perturbation"]["seed"] == 5

    def test_perturbation_drawn_once_after_the_seed(self, tmp_path, monkeypatch):
        # each scenario's perturbation is drawn once, with the --seed override,
        # and the run starts from that field
        import nsbox.cli
        import nsbox.experiments

        seeds = []
        draw = nsbox.experiments.make_perturbation

        def counted(grid3, spec):
            seeds.append(spec.seed)
            return draw(grid3, spec)

        monkeypatch.setattr(nsbox.cli, "make_perturbation", counted)
        monkeypatch.setattr(nsbox.experiments, "make_perturbation", counted)
        sweep = {"scenarios": [self._scn_cfg(), self._scn_cfg(T=5.0, dt=0.025)]}
        sweep = write_cfg(tmp_path, sweep)
        assert main(["stability", "--config", sweep, "--out", str(tmp_path / "sweep"),
                     "--seed", "5"]) == EXIT_OK
        assert seeds == [5, 5]
        named = self._scn_cfg()
        named["perturbation"]["seed"] = 5
        named = write_cfg(tmp_path, named, "named.json")
        assert main(["stability", "--config", named, "--out", str(tmp_path / "named")]) == EXIT_OK
        docs = [json.loads((tmp_path / d / "report.json").read_text())
                for d in ("sweep/scenario_000", "named")]
        assert docs[0]["content_hash"] == docs[1]["content_hash"]
