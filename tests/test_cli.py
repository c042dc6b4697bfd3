import importlib
import json
import math
from pathlib import Path

import pytest

import saturate.cli
from saturate.cli import _parser, main
from saturate.config import ConfigError, build_system, load_config
from saturate.coupled import CheckOutcome
from saturate.degdist import MAX_DEGREE
from saturate.verify import BatteryReport, corrupt_bit_energy

# the package re-exports the function potential() under the submodule's name
potential_module = importlib.import_module("saturate.potential")

PROTO = {"type": "protograph", "matrix": [[3, 3]]}
REG36 = {"2": 1.0}
REG36_RHO = {"5": 1.0}
SW = {
    "type": "slepian_wolf",
    "lambda1": REG36,
    "rho1": REG36_RHO,
    "lambda2": REG36,
    "rho2": REG36_RHO,
    "gamma": 0.5,
    "p": 0.5,
    "path": {"kind": "diagonal"},
}
EMAC = {
    "type": "emac",
    "lambda1": REG36,
    "rho1": REG36_RHO,
    "lambda2": REG36,
    "rho2": REG36_RHO,
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_threshold_command(tmp_path):
    cfg = {
        "system": PROTO,
        "analysis": {"gap_grid": [0.44, 0.46, 0.50], "bisect_tol": 1e-5, "seed": 1},
    }
    rc = main(["threshold", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "threshold_report.json").read_text())
    assert rep["thresholds"]["bp"] == pytest.approx(0.42944, abs=1e-3)
    assert rep["thresholds"]["potential"] == pytest.approx(0.48815, abs=1e-3)
    assert rep["enumeration"] == "heuristic"
    assert len(rep["config_hash"]) == 64
    assert rep["tool"]["name"] == "saturate"
    csv_lines = (tmp_path / "o" / "energy_gap.csv").read_text().splitlines()
    assert csv_lines[0] == "eps,energy_gap"
    assert len(csv_lines) == 4


def test_threshold_empty_grid_is_config_error(tmp_path, capsys):
    # an empty grid, or a grid point outside the channel range (0, 1]
    for grid in ([], [1.5], [0.0]):
        cfg = {"system": PROTO, "analysis": {"gap_grid": grid}}
        assert main(["threshold", "--config", _write(tmp_path, cfg)]) == 2
        assert "config error" in capsys.readouterr().err


def test_threshold_unknown_key_rejected(tmp_path):
    cfg = {"system": PROTO, "analysis": {"gap_grid": [0.4], "nonsense": True}}
    assert main(["threshold", "--config", _write(tmp_path, cfg)]) == 2
    # the output directory is set by --out alone
    cfg = {"system": PROTO, "analysis": {"gap_grid": [0.4]}, "output": {"dir": "o"}}
    assert main(["threshold", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 2


def test_threshold_writes_a_non_finite_gap_as_text(tmp_path):
    # below the BP threshold there is no nontrivial fixed point: the gap is inf
    cfg = {"system": PROTO, "analysis": {"gap_grid": [0.3, 0.47]}}
    out = tmp_path / "o"
    assert main(["threshold", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "threshold_report.json").read_text())
    assert rep["energy_gap_curve"][0] == [0.3, "inf"]
    assert isinstance(rep["energy_gap_curve"][1][1], float)
    rows = (out / "energy_gap.csv").read_text().splitlines()
    assert rows[1].split(",")[1] == "inf"


def test_threshold_missing_config(tmp_path):
    assert main(["threshold", "--config", str(tmp_path / "nope.json")]) == 2


def test_threshold_theta_sweep(tmp_path):
    cfg = {
        "system": SW,
        "analysis": {
            "gap_grid": [0.1, 0.2],
            "theta_values": [0.25, 0.5, 0.75, 1.0],
            "bisect_tol": 1e-4,
        },
    }
    out = tmp_path / "sweep"
    rc = main(["threshold", "--config", _write(tmp_path, cfg), "--out", str(out), "--jobs", "2"])
    assert rc == 0
    reports = sorted(out.glob("threshold_report_theta_*.json"))
    assert len(reports) == 4
    bps = []
    for p in reports:
        rep = json.loads(p.read_text())
        assert rep["theta"] is not None
        bps.append(rep["thresholds"]["bp"])
    assert len(set(round(b, 8) for b in bps)) == 4  # distinct paths, distinct thresholds


def test_threshold_path_block(tmp_path):
    # a configured path gives the report of the theta cell with the same path
    tol = 1e-4

    def run(system, out, **extra):
        analysis = {"gap_grid": [0.1, 0.2], "bisect_tol": tol, **extra}
        cfg = {"system": system, "analysis": analysis}
        assert main(["threshold", "--config", _write(tmp_path, cfg, f"{out}.json"),
                     "--out", str(tmp_path / out)]) == 0
        return tmp_path / out

    def load(report):
        return json.loads(report.read_text())

    sweep = run(SW, "sweep", theta_values=[0.5, 1.0])
    cells = {theta: load(sweep / f"threshold_report_theta_{theta:g}.json") for theta in (0.5, 1)}
    for path, theta in (({"kind": "scaled", "theta": 0.5}, 0.5), ({"kind": "diagonal"}, 1)):
        rep = load(run({**SW, "path": path}, path["kind"]) / "threshold_report.json")
        assert rep["thresholds"] == cells[theta]["thresholds"]
        assert rep["energy_gap_curve"] == cells[theta]["energy_gap_curve"]
    table = {"kind": "table", "knots": [0.0, 1.0], "eps1": [0.0, 1.0], "eps2": [0.0, 0.5]}
    rep = load(run({**SW, "path": table}, "table") / "threshold_report.json")
    for name, value in rep["thresholds"].items():
        assert abs(value - cells[0.5]["thresholds"][name]) <= 2 * tol


def test_theta_sweep_rejected_for_non_sw(tmp_path):
    cfg = {"system": PROTO, "analysis": {"gap_grid": [0.4], "theta_values": [0.5]}}
    assert main(["threshold", "--config", _write(tmp_path, cfg)]) == 2


def test_coupled_command_profile_contract(tmp_path):
    L, w, d = 6, 3, 2
    cfg = {
        "system": PROTO,
        "analysis": {
            "L": L,
            "w": w,
            "eps_values": [0.47, 0.50],
            "record_every": 25,
            "width_bound": False,
        },
    }
    out = tmp_path / "o"
    rc = main(["coupled", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "coupled_report.json").read_text())
    runs = {r["eps"]: r for r in rep["runs"]}
    assert runs[0.47]["converged_to_zero"] is True
    assert runs[0.50]["converged_to_zero"] is False
    for eps in (0.47, 0.5):
        lines = (out / f"coupled_profile_eps_{eps:g}.csv").read_text().splitlines()
        assert lines[0] == "iteration,position,component,value"
        n_rows = len(lines) - 1
        assert n_rows == runs[eps]["snapshots_recorded"] * (2 * L + w) * d


def test_coupled_zero_window_is_config_error(tmp_path, capsys):
    # a zero window, or channel values outside (0, 1]
    for analysis in ({"L": 4, "w": 0, "eps_values": [0.4]},
                     {"L": 4, "w": 2, "eps_values": [1.5, -0.2], "width_bound": False},
                     {"L": 4, "w": 2, "eps_values": [0.0]}):
        cfg = {"system": PROTO, "analysis": analysis}
        assert main(["coupled", "--config", _write(tmp_path, cfg)]) == 2
        assert "config error" in capsys.readouterr().err


def test_coupled_threshold_mode(tmp_path):
    # threshold mode runs no chain at an eps of its own, so it needs no eps_values
    cfg = {
        "system": PROTO,
        "analysis": {
            "L": 8,
            "w": 2,
            "mode": "threshold",
            "bisect_tol": 1e-3,
            "max_iter": 30000,
            "width_bound": False,
        },
    }
    out = tmp_path / "o"
    rc = main(["coupled", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "coupled_report.json").read_text())
    assert 0.44 < rep["coupled_bp_threshold"] < 0.50
    assert rep["runs"] == [] and sorted(p.name for p in out.iterdir()) == ["coupled_report.json"]


@pytest.mark.parametrize("mode", [None, "limit", "both"])
def test_coupled_chains_need_eps_values(tmp_path, capsys, mode):
    analysis = {"L": 4, "w": 2, "width_bound": False}
    if mode is not None:
        analysis["mode"] = mode
    cfg = {"system": PROTO, "analysis": analysis}
    assert main(["coupled", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: analysis.eps_values is required unless analysis.mode is threshold\n")


def test_coupled_width_bound_reported(tmp_path):
    cfg = {
        "system": PROTO,
        "analysis": {"L": 4, "w": 2, "eps_values": [0.45, 0.50]},
    }
    out = tmp_path / "o"
    assert main(["coupled", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "coupled_report.json").read_text())
    runs = {r["eps"]: r for r in rep["runs"]}
    assert runs[0.45]["width_bound"] > 1000.0
    assert runs[0.50]["width_bound"] is None  # gap not positive above the threshold
    assert rep["hessian_bound"] == pytest.approx(351.0, rel=1e-3)


def test_coupled_budget_exhausted_exits_3(tmp_path):
    # below the BP threshold there is no fixed point, so any width suffices
    cfg = {"system": PROTO, "analysis": {"L": 4, "w": 2, "eps_values": [0.3], "max_iter": 3}}
    out = tmp_path / "o"
    assert main(["coupled", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    rep = json.loads((out / "coupled_report.json").read_text())
    assert rep["runs"][0]["converged"] is False
    assert rep["runs"][0]["iterations"] == 3
    assert rep["runs"][0]["width_bound"] == 0.0


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fails(*_, **__):
        raise ValueError("no bracket")

    monkeypatch.setattr(saturate.cli, "threshold_report", fails)
    cfg = {"system": PROTO, "analysis": {"gap_grid": [0.45]}}
    assert main(["threshold", "--config", _write(tmp_path, cfg)]) == 3
    assert "numerical failure: no bracket" in capsys.readouterr().err


def test_verify_command_passes(tmp_path):
    cfg = {"system": EMAC, "analysis": {"n_samples": 300, "seed": 5}}
    out = tmp_path / "o"
    rc = main(["verify", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["admissibility"]["ok"] is True
    info = rep["admissibility"]["informational"]
    assert [v["condition"] for v in info] == ["zero_parameter"]
    assert set(info[0]) == {"condition", "witness", "detail"}
    assert rep["battery"]["ok"] is True
    assert len(rep["battery"]["checks"]) > 20
    for c in rep["battery"]["checks"]:
        assert set(c) == {"name", "passed", "detail"}
        assert isinstance(c["passed"], bool)


def test_verify_corrupt_f_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(saturate.cli, "build_system",
                        lambda block: corrupt_bit_energy(build_system(block)))
    cfg = {"system": PROTO, "analysis": {"n_samples": 200}}
    rc = main(["verify", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "gradient_bit" in err
    violations = json.loads((tmp_path / "o" / "verify_report.json").read_text())[
        "admissibility"]["violations"]
    for v in violations:
        assert set(v) == {"condition", "witness", "detail"}
    grad = [v["witness"] for v in violations if v["condition"] == "gradient_bit"]
    assert grad
    for witness in grad:
        assert set(witness) == {"x", "eps", "fd", "expected"}


def test_verify_battery_failure_exits_4(tmp_path, capsys, monkeypatch):
    def failing_battery(sys, eps_values, L, w, seed):
        return BatteryReport(eps_values=(0.3, 0.45, 0.6),
                             thresholds={"bp": 0.4, "potential": 0.48},
                             checks=[CheckOutcome("compare_mins", True, "ok"),
                                     CheckOutcome("shift_energy@0.600", False, "forced")])

    monkeypatch.setattr(saturate.cli, "lemma_battery", failing_battery)
    cfg = {"system": PROTO, "analysis": {"n_samples": 50}}
    out = tmp_path / "o"
    assert main(["verify", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 4
    assert "FAIL lemma checks: shift_energy@0.600" in capsys.readouterr().err
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["admissibility"]["ok"] is True
    assert rep["battery"]["ok"] is False


def test_verify_zero_samples_is_config_error(tmp_path, capsys):
    # no samples, a channel value outside (0, 1], or the bit-energy mutation
    # probe as a config switch (it is reached through the library alone)
    for analysis in ({"n_samples": 0}, {"n_samples": 50, "eps_values": [0.3, 0.45, 1.7]},
                     {"n_samples": 50, "corrupt_f": True}):
        cfg = {"system": PROTO, "analysis": analysis}
        assert main(["verify", "--config", _write(tmp_path, cfg)]) == 2
        assert "config error" in capsys.readouterr().err


def test_outputs_deterministic(tmp_path):
    cases = [
        ("threshold", {"gap_grid": [0.45, 0.5], "bisect_tol": 1e-4, "seed": 9},
         ("threshold_report.json", "energy_gap.csv")),
        ("coupled", {"L": 4, "w": 2, "eps_values": [0.45, 0.5], "record_every": 5,
                     "width_bound": False, "seed": 9},
         ("coupled_report.json", "coupled_profile_eps_0.45.csv",
          "coupled_profile_eps_0.5.csv")),
    ]
    for command, analysis, files in cases:
        p = _write(tmp_path, {"system": PROTO, "analysis": analysis}, f"{command}.json")
        for jobs in (1, 4):
            assert main([command, "--config", p, "--jobs", str(jobs),
                         "--out", str(tmp_path / f"{command}_{jobs}")]) == 0
        for fname in files:
            a = (tmp_path / f"{command}_1" / fname).read_bytes()
            assert a == (tmp_path / f"{command}_4" / fname).read_bytes()


def test_csv_floats_roundtrip(tmp_path):
    cfg = {"system": PROTO, "analysis": {"gap_grid": [0.456789123456789], "bisect_tol": 1e-4}}
    out = tmp_path / "o"
    assert main(["threshold", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    line = (out / "energy_gap.csv").read_text().splitlines()[1]
    eps_text, gap_text = line.split(",")
    assert float(eps_text) == 0.456789123456789
    assert float(gap_text) == json.loads((out / "threshold_report.json").read_text())[
        "energy_gap_curve"][0][1]


def test_coupled_width_bounds_take_one_fixed_point_batch(tmp_path, monkeypatch):
    # the energy gaps of every eps come from one enumeration call
    calls = []
    batch = potential_module._fixed_points_batch
    monkeypatch.setattr(potential_module, "_fixed_points_batch",
                        lambda sys, eps, max_iter: calls.append(list(eps)) or batch(sys, eps, max_iter))
    cfg = {"system": PROTO, "analysis": {"L": 4, "w": 2, "eps_values": [0.45, 0.50]}}
    assert main(["coupled", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    assert calls == [[0.45, 0.50]]


SATBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "satbench" / "configs"


@pytest.mark.parametrize("name, command, analysis", [
    ("single-system-threshold.json", "threshold", {"bisect_tol": 1e-5}),
    ("single-system-verify.json", "verify", {}),
    ("coupled-chain-36.json", "coupled", {}),
    ("coupled-chain-emac.json", "coupled", {}),
])
def test_benchmark_configs_load_as_the_benchmark_drives_them(tmp_path, name, command, analysis):
    # the benchmark sets analysis.seed in every config and passes --jobs 1;
    # both stay accepted until the benchmark stops using them
    cfg = json.loads((SATBENCH_CONFIGS / name).read_text())
    cfg["analysis"].update(analysis, seed=7)
    path = _write(tmp_path, cfg, name)
    assert load_config(path, command)["analysis"]["seed"] == 7
    args = _parser().parse_args([command, "--config", path, "--out", str(tmp_path), "--jobs", "1"])
    assert (args.command, args.jobs) == (command, 1)


def test_degree_cap_names_the_degree_the_config_wrote():
    # a node polynomial has one degree more than its edge polynomial
    assert build_system({**EMAC, "rho1": {str(MAX_DEGREE): 1.0}}).d == 2
    too_high = MAX_DEGREE + 1
    with pytest.raises(ConfigError, match=f"degree {too_high} exceeds maximum {MAX_DEGREE}$"):
        build_system({**EMAC, "rho1": {str(too_high): 1.0}})


@pytest.mark.parametrize("command, system, analysis, message", [
    ("coupled", PROTO, {"L": 4, "w": 2, "eps_values": [0.45, 0.4500001]},
     "analysis.eps_values entries 0.45 and 0.4500001 both write coupled_profile_eps_0.45.csv"),
    ("coupled", PROTO, {"L": 4, "w": 2, "eps_values": [0.5, 0.45, 0.45]},
     "analysis.eps_values entries 0.45 and 0.45 both write coupled_profile_eps_0.45.csv"),
    ("coupled", PROTO, {"L": 4, "w": 2, "eps_values": [0.48812151, 0.48812152], "mode": "both"},
     "analysis.eps_values entries 0.48812151 and 0.48812152 both write "
     "coupled_profile_eps_0.488122.csv"),
    ("threshold", SW, {"gap_grid": [0.3], "theta_values": [0.5, 0.5000001]},
     "analysis.theta_values entries 0.5 and 0.5000001 both write threshold_report_theta_0.5.json"),
    ("threshold", SW, {"gap_grid": [0.3], "theta_values": [1.0, 0.25, 1.0]},
     "analysis.theta_values entries 1.0 and 1.0 both write threshold_report_theta_1.json"),
], ids=["coupled_near", "coupled_duplicate", "coupled_threshold", "theta_near", "theta_duplicate"])
def test_colliding_output_names_are_refused(tmp_path, capsys, monkeypatch, command, system,
                                            analysis, message):
    # two values that would write one file are refused before any work
    def no_work(block):
        raise AssertionError("a system was built before the output names were checked")

    monkeypatch.setattr(saturate.cli, "build_system", no_work)
    out = tmp_path / "o"
    cfg = {"system": system, "analysis": analysis}
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("call, match", [
    (lambda tmp_path: load_config(tmp_path / "bad.json", "plot"), "unknown command 'plot'"),
    (lambda tmp_path: load_config(tmp_path / "bad.json", "threshold"), "is not valid JSON"),
    (lambda tmp_path: build_system({"type": "ldpc"}), "unknown system type 'ldpc'"),
], ids=["schema_command", "not_json", "system_type"])
def test_config_inputs_are_checked(tmp_path, call, match):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ConfigError, match=match):
        call(tmp_path)


BEYOND_DOUBLE = 10 ** 400  # an integer literal that no double holds


@pytest.mark.parametrize("command, system, analysis, message", [
    ("coupled", PROTO, {"L": 4.0, "w": 2, "eps_values": [0.45]}, "analysis.L must be an integer >= 0"),
    ("coupled", PROTO, {"L": 4, "w": 2.0, "eps_values": [0.45]}, "analysis.w must be an integer >= 1"),
    ("verify", PROTO, {"n_samples": 10.0}, "analysis.n_samples must be an integer >= 1"),
    ("threshold", {**PROTO, "matrix": [[3.0, 3]]}, {"gap_grid": [0.45]},
     "system.matrix[0][0] must be an integer"),
    ("threshold", PROTO, {"gap_grid": [0.45], "bisect_tol": math.nan},
     "analysis.bisect_tol must be a finite number > 0"),
    ("threshold", PROTO, {"gap_grid": [math.nan]}, "analysis.gap_grid[0] must be a number in (0, 1]"),
    ("coupled", PROTO, {"L": 4, "w": 2, "eps_values": [math.nan]},
     "analysis.eps_values[0] must be a number in (0, 1]"),
    ("threshold", PROTO, {"gap_grid": [0.45], "bisect_tol": BEYOND_DOUBLE},
     "analysis.bisect_tol must be a finite number > 0"),
    ("threshold", {**PROTO, "node_scale": [BEYOND_DOUBLE, 1.0]}, {"gap_grid": [0.45]},
     "system.node_scale[0] must be a finite number"),
    ("threshold", {**PROTO, "matrix": [[BEYOND_DOUBLE, 3]]}, {"gap_grid": [0.45]},
     "invalid system block: "),
    ("verify", PROTO, {"n_samples": 10, "seed": -1}, "analysis.seed must be an integer >= 0"),
    ("threshold", {"type": "protograph"}, {"gap_grid": [0.45]}, "system.matrix is required"),
    ("threshold", PROTO, [1], "analysis must be an object"),
    ("threshold", {"type": "ldpc"}, {"gap_grid": [0.45]},
     "system must be an object whose type is one of protograph, slepian_wolf, emac"),
    ("threshold", {**EMAC, "lambda1": [2]}, {"gap_grid": [0.45]},
     "system.lambda1 must be an object"),
    ("threshold", {**EMAC, "lambda1": {"x": 1.0}}, {"gap_grid": [0.45]},
     "system.lambda1.x is not a degree"),
], ids=["L_float", "w_float", "n_samples_float", "matrix_float", "bisect_tol_nan", "gap_grid_nan",
        "eps_values_nan", "bisect_tol_huge", "node_scale_huge", "matrix_huge", "seed_negative",
        "matrix_missing", "analysis_list", "system_type_unknown", "degrees_list",
        "degree_not_a_number"])
def test_non_integers_and_non_finite_numbers_exit_2(tmp_path, capsys, command, system, analysis,
                                                   message):
    # an integral float is not an integer, and NaN, Infinity and integers
    # beyond the double range are not finite numbers; a negative verify seed,
    # a missing key and a block of the wrong shape are refused alike; nothing
    # is written
    out = tmp_path / "o"
    cfg = {"system": system, "analysis": analysis}
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not list(out.glob("*"))


SW_UNEQUAL_RATES = {**SW, "lambda2": {"3": 1.0}, "rho2": {"6": 1.0}}


@pytest.mark.parametrize("setup, cfg, err", [
    (lambda tmp_path: (tmp_path / "file").write_text("x") and str(tmp_path / "file" / "o"),
     {"system": PROTO, "analysis": {"gap_grid": [0.4]}},
     "config error: cannot create output dir"),
    (lambda tmp_path: str(tmp_path / "o"),
     {"system": SW_UNEQUAL_RATES, "analysis": {"gap_grid": [0.4]}},
     "config error: invalid system block: users must share a design rate"),
    (lambda tmp_path: str(tmp_path / "o"),
     {"system": {**SW, "path": {"kind": "scaled", "theta": 2.0}},
      "analysis": {"gap_grid": [0.4], "theta_values": [0.5]}},
     "config error: invalid system block: theta must lie in [0, 1]"),
], ids=["out_under_a_file", "config_error_in_command", "path_the_theta_cells_replace"])
def test_main_config_errors_exit_2(tmp_path, capsys, setup, cfg, err):
    out = setup(tmp_path)
    assert main(["threshold", "--config", _write(tmp_path, cfg), "--out", out]) == 2
    assert capsys.readouterr().err.startswith(err)
