import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import saturate.cli
from jsonschema.validators import validator_for
from saturate.cli import _parser, main
from saturate.config import ConfigError, build_system, load_config, schema_for
from saturate.coupled import CheckOutcome
from saturate.degdist import MAX_DEGREE
from saturate.verify import BatteryReport

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
    cfg = {
        "system": PROTO,
        "analysis": {
            "L": 8,
            "w": 2,
            "eps_values": [0.45],
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


def test_verify_corrupt_f_exits_4(tmp_path, capsys):
    cfg = {"system": PROTO, "analysis": {"n_samples": 200, "corrupt_f": True}}
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
        return BatteryReport(system=sys.name, eps_values=(0.3, 0.45, 0.6),
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
    # no samples, or a channel value outside (0, 1]
    for analysis in ({"n_samples": 0}, {"n_samples": 50, "eps_values": [0.3, 0.45, 1.7]}):
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


@pytest.mark.parametrize("command", ["threshold", "coupled", "verify"])
def test_command_schemas_are_valid_schemas(command):
    # load_config validates against these without re-checking them
    schema = schema_for(command)
    validator_for(schema).check_schema(schema)


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
