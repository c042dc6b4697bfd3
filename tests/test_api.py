"""The public signatures: fixed tolerances are module constants, not keywords."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saturate as st
import saturate.config
import saturate.system
import saturate.verify
from saturate.system import DEFAULT_MAX_ITER

# the package re-exports the function potential() under the submodule's name
potential = importlib.import_module("saturate.potential")

# keyword parameters that no caller set; their values are now module constants
REMOVED = {
    st.fixed_points: {"tol", "cluster_radius", "grid", "max_seeds", "iter_tol", "max_iter"},
    st.energy_gap: {"max_iter"},
    st.bp_threshold: {"zero_tol", "iter_tol"},
    st.maxwell_threshold: {"tol", "max_iter"},
    st.potential_quadrature: {"n_nodes"},
    saturate.system.iterate_batch: {"tol"},
    st.coupled_limit: {"zero_tol"},
    st.coupled_bp_threshold: {"zero_tol", "iter_tol"},
    st.hessian_bound: {"n_samples", "per_axis", "fd_step"},
    st.verify_admissible: {"fd_step", "grad_rel_tol"},
    potential._newton_batch: {"res_tol", "max_iter", "fd_h"},
    potential._newton_pinned: {"res_tol", "fd_h"},
    potential._branch_points: {"tol"},
    potential._records: {"tol"},
    potential._fixed_points_batch: {"max_iter"},
    potential._energy_gaps: {"max_iter"},
    potential._confirm_maxwell: {"max_iter"},
    st.EdgePolynomial: {"max_degree"},
    saturate.config.build_system: {"theta"},
}

PUBLIC_FUNCTIONS = [getattr(st, name) for name in st.__all__
                    if inspect.isfunction(getattr(st, name))]

ROOT = Path(__file__).resolve().parents[1]
PROTO = {"type": "protograph", "matrix": [[3, 3]]}


def _refusal(tmp_path, command: str, cfg: dict) -> str:
    """The message with which load_config refuses cfg."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(saturate.config.ConfigError) as refused:
        saturate.config.load_config(path, command)
    return str(refused.value)


@pytest.mark.parametrize("fn", PUBLIC_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_no_public_function_takes_open_keywords(fn):
    kinds = [p.kind for p in inspect.signature(fn).parameters.values()]
    assert inspect.Parameter.VAR_KEYWORD not in kinds


@pytest.mark.parametrize("fn", list(REMOVED), ids=lambda fn: fn.__qualname__)
def test_removed_knobs_are_gone(fn):
    assert not REMOVED[fn] & set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("fn", [st.potential_threshold], ids=lambda fn: fn.__name__)
def test_max_iter_is_named(fn):
    # unused since the enumeration stopped iterating, and kept for callers
    param = inspect.signature(fn).parameters["max_iter"]
    assert param.default == DEFAULT_MAX_ITER


def test_fixed_point_record_has_no_q_value():
    assert "q_value" not in {f.name for f in dataclasses.fields(st.FixedPointRecord)}


def test_fixed_point_record_has_no_gradient_norm():
    assert "gradient_norm" not in {f.name for f in dataclasses.fields(st.FixedPointRecord)}


def test_second_copies_are_gone(tmp_path):
    # ScaledPath(theta=1.0) is the diagonal path; degree polynomials are
    # plain coefficient arrays; coupled_step steps the basic and the
    # one-sided chain; the CLI writes reports with dataclasses.asdict;
    # --out alone sets the output directory
    assert not hasattr(st, "DiagonalPath")
    edge = st.EdgePolynomial.regular(3)
    node, _ = st.node_from_edge(edge)
    assert not callable(edge) and not hasattr(edge, "deriv")
    assert type(node) is np.ndarray
    for owner, name in ((st, "NodePolynomial"), (st.degdist, "NodePolynomial"),
                        (st, "one_sided_step"), (st.coupled, "one_sided_step"),
                        (st.CoupledState, "tied")):
        assert not hasattr(owner, name), name
    assert not hasattr(st.AdmissibilityReport, "summary")
    assert not hasattr(saturate.verify.BatteryReport, "summary")
    for command, analysis in (("threshold", {"gap_grid": [0.4]}),
                              ("coupled", {"L": 4, "w": 2, "eps_values": [0.4]}),
                              ("verify", {"n_samples": 5})):
        cfg = {"system": PROTO, "analysis": analysis, "output": {"dir": "o"}}
        assert _refusal(tmp_path, command, cfg) == "output is not a known key"


README = ROOT / "README.md"


def _defined_constants() -> dict:
    """module.NAME -> value of every public upper-case constant a module assigns itself."""
    found = {}
    for name in ("potential", "system", "coupled", "degdist"):
        module = importlib.import_module(f"saturate.{name}")
        for node in ast.parse(inspect.getsource(module)).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    found[f"{name}.{target.id}"] = float(getattr(module, target.id))
    return found


def _readme_constants() -> dict:
    """module.NAME -> value of every row of the README "Tolerances" table."""
    section = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        names_cell, values_cell = line.split("|")[1:3]
        names = re.findall(r"`([^`]+)`", names_cell)
        values = values_cell.split(",")
        assert len(names) == len(values), line
        module = names[0].split(".")[0]  # later names of a row share the first one's module
        for name, value in zip(names, values):
            listed[name if "." in name else f"{module}.{name}"] = float(value)
    return listed


def test_readme_tolerance_table_lists_every_constant():
    assert _readme_constants() == _defined_constants()


def test_verify_surface_is_gone(tmp_path):
    # the verify reports are written whole from their dataclasses, and the
    # bit-energy mutation probe is reached through the library alone
    cfg = {"system": PROTO, "analysis": {"n_samples": 5, "corrupt_f": True}}
    assert _refusal(tmp_path, "verify", cfg) == "analysis.corrupt_f is not a known key"
    assert not {"system", "n_samples", "seed"} & {
        f.name for f in dataclasses.fields(st.AdmissibilityReport)}
    assert "system" not in {f.name for f in dataclasses.fields(saturate.verify.BatteryReport)}
    assert not hasattr(saturate.config, "_edge_poly")


def test_unread_analysis_helpers_are_gone():
    # no command, report or check read them; maxwell_threshold walks the
    # fixed-point branches through _branch_points itself
    for name in ("epsilon_of_x", "fixed_point_potential", "trace_fixed_point_curve"):
        assert not hasattr(st, name) and not hasattr(potential, name)
    assert "monotone_direction" not in {f.name for f in dataclasses.fields(st.IterationResult)}


SOURCES = [p for p in sorted((ROOT / "src" / "saturate").glob("*.py")) if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("source", SOURCES + TESTS,
                         ids=lambda p: p.name if p in SOURCES else f"tests/{p.name}")
def test_every_import_is_used(source):
    tree = ast.parse(source.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"unused imports: {sorted(imported - used)}"


def test_the_cli_imports_no_jsonschema():
    # load_config checks configs with its own table; numpy is the only
    # runtime dependency, and node_from_edge integrates without
    # numpy.polynomial (verify loads it only for the quadrature nodes)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, saturate.cli; "
            "print('jsonschema' in sys.modules, 'numpy.polynomial' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout == "False False\n"
