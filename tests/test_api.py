"""The public signatures: fixed tolerances are module constants, not keywords."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import saturate as st
import saturate.config
import saturate.verify
from saturate.system import DEFAULT_MAX_ITER

# the package re-exports the function potential() under the submodule's name
potential = importlib.import_module("saturate.potential")

# keyword parameters that no caller set; their values are now module constants
REMOVED = {
    st.fixed_points: {"tol", "cluster_radius", "grid", "max_seeds", "iter_tol"},
    st.bp_threshold: {"zero_tol", "iter_tol"},
    st.potential_quadrature: {"n_nodes"},
    st.coupled_limit: {"zero_tol"},
    st.coupled_bp_threshold: {"zero_tol", "iter_tol"},
    st.hessian_bound: {"n_samples", "per_axis", "fd_step"},
    st.verify_admissible: {"fd_step", "grad_rel_tol"},
    st.CoupledState.tied: {"slack"},
    potential._newton_batch: {"res_tol", "max_iter", "fd_h"},
    potential._newton_pinned: {"res_tol", "fd_h"},
    potential._branch_points: {"tol"},
    potential._records: {"tol"},
    st.EdgePolynomial: {"max_degree"},
    st.NodePolynomial: {"max_degree"},
    saturate.config.build_system: {"theta"},
}

PUBLIC_FUNCTIONS = [getattr(st, name) for name in st.__all__
                    if inspect.isfunction(getattr(st, name))]


@pytest.mark.parametrize("fn", PUBLIC_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_no_public_function_takes_open_keywords(fn):
    kinds = [p.kind for p in inspect.signature(fn).parameters.values()]
    assert inspect.Parameter.VAR_KEYWORD not in kinds


@pytest.mark.parametrize("fn", list(REMOVED), ids=lambda fn: fn.__qualname__)
def test_removed_knobs_are_gone(fn):
    assert not REMOVED[fn] & set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("fn", [st.energy_gap, st.potential_threshold, st.maxwell_threshold],
                         ids=lambda fn: fn.__name__)
def test_max_iter_is_named(fn):
    param = inspect.signature(fn).parameters["max_iter"]
    assert param.default == DEFAULT_MAX_ITER


def test_fixed_point_record_has_no_q_value():
    assert "q_value" not in {f.name for f in dataclasses.fields(st.FixedPointRecord)}


def test_fixed_point_record_has_no_gradient_norm():
    assert "gradient_norm" not in {f.name for f in dataclasses.fields(st.FixedPointRecord)}


def test_second_copies_are_gone():
    # ScaledPath(theta=1.0) is the diagonal path; degree polynomials are
    # evaluated from .coeffs; the CLI writes reports with dataclasses.asdict;
    # --out alone sets the output directory
    assert not hasattr(st, "DiagonalPath")
    edge = st.EdgePolynomial.regular(3)
    node, _ = st.node_from_edge(edge)
    assert not callable(edge) and not callable(node)
    assert not hasattr(edge, "deriv") and not hasattr(node, "deriv")
    assert not hasattr(node, "deriv_at_one")
    assert not hasattr(st.AdmissibilityReport, "summary")
    assert not hasattr(saturate.verify.BatteryReport, "summary")
    for command in ("threshold", "coupled", "verify"):
        assert "output" not in saturate.config.schema_for(command)["properties"]


README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_verify_surface_is_gone():
    # the verify reports are written whole from their dataclasses, and the
    # bit-energy mutation probe is reached through the library alone
    assert "corrupt_f" not in saturate.config.schema_for("verify")["properties"]["analysis"][
        "properties"]
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


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "saturate").glob("*.py"))


@pytest.mark.parametrize("source", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
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
