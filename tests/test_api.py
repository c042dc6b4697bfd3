"""The public signatures: fixed tolerances are module constants, not keywords."""

import dataclasses
import importlib
import inspect

import pytest

import saturate as st
from saturate.system import DEFAULT_MAX_ITER

# the package re-exports the function potential() under the submodule's name
potential = importlib.import_module("saturate.potential")

# keyword parameters that no caller set; their values are now module constants
REMOVED = {
    st.fixed_points: {"tol", "cluster_radius", "grid", "max_seeds", "iter_tol"},
    st.bp_threshold: {"zero_tol", "iter_tol"},
    st.epsilon_of_x: {"tol"},
    st.trace_fixed_point_curve: {"tol"},
    st.potential_quadrature: {"n_nodes"},
    st.coupled_limit: {"zero_tol"},
    st.coupled_bp_threshold: {"zero_tol", "iter_tol"},
    st.hessian_bound: {"n_samples", "per_axis", "fd_step"},
    st.verify_admissible: {"fd_step", "grad_rel_tol"},
    st.CoupledState.tied: {"slack"},
    potential._newton_batch: {"res_tol", "max_iter", "fd_h"},
    potential._newton_pinned: {"res_tol", "fd_h"},
    potential._branch_points: {"tol"},
    potential._make_record: {"tol"},
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
