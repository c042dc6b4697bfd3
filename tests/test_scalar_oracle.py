"""Self-consistency of the reference oracle (it anchors the acceptance suite)."""

import pytest

import scalar_oracle as oracle


def test_frozen_reference_values():
    assert oracle.bp_threshold(oracle.LAM_36, oracle.RHO_36) == pytest.approx(
        0.4294398, abs=2e-6
    )
    assert oracle.potential_threshold(oracle.LAM_36, oracle.RHO_36) == pytest.approx(
        0.4881508, abs=2e-6
    )
    # the minimum of x / (1 - (1 - x)^5)^2, 0.42943981441949183716 to 20 digits
    assert oracle.bp_fold(oracle.LAM_36, oracle.RHO_36) == pytest.approx(
        0.42943981441949184, abs=2e-16
    )


def test_de_limit_agrees_with_fixed_point_scan():
    lim, _ = oracle.de_limit(0.45, oracle.LAM_36, oracle.RHO_36)
    roots = oracle.nontrivial_fixed_points(0.45, oracle.LAM_36, oracle.RHO_36)
    assert len(roots) == 2
    assert lim == pytest.approx(max(roots), abs=1e-9)


def test_no_fixed_points_below_threshold():
    assert oracle.nontrivial_fixed_points(0.42, oracle.LAM_36, oracle.RHO_36) == []
    lim, _ = oracle.de_limit(0.42, oracle.LAM_36, oracle.RHO_36)
    assert lim < 1e-9


def test_potential_signs_bracket_threshold():
    assert oracle.min_fixed_point_potential(0.47, oracle.LAM_36, oracle.RHO_36) > 0
    assert oracle.min_fixed_point_potential(0.50, oracle.LAM_36, oracle.RHO_36) < 0


def test_potential_quadrature_converged():
    # doubling the Simpson resolution moves the value below the comparison slack
    a = oracle.scalar_potential(0.37, 0.46, oracle.LAM_36, oracle.RHO_36, n=2048)
    b = oracle.scalar_potential(0.37, 0.46, oracle.LAM_36, oracle.RHO_36, n=4096)
    assert abs(a - b) < 1e-12
