"""Acceptance suite: every criterion at its stated tolerance.

One PASS/FAIL line per criterion is always printed (bypassing capture), so
`pytest tests/test_acceptance.py` shows the verdicts directly.
"""

import math
import sys as _sys
import time

import numpy as np

import saturate as st
from saturate.potential import potential_gradient
from saturate.verify import lemma_battery

import scalar_oracle as oracle


def _announce(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{tag}] {name}{extra}", file=_sys.__stdout__, flush=True)


def test_criterion_1_scalar_oracle_equivalence(sys36):
    t0 = time.perf_counter()
    ref_bp = oracle.bp_threshold(oracle.LAM_36, oracle.RHO_36, tol=1e-5)
    ref_pot = oracle.potential_threshold(oracle.LAM_36, oracle.RHO_36, tol=1e-5)
    got_bp = st.bp_threshold(sys36, tol=1e-5)
    got_pot = st.potential_threshold(sys36, tol=1e-5)
    dt = time.perf_counter() - t0
    ok = (
        abs(ref_bp - 0.42944) <= 1e-3
        and abs(ref_pot - 0.48815) <= 1e-3
        and abs(got_bp - ref_bp) <= 1e-3
        and abs(got_pot - ref_pot) <= 1e-3
        and dt < 10.0
    )
    _announce(1, "scalar oracle equivalence", ok,
              f"bp {got_bp:.5f} vs {ref_bp:.5f}, potential {got_pot:.5f} vs "
              f"{ref_pot:.5f}, {dt:.1f}s")
    assert abs(ref_bp - 0.42944) <= 1e-3
    assert abs(ref_pot - 0.48815) <= 1e-3
    assert abs(got_bp - ref_bp) <= 1e-3
    assert abs(got_pot - ref_pot) <= 1e-3
    assert dt < 10.0


def test_criterion_2_gradient_consistency(all_systems):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0
    for sys in all_systems:
        X = rng.random((200, sys.d)) * (1 - 4 * h) + 2 * h
        eps = 0.55
        eye = np.eye(sys.d) * h

        def rel_err(fd, target):
            return float(np.max(np.abs(fd - target) / np.maximum(np.abs(target), 1e-2)))

        fd_f = (np.atleast_1d(sys.bit_energy(X[:, None, :] + eye, eps))
                - np.atleast_1d(sys.bit_energy(X[:, None, :] - eye, eps))) / (2 * h)
        worst = max(worst, rel_err(fd_f, sys.bit_update(X, eps) * sys.weights))
        fd_g = (np.atleast_1d(sys.check_energy(X[:, None, :] + eye))
                - np.atleast_1d(sys.check_energy(X[:, None, :] - eye))) / (2 * h)
        worst = max(worst, rel_err(fd_g, sys.check_update(X) * sys.weights))
        fd_u = (st.potential(sys, X[:, None, :] + eye, eps)
                - st.potential(sys, X[:, None, :] - eye, eps)) / (2 * h)
        worst = max(worst, rel_err(fd_u, potential_gradient(sys, X, eps)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 30.0
    _announce(2, "gradient consistency", ok, f"worst rel err {worst:.2e}, {dt:.1f}s")
    assert worst <= 1e-5
    assert dt < 30.0


def test_criterion_3_threshold_saturation(sys36, thresholds36):
    t0 = time.perf_counter()
    spec = st.CouplingSpec(L=16, w=3)
    _, rep47 = st.coupled_limit(sys36, spec, 0.47)
    state50, rep50 = st.coupled_limit(sys36, spec, 0.50)
    tol = 2e-4
    cbp = st.coupled_bp_threshold(sys36, L=32, w=3, tol=tol)
    bp, pot = thresholds36["bp"], thresholds36["potential"]
    dt = time.perf_counter() - t0
    ok = (
        rep47.is_zero
        and not rep50.is_zero
        and cbp - bp > 0.04
        and pot - cbp <= 5e-3
        and cbp <= pot + 2 * tol
        and dt < 120.0
    )
    _announce(3, "threshold saturation demo", ok,
              f"zero@0.47 {rep47.is_zero}, plateau@0.50 {state50.max_entry():.3f}, "
              f"coupled bp {cbp:.5f} vs bp {bp:.5f} / potential {pot:.5f}, {dt:.1f}s")
    assert rep47.is_zero
    assert not rep50.is_zero
    assert cbp - bp > 0.04
    assert pot - cbp <= 5e-3
    assert cbp <= pot + 2 * tol
    assert dt < 120.0


def test_criterion_4_theorem1_end_to_end(sys36):
    t0 = time.perf_counter()
    w0 = st.min_coupling_width(sys36, 0.45)
    assert math.isfinite(w0) and w0 > 0
    w = math.ceil(w0) + 1
    L = 4 * w
    positions = L * w
    if positions <= 10**4:
        spec = st.CouplingSpec(L=L, w=w)
        state, rep = st.coupled_limit(sys36, spec, 0.45)
        dt = time.perf_counter() - t0
        ok = rep.is_zero and dt < 300.0
        _announce(4, "theorem-1 width bound end to end", ok,
                  f"w0 {w0:.1f}, ran L={L} w={w}: zero={rep.is_zero}, {dt:.1f}s")
        assert rep.is_zero
    else:
        # the sufficient width is loose; the desk-scale cap is exceeded and
        # reported, which the criterion anticipates
        dt = time.perf_counter() - t0
        ok = dt < 300.0
        _announce(4, "theorem-1 width bound end to end", ok,
                  f"w0 {w0:.1f} finite; L*w = {positions} exceeds the 1e4-position "
                  f"cap, reported without running, {dt:.1f}s")
    assert dt < 300.0


def test_criterion_5_lemma_battery(all_systems, thresholds36):
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for sys in all_systems:
        pre = thresholds36 if sys.name.startswith("protograph") else None
        rep = lemma_battery(sys, L=16, w=3, seed=0, thresholds=pre)
        all_ok &= rep.ok
        details.append(f"{sys.name}: {'ok' if rep.ok else 'FAIL'}")
        for c in rep.failed():
            details.append(f"{c.name}: {c.detail}")
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 120.0
    _announce(5, "lemma battery on all systems", ok, "; ".join(details) + f", {dt:.1f}s")
    assert all_ok, details
    assert dt < 120.0


def test_criterion_6_threshold_equality(emac36, sw_half):
    tol = 1e-6
    for num, sys in (("6a", emac36), ("6b", sw_half)):
        t0 = time.perf_counter()
        pot = st.potential_threshold(sys, tol=tol)
        mx = st.maxwell_threshold(sys)
        dt = time.perf_counter() - t0
        ok = abs(pot - mx) <= 2 * tol and dt < 60.0
        _announce(num, f"maxwell equals potential threshold ({sys.name})", ok,
                  f"potential {pot:.6f}, maxwell {mx:.6f}, {dt:.1f}s")
        assert abs(pot - mx) <= 2 * tol
        assert dt < 60.0


def test_criterion_7_decoupling_consistency(sw_free):
    res = st.iterate_limit(sw_free, sw_free.ones(), 0.43, max_iter=1000, tol=0.0,
                           keep_path=True)
    ref = oracle.de_trajectory(0.43, oracle.LAM_36, oracle.RHO_36, n_iter=1000)
    path = res.path[1:]
    n = path.shape[0]
    worst = 0.0
    for comp in range(2):
        worst = max(worst, float(np.max(np.abs(path[:, comp] - ref[:n]))))
        if n < 1000:
            worst = max(worst, float(np.max(np.abs(ref[n:] - path[-1, comp]))))
    ok = worst < 1e-12
    _announce(7, "gamma=0 reproduces the scalar trajectory", ok,
              f"worst deviation {worst:.2e} over 1000 iterations")
    assert worst < 1e-12
