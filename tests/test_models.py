import dataclasses

import numpy as np
import pytest

import saturate as st
from saturate.system import _step_raw

from scalar_oracle import LAM_36, RHO_36, de_trajectory, scalar_potential


def test_protograph_hand_expansion(sys36):
    # H = [3 3]: two edges in one row, different columns
    rng = np.random.default_rng(0)
    for x in rng.random((20, 2)):
        g = sys36.check_update(x)
        assert g[0] == pytest.approx(1 - (1 - x[0]) ** 2 * (1 - x[1]) ** 3, abs=1e-14)
        assert g[1] == pytest.approx(1 - (1 - x[0]) ** 3 * (1 - x[1]) ** 2, abs=1e-14)
        f = sys36.bit_update(x, 0.37)
        assert f[0] == pytest.approx(0.37 * x[0] ** 2, abs=1e-14)
        assert f[1] == pytest.approx(0.37 * x[1] ** 2, abs=1e-14)


def test_protograph_all_ones_check(sys36):
    assert np.allclose(sys36.check_update(np.ones(2)), 1.0, atol=1e-15)


def test_protograph_weights_and_dimension(sys36):
    assert sys36.d == 2
    assert np.allclose(sys36.weights, [3.0, 3.0])


def test_protograph_diagonal_matches_scalar_potential(sys36):
    # restricted to the diagonal the potential is the scalar one, scaled by
    # the weight (3) times the two components
    for x, eps in [(0.3, 0.45), (0.5, 0.6), (0.8, 0.9)]:
        u = float(st.potential(sys36, np.array([x, x]), eps))
        assert u == pytest.approx(6.0 * scalar_potential(x, eps, LAM_36, RHO_36), abs=1e-8)


def test_protograph_rejects_bad_matrices():
    with pytest.raises(ValueError):
        st.ProtographSpec(H=np.array([[3, 0], [0, 0]]))  # empty row
    with pytest.raises(ValueError):
        st.ProtographSpec(H=np.array([[0, 3], [0, 2]]))  # empty column
    with pytest.raises(ValueError):
        st.ProtographSpec(H=np.array([[-1, 3]]))


def test_protograph_punctured_column_flag():
    spec = st.ProtographSpec(H=np.array([[3, 3]]), punctured_columns=frozenset({1}))
    sys = st.make_protograph(spec)
    assert not sys.zero_param_exact
    # the punctured column sees a fully erased channel at every eps
    f = sys.bit_update(np.array([0.5, 0.5]), 0.0)
    assert f[1] == pytest.approx(0.25, abs=1e-14)
    assert f[0] == 0.0


def test_protograph_node_scale():
    spec = st.ProtographSpec(H=np.array([[3, 3]]), node_scale=[1.0, 0.5])
    sys = st.make_protograph(spec)
    f = sys.bit_update(np.array([0.6, 0.6]), 0.8)
    assert f[0] == pytest.approx(0.8 * 0.36, abs=1e-14)
    assert f[1] == pytest.approx(0.4 * 0.36, abs=1e-14)


def test_multi_row_protograph_admissible():
    spec = st.ProtographSpec(H=np.array([[2, 1, 1], [1, 2, 1]]))
    sys = st.make_protograph(spec)
    assert sys.d == 6
    rep = st.verify_admissible(sys, n_samples=300, seed=4)
    assert rep.ok, rep.violations


def test_slepian_wolf_gamma0_reduces_to_plain_bec(sw_free):
    # psi collapses to the bare channel parameter
    rng = np.random.default_rng(2)
    for y in rng.random((10, 2)):
        f = sw_free.bit_update(y, 0.44)
        assert f[0] == pytest.approx(0.44 * y[0] ** 2, abs=1e-15)
        assert f[1] == pytest.approx(0.44 * y[1] ** 2, abs=1e-15)


def test_slepian_wolf_gamma0_trajectory_lockstep(sw_free):
    # component trajectories reproduce the scalar recursion exactly; once the
    # loop lands on the exact fixed point the iterate is constant
    res = st.iterate_limit(sw_free, sw_free.ones(), 0.43, max_iter=1000, tol=0.0,
                           keep_path=True)
    ref = de_trajectory(0.43, LAM_36, RHO_36, n_iter=1000)
    path = res.path[1:]  # drop the initial state
    n = path.shape[0]
    for comp in (0, 1):
        assert np.max(np.abs(path[:, comp] - ref[:n])) < 1e-12
        if n < 1000:
            assert np.max(np.abs(ref[n:] - path[-1, comp])) < 1e-12


def test_slepian_wolf_p0_cross_term_vanishes(lam36, rho36):
    # p=0, gamma>0: the channel factor is constant in the state, so the
    # bit-side energy separates across users
    sys = st.make_slepian_wolf(
        st.SlepianWolfParams(lam36, rho36, lam36, rho36, gamma=0.4, p=0.0)
    )
    rng = np.random.default_rng(3)
    for x in rng.random((10, 2)):
        joint = float(sys.bit_energy(x, 0.6))
        sep = float(
            sys.bit_energy(np.array([x[0], 0.0]), 0.6)
            + sys.bit_energy(np.array([0.0, x[1]]), 0.6)
        )
        assert joint == pytest.approx(sep, abs=1e-14)


def test_slepian_wolf_rejects_mismatched_rates(lam36, rho36):
    rho9 = st.EdgePolynomial.regular(9)
    with pytest.raises(ValueError, match="design rate"):
        st.SlepianWolfParams(lam36, rho36, lam36, rho9, gamma=0.3, p=0.5)


def test_slepian_wolf_rejects_bad_paths():
    with pytest.raises(ValueError):
        st.ScaledPath(theta=1.5)
    with pytest.raises(ValueError, match="start"):
        st.TablePath(knots=[0, 1], eps1=[0.1, 1], eps2=[0, 1])
    with pytest.raises(ValueError, match="non-decreasing"):
        st.TablePath(knots=[0, 0.5, 1], eps1=[0, 0.6, 0.4], eps2=[0, 0.5, 1])


def test_slepian_wolf_table_path_runs_generic_lane(lam36, rho36):
    path = st.TablePath(knots=[0.0, 0.5, 1.0], eps1=[0.0, 0.4, 1.0], eps2=[0.0, 0.6, 1.0])
    sys = st.make_slepian_wolf(
        st.SlepianWolfParams(lam36, rho36, lam36, rho36, gamma=0.2, p=0.5, path=path)
    )
    res = st.iterate_limit(sys, sys.ones(), 0.3)
    assert res.converged


def test_emac_full_erasure_decouples(emac36):
    # eps=1: the channel factor is 1, each user runs a plain full-erasure recursion
    rng = np.random.default_rng(4)
    for y in rng.random((10, 2)):
        f = emac36.bit_update(y, 1.0)
        assert f[0] == pytest.approx(y[0] ** 2, abs=1e-15)
        assert f[1] == pytest.approx(y[1] ** 2, abs=1e-15)


def test_emac_zero_component_stays_zero(emac36):
    f = emac36.bit_update(np.array([0.0, 0.7]), 0.5)
    assert f[0] == 0.0


def test_emac_swap_symmetry(emac36):
    rng = np.random.default_rng(5)
    for x in rng.random((25, 2)):
        for eps in (0.2, 0.7):
            a = _step_raw(emac36, x, eps)
            b = _step_raw(emac36, x[::-1].copy(), eps)
            assert np.max(np.abs(a - b[::-1])) < 1e-14


def test_bit_maps_broadcast_per_row_eps(lam36, rho36, sw_half, emac36):
    def sw(path):
        return st.make_slepian_wolf(
            st.SlepianWolfParams(lam36, rho36, lam36, rho36, gamma=0.2, p=0.5, path=path))

    systems = [
        st.make_protograph(st.ProtographSpec(H=np.array([[1, 3, 2, 0], [2, 1, 1, 4]]),
                                             node_scale=[1.0, 0.5, 0.8, 0.3],
                                             punctured_columns=frozenset({1}))),
        sw_half,  # diagonal path
        sw(st.ScaledPath(theta=0.3)),
        sw(st.TablePath(knots=[0.0, 0.5, 1.0], eps1=[0.0, 0.4, 1.0], eps2=[0.0, 0.6, 1.0])),
        emac36,
    ]
    rng = np.random.default_rng(8)
    n = 40
    e = rng.random(n)
    e[:4] = (0.0, 0.5, 1.0, 0.25)
    for sys in systems:
        Y = rng.random((n, sys.d))
        Y[rng.random((n, sys.d)) < 0.1] = 0.0
        f, F = sys.bit_update(Y, e), sys.bit_energy(Y, e)
        assert np.array_equal(f, np.stack([sys.bit_update(Y[i], float(e[i])) for i in range(n)]))
        assert np.array_equal(F, np.array([sys.bit_energy(Y[i], float(e[i])) for i in range(n)]))
        # a (k, m) batch with eps of shape (k, m)
        Y3, e3 = Y.reshape(8, 5, sys.d), e.reshape(8, 5)
        assert np.array_equal(sys.bit_update(Y3, e3), f.reshape(8, 5, sys.d))
        assert np.array_equal(sys.bit_energy(Y3, e3), F.reshape(8, 5))


def test_sw_gamma_zero_bp_matches_scalar(sw_free, thresholds36):
    assert st.bp_threshold(sw_free) == pytest.approx(thresholds36["bp"], abs=1e-6)


def _edge_pair_protograph_maps(spec):
    """The d^2 edge-pair loops of the protograph maps, kept as the reference."""
    H = spec.H
    rows, cols = np.nonzero(H)
    expo = H[rows, cols].astype(np.int64)
    d = len(rows)
    n_cols = H.shape[1]
    fixed = np.zeros(n_cols, dtype=bool)
    for j in spec.punctured_columns:
        fixed[j] = True

    def col_eps(eps):
        return np.where(fixed, 1.0, np.asarray(spec.node_scale, float) * eps)

    def check_update(x):
        om = 1.0 - x
        out = np.empty_like(x)
        for k in range(d):
            acc = np.ones(x.shape[:-1])
            for j in range(d):
                if rows[j] == rows[k]:
                    ex = expo[j] - (1 if j == k else 0)
                    if ex > 0:
                        acc = acc * om[..., j] ** ex
            out[..., k] = 1.0 - acc
        return out

    def bit_update(y, eps):
        ce = col_eps(eps)
        out = np.empty_like(y)
        for k in range(d):
            acc = np.full(y.shape[:-1], ce[cols[k]])
            for j in range(d):
                if cols[j] == cols[k]:
                    ex = expo[j] - (1 if j == k else 0)
                    if ex > 0:
                        acc = acc * y[..., j] ** ex
            out[..., k] = acc
        return out

    def bit_energy(x, eps):
        ce = col_eps(eps)
        out = np.zeros(x.shape[:-1])
        for j in range(n_cols):
            acc = np.full(x.shape[:-1], ce[j])
            for i in range(d):
                if cols[i] == j:
                    acc = acc * x[..., i] ** expo[i]
            out = out + acc
        return out

    def check_energy(x):
        om = 1.0 - x
        out = np.einsum("...k,k->...", x, expo.astype(float))
        for i in range(H.shape[0]):
            acc = np.ones(x.shape[:-1])
            for j in range(d):
                if rows[j] == i:
                    acc = acc * om[..., j] ** expo[j]
            out = out - (1.0 - acc)
        return out

    return check_update, bit_update, check_energy, bit_energy


@pytest.mark.parametrize("spec", [
    st.ProtographSpec(H=np.array([[3, 3]])),
    st.ProtographSpec(H=np.array([[1, 2, 1, 2], [2, 1, 2, 1]])),
    st.ProtographSpec(H=np.ones((3, 6), dtype=int)),
    st.ProtographSpec(H=np.array([[1, 3, 2, 0], [2, 1, 1, 4]]), node_scale=[1.0, 0.5, 0.8, 0.3],
                      punctured_columns=frozenset({1})),
], ids=["3x3", "lift-2x4", "ones-3x6", "scaled-punctured"])
@pytest.mark.parametrize("n", [1, 6561])
def test_protograph_maps_bit_exact_against_edge_pair_loops(spec, n):
    sys = st.make_protograph(spec)
    ref_g, ref_f, ref_G, ref_F = _edge_pair_protograph_maps(spec)
    rng = np.random.default_rng(n)
    X = rng.random((n, sys.d))
    X[rng.random((n, sys.d)) < 0.1] = 0.0
    X[rng.random((n, sys.d)) < 0.1] = 1.0
    X[rng.random((n, sys.d)) < 0.1] = -0.0
    X[0, 0] = -0.0
    eps_values = (0.0, 0.4294, 1.0)

    def check(got, want):
        # equal values, and equal signs of zero
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    for x in (X, X[0]):
        check(sys.check_update(x), ref_g(x))
        check(sys.check_energy(x), ref_G(x))
        for eps in eps_values:
            check(sys.bit_update(x, eps), ref_f(x, eps))
            check(sys.bit_energy(x, eps), ref_F(x, eps))
    # one eps per row (the fixed-point batches): the reference takes a scalar
    # eps, so it runs once on the rows of each value
    which = rng.integers(len(eps_values), size=n)
    e_rows = np.take(eps_values, which)
    f_rows, F_rows = np.empty_like(X), np.empty(n)
    for i, eps in enumerate(eps_values):
        f_rows[which == i] = ref_f(X[which == i], eps)
        F_rows[which == i] = ref_F(X[which == i], eps)
    check(sys.bit_update(X, e_rows), f_rows)
    check(sys.bit_energy(X, e_rows), F_rows)
    # a (k, n, d) stack of chains with one eps per chain, shape (k, 1), as the
    # coupled bisection calls the maps
    X3 = np.stack([X, X[::-1], rng.random((n, sys.d))])
    e_chains = np.array(eps_values)[:, None]
    check(sys.check_update(X3), np.stack([ref_g(z) for z in X3]))
    check(sys.check_energy(X3), np.stack([ref_G(z) for z in X3]))
    check(sys.bit_update(X3, e_chains), np.stack([ref_f(z, e) for z, e in zip(X3, eps_values)]))
    check(sys.bit_energy(X3, e_chains), np.stack([ref_F(z, e) for z, e in zip(X3, eps_values)]))


_LIFT_36 = [[1, 2, 1, 2], [2, 1, 2, 1]]


def _shuffled_lift(seed):
    # the lift with its rows and columns permuted as the benchmark's
    # lifted-protograph workload permutes them
    rng = np.random.default_rng(seed)
    return np.asarray(_LIFT_36)[rng.permutation(2)][:, rng.permutation(4)].tolist()


_PARTITIONED = {
    "3x3": ([[3, 3]], {}, 1),
    "lift-2x4": (_LIFT_36, {}, 1),
    **{f"lift-seed{seed}": (_shuffled_lift(seed), {}, 1) for seed in range(1, 6)},
    "ones-3x6": (np.ones((3, 6), dtype=int).tolist(), {}, 1),
    "irregular-2x4": ([[1, 3, 1, 1], [2, 1, 1, 2]], {}, 6),
    # a punctured column, or a column with its own channel scale, splits the
    # all-ones 2x4 protograph's single class in two
    "punctured": (np.ones((2, 4), dtype=int).tolist(), {"punctured_columns": frozenset({0})}, 2),
    "scaled": (np.ones((2, 4), dtype=int).tolist(), {"node_scale": [1.0, 1.0, 0.5, 1.0]}, 2),
}


def _partitioned(name):
    H, extra, _ = _PARTITIONED[name]
    return st.make_protograph(st.ProtographSpec(H=np.array(H), **extra))


@pytest.mark.parametrize("name", list(_PARTITIONED))
def test_protograph_partition_counts_its_classes(name):
    assert _partitioned(name).partition.max() + 1 == _PARTITIONED[name][2]


def test_protograph_partition_splits_by_channel():
    # edges are numbered row by row, so column 0 (2) holds edges 0 and 4 (2 and 6)
    assert _partitioned("punctured").partition.tolist() == [0, 1, 1, 1, 0, 1, 1, 1]
    assert _partitioned("scaled").partition.tolist() == [0, 0, 1, 0, 0, 0, 1, 0]
    # the irregular 2x4 protograph: the two check rows see different
    # exponents, so no class spans both rows
    assert _partitioned("irregular-2x4").partition.tolist() == [0, 1, 2, 0, 3, 4, 5, 3]


@pytest.mark.parametrize("name", list(_PARTITIONED))
def test_class_constant_states_map_to_class_constant_states(name):
    # checked on random states, away from the constructor's one probe state
    sys = _partitioned(name)
    part = sys.partition
    rng = np.random.default_rng(7)
    X = rng.random((200, part.max() + 1))[:, part]
    e_rows = rng.random(200)

    def assert_class_constant(out):
        for k in range(part.max() + 1):
            cls = out[:, part == k]
            assert np.max(cls.max(axis=-1) - cls.min(axis=-1)) <= 1e-12

    assert_class_constant(sys.check_update(X))
    for eps in (0.3, 0.8, e_rows):
        assert_class_constant(sys.bit_update(X, eps))


def test_a_partition_the_maps_break_is_refused():
    lift = _partitioned("lift-2x4")
    tilt = np.linspace(1.0, 0.9, lift.d)  # a different factor per edge
    f, g = lift.bit_update, lift.check_update
    for changes in ({"bit_update": lambda y, eps: f(y, eps) * tilt},
                    {"check_update": lambda x: g(x) * tilt}):
        with pytest.raises(ValueError, match="does not keep the partition"):
            dataclasses.replace(lift, **changes)
        # the same maps without the partition are a valid system
        assert dataclasses.replace(lift, partition=None, **changes).partition is None
    for bad in (np.zeros(3, int), np.array([0, 0, 0, 0, 2, 2, 2, 2]), np.full(8, 0.0)):
        with pytest.raises(ValueError, match="partition must give each"):
            dataclasses.replace(lift, partition=bad)


def _per_component_two_user_maps(lam1, rho1, lam2, rho2, channel):
    """The per-component polyval maps of the two-user systems, kept as the reference.

    channel is ("sw", gamma, p, path) or ("emac",).
    """
    from numpy.polynomial import polynomial as P

    L1, Lp1 = st.node_from_edge(lam1)
    L2, Lp2 = st.node_from_edge(lam2)
    R1, Rp1 = st.node_from_edge(rho1)
    R2, Rp2 = st.node_from_edge(rho2)

    def check_update(x):
        return np.stack([1.0 - P.polyval(1.0 - x[..., 0], rho1.coeffs),
                         1.0 - P.polyval(1.0 - x[..., 1], rho2.coeffs)], axis=-1)

    def check_energy(x):
        t1 = x[..., 0] + (P.polyval(1.0 - x[..., 0], R1) - 1.0) / Rp1
        t2 = x[..., 1] + (P.polyval(1.0 - x[..., 1], R2) - 1.0) / Rp2
        return Lp1 * t1 + Lp2 * t2

    if channel[0] == "sw":
        _, gamma, p, path = channel

        def psi(y, e):
            return (1.0 - gamma) * e + gamma * (1.0 - p + p * y)

        def bit_update(y, eps):
            e1, e2 = path(eps)
            u1 = psi(P.polyval(y[..., 1], L2), e1) * P.polyval(y[..., 0], lam1.coeffs)
            u2 = psi(P.polyval(y[..., 0], L1), e2) * P.polyval(y[..., 1], lam2.coeffs)
            return np.stack([u1, u2], axis=-1)

        def bit_energy(x, eps):
            e1, e2 = path(eps)
            l1 = P.polyval(x[..., 0], L1)
            l2 = P.polyval(x[..., 1], L2)
            return psi(l1, e2) * l2 + psi(l2, e1) * l1 - gamma * p * l1 * l2
    else:
        def bit_update(y, eps):
            p1 = eps + (1.0 - eps) * P.polyval(y[..., 1], L2) / 2.0
            p2 = eps + (1.0 - eps) * P.polyval(y[..., 0], L1) / 2.0
            return np.stack([p1 * P.polyval(y[..., 0], lam1.coeffs),
                             p2 * P.polyval(y[..., 1], lam2.coeffs)], axis=-1)

        def bit_energy(x, eps):
            l1 = P.polyval(x[..., 0], L1)
            l2 = P.polyval(x[..., 1], L2)
            return eps * (l1 + l2) + (1.0 - eps) * l1 * l2 / 2.0

    return check_update, bit_update, check_energy, bit_energy


def test_horner_matches_polyval_per_component_with_signed_zeros():
    from numpy.polynomial import polynomial as P
    from saturate.models import _horner, _horner_rows

    pairs = [([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),  # unequal degrees: padded
             ([0.0, 0.0, 0.0, 1.0], [0.0, 0.3, 0.0, 0.7]),
             ([0.0, 0.2, 0.0, 0.0, 0.8], [0.5, 0.5])]
    x = np.array([[-0.0, -0.0], [0.0, 0.0], [1.0, 1.0], [-0.0, 0.5], [0.25, -0.0], [0.7, 0.1]])
    for c1, c2 in pairs:
        for z in (x, x[0], x.reshape(2, 3, 2)):
            got = _horner(_horner_rows(np.array(c1), np.array(c2)), z)
            want = np.stack([P.polyval(z[..., 0], c1), P.polyval(z[..., 1], c2)], axis=-1)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _two_user_cases():
    lam, rho = st.EdgePolynomial.regular(3), st.EdgePolynomial.regular(6)
    paths = [st.ScaledPath(theta=1.0), st.ScaledPath(theta=0.5),
             st.TablePath(knots=[0.0, 0.5, 1.0], eps1=[0.0, 0.4, 1.0], eps2=[0.0, 0.6, 1.0])]
    for path in paths:
        for gamma in (0.0, 0.5):
            for p in (0.0, 0.5, 1.0):
                channel = ("sw", gamma, p, path)
                sys = st.make_slepian_wolf(
                    st.SlepianWolfParams(lam, rho, lam, rho, gamma=gamma, p=p, path=path))
                yield sys, (lam, rho, lam, rho, channel)
    # an irregular second user of higher degrees, so every table is padded
    lam2 = st.EdgePolynomial.from_degree_map({"2": 0.3, "5": 0.7})
    rho2 = st.EdgePolynomial.from_degree_map({"4": 0.5, "9": 0.5})
    for pair in ((lam, rho, lam, rho), (lam, rho, lam2, rho2), (lam2, rho2, lam, rho)):
        yield st.make_emac(*pair), pair + (("emac",),)


def test_two_user_maps_bit_exact_against_per_component_polyval():
    rng = np.random.default_rng(10)
    n, k = 23, 3
    X = rng.random((n, 2))
    X[rng.random((n, 2)) < 0.15] = 0.0
    X[rng.random((n, 2)) < 0.15] = 1.0
    X[:5] = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 0.5]]
    e_rows = rng.random(n)
    e_rows[:3] = (0.0, 1.0, 0.5)
    X3 = rng.random((k, n, 2))
    X3[:, :5] = X[:5]
    e_chains = np.array([[0.0], [0.4294], [1.0]])
    for sys, args in _two_user_cases():
        ref_g, ref_f, ref_G, ref_F = _per_component_two_user_maps(*args)
        inputs = [(x, eps) for x in X[:6] for eps in (0.0, 0.4294, 1.0)]
        inputs += [(X, eps) for eps in (0.0, 0.4294, 1.0)]
        inputs += [(X, e_rows), (X3, e_chains)]
        for x, eps in inputs:
            for got, want in ((sys.check_update(x), ref_g(x)), (sys.check_energy(x), ref_G(x)),
                              (sys.bit_update(x, eps), ref_f(x, eps)),
                              (sys.bit_energy(x, eps), ref_F(x, eps))):
                # equal values, and equal signs of zero
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def _coefficient_pairs():
    """The (user 1, user 2) coefficient pairs the two-user maps evaluate."""
    lam, rho = st.EdgePolynomial.regular(3), st.EdgePolynomial.regular(6)
    lam2 = st.EdgePolynomial.from_degree_map({"2": 0.3, "5": 0.7})
    rho2 = st.EdgePolynomial.from_degree_map({"4": 0.5, "9": 0.5})
    for a, b in ((lam, lam), (rho, rho), (lam, lam2), (rho, rho2), (lam2, lam)):
        yield a.coeffs, b.coeffs
        yield st.node_from_edge(a)[0], st.node_from_edge(b)[0]


def test_horner_rows_are_floats_exactly_where_the_components_agree():
    from saturate.models import _horner_rows

    n_differ = 0
    for c1, c2 in _coefficient_pairs():
        rows = _horner_rows(c1, c2)
        size = max(len(c1), len(c2))
        assert len(rows) == size
        for deg, row in zip(range(size - 1, -1, -1), rows):
            pair = [c[deg] if deg < len(c) else 0.0 for c in (c1, c2)]
            if pair[0] == pair[1]:
                # a Python float: the pass adding it is one long loop, not a
                # (2,) broadcast with two-element inner loops
                assert type(row) is float and row == pair[0]
            else:
                n_differ += 1
                assert isinstance(row, np.ndarray) and row.shape == (2,)
                assert row.tolist() == pair
        if np.array_equal(c1, c2):
            assert all(type(row) is float for row in rows)
    assert n_differ > 0
    # a row of 0.0 and -0.0 differs in the sign of zero, so it stays a row
    row = _horner_rows(np.array([0.0, 1.0]), np.array([-0.0, 1.0]))[1]
    assert isinstance(row, np.ndarray) and np.signbit(row).tolist() == [False, True]


def test_channel_pair_is_a_float_or_packed_like_the_state():
    from saturate.models import _channel_pair

    x = np.random.default_rng(3).random((7, 5, 2))
    assert _channel_pair(st.ScaledPath(theta=1.0), 0.3, x) == 0.3
    assert type(_channel_pair(st.ScaledPath(theta=1.0), 0.3, x)) is float
    assert _channel_pair(st.ScaledPath(theta=0.5), 0.3, x).tolist() == [0.3, 0.15]
    for eps in (np.full((7, 5), 0.3), np.full((7, 1), 0.3), np.float64(0.3) + np.zeros(5)):
        pair = _channel_pair(st.ScaledPath(theta=0.5), eps, x)
        assert pair.shape == x.shape and pair.flags.c_contiguous
        assert np.all(pair[..., 0] == 0.3) and np.all(pair[..., 1] == 0.15)


_REG36 = (st.EdgePolynomial.regular(3), st.EdgePolynomial.regular(6)) * 2


@pytest.mark.parametrize("make, match", [
    (lambda: st.TablePath(knots=[0, 1], eps1=[0, 0.5, 1], eps2=[0, 1]), "matching 1-d"),
    (lambda: st.TablePath(knots=[0, 0.5, 0.5, 1], eps1=[0, 0.2, 0.3, 1], eps2=[0, 0.2, 0.3, 1]),
     "strictly increasing"),
    (lambda: st.TablePath(knots=[0, 0.9], eps1=[0, 1], eps2=[0, 1]), "reach eps=1"),
    (lambda: st.TablePath(knots=[0, 1], eps1=[0, 1.5], eps2=[0, 1]), r"lie in \[0, 1\]"),
    (lambda: st.TablePath(knots=[0, np.nan, 1], eps1=[0, 0.5, 1], eps2=[0, 0.5, 1]),
     "strictly increasing"),
    (lambda: st.TablePath(knots=[0, 1], eps1=[0, np.nan], eps2=[0, 1]), "non-decreasing"),
    (lambda: st.SlepianWolfParams(*_REG36, gamma=1.0, p=0.5), r"gamma must lie in \[0, 1\)"),
    (lambda: st.SlepianWolfParams(*_REG36, gamma=-0.1, p=0.5), r"gamma must lie in \[0, 1\)"),
    (lambda: st.SlepianWolfParams(*_REG36, gamma=0.5, p=1.5), r"p must lie in \[0, 1\]"),
    (lambda: st.SlepianWolfParams(*_REG36, gamma=0.5, p=0.5, path="diagonal"),
     "path must be callable"),
    (lambda: st.ProtographSpec(H=np.array([3, 3])), "2-d and nonempty"),
    (lambda: st.ProtographSpec(H=np.array([[1.5, 3.0]])), "nonnegative integers"),
    (lambda: st.ProtographSpec(H=np.array([[3, 3]]), node_scale=[1.0]), "one entry per column"),
    (lambda: st.ProtographSpec(H=np.array([[3, 3]]), node_scale=[1.0, 0.0]),
     r"lie in \(0, 1\]"),
    (lambda: st.ProtographSpec(H=np.array([[3, 3]]), node_scale=[1.0, 1.2]),
     r"lie in \(0, 1\]"),
    (lambda: st.ProtographSpec(H=np.array([[3, 3]]), node_scale=[np.nan, 1.0]),
     r"lie in \(0, 1\]"),
    (lambda: st.ProtographSpec(H=np.array([[3, 3]]), punctured_columns=frozenset({2})),
     "out of range"),
    (lambda: st.regular_protograph(3, 7), "multiple of dv"),
], ids=["table_shapes", "table_knots_repeat", "table_knots_short", "table_values_range",
        "table_knot_nan", "table_value_nan", "gamma_one", "gamma_negative", "p_range",
        "path_not_callable", "proto_1d", "proto_fractional", "scale_shape", "scale_zero",
        "scale_above_one", "scale_nan", "punctured_index", "regular_dc_dv"])
def test_model_inputs_are_checked(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_protograph_accepts_integral_floats(sys36):
    spec = st.ProtographSpec(H=np.array([[3.0, 3.0]]))
    assert spec.H.dtype == np.int64 and spec.H.tolist() == [[3, 3]]
    x = np.random.default_rng(1).random((5, 2))
    assert np.array_equal(_step_raw(st.make_protograph(spec), x, 0.45), _step_raw(sys36, x, 0.45))
