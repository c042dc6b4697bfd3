"""Constructors for the three worked erasure systems.

Each factory returns a SystemDefinition with closed-form energies whose
gradients reproduce the update maps (checked by verify_admissible). Every
bit_update and bit_energy takes eps as a scalar or as an array that
broadcasts against x.shape[:-1] without enlarging it, one channel parameter
per row.

The two-user systems evaluate their degree polynomials on the whole
(..., 2) state in one Horner pass (_horner), one polynomial per component.
Each component is bit-identical to numpy's polyval of that polynomial on
that component: the x*0 seed and the adds of zero coefficients stay, so
even the sign of a zero result is polyval's.

The maps run once per recursion step, on states of a few to a few thousand
rows, so their arrays are laid out for long numpy passes. A numpy pass that
broadcasts a (d,) row, or reads a reversed view, against an (..., d) array
runs inner loops only d elements long. Hence:

- no (d,) row where the components agree: a coefficient row, or a channel
  pair at a scalar eps, that is equal across components is a Python float
  (_component_row), and an eps array is packed on the state's trailing axis
  (_channel_pair);
- the bit maps evaluate the node polynomials on the state as it is and
  exchange the two components of the result once, into a contiguous array
  (_swapped), instead of reading the state through a [..., ::-1] view;
- the protograph maps form each (edge, exponent) power once per call, in
  one pass over the whole array where the exponent raises every column, and
  start each product from its first factor.

Every map stays bit-identical, signs of zero included, to its reference in
tests/test_models.py: per-component polyval and the edge-pair loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .degdist import EdgePolynomial, design_rate, node_from_edge
from .system import SystemDefinition

_PATH_TOL = 1e-12


# ---------------------------------------------------------------------------
# channel-parameter paths for the two-user systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledPath:
    """eps -> (eps, theta * eps) with theta in [0, 1]; theta = 1 is the diagonal (eps, eps)."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")

    def __call__(self, eps: float):
        return eps, self.theta * eps


@dataclass(frozen=True)
class TablePath:
    """Piecewise-linear monotone table eps -> (eps1, eps2), starting at (0, 0)."""

    knots: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        e1 = np.asarray(self.eps1, dtype=float)
        e2 = np.asarray(self.eps2, dtype=float)
        if not (k.shape == e1.shape == e2.shape) or k.ndim != 1 or k.size < 2:
            raise ValueError("table path needs matching 1-d knot/value arrays (>= 2 points)")
        # every test below is written so that a NaN knot or value fails it
        if not (abs(k[0]) <= _PATH_TOL and abs(e1[0]) <= _PATH_TOL and abs(e2[0]) <= _PATH_TOL):
            raise ValueError("path must start at eps=0 with value (0, 0)")
        if not np.all(np.diff(k) > 0):
            raise ValueError("knots must be strictly increasing")
        if not (np.all(np.diff(e1) >= 0) and np.all(np.diff(e2) >= 0)):
            raise ValueError("path values must be componentwise non-decreasing")
        if not k[-1] >= 1.0 - _PATH_TOL:
            raise ValueError("knots must reach eps=1")
        if not np.all((e1 >= 0) & (e1 <= 1) & (e2 >= 0) & (e2 <= 1)):
            raise ValueError("path values must lie in [0, 1]")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "eps1", e1)
        object.__setattr__(self, "eps2", e2)

    def __call__(self, eps):
        return np.interp(eps, self.knots, self.eps1), np.interp(eps, self.knots, self.eps2)


# ---------------------------------------------------------------------------
# Slepian-Wolf with erasures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlepianWolfParams:
    """Two punctured LDPC codes over correlated erasure sources.

    gamma is the punctured fraction (the paper's model makes it the common
    design rate; it stays a free parameter here, with gamma=0 reducing each
    user to a plain BEC recursion). p is the probability that the two source
    symbols coincide. The two codes must have equal design rates.
    """

    lam1: EdgePolynomial
    rho1: EdgePolynomial
    lam2: EdgePolynomial
    rho2: EdgePolynomial
    gamma: float
    p: float
    path: object = ScaledPath(theta=1.0)

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        r1 = design_rate(self.lam1, self.rho1)
        r2 = design_rate(self.lam2, self.rho2)
        if abs(r1 - r2) > 1e-9:
            raise ValueError(
                f"users must share a design rate (got {r1} vs {r2}); "
                "the closed-form energies assume a single gamma"
            )
        if not callable(self.path):
            raise ValueError("path must be callable")


def _component_row(values):
    """One value per component: a float when all are equal to the bit, else a (d,) array.

    Added to or multiplied with an (..., d) array, a float is one long pass
    over every element, where a (d,) row splits the pass into inner loops d
    elements long. Equality includes the sign, so 0.0 and -0.0 stay apart.
    """
    first = values[0]
    if all(v == first and math.copysign(1.0, v) == math.copysign(1.0, first) for v in values):
        return float(first)
    return np.array(values, dtype=float)


def _horner_rows(*coeffs) -> tuple:
    """Coefficient rows that evaluate polynomial j on component j of an array.

    Column j of the table holds coeffs[j], lowest degree first, padded with
    zeros above its degree. The rows come highest degree first, the order in
    which _horner consumes them, each as _component_row gives it: a float
    where the polynomials agree (zero padding, symmetric users).
    """
    table = np.zeros((max(len(c) for c in coeffs), len(coeffs)))
    for j, c in enumerate(coeffs):
        table[: len(c), j] = c
    return tuple(_component_row(r) for r in table[::-1])


def _horner(rows, x):
    """Polynomial j of _horner_rows at x[..., j], bit for bit as polyval gives it.

    The steps are polyval's: start from c[-1] + x*0, then form c[-i] + acc*x.
    A padded zero row keeps acc at +0.0, so the padding changes no bit, and
    the x*0 seed and the zero-coefficient adds stay, so that a -0.0 input
    keeps its sign of zero.
    """
    acc = rows[0] + x * 0
    for c in rows[1:]:
        acc *= x
        acc += c
    return acc


def _swapped(v):
    """v with its two components exchanged, as a new contiguous array."""
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def _channel_pair(path, eps, like):
    """The path's pair (e1, e2) at eps, laid out for arithmetic with like (..., 2).

    A scalar eps gives the pair as _component_row gives it, a float when the
    users' channels agree. An array eps, which broadcasts against
    like.shape[:-1] without enlarging it, is packed on the trailing axis of
    an array shaped like like, so that no later pass splits into inner loops
    two elements long.
    """
    e1, e2 = path(eps)
    # getattr, not np.ndim: np.ndim costs a microsecond on a Python float
    if getattr(eps, "ndim", 0) == 0:
        return _component_row((e1, e2))
    out = np.empty_like(like)
    out[..., 0] = e1
    out[..., 1] = e2
    return out


def _two_user_pieces(lam1, rho1, lam2, rho2):
    L1, Lp1 = node_from_edge(lam1)
    L2, Lp2 = node_from_edge(lam2)
    R1, Rp1 = node_from_edge(rho1)
    R2, Rp2 = node_from_edge(rho2)
    rho = _horner_rows(rho1.coeffs, rho2.coeffs)
    R = _horner_rows(R1, R2)
    Rp = _component_row([Rp1, Rp2])

    def check_update(x):
        x = np.asarray(x, dtype=float)
        return 1.0 - _horner(rho, 1.0 - x)

    def check_energy(x):
        x = np.asarray(x, dtype=float)
        t = x + (_horner(R, 1.0 - x) - 1.0) / Rp
        return Lp1 * t[..., 0] + Lp2 * t[..., 1]

    return {
        "lam": _horner_rows(lam1.coeffs, lam2.coeffs),
        "L": _horner_rows(L1, L2),
        "weights": np.array([Lp1, Lp2]),
        "check_update": check_update,
        "check_energy": check_energy,
    }


def make_slepian_wolf(params: SlepianWolfParams) -> SystemDefinition:
    """Joint decoder of two punctured LDPC codes over correlated erasures.

    The per-user channel factor is psi(y; e) = (1-gamma)*e + gamma*(1-p+p*y)
    evaluated at the other user's node polynomial, with the channel pair
    (e1, e2) produced by the configured path.
    """
    gamma, p, path = params.gamma, params.p, params.path
    pieces = _two_user_pieces(params.lam1, params.rho1, params.lam2, params.rho2)
    lam, L = pieces["lam"], pieces["L"]

    def psi(y, e):
        return (1.0 - gamma) * e + gamma * (1.0 - p + p * y)

    def bit_update(y, eps):
        # component j reads the other user's node polynomial: L2 at y[..., 1]
        # for j = 0, L1 at y[..., 0] for j = 1
        y = np.asarray(y, dtype=float)
        return psi(_swapped(_horner(L, y)), _channel_pair(path, eps, y)) * _horner(lam, y)

    def bit_energy(x, eps):
        x = np.asarray(x, dtype=float)
        l = _horner(L, x)
        l1, l2 = l[..., 0], l[..., 1]
        # term j is psi(l_other, e_j) * l_j; the sum is commutative, so this
        # is psi(l1, e2) * l2 + psi(l2, e1) * l1 to the bit
        t = psi(_swapped(l), _channel_pair(path, eps, l)) * l
        return t[..., 0] + t[..., 1] - gamma * p * l1 * l2

    return SystemDefinition(
        d=2,
        weights=pieces["weights"],
        bit_update=bit_update,
        check_update=pieces["check_update"],
        bit_energy=bit_energy,
        check_energy=pieces["check_energy"],
        name=f"slepian_wolf(gamma={gamma}, p={p})",
        zero_param_exact=(gamma == 0.0),
    )


# ---------------------------------------------------------------------------
# two-user erasure multiple-access channel
# ---------------------------------------------------------------------------


def make_emac(
    lam1: EdgePolynomial,
    rho1: EdgePolynomial,
    lam2: EdgePolynomial,
    rho2: EdgePolynomial,
) -> SystemDefinition:
    """Joint decoder of two LDPC codes over the erasure multiple-access channel.

    The channel factor is psi(y; eps) = eps + (1-eps)*y/2: an unresolved
    collision with the other user halves the surviving information even on a
    perfect channel, so the zero-parameter boundary conditions hold only
    approximately (declared informational).
    """
    pieces = _two_user_pieces(lam1, rho1, lam2, rho2)
    lam, L = pieces["lam"], pieces["L"]
    both = ScaledPath(theta=1.0)  # the channel's one eps, laid out as the pair (eps, eps)

    def bit_update(y, eps):
        y = np.asarray(y, dtype=float)
        e = _channel_pair(both, eps, y)
        return (e + (1.0 - e) * _swapped(_horner(L, y)) / 2.0) * _horner(lam, y)

    def bit_energy(x, eps):
        x = np.asarray(x, dtype=float)
        l = _horner(L, x)
        l1, l2 = l[..., 0], l[..., 1]
        return eps * (l1 + l2) + (1.0 - eps) * l1 * l2 / 2.0

    return SystemDefinition(
        d=2,
        weights=pieces["weights"],
        bit_update=bit_update,
        check_update=pieces["check_update"],
        bit_energy=bit_energy,
        check_energy=pieces["check_energy"],
        name="emac",
        zero_param_exact=False,
    )


# ---------------------------------------------------------------------------
# protograph ensembles on the BEC
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtographSpec:
    """An m x n protograph parity-check matrix with per-edge recursion state.

    The recursion dimension equals the number of nonzero entries; entry k
    keeps its row r(k), column c(k) and value e(k). node_scale optionally
    scales the channel seen by each bit column (eps_j = scale_j * eps);
    punctured_columns pins eps_j = 1, which leaves the strict setting of the
    admissibility conditions (flagged on the resulting system).
    """

    H: np.ndarray
    node_scale: Optional[Sequence[float]] = None
    punctured_columns: frozenset = frozenset()

    def __post_init__(self):
        H = np.asarray(self.H)
        if H.ndim != 2 or H.size == 0:
            raise ValueError("protograph matrix must be 2-d and nonempty")
        if not np.issubdtype(H.dtype, np.integer):
            if not np.all(H == np.round(H)):
                raise ValueError("protograph entries must be nonnegative integers")
            H = H.astype(np.int64)
        if np.any(H < 0):
            raise ValueError("protograph entries must be nonnegative")
        if np.any(H.sum(axis=1) == 0) or np.any(H.sum(axis=0) == 0):
            raise ValueError("every protograph row and column needs a nonzero entry")
        object.__setattr__(self, "H", H)
        n = H.shape[1]
        scale = np.ones(n) if self.node_scale is None else np.asarray(self.node_scale, float)
        if scale.shape != (n,):
            raise ValueError(f"node_scale must have one entry per column ({n})")
        if not np.all((scale > 0.0) & (scale <= 1.0)):  # NaN fails too
            raise ValueError("node_scale entries must lie in (0, 1]")
        object.__setattr__(self, "node_scale", scale)
        punct = frozenset(int(j) for j in self.punctured_columns)
        if any(j < 0 or j >= n for j in punct):
            raise ValueError("punctured column index out of range")
        object.__setattr__(self, "punctured_columns", punct)


def _first_seen(keys) -> np.ndarray:
    """Each key's label: the number of distinct keys before its first occurrence."""
    seen = {}
    return np.array([seen.setdefault(key, len(seen)) for key in keys], dtype=np.int64)


def _edge_partition(row, col, expo, channel) -> np.ndarray:
    """The coarsest equitable partition of the edges that refines channel.

    Colour refinement (McKay, "Practical graph isomorphism", 1981): edges
    start coloured by their column's channel, and each round splits a class
    by the summed exponents its edges see from each class in their check
    factor and in their bit factor, each less one copy of the edge itself.
    It stops when the number of classes stops growing. Edges of one class
    then see the same factors on every class-constant state, so both maps
    keep such states class-constant. Labels are numbered in edge order.
    """
    own = np.eye(len(expo), dtype=np.int64)
    # [k, j]: the exponent of edge j in edge k's check (bit) factor
    check = (row[:, None] == row) * expo - own
    bit = (col[:, None] == col) * expo - own
    labels = _first_seen(channel)
    while True:
        members = (labels[:, None] == np.arange(labels.max() + 1)).astype(np.int64)
        refined = _first_seen(zip(labels.tolist(), map(tuple, (check @ members).tolist()),
                                  map(tuple, (bit @ members).tolist())))
        if refined.max() == labels.max():
            return labels
        labels = refined


def make_protograph(spec: ProtographSpec) -> SystemDefinition:
    """Per-edge erasure recursion of a protograph ensemble.

    Bit updates multiply the column-adjacent edge states (channel times
    x_i^(e_i), less one copy of the incident edge); check updates do the same
    with 1-x over row-adjacent edges. The system's partition is the coarsest
    equitable edge partition (_edge_partition), from the columns' channels.
    """
    H = spec.H
    rows, cols = np.nonzero(H)
    expo = H[rows, cols].astype(np.int64)
    d = len(rows)
    row = rows.astype(np.int64)
    col = cols.astype(np.int64)
    n_cols = H.shape[1]
    scale = np.asarray(spec.node_scale, float)
    fixed = np.zeros(n_cols, dtype=bool)
    for j in spec.punctured_columns:
        fixed[j] = True

    def col_eps(eps):
        # trailing column axis, so a per-row eps array gives per-row channels
        return np.where(fixed, 1.0, scale * np.asarray(eps)[..., None])

    # (j, exponent) factor lists, fixed at construction: edge k multiplies
    # the states of the edges it shares a row (check) or column (bit) with,
    # less one copy of itself; the energies multiply whole rows and columns.
    # The lists keep edge order, so every product is formed in the order of
    # a scan over all edge pairs and the maps stay bit-identical to it.
    e = [int(v) for v in expo]

    def excluding_self(group):
        lists = []
        for k in range(d):
            exps = [(j, e[j] - (j == k)) for j in range(d) if group[j] == group[k]]
            lists.append([(j, ex) for j, ex in exps if ex > 0])
        return lists

    check_factors = excluding_self(row)
    bit_factors = excluding_self(col)
    row_factors = [[(j, e[j]) for j in range(d) if row[j] == i] for i in range(H.shape[0])]
    col_factors = [[(i, e[i]) for i in range(d) if col[i] == j] for j in range(n_cols)]

    def power_plan(factor_lists):
        # the columns read as they are, and for each exponent above 1 the
        # columns raised to it. An exponent that raises every column takes
        # one pass over the whole array; any other raises its columns one at
        # a time, since a gathered copy costs a pass of its own and measured
        # slower on the 2x4 lift.
        singles, raised = set(), {}
        for factors in factor_lists:
            for j, ex in factors:
                if ex == 1:
                    singles.add(j)
                else:
                    raised.setdefault(ex, set()).add(j)
        return sorted(singles), [(ex, sorted(js)) for ex, js in sorted(raised.items())]

    check_plan, bit_plan = power_plan(check_factors), power_plan(bit_factors)
    row_plan, col_plan = power_plan(row_factors), power_plan(col_factors)

    def powers(z, plan):
        # every (edge, exponent) factor once per call
        singles, raised = plan
        zp = {(j, 1): z[..., j] for j in singles}
        for ex, js in raised:
            if len(js) == d:
                p = z ** ex
                zp.update(((j, ex), p[..., j]) for j in js)
            else:
                zp.update(((j, ex), z[..., j] ** ex) for j in js)
        return zp

    def product(zp, factors, acc=None):
        # acc, when given (the channel), is the first factor; otherwise the
        # product starts from its first power, as 1.0 * z is z to the bit
        for f in factors:
            acc = zp[f] if acc is None else acc * zp[f]
        return 1.0 if acc is None else acc

    def check_update(x):
        x = np.asarray(x, dtype=float)
        zp = powers(1.0 - x, check_plan)
        out = np.empty_like(x)
        for k, factors in enumerate(check_factors):
            out[..., k] = 1.0 - product(zp, factors)
        return out

    def bit_update(y, eps):
        y = np.asarray(y, dtype=float)
        ce = col_eps(eps)
        zp = powers(y, bit_plan)
        out = np.empty_like(y)
        for k, factors in enumerate(bit_factors):
            out[..., k] = product(zp, factors, ce[..., col[k]])
        return out

    def bit_energy(x, eps):
        x = np.asarray(x, dtype=float)
        ce = col_eps(eps)
        zp = powers(x, col_plan)
        out = np.zeros(x.shape[:-1])
        for j, factors in enumerate(col_factors):
            out = out + product(zp, factors, ce[..., j])
        return out

    def check_energy(x):
        x = np.asarray(x, dtype=float)
        zp = powers(1.0 - x, row_plan)
        out = np.einsum("...k,k->...", x, expo.astype(float))
        for factors in row_factors:
            out = out - (1.0 - product(zp, factors))
        return out

    return SystemDefinition(
        d=d,
        weights=expo.astype(float),
        bit_update=bit_update,
        check_update=check_update,
        bit_energy=bit_energy,
        check_energy=check_energy,
        name=f"protograph{H.tolist()}",
        zero_param_exact=(len(spec.punctured_columns) == 0),
        partition=_edge_partition(row, col, expo, zip(fixed[col].tolist(), scale[col].tolist())),
    )


def regular_protograph(dv: int, dc: int) -> SystemDefinition:
    """Single-row protograph [dv dv ... dv] realizing a (dv, dc)-regular ensemble."""
    if dc % dv != 0:
        raise ValueError("dc must be a multiple of dv for a single-row protograph")
    return make_protograph(ProtographSpec(H=np.array([[dv] * (dc // dv)])))
