import numpy as np
import pytest

import saturate as st


@pytest.fixture(scope="session")
def lam36():
    return st.EdgePolynomial.regular(3)


@pytest.fixture(scope="session")
def rho36():
    return st.EdgePolynomial.regular(6)


@pytest.fixture(scope="session")
def sys36():
    """(3,6)-regular ensemble as the protograph [3 3]."""
    return st.regular_protograph(3, 6)


@pytest.fixture(scope="session")
def lift36():
    """The same (3,6) ensemble lifted to the 2x4 protograph (d=8)."""
    return st.make_protograph(st.ProtographSpec(H=np.array([[1, 2, 1, 2], [2, 1, 2, 1]])))


@pytest.fixture(scope="session")
def emac36(lam36, rho36):
    return st.make_emac(lam36, rho36, lam36, rho36)


@pytest.fixture(scope="session")
def sw_half(lam36, rho36):
    return st.make_slepian_wolf(
        st.SlepianWolfParams(lam36, rho36, lam36, rho36, gamma=0.5, p=0.5)
    )


@pytest.fixture(scope="session")
def sw_free(lam36, rho36):
    """gamma=0: two decoupled scalar BEC recursions."""
    return st.make_slepian_wolf(
        st.SlepianWolfParams(lam36, rho36, lam36, rho36, gamma=0.0, p=0.3)
    )


@pytest.fixture(scope="session")
def table(lam36, rho36):
    """Slepian-Wolf on a table path: the branch of the eps=1 limit folds at
    0.37758, but all-ones survives below that, on another branch, down to
    its bp threshold 0.34317."""
    path = st.TablePath(knots=[0.0, 0.5, 1.0], eps1=[0.0, 0.4, 1.0], eps2=[0.0, 0.6, 1.0])
    return st.make_slepian_wolf(
        st.SlepianWolfParams(lam36, rho36, lam36, rho36, gamma=0.2, p=0.5, path=path))


@pytest.fixture(scope="session")
def irregular(rho36):
    lam = st.EdgePolynomial(np.array([0.0, 0.3, 0.7]))  # lambda_2 = 0.3
    return st.make_slepian_wolf(st.SlepianWolfParams(lam, rho36, lam, rho36, gamma=0.3, p=0.5))


@pytest.fixture(scope="session")
def all_systems(sys36, emac36, sw_half):
    return [sys36, emac36, sw_half]


@pytest.fixture(scope="session")
def thresholds36(sys36):
    return {
        "bp": st.bp_threshold(sys36),
        "potential": st.potential_threshold(sys36),
    }


@pytest.fixture(scope="session")
def flip():
    """A d=2 system whose recursion is not monotone: (x1, x2) -> (x1, x1 (1 - x2)).

    From all-ones it alternates between (1, 1) and (1, 0) at every eps.
    """
    def zero(x, *_):
        return np.zeros(np.shape(x)[:-1])

    return st.SystemDefinition(
        d=2, weights=np.ones(2), check_update=lambda x: x, bit_energy=zero, check_energy=zero,
        bit_update=lambda y, eps: np.stack([y[..., 0], y[..., 0] * (1.0 - y[..., 1])], axis=-1))
