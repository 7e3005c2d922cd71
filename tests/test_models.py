import numpy as np
import pytest

from conserva.errors import ConfigError, DomainError
from conserva.models import (
    Advection,
    Burgers,
    Euler,
    convert,
    entropy_pair,
    flux,
    max_wave_speed,
)

from conftest import random_euler_states


def test_burgers_flux_values():
    model = Burgers()
    assert flux(model, np.array([0.0])) == pytest.approx(0.0)
    assert flux(model, np.array([2.0])) == pytest.approx(2.0)  # u^2/2 at u=2


def test_euler_flux_static_state():
    model = Euler(gamma=1.4)
    u = np.array([1.0, 0.0, 2.5])  # p = 0.4 * 2.5 = 1
    np.testing.assert_allclose(flux(model, u), [0.0, 1.0, 0.0], atol=1e-15)


def test_burgers_entropy_pair():
    model = Burgers()
    eta, v, g = entropy_pair(model, np.array([2.0]))
    assert eta == pytest.approx(2.0)
    assert v == pytest.approx(2.0)
    assert g == pytest.approx(8.0 / 3.0)
    eta0, v0, g0 = entropy_pair(model, np.array([0.0]))
    assert (eta0, float(v0[0]), g0) == (0.0, 0.0, 0.0)


def test_euler_entropy_zero_at_unit_state():
    model = Euler(gamma=1.4)
    eta, _, g = entropy_pair(model, np.array([1.0, 0.0, 2.5]))
    assert eta == pytest.approx(0.0, abs=1e-14)
    assert g == pytest.approx(0.0, abs=1e-14)


def test_convert_roundtrip_euler():
    model = Euler(gamma=1.4)
    u = np.array([1.0, 0.0, 2.5])
    w = convert(model, u, "to_aux")
    np.testing.assert_allclose(w, [1.0, 0.0, 1.0], atol=1e-15)
    back = convert(model, w, "from_aux")
    np.testing.assert_allclose(back, u, rtol=1e-13)


def test_convert_identity_for_scalar_laws():
    model = Burgers()
    u = np.array([0.7])
    np.testing.assert_array_equal(convert(model, u, "to_aux"), u)


def test_convert_roundtrip_random_states(rng):
    model = Euler(gamma=1.4)
    u = random_euler_states(rng, 200)
    w = convert(model, u, "to_aux")
    np.testing.assert_allclose(convert(model, w, "from_aux"), u, rtol=1e-13)


def test_convert_rejects_unknown_direction():
    with pytest.raises(ConfigError):
        convert(Burgers(), np.array([1.0]), "sideways")


def test_max_wave_speeds():
    assert max_wave_speed(Burgers(), np.array([-3.0])) == pytest.approx(3.0)
    assert max_wave_speed(Advection(a=-2.5), np.array([7.0])) == pytest.approx(2.5)
    c = max_wave_speed(Euler(1.4), np.array([1.0, 0.0, 2.5]))
    assert c == pytest.approx(np.sqrt(1.4), rel=1e-12)


def test_inadmissible_states_raise():
    model = Euler(gamma=1.4)
    with pytest.raises(DomainError):
        flux(model, np.array([-1.0, 0.0, 2.5]))
    with pytest.raises(DomainError):
        entropy_pair(model, np.array([1.0, 10.0, 2.5]))  # negative internal energy
    exc = None
    try:
        max_wave_speed(model, np.array([[1.0, 0.0, 2.5], [1.0, 0.0, -1.0]]))
    except DomainError as err:
        exc = err
    assert exc is not None and exc.index == (1,)


def test_gamma_must_exceed_one():
    with pytest.raises(ConfigError):
        Euler(gamma=1.0)
    Euler(gamma=3.0)  # the scalar-law limit is selectable


def test_gamma_nan_is_rejected():
    with pytest.raises(ConfigError):
        Euler(gamma=float("nan"))


def _fd_gradient(f, u, h):
    grad = np.zeros_like(u)
    for i in range(len(u)):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        grad[i] = (f(up) - f(um)) / (2 * h)
    return grad


def _fd_jacobian(f, u, h):
    cols = []
    for i in range(len(u)):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        cols.append((f(up) - f(um)) / (2 * h))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("model", [Burgers(), Advection(a=1.3), Euler(1.4)])
def test_entropy_compatibility(model, rng):
    # v(u)^T f'(u) must equal g'(u); central differences, step 1e-5 scaled
    if model.p == 3:
        states = random_euler_states(rng, 100)
    else:
        states = rng.uniform(-2.0, 2.0, (100, 1))
    for u in states:
        h = 1e-5 * max(1.0, np.abs(u).max())
        v = model.entropy_variables(u)
        fprime = _fd_jacobian(model.flux, u, h)
        gprime = _fd_gradient(model.entropy_flux, u, h)
        assert np.abs(v @ fprime - gprime).max() <= 1e-6


def test_euler_entropy_convexity(rng):
    model = Euler(gamma=1.4)
    for u in random_euler_states(rng, 50):
        h = 1e-5 * max(1.0, np.abs(u).max())
        H = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                upp, upm, ump, umm = (u.copy() for _ in range(4))
                upp[i] += h
                upp[j] += h
                upm[i] += h
                upm[j] -= h
                ump[i] -= h
                ump[j] += h
                umm[i] -= h
                umm[j] -= h
                H[i, j] = (
                    model.entropy(upp) - model.entropy(upm) - model.entropy(ump) + model.entropy(umm)
                ) / (4 * h * h)
        assert np.linalg.eigvalsh(H).min() >= -1e-8


@pytest.mark.parametrize("model", [Burgers(), Advection(a=-0.7), Euler(1.4)])
def test_jacobian_matches_finite_differences(model, rng):
    if model.p == 3:
        states = random_euler_states(rng, 50)
    else:
        states = rng.uniform(-2.0, 2.0, (50, 1))
    for u in states:
        h = 1e-5 * max(1.0, np.abs(u).max())
        np.testing.assert_allclose(
            model.jacobian(u), _fd_jacobian(model.flux, u, h), atol=1e-6
        )


def test_euler_entropy_variables_are_entropy_gradient(rng):
    model = Euler(gamma=1.4)
    for u in random_euler_states(rng, 50):
        h = 1e-6 * max(1.0, np.abs(u).max())
        np.testing.assert_allclose(
            model.entropy_variables(u), _fd_gradient(model.entropy, u, h), atol=1e-5
        )
