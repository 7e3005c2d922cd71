import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conserva.errors import ConfigError, DomainError
from conserva.models import ADMISSIBLE_FLOOR, Advection, Burgers, Euler, NodeKernels

from conftest import random_euler_states, same_bits


def test_burgers_flux_values():
    model = Burgers()
    assert model.flux(np.array([0.0])) == pytest.approx(0.0)
    assert model.flux(np.array([2.0])) == pytest.approx(2.0)  # u^2/2 at u=2


def test_euler_flux_static_state():
    model = Euler(gamma=1.4)
    u = np.array([1.0, 0.0, 2.5])  # p = 0.4 * 2.5 = 1
    np.testing.assert_allclose(model.flux(u), [0.0, 1.0, 0.0], atol=1e-15)


def _entropy_pair(model, u):
    return model.entropy(u), model.entropy_variables(u), model.entropy_flux(u)


def test_burgers_entropy_pair():
    model = Burgers()
    eta, v, g = _entropy_pair(model, np.array([2.0]))
    assert eta == pytest.approx(2.0)
    assert v == pytest.approx(2.0)
    assert g == pytest.approx(8.0 / 3.0)
    eta0, v0, g0 = _entropy_pair(model, np.array([0.0]))
    assert (eta0, float(v0[0]), g0) == (0.0, 0.0, 0.0)


def test_euler_entropy_zero_at_unit_state():
    model = Euler(gamma=1.4)
    eta, _, g = _entropy_pair(model, np.array([1.0, 0.0, 2.5]))
    assert eta == pytest.approx(0.0, abs=1e-14)
    assert g == pytest.approx(0.0, abs=1e-14)


def test_convert_roundtrip_euler():
    model = Euler(gamma=1.4)
    u = np.array([1.0, 0.0, 2.5])
    w = model.to_aux(u)
    np.testing.assert_allclose(w, [1.0, 0.0, 1.0], atol=1e-15)
    back = model.from_aux(w)
    np.testing.assert_allclose(back, u, rtol=1e-13)


def test_convert_identity_for_scalar_laws():
    model = Burgers()
    u = np.array([0.7])
    np.testing.assert_array_equal(model.to_aux(u), u)


def test_convert_roundtrip_random_states(rng):
    model = Euler(gamma=1.4)
    u = random_euler_states(rng, 200)
    w = model.to_aux(u)
    np.testing.assert_allclose(model.from_aux(w), u, rtol=1e-13)


def test_max_wave_speeds():
    assert Burgers().max_wave_speed(np.array([-3.0])) == pytest.approx(3.0)
    assert Advection(a=-2.5).max_wave_speed(np.array([7.0])) == pytest.approx(2.5)
    c = Euler(1.4).max_wave_speed(np.array([1.0, 0.0, 2.5]))
    assert c == pytest.approx(np.sqrt(1.4), rel=1e-12)


def test_inadmissible_states_raise():
    model = Euler(gamma=1.4)
    with pytest.raises(DomainError):
        NodeKernels.of(model, np.array([-1.0, 0.0, 2.5]))
    with pytest.raises(DomainError):
        NodeKernels.of(model, np.array([1.0, 10.0, 2.5]))  # negative internal energy
    exc = None
    try:
        NodeKernels.of(model, np.array([[1.0, 0.0, 2.5], [1.0, 0.0, -1.0]]))
    except DomainError as err:
        exc = err
    assert exc is not None and exc.index == (1,)


def _mask_with_safe_copy(u):
    """Euler.admissible_mask as it was: non-finite rows replaced by ones first."""
    finite = np.isfinite(u).all(axis=-1)
    safe = np.where(finite[..., None], u, 1.0)
    rho = safe[..., 0]
    with np.errstate(all="ignore"):
        e_int = safe[..., 2] - 0.5 * safe[..., 1] * (safe[..., 1] / rho)
    return finite & (rho > ADMISSIBLE_FLOOR) & (e_int > ADMISSIBLE_FLOOR)


@pytest.mark.parametrize("state", [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1e-200, 1e200, 1.0]])
def test_zero_or_overflowing_density_raises_domain_error(state):
    # mom/rho divides by zero or overflows here; that is an answer, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            NodeKernels.of(Euler(gamma=1.4), np.array([state]))


_AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-200, 1e-12, 1.0, -1.0, 2.5,
            1e200, 1e308, -1e308, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(3)),
                  elements=st.one_of(st.sampled_from(_AWKWARD), st.floats())))
def test_property_node_kernels_of_raises_domain_error_never_a_warning(u):
    model = Euler(gamma=1.4)
    want = _mask_with_safe_copy(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_bits(model.admissible_mask(u), want)
        if want.all():
            NodeKernels.of(model, u)
        else:
            with pytest.raises(DomainError):
                NodeKernels.of(model, u)


def test_gamma_must_exceed_one():
    with pytest.raises(ConfigError):
        Euler(gamma=1.0)
    Euler(gamma=3.0)  # the scalar-law limit is selectable


def test_gamma_nan_is_rejected():
    with pytest.raises(ConfigError):
        Euler(gamma=float("nan"))


def test_gamma_must_be_finite():
    with pytest.raises(ConfigError):
        Euler(gamma=float("inf"))


@st.composite
def _states_and_gathers(draw):
    """A model, admissible conserved states u with their auxiliary states w,
    and a row-index array (repeats and any order, 1-D or cell-pair shaped)."""
    n = draw(st.integers(1, 40))
    magnitude = lambda: 10.0 ** draw(hnp.arrays(float, n, elements=st.floats(-6.0, 6.0)))
    kind = draw(st.sampled_from(["advection", "burgers", "euler"]))
    if kind == "euler":
        model = Euler(gamma=draw(st.floats(1.1, 5.0 / 3.0)))
        rho, pres = magnitude(), magnitude()
        mach = draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)))
        w = np.column_stack([rho, mach * np.sqrt(model.gamma * pres / rho), pres])
        u = model.from_aux(w)
    else:
        model = Burgers() if kind == "burgers" else Advection(a=draw(st.floats(-1e6, 1e6)))
        sign = draw(hnp.arrays(float, n, elements=st.sampled_from([-1.0, 1.0])))
        u = w = (sign * magnitude())[:, None]
    assert model.admissible_mask(u).all()
    m = draw(st.integers(1, 3 * n))
    shape = draw(st.sampled_from([(m,), (m, 2)]))
    idx = draw(hnp.arrays(np.intp, shape, elements=st.integers(0, n - 1)))
    return model, u, w, idx


@settings(max_examples=200, deadline=None)
@given(_states_and_gathers())
def test_property_kernels_commute_with_row_gathers(case):
    # gathering node results by cell equals evaluating on the gathered
    # states, so a kernel may run once per node and be gathered per cell
    model, u, w, idx = case
    kernels = [
        (getattr(model, name), u)
        for name in ("flux", "max_wave_speed", "entropy", "entropy_variables", "to_aux",
                     "admissible_mask")
    ] + [(model.from_aux, w)]
    for kernel, states in kernels:
        gathered, direct = kernel(states)[idx], kernel(states[idx])
        assert gathered.shape == direct.shape and gathered.dtype == direct.dtype
        assert gathered.tobytes() == direct.tobytes(), kernel.__name__


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


# ---------------------------------------------------------------------------
# node_kernels: one hook for mask, flux and wave speed
# ---------------------------------------------------------------------------


def _admissible_row(draw):
    rho = draw(st.floats(1e-3, 1e3))
    vel = draw(st.floats(-1e3, 1e3))
    pres = draw(st.floats(1e-3, 1e3))
    return [rho, rho * vel, pres / 0.4 + 0.5 * rho * vel**2]


@st.composite
def _mixed_euler_rows(draw):
    """Admissible, finite but inadmissible and non-finite rows, in any order."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["admissible", "awkward", "any"]))
        if kind == "admissible":
            rows.append(_admissible_row(draw))
        else:
            values = st.sampled_from(_AWKWARD) if kind == "awkward" else st.floats()
            rows.append([draw(values) for _ in range(3)])
    return np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(_mixed_euler_rows())
def test_property_euler_node_kernels_equal_the_separate_kernels(u):
    model = Euler(gamma=1.4)
    with warnings.catch_warnings():
        # like admissible_mask, the shared kernel answers on any row, silently
        warnings.simplefilter("error")
        nodes = model.node_kernels(u)
        eta = model.node_kernels(u, entropy=True).entropy
    with np.errstate(all="ignore"):
        assert same_bits(nodes.admissible, model.admissible_mask(u))
        assert same_bits(nodes.flux, model.flux(u))
        assert same_bits(nodes.speed, model.max_wave_speed(u))
        assert nodes.entropy is None
        assert same_bits(eta, model.entropy(u))
        # the entropy flux read off the bundle, with and without its entropy
        want = model.entropy_flux(u)
        assert same_bits(model.entropy_flux(u, model.node_kernels(u, entropy=True)), want)
        assert same_bits(model.entropy_flux(u, nodes), want)
    assert nodes.states is u


def test_euler_node_kernels_entropy_is_silent_on_an_inadmissible_row():
    # the entropy of a negative pressure is nan, not a RuntimeWarning: the
    # door of integrate builds exactly this bundle before it checks its mask
    nodes = Euler().node_kernels([[1.0, 0.0, 2.5], [1.0, 0.0, -1.0]], entropy=True)
    assert same_bits(nodes.admissible, np.array([True, False]))
    assert np.isfinite(nodes.entropy[0]) and np.isnan(nodes.entropy[1])


@pytest.mark.parametrize("model", [Burgers(), Advection(a=-0.7)], ids=["burgers", "advection"])
def test_default_node_kernels_call_the_separate_kernels(model, rng):
    u = rng.uniform(-2.0, 2.0, (9, 1))
    u[[2, 5]] = [[np.nan], [np.inf]]
    nodes = model.node_kernels(u, entropy=True)
    assert same_bits(nodes.admissible, model.admissible_mask(u))
    assert same_bits(nodes.flux, model.flux(u))
    assert same_bits(nodes.speed, model.max_wave_speed(u))
    assert same_bits(nodes.entropy, model.entropy(u))
    assert model.node_kernels(u).entropy is None
