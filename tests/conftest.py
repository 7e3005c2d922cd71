import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_euler_states(rng, n, gamma=1.4):
    """Admissible conserved states with O(1) density/velocity/pressure."""
    rho = rng.uniform(0.2, 3.0, n)
    vel = rng.uniform(-2.0, 2.0, n)
    pres = rng.uniform(0.2, 3.0, n)
    u = np.empty((n, 3))
    u[:, 0] = rho
    u[:, 1] = rho * vel
    u[:, 2] = pres / (gamma - 1.0) + 0.5 * rho * vel**2
    return u


def same_bits(got, want):
    """np.array_equal, and equal bytes too: signed zeros and NaNs included."""
    got, want = np.asarray(got), np.asarray(want)
    return (
        np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )
