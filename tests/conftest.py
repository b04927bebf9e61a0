"""Shared fixtures and the acceptance-criteria reporting hook."""
import numpy as np
import pytest

from nlslab import Model, make_grid
from nlslab.grid import nonlinear_phase
from nlslab.propagators import _coefficients, _march

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for the one-line-per-criterion verdicts."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid1d():
    return make_grid(1, 256, 20.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def one_step():
    """one_step(field, dt, coefficients=None): one Strang step of dt (of either
    sign) from the field's own time, with the field's own model and sigma unless
    coefficients, a (phase, schedule) pair, are given."""
    def step(field, dt, coefficients=None):
        if coefficients is None:
            coefficients = _coefficients(field.model, (field.sigma,), field.grid)
        values, t = _march(field.values[None], field.grid, field.time, [dt], coefficients)
        return field.with_values(values[0], time=t)
    return step


@pytest.fixture(scope="session")
def frozen_lens_step(one_step):
    """step(field, dt): one Strang step of the rescaled-lens equation with its
    envelope frozen at tau = 1, i.e. the constant schedule kappa = 1, nl = 1,
    harm = 1/4, an autonomous equation whose energy is conserved."""
    def step(field, dt):
        sigma = np.full((1,) * (field.grid.dim + 1), field.sigma)

        def schedule(times, dts):
            return np.ones((1, 1)), np.ones((1,) + sigma.shape), np.full((1,) + sigma.shape, 0.25)

        return one_step(field, dt, (nonlinear_phase(Model.RESCALED_LENS, sigma), schedule))
    return step
