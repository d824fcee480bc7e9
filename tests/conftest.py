import sys

import numpy as np
import pytest

from bernbound import (boundary_point, circle, ellipse, segment_arc,
                       solve_map_pair, trig_curve)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the per-criterion verdict lines even though pytest captures
    # stdout of passing tests
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def circle_pair():
    c = circle()
    u0 = boundary_point(c, 0.0)
    return c, u0, solve_map_pair(c, u0)


@pytest.fixture(scope="session")
def ellipse_pair():
    e = ellipse(1.2, 0.8)
    u0 = boundary_point(e, 0.4)
    return e, u0, solve_map_pair(e, u0)


@pytest.fixture(scope="session")
def shifted_circle_pair():
    c = circle(radius=1.7, center=0.3 + 0.2j)
    u0 = boundary_point(c, 0.15)
    return c, u0, solve_map_pair(c, u0)


@pytest.fixture(scope="session")
def trig_pair():
    """Series maps on both sides, with s != 0 outside."""
    c = trig_curve([(1, 1.0 + 0j), (4, 0.06 + 0j)])
    u0 = boundary_point(c, 0.3)
    return c, u0, solve_map_pair(c, u0)


@pytest.fixture(scope="session")
def segment():
    return segment_arc()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
