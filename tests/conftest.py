"""Shared fixtures/helpers and the acceptance-criteria summary hook."""

import numpy as np
import pytest

from nahn import GaugeVector, ModelParams, densities_from_eigenvectors

DL = GaugeVector(0.0, 0.0, 1.0)
DR = GaugeVector(1.0, 0.0, 0.0)


def params(t0, tL, tR, dL=DL, dR=DR):
    return ModelParams(t0=t0, tL=tL, tR=tR, dL=dL, dR=dR)


def densities(spec):
    """Per-site densities of a spectrum's right eigenvectors, as localization reads them."""
    return densities_from_eigenvectors(spec.right_eigenvectors)


def multiset_match(a, b):
    """Worst pairwise distance under greedy nearest matching of two multisets."""
    a = list(np.asarray(a).ravel())
    b = list(np.asarray(b).ravel())
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in b]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        b.pop(i)
    return worst


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return GaugeVector(*v)


@pytest.fixture
def p1():
    return params(1.0, 1.0, 3.0)


@pytest.fixture
def p2():
    return params(1.0, 3.0, 1.0)


@pytest.fixture
def p3():
    return params(1.0, 1.2, 0.9)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::")[-1].replace("test_", "", 1)
                lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
