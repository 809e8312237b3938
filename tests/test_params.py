import math
import sys

import mpmath
import numpy as np
import pytest

from causalbox import (
    SystemParams,
    lorentz_factor,
    speed_fraction,
    time_scales,
)


def test_lorentz_reference_points():
    assert lorentz_factor(4.0) == pytest.approx(1.0 + math.pi**2 / 32.0, rel=1e-15)
    assert lorentz_factor(4.0) == pytest.approx(1.30843, abs=5e-6)
    # threshold confinement maps to an exactly representable integer factor
    assert lorentz_factor(math.pi / 16.0) == pytest.approx(129.0, rel=1e-12)
    assert lorentz_factor(0.1) == pytest.approx(494.4802200544679, rel=1e-12)
    assert lorentz_factor(1e8) == pytest.approx(1.0, abs=1e-15)


def test_lorentz_domain():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            lorentz_factor(bad)
        with pytest.raises(ValueError):
            speed_fraction(bad)


def test_speed_reference_points():
    assert speed_fraction(4.0) == pytest.approx(0.6448874150209453, rel=1e-12)
    # high-precision oracle value for gamma = 1 + pi^2/2
    assert speed_fraction(1.0) == pytest.approx(0.98570206181392439, rel=1e-14)
    assert speed_fraction(1e8) < 1e-7


def test_speed_gamma_consistency_across_scales():
    # v^2 + 1/gamma^2 = 1 even where gamma - 1 is tiny
    for s in np.geomspace(1e-3, 1e3, 61):
        g = lorentz_factor(s)
        v = speed_fraction(s)
        assert abs(v * v + 1.0 / (g * g) - 1.0) < 1e-14
        assert 0.0 <= v < 1.0


def test_gamma_monotone_decreasing():
    grid = np.geomspace(1e-3, 1e3, 200)
    gammas = np.array([lorentz_factor(s) for s in grid])
    assert np.all(np.diff(gammas) < 0)
    assert np.all(gammas > 1.0)


def test_time_scales_reference():
    ts = time_scales(SystemParams(s=0.1, lambda_factor=5.0))
    assert ts.tau_revival == pytest.approx(10.0 / math.pi, rel=1e-15)
    assert ts.tau_revival == pytest.approx(3.18310, abs=5e-6)
    assert ts.tau_specular == pytest.approx(1.59155, abs=5e-6)
    assert ts.tau_evacuation == 4.0


def test_time_scales_linearity_and_identity():
    base = time_scales(SystemParams(s=0.3, lambda_factor=5.0))
    doubled = time_scales(SystemParams(s=0.6, lambda_factor=5.0))
    assert doubled.tau_revival == pytest.approx(2.0 * base.tau_revival, rel=1e-15)
    for s in (0.01, 0.5, 7.0):
        for lam in (1.5, 5.0, 12.0):
            ts = time_scales(SystemParams(s=s, lambda_factor=lam))
            assert ts.tau_revival * math.pi / (4.0 * lam * lam * s) == pytest.approx(
                1.0, rel=1e-15)
            assert ts.tau_specular == pytest.approx(0.5 * ts.tau_revival, rel=1e-15)
            assert ts.tau_evacuation == lam - 1.0


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(s=-1.0, lambda_factor=5.0)
    with pytest.raises(ValueError):
        SystemParams(s=0.0, lambda_factor=5.0)
    with pytest.raises(ValueError):
        SystemParams(s=1.0, lambda_factor=1.0)
    with pytest.raises(ValueError):
        SystemParams(s=1.0, lambda_factor=0.5)
    for s, lam in ((math.inf, 5.0), (math.nan, 5.0), (1.0, math.inf),
                   (1.0, math.nan)):
        with pytest.raises(ValueError):
            SystemParams(s=s, lambda_factor=lam)


def test_speed_matches_high_precision_across_scales():
    with mpmath.workdps(50):
        for s in np.geomspace(1e-70, 1e12, 400):
            x = mpmath.mpf(float(s))
            gamma = 1 + mpmath.pi**2 / (2 * x * x)
            want = mpmath.sqrt(1 - 1 / gamma**2)
            assert abs(speed_fraction(float(s)) - want) <= 3e-16 * want
    # gamma near the float maximum: v/c is 1, not inf or nan
    assert speed_fraction(1e-150) == 1.0


def test_gamma_overflow_refused():
    top = math.pi / (math.sqrt(2.0) * math.sqrt(sys.float_info.max))
    assert math.isfinite(lorentz_factor(math.nextafter(top, 1.0)))
    for s in (top, 1e-160, 1e-200, 5e-324):
        for fn in (lorentz_factor, speed_fraction):
            with pytest.raises(ValueError, match="gamma overflows"):
                fn(s)
