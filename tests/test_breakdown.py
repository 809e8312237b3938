import math

import numpy as np
import pytest

from causalbox import (
    CONFINEMENT_THRESHOLD,
    breakdown_interval,
    gaussian_width,
    is_total_breakdown,
)

PI = math.pi


def test_threshold_constant():
    assert CONFINEMENT_THRESHOLD == pytest.approx(0.19634954084936207, rel=1e-15)


def test_breakdown_possible():
    # breakdown is possible exactly when the window exists
    assert breakdown_interval(0.1) is not None
    assert breakdown_interval(0.2) is None
    assert breakdown_interval(PI / 16.0) is not None  # non-strict boundary
    with pytest.raises(ValueError):
        breakdown_interval(0.0)


def test_interval_reference_values():
    lo, hi = breakdown_interval(0.1)
    # frozen high-precision endpoints; they print as 2.352 and 13.356
    assert lo == pytest.approx(2.3522454561, abs=1e-9)
    assert hi == pytest.approx(13.3557178118, abs=1e-9)
    assert lo == pytest.approx(2.352, abs=1e-3)
    assert hi == pytest.approx(13.356, abs=1e-3)


def test_interval_degenerate_at_threshold():
    lo, hi = breakdown_interval(PI / 16.0)
    assert lo == pytest.approx(4.0, rel=1e-12)
    assert hi == pytest.approx(4.0, rel=1e-12)


def test_interval_absent_above_threshold():
    assert breakdown_interval(0.25) is None


def test_interval_roots_satisfy_quadratic():
    for s in (0.001, 0.01, 0.05, 0.1, 0.15, 0.19):
        lo, hi = breakdown_interval(s)
        assert lo <= hi
        for root in (lo, hi):
            resid = (2.0 * s / PI) * root * root - root + 2.0
            assert abs(resid) < 1e-12
        # product-of-roots identity used for the stable lower root
        assert lo * hi == pytest.approx(PI / s, rel=1e-13)


def test_total_breakdown_cases():
    assert is_total_breakdown(0.1, 5.0)
    assert not is_total_breakdown(0.2, 5.0)
    assert not is_total_breakdown(0.1, 2.0)
    with pytest.raises(ValueError):
        is_total_breakdown(-0.1, 5.0)
    with pytest.raises(ValueError):
        is_total_breakdown(0.1, 1.0)


def test_total_breakdown_implies_possible():
    for s in np.geomspace(0.02, 0.4, 25):
        for lam in np.linspace(1.1, 20.0, 40):
            if is_total_breakdown(s, lam):
                assert breakdown_interval(s) is not None


def test_breakdown_inside_interval_consistency():
    for s in (0.05, 0.1, 0.15):
        lo, hi = breakdown_interval(s)
        mid = 0.5 * (lo + hi)
        assert is_total_breakdown(s, mid)
        assert not is_total_breakdown(s, lo - 0.02)
        assert not is_total_breakdown(s, hi + 0.02)


class TestGaussianSpread:
    def test_initial_width(self):
        assert gaussian_width(0.3, 0.0) == 0.3

    def test_marginal_case(self):
        # sigma0 = 1/2 never lags light but only matches it asymptotically
        for tau in (0.5, 2.0, 50.0):
            w = gaussian_width(0.5, tau)
            assert w == pytest.approx(math.sqrt(0.25 + tau * tau), rel=1e-14)
            assert w >= tau
        assert gaussian_width(0.5, 1e8) / 1e8 == pytest.approx(1.0, abs=1e-10)

    def test_superluminal_spread_value(self):
        assert gaussian_width(0.1, 1.0) == pytest.approx(5.000999900019995,
                                                         rel=1e-14)
        assert gaussian_width(0.1, 1.0) > 1.0

    def test_asymptotic_rate(self):
        for sigma0 in (0.1, 0.5, 2.0):
            rate = gaussian_width(sigma0, 1e9) / 1e9
            assert rate == pytest.approx(1.0 / (2.0 * sigma0), rel=1e-9)
            assert (rate > 1.0) == (sigma0 < 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            gaussian_width(0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_width(0.5, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                gaussian_width(0.5, bad)
            with pytest.raises(ValueError, match="finite"):
                gaussian_width(bad, 1.0)
