import math

import mpmath
import numpy as np
import pytest
from scipy.special import sici

from causalbox import (
    EULER_GAMMA,
    REFERENCE_TABLE,
    cosine_integral,
    entire_cosine_integral,
    integrate,
    reference_table_errors,
    sine_integral,
)
from causalbox.quadrature import QuadratureConfig


def test_si_zero():
    assert sine_integral(0.0) == 0.0


def test_si_at_pi_against_quadrature():
    # independent route: adaptive quadrature of the defining integrand
    res = integrate(lambda t: np.sinc(t / math.pi), 0.0, math.pi,
                    QuadratureConfig(abs_tol=1e-13, rel_tol=0.0))
    assert res.converged
    assert sine_integral(math.pi) == pytest.approx(res.value, abs=1e-12)
    assert sine_integral(math.pi) == pytest.approx(1.8519370519824662, abs=1e-10)


def test_si_large_argument_limit():
    # |Si(x) - pi/2| <= 2/x for large x (first asymptotic bound)
    for x in (1e3, 1e4):
        assert abs(sine_integral(x) - math.pi / 2.0) < 2.0 / x


def test_si_odd():
    xs = np.array([1e-3, 0.3, 2.0, 8.0, 15.99, 16.01, 40.0, 300.0])
    assert np.max(np.abs(sine_integral(xs) + sine_integral(-xs))) < 1e-14


def test_ci_large_argument_limit():
    for x in (1e3, 1e4):
        assert abs(cosine_integral(x)) < 2.0 / x


def test_ci_domain_error():
    with pytest.raises(ValueError):
        cosine_integral(0.0)
    with pytest.raises(ValueError):
        cosine_integral(-2.0)
    with pytest.raises(ValueError):
        cosine_integral(np.array([1.0, -1.0]))


def test_cin_zero_and_even():
    assert entire_cosine_integral(0.0) == 0.0
    xs = np.array([0.5, 3.0, 18.0])
    assert np.max(np.abs(entire_cosine_integral(xs)
                         - entire_cosine_integral(-xs))) < 1e-14


def test_ci_cin_identity():
    # the two implementations must agree through gamma + ln x - Cin
    for x in (1.0, 0.2, 5.0, 15.9, 16.1, 80.0):
        lhs = cosine_integral(x)
        rhs = EULER_GAMMA + math.log(x) - entire_cosine_integral(x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_si_derivative_matches_sinc():
    for x in (0.5, 2.0, 10.0):
        h = 1e-5
        fd = (sine_integral(x + h) - sine_integral(x - h)) / (2.0 * h)
        assert fd == pytest.approx(math.sin(x) / x, abs=1e-6)


def test_reference_table():
    errs = reference_table_errors()
    assert errs["si"] <= 1e-15
    assert errs["cin"] <= 1e-15
    # spot-regenerate two table rows by quadrature right here
    for x, si_ref, cin_ref in (REFERENCE_TABLE[3], REFERENCE_TABLE[16]):
        si_q = integrate(lambda t: np.sinc(t / math.pi), 0.0, x,
                         QuadratureConfig(abs_tol=1e-13, rel_tol=0.0,
                                          max_subdivisions=8000))
        assert si_q.value == pytest.approx(si_ref, abs=1e-11)


def test_against_scipy_cross_check():
    xs = np.geomspace(0.05, 500.0, 80)
    si_mine = sine_integral(xs)
    ci_mine = cosine_integral(xs)
    si_ref, ci_ref = sici(xs)
    assert np.max(np.abs(si_mine - si_ref)) < 1e-10
    assert np.max(np.abs(ci_mine - ci_ref)) < 1e-10


def test_against_mpmath():
    # 40-digit oracle; the extra points straddle the Cin switch at |x| = 1
    xs = np.concatenate((np.geomspace(1e-8, 1e4, 241),
                         [0.999, 1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0,
                          np.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.001]))
    with mpmath.workdps(40):
        si_ref = np.array([float(mpmath.si(x)) for x in xs])
        ci_ref = np.array([float(mpmath.ci(x)) for x in xs])
        cin_ref = np.array([float(mpmath.euler + mpmath.log(x) - mpmath.ci(x))
                            for x in xs])
    for sign in (1.0, -1.0):
        assert np.max(np.abs(sine_integral(sign * xs) - sign * si_ref)) <= 2e-15
        assert np.max(np.abs(entire_cosine_integral(sign * xs) - cin_ref)
                      / cin_ref) <= 2e-15
    # absolute where |Ci| <= 1; near x = 1e-8, |Ci| = 17.8 and the spacing of
    # doubles there (3.6e-15) is itself larger than 2e-15
    assert np.max(np.abs(cosine_integral(xs) - ci_ref)
                  / np.maximum(1.0, np.abs(ci_ref))) <= 2e-15


def test_scalar_and_array_shapes():
    assert isinstance(sine_integral(1.0), float)
    out = sine_integral(np.ones((2, 3)))
    assert out.shape == (2, 3)
    assert isinstance(entire_cosine_integral(2.0), float)
