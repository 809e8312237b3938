"""causalbox: how badly Schrodinger dynamics violates relativistic causality
in the one-dimensional sudden-expansion problem.

A particle confined to a hard box is released into a larger box (or into
half-infinite space).  Non-relativistic quantum mechanics then predicts
probability weight outside the forward light cones of the initial support;
this library evolves the exact mode-sum (or Fresnel-integral) wave function,
integrates that weight, classifies the parameter regime where the violation
becomes total (deterministic superluminal signaling), and evaluates the
late-time violation probability in closed form.

Everything is dimensionless: positions in units of the initial box width,
times in light-crossings of it, and the single physical knob s = box width
over reduced Compton wavelength.
"""

from .params import (
    SystemParams,
    TimeScales,
    lorentz_factor,
    speed_fraction,
    time_scales,
)
from .quadrature import (
    QuadratureConfig,
    QuadratureResult,
    NumericalConvergenceError,
    integrate,
)
from .special import (
    EULER_GAMMA,
    sine_integral,
    cosine_integral,
    entire_cosine_integral,
    REFERENCE_TABLE,
    reference_table_errors,
)
from .boxmodes import (
    ModeSpectrum,
    DensityCurve,
    mode_coefficient,
    coefficient_ratio,
    build_spectrum,
    wavefunction,
    initial_state,
    density_snapshot,
    density_norm,
    parseval_partial_sum,
)
from .lightcone import (
    ViolationCurve,
    light_front,
    violation_probability,
    violation_curve,
    default_sweep_grid,
)
from .breakdown import (
    CONFINEMENT_THRESHOLD,
    GAMMA_THRESHOLD,
    BreakdownReport,
    breakdown_possible,
    breakdown_interval,
    is_total_breakdown,
    breakdown_report,
    gaussian_width,
)
from .freespace import (
    AsymptoticResult,
    ConventionRecord,
    AdjudicationError,
    momentum_amplitude,
    free_wavefunction,
    stationary_wavenumber,
    free_violation_probability,
    asymptotic_violation,
    asymptotic_violation_closed,
    asymptotic_series,
    adjudicate_convention,
    default_convention_record,
    asymptotic_result,
)

__version__ = "0.1.0"

__all__ = [
    "SystemParams", "TimeScales",
    "lorentz_factor", "speed_fraction", "time_scales",
    "QuadratureConfig", "QuadratureResult", "NumericalConvergenceError",
    "integrate",
    "EULER_GAMMA", "sine_integral", "cosine_integral",
    "entire_cosine_integral", "REFERENCE_TABLE", "reference_table_errors",
    "ModeSpectrum", "DensityCurve", "mode_coefficient", "coefficient_ratio",
    "build_spectrum", "wavefunction", "initial_state", "density_snapshot",
    "density_norm", "parseval_partial_sum",
    "ViolationCurve", "light_front",
    "violation_probability", "violation_curve", "default_sweep_grid",
    "CONFINEMENT_THRESHOLD", "GAMMA_THRESHOLD", "BreakdownReport",
    "breakdown_possible", "breakdown_interval",
    "is_total_breakdown", "breakdown_report", "gaussian_width",
    "AsymptoticResult", "ConventionRecord", "AdjudicationError",
    "momentum_amplitude", "free_wavefunction", "stationary_wavenumber",
    "free_violation_probability", "asymptotic_violation",
    "asymptotic_violation_closed", "asymptotic_series",
    "adjudicate_convention", "default_convention_record", "asymptotic_result",
    "__version__",
]
