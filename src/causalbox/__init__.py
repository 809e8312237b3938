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

The public names are those in each library module's ``__all__``.
"""

from . import (boxmodes, breakdown, freespace, lightcone, params, quadrature,
               special)
from .boxmodes import *  # noqa: F401,F403
from .breakdown import *  # noqa: F401,F403
from .freespace import *  # noqa: F401,F403
from .lightcone import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (params, quadrature, special, boxmodes,
                               lightcone, breakdown, freespace)
           for name in module.__all__] + ["__version__"]
