"""Spans around calls into causalbox, recorded from outside the library.

The library has no instrumentation of its own, so the traced run installs
wrappers on the module-level names through which the layers call each
other (``cli.violation_probability``, ``lightcone.wavefunction``,
``freespace.integrate``, ...).  Every module attribute that holds one of
the target functions is replaced, so calls inside a module (for example
``adjudicate_convention`` calling ``free_violation_probability``) are
traced too.  ``Tracer.installed`` restores every name on exit.

A span is (name, start, end, parent, attrs).  Its layer is the part of
the name before the first dot.  Self time is the span's duration minus the
part of it that its children cover.

The integrand handed to ``integrate`` runs inside the quadrature layer's
span but does the calling layer's work (the erf closed form in freespace,
the mode sum in lightcone), so it gets a span of its own, named after the
module whose ``integrate`` name was called: ``freespace.integrand``.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("cli", "boxmodes", "lightcone", "freespace", "quadrature",
           "special", "params", "breakdown")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def fft_size(max_mode: int) -> int:
    """Length of the zero-padded array that the pairwise P(tau) transforms."""
    return 1 << int(math.ceil(math.log2(2 * max_mode + 2)))


def _spectrum_attrs(args, kwargs, result):
    # tol None means the library default
    tol = args[1] if len(args) > 1 else kwargs.get("tol")
    return {"lambda": result.lambda_factor, "max_mode": result.max_mode,
            "tol": tol}


def _wavefunction_attrs(args, kwargs, result):
    spectrum = args[0]
    zeta = args[2] if len(args) > 2 else kwargs["zeta"]
    return {"points": int(np.size(zeta)), "max_mode": spectrum.max_mode}


def _violation_attrs(args, kwargs, result):
    spectrum = args[0]
    return {"lambda": spectrum.lambda_factor, "max_mode": spectrum.max_mode}


def _violation_name(args, kwargs):
    method = args[3] if len(args) > 3 else kwargs.get("method", "pairwise")
    return ("lightcone.quadrature_route" if method == "quadrature"
            else "lightcone.violation_probability")


# (module, function) pairs that get a span; each may name an attrs hook
# and a hook that picks the span name from the arguments.
TARGETS = {
    ("boxmodes", "build_spectrum"): {"attrs": _spectrum_attrs},
    ("boxmodes", "wavefunction"): {"attrs": _wavefunction_attrs},
    ("boxmodes", "density_snapshot"): {},
    ("boxmodes", "density_norm"): {},
    ("boxmodes", "parseval_partial_sum"): {},
    ("lightcone", "violation_probability"): {"attrs": _violation_attrs,
                                              "name": _violation_name},
    ("freespace", "free_violation_probability"): {},
    ("freespace", "adjudicate_convention"): {},
    ("freespace", "asymptotic_violation"): {},
    ("freespace", "asymptotic_violation_closed"): {},
    ("freespace", "asymptotic_result"): {},
    ("special", "sine_integral"): {},
    ("special", "cosine_integral"): {},
    ("special", "entire_cosine_integral"): {},
}


def _modules() -> dict:
    return {m: importlib.import_module(f"causalbox.{m}") for m in MODULES}


class Tracer:
    """Collects spans in memory; single-threaded (one stack of open spans)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run fn(*args, **kwargs) inside a span; attrs(args, kwargs, result)."""
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def _wrapper(self, module, func, orig, spec):
        name_of = spec.get("name")
        attrs = spec.get("attrs")
        fixed = f"{module}.{func}"

        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if name_of else fixed
            return self.call(name, orig, args, kwargs, attrs)
        return traced

    def _integrate_wrapper(self, caller, orig):
        """integrate() as seen from module ``caller``: integrand spans too."""
        integrand_name = f"{caller}.integrand"

        def traced(f, a, b, cfg=None):
            evals = [0]

            def integrand(x):
                evals[0] += int(np.size(x))
                return self.call(integrand_name, f, (x,), {})

            def attrs(args, kwargs, res):
                return {"evals": evals[0],
                        "subdivisions": res.subdivisions_used,
                        "converged": bool(res.converged)}
            return self.call("quadrature.integrate", orig,
                             (integrand, a, b, cfg), {}, attrs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target name in every causalbox module; restore on exit."""
        mods = _modules()
        holders = dict(mods, causalbox=importlib.import_module("causalbox"))
        plan = [(m, f, getattr(mods[m], f), spec)
                for (m, f), spec in TARGETS.items()]
        integrate = mods["quadrature"].integrate
        saved = []
        try:
            for holder_name, holder in holders.items():
                for module, func, orig, spec in plan:
                    if getattr(holder, func, None) is orig:
                        saved.append((holder, func, orig))
                        setattr(holder, func,
                                self._wrapper(module, func, orig, spec))
                if (holder_name in mods
                        and getattr(holder, "integrate", None) is integrate):
                    saved.append((holder, "integrate", integrate))
                    setattr(holder, "integrate",
                            self._integrate_wrapper(holder_name, integrate))
            yield self
        finally:
            for holder, func, orig in reversed(saved):
                setattr(holder, func, orig)
