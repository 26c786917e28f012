"""Spans around the public functions of each gausszonoids layer.

``Tracer.install()`` replaces functions by timing wrappers in every
gausszonoids module namespace that binds them, because modules look names
up in their own globals (``fields.volume`` is ``geometry.volume`` imported
by name).  It runs only in a traced child process; untraced runs execute the
unmodified library.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span or None, ``count`` the work the call was handed (points,
directions, samples or normals drawn).  ``layer_metrics`` turns the spans of
one process into the per-layer metrics; a layer's self time is its span
time minus the time of its child spans.
"""
from __future__ import annotations

import dataclasses
import math
import sys
import time

# The work counters run in the traced child, which has numpy loaded; the
# parent only calls layer_metrics and stays on the standard library.


def _points_last_axis(p, *args, **kwargs):
    import numpy as np

    arr = np.asarray(p)
    return int(arr.size // arr.shape[-1]) if arr.ndim else 1


def _broadcast_size(*args, **kwargs):
    import numpy as np

    return int(np.broadcast(*[np.asarray(a) for a in args]).size)


def _first_size(s, *args, **kwargs):
    import numpy as np

    return int(np.size(s))


def _n_dirs(dim, s, n_dirs=10_000, *args, **kwargs):
    return int(n_dirs)


def _normals(size=None, *args, **kwargs):
    import numpy as np

    return int(np.prod(size)) if size is not None else 1


# (module, function, span name, what the call is handed)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("kernels", "limit_support", "kernels.limit_support", _broadcast_size),
    ("kernels", "axial_stretch", "kernels.axial_stretch", _first_size),
    ("geometry", "volume", "geometry.volume", None),
    ("geometry", "boundary_profile", "geometry.boundary_profile", None),
    ("geometry", "check_inclusion", "geometry.check_inclusion", _n_dirs),
    ("geometry", "limit_body_inradius", "geometry.limit_body_inradius", None),
    ("geometry", "limit_inradius_angle", "geometry.limit_inradius_angle", None),
    ("geometry", "limit_inradius_grid", "geometry.limit_inradius_grid", None),
    ("determinants", "expected_absdet_mc", "determinants.expected_absdet_mc", None),
    ("determinants", "check_determinant_bounds", "determinants.check_determinant_bounds", None),
    ("determinants", "mixed_area", "determinants.mixed_area", None),
    ("fields", "_integral_1d", "fields.integral_1d", None),
    ("fields", "_integral_2d", "fields.integral_2d", None),
    ("fields", "expected_zeros_coarea", "fields.coarea", None),
    ("fields", "envelope_sandwich", "fields.sandwich", None),
    ("fields", "mc_zero_count_circle", "fields.mc_zero_count_circle", None),
)

# the Monte Carlo sample callback is timed under the layer that supplies it
SAMPLE_SPANS = {"determinants": "determinants.sample", "fields": "fields.mc.sample"}


class _TimedGenerator:
    """A numpy Generator whose standard_normal calls are spans."""

    def __init__(self, tracer: "Tracer", gen):
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call("montecarlo.draw", self._gen.standard_normal, args, kwargs, _normals)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, count(*args, **kwargs) if count else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapper

    def install(self):
        import gausszonoids.cli  # noqa: F401  (loads every module)

        mods = {
            name.split(".")[-1]: mod
            for name, mod in sys.modules.items()
            if name == "gausszonoids" or name.startswith("gausszonoids.")
        }

        def rebind(original, replacement, where=None):
            for mod in where or mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

        for module, func, span, count in SPANS:
            fn = getattr(mods[module], func)
            rebind(fn, self.wrap(span, fn, count))

        stream = mods["montecarlo"].stream

        def traced_stream(seed, index):
            return _TimedGenerator(self, self.call("montecarlo.stream", stream, (seed, index), {}))

        rebind(stream, traced_stream)

        mc_mean = mods["montecarlo"].mc_mean
        for module, sample_span in SAMPLE_SPANS.items():

            def traced_mc_mean(sample, cfg, _span=sample_span):
                timed = self.wrap(_span, sample, lambda rng, n: int(n))
                return self.call("montecarlo.mc_mean", mc_mean, (timed, cfg), {})

            rebind(mc_mean, traced_mc_mean, [mods[module]])

        sine_field = mods["fields"].sine_field

        def traced_sine_field(*args, **kwargs):
            field = sine_field(*args, **kwargs)
            return dataclasses.replace(
                field,
                phi=self.wrap("fields.phi", field.phi, _points_last_axis),
                grad=self.wrap("fields.grad", field.grad, _points_last_axis),
            )

        rebind(sine_field, traced_sine_field, [mods["cli"]])


# -- per-layer metrics -----------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "kernels.limit_support.points": "count",
    "kernels.limit_support.self_s": "s",
    "kernels.axial_stretch.points": "count",
    "kernels.axial_stretch.self_s": "s",
    "geometry.volume.calls": "count",
    "geometry.volume.self_s": "s",
    "geometry.inclusion.dirs_per_s": "1/s",
    "geometry.inradius.self_s": "s",
    "montecarlo.chunks": "count",
    "montecarlo.draws": "count",
    "montecarlo.draw_s": "s",
    "montecarlo.reduce_s": "s",
    "determinants.samples": "count",
    "determinants.factor_s": "s",
    "determinants.mixed_area.self_s": "s",
    "fields.phi.points": "count",
    "fields.grad.points": "count",
    "fields.integral_1d.self_s": "s",
    "fields.integral_2d.self_s": "s",
    "fields.coarea.self_s": "s",
    "fields.sandwich.self_s": "s",
    "fields.mc.sample_s": "s",
    "fields.mc.phi_s": "s",
    "trace.overhead_frac": "ratio",
}

_INRADIUS = ("geometry.limit_body_inradius", "geometry.limit_inradius_angle", "geometry.limit_inradius_grid")


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced process (all but trace.overhead_frac)."""
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s[3] is not None:
            own[s[3]] -= dur[i]

    def total(names, values):
        names = (names,) if isinstance(names, str) else names
        return math.fsum(v for s, v in zip(spans, values) if s[0] in names)

    def count(name):
        return sum(s[4] for s in spans if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def under_mc_sample(i):
        p = spans[i][3]
        while p is not None:
            if spans[p][0] == "fields.mc.sample":
                return True
            p = spans[p][3]
        return False

    incl_s = total("geometry.check_inclusion", dur)
    return {
        "cli.self_s": total("cli.main", own),
        "kernels.limit_support.points": count("kernels.limit_support"),
        "kernels.limit_support.self_s": total("kernels.limit_support", own),
        "kernels.axial_stretch.points": count("kernels.axial_stretch"),
        "kernels.axial_stretch.self_s": total("kernels.axial_stretch", own),
        "geometry.volume.calls": calls("geometry.volume"),
        "geometry.volume.self_s": total("geometry.volume", own),
        "geometry.inclusion.dirs_per_s": count("geometry.check_inclusion") / incl_s if incl_s else 0.0,
        "geometry.inradius.self_s": total(_INRADIUS, own),
        "montecarlo.chunks": calls("montecarlo.stream"),
        "montecarlo.draws": count("montecarlo.draw"),
        "montecarlo.draw_s": total("montecarlo.draw", dur),
        "montecarlo.reduce_s": total("montecarlo.mc_mean", own),
        "determinants.samples": count("determinants.sample"),
        "determinants.factor_s": total("determinants.sample", own),
        "determinants.mixed_area.self_s": total("determinants.mixed_area", own),
        "fields.phi.points": count("fields.phi"),
        "fields.grad.points": count("fields.grad"),
        "fields.integral_1d.self_s": total("fields.integral_1d", own),
        "fields.integral_2d.self_s": total("fields.integral_2d", own),
        "fields.coarea.self_s": total("fields.coarea", own),
        "fields.sandwich.self_s": total("fields.sandwich", own),
        "fields.mc.sample_s": total("fields.mc.sample", dur),
        "fields.mc.phi_s": math.fsum(
            d for i, (s, d) in enumerate(zip(spans, dur)) if s[0] == "fields.phi" and under_mc_sample(i)
        ),
    }
