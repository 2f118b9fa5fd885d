"""Spans around the calls into each casimirlab layer, recorded from outside.

A Tracer replaces selected public functions of the package with wrappers
that record one span per call: name, start, end, parent span and operation
id, plus a few attributes read from the arguments or the result (points
evaluated, Matsubara terms used, bytes written).  Several modules import
their callees by name, so every casimirlab module attribute that refers to
a traced function is rebound, and all of them are restored on exit.

Spans stay in memory; the caller writes them out when the run ends.
Recording is single-threaded, so spans nest strictly and a span's direct
children never overlap.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _points(index: int, keyword: str):
    def after(state, args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[keyword]
        return {"points": int(np.size(value))}
    return after


def _pressure_attrs(state, args, kwargs, result):
    return {"n_terms": result.n_terms, "stopped_by": result.stopped_by}


def _truth_misses(args, kwargs):
    from casimirlab import vexp

    return vexp._truth_curves_cached.cache_info().misses


def _truth_hit(misses_before, args, kwargs, result):
    from casimirlab import vexp

    return {"hit": vexp._truth_curves_cached.cache_info().misses == misses_before}


# (span name, defining module, attribute or Class.method, before, after)
TARGETS = (
    ("optics.epsilon", "casimirlab.optics", "Drude.epsilon", None, _points(1, "xi")),
    ("optics.epsilon", "casimirlab.optics", "Plasma.epsilon", None, _points(1, "xi")),
    ("optics.epsilon", "casimirlab.optics", "Tabulated.epsilon", None, _points(1, "xi")),
    ("lifshitz.casimir_pressure", "casimirlab.lifshitz", "casimir_pressure", None, _pressure_attrs),
    ("lifshitz.pressure_sweep", "casimirlab.lifshitz", "pressure_sweep", None, None),
    ("force_model.pressure_to_gradient_sweep", "casimirlab.force_model",
     "pressure_to_gradient_sweep", None, _points(3, "grid")),
    ("force_model.force_gradient", "casimirlab.force_model", "force_gradient", None, None),
    ("electrostatics.gamma_over_c", "casimirlab.electrostatics", "gamma_over_c",
     None, _points(0, "a")),
    ("vexp.truth_curves", "casimirlab.vexp", "truth_curves", _truth_misses, _truth_hit),
    ("vexp.synthesize_campaign", "casimirlab.vexp", "synthesize_campaign", None, None),
    ("vexp.load_grid", "casimirlab.vexp", "load_grid", None, None),
    ("analysis.calibrate", "casimirlab.analysis", "calibrate", None, None),
    ("analysis.fit_parabolas", "casimirlab.analysis", "fit_parabolas", None, None),
    ("analysis.fit_calibration", "casimirlab.analysis", "fit_calibration", None, None),
    ("analysis.fit_v0_line", "casimirlab.analysis", "fit_v0_line", None, None),
    ("analysis.extract_gradients", "casimirlab.analysis", "extract_gradients", None, None),
    ("analysis.combine_gradient_series", "casimirlab.analysis", "combine_gradient_series",
     None, None),
    ("analysis.compare", "casimirlab.analysis", "compare", None, None),
    ("cli.main", "casimirlab.cli", "main", None, None),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "casimirlab" or name.startswith("casimirlab."))]


class Tracer:
    """Context manager that installs the wrappers and restores the originals.

    Set ``op`` to the current operation id before each operation; spans
    recorded while ``op`` is None (set-up, checks) are kept but excluded
    from the per-layer metrics.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        from casimirlab.errors import CasimirLabError

        self._typed = CasimirLabError
        for name, module_name, attr, before, after in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._bind(cls, meth, self._wrap(name, original, before, after))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, before, after)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)
        return False

    def _bind(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, "__dict__", {}).get(key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = Span(name, 0.0, parent=stack[-1] if stack else None, op=self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                span.attrs["typed_error"] = isinstance(exc, self._typed)
                raise
            finally:
                span.end = clock()
                stack.pop()
            if after:
                span.attrs.update(after(state, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


# Per-layer metrics in report order, with units.  Values are per traced
# operation unless the name says otherwise (a ratio or a mean).
PER_LAYER = (
    ("optics.eps_calls", "count"),
    ("optics.eps_points", "count"),
    ("optics.self_s", "s"),
    ("lifshitz.pressure_calls", "count"),
    ("lifshitz.sweep_calls", "count"),
    ("lifshitz.self_s", "s"),
    ("lifshitz.ms_per_call", "ms"),
    ("lifshitz.terms_mean", "terms"),
    ("lifshitz.stop_tol_frac", "fraction"),
    ("force_model.sweep_calls", "count"),
    ("force_model.points", "count"),
    ("force_model.self_s", "s"),
    ("electrostatics.gamma_calls", "count"),
    ("electrostatics.points", "count"),
    ("electrostatics.self_s", "s"),
    ("electrostatics.us_per_point", "us"),
    ("vexp.truth_calls", "count"),
    ("vexp.truth_hit_frac", "fraction"),
    ("vexp.truth_self_s", "s"),
    ("vexp.synth_self_s", "s"),
    ("analysis.calibrate_calls", "count"),
    ("analysis.gamma_calls_per_calibrate", "count"),
    ("analysis.calibrate_self_s", "s"),
    ("analysis.fit_parabolas_s", "s"),
    ("analysis.extract_s", "s"),
    ("analysis.compare_s", "s"),
    ("analysis.errors", "count"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_frac", "fraction"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_ops: int, *, import_s: float,
                  bytes_written: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics over the spans recorded inside operations.

    import_s, bytes_written (total over the operations) and overhead_frac
    are measured by the caller around the traced run.
    """
    own = self_times(spans)
    inside = [i for i, s in enumerate(spans) if s.op is not None]

    def has_ancestor(i, name):
        p = spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def named(name):
        return [spans[i] for i in inside if spans[i].name == name]

    def layer_self(layer):
        return sum(own[i] for i in inside if spans[i].layer == layer)

    def total(name, key=None):
        return sum(s.attrs.get(key, 0) if key else s.duration for s in named(name))

    per_op = 1.0 / n_ops
    pressures = named("lifshitz.casimir_pressure")
    truths = named("vexp.truth_curves")
    gamma = named("electrostatics.gamma_over_c")
    calibrate_calls = len(named("analysis.calibrate"))
    in_calibrate = [i for i in inside if spans[i].name == "analysis.calibrate"
                    or has_ancestor(i, "analysis.calibrate")]
    errors = [i for i in inside if spans[i].layer == "analysis"
              and spans[i].attrs.get("typed_error")
              and (spans[i].parent is None or spans[spans[i].parent].layer != "analysis")]
    values = {
        "optics.eps_calls": len(named("optics.epsilon")) * per_op,
        "optics.eps_points": total("optics.epsilon", "points") * per_op,
        "optics.self_s": layer_self("optics") * per_op,
        "lifshitz.pressure_calls": len(pressures) * per_op,
        "lifshitz.sweep_calls": len(named("lifshitz.pressure_sweep")) * per_op,
        "lifshitz.self_s": layer_self("lifshitz") * per_op,
        "lifshitz.ms_per_call": 1e3 * _ratio(total("lifshitz.casimir_pressure"), len(pressures)),
        "lifshitz.terms_mean": _ratio(sum(s.attrs["n_terms"] for s in pressures), len(pressures)),
        "lifshitz.stop_tol_frac": _ratio(
            sum(s.attrs["stopped_by"] == "tol" for s in pressures), len(pressures)),
        "force_model.sweep_calls":
            len(named("force_model.pressure_to_gradient_sweep")) * per_op,
        "force_model.points":
            total("force_model.pressure_to_gradient_sweep", "points") * per_op,
        "force_model.self_s": layer_self("force_model") * per_op,
        "electrostatics.gamma_calls": len(gamma) * per_op,
        "electrostatics.points": total("electrostatics.gamma_over_c", "points") * per_op,
        "electrostatics.self_s": layer_self("electrostatics") * per_op,
        "electrostatics.us_per_point": 1e6 * _ratio(
            total("electrostatics.gamma_over_c"), total("electrostatics.gamma_over_c", "points")),
        "vexp.truth_calls": len(truths) * per_op,
        "vexp.truth_hit_frac": _ratio(sum(s.attrs["hit"] for s in truths), len(truths)),
        "vexp.truth_self_s": sum(own[i] for i in inside
                                 if spans[i].name == "vexp.truth_curves") * per_op,
        "vexp.synth_self_s": sum(own[i] for i in inside
                                 if spans[i].name == "vexp.synthesize_campaign") * per_op,
        "analysis.calibrate_calls": calibrate_calls * per_op,
        "analysis.gamma_calls_per_calibrate": _ratio(
            sum(1 for i in in_calibrate if spans[i].name == "electrostatics.gamma_over_c"),
            calibrate_calls),
        "analysis.calibrate_self_s": sum(own[i] for i in in_calibrate
                                         if spans[i].layer == "analysis") * per_op,
        "analysis.fit_parabolas_s": total("analysis.fit_parabolas") * per_op,
        "analysis.extract_s": total("analysis.extract_gradients") * per_op,
        "analysis.compare_s": (total("analysis.compare")
                               + total("analysis.combine_gradient_series")) * per_op,
        "analysis.errors": len(errors) * per_op,
        "cli.import_s": import_s,
        "cli.self_s": layer_self("cli") * per_op,
        "cli.bytes_written": bytes_written * per_op,
        "trace.overhead_frac": overhead_frac,
    }
    return values
