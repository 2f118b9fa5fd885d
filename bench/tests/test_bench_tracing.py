import sys

import numpy as np
import pytest

import casimirlab.cli  # noqa: F401  (loads every casimirlab module)
from casimirlab import analysis, electrostatics, force_model, vexp
from casimirlab.errors import CasimirLabError
from tracing import PER_LAYER, Span, Tracer, layer_metrics, self_times


def _package_bindings():
    return {(name, key): value for name, mod in sys.modules.items()
            if name.startswith("casimirlab") for key, value in vars(mod).items()
            if callable(value)}


def test_self_time_subtracts_nested_children():
    spans = [
        Span("force_model.pressure_to_gradient_sweep", 0.0, 10.0, None, 0),
        Span("force_model.force_gradient", 1.0, 4.0, 0, 0),
        Span("lifshitz.casimir_pressure", 1.5, 3.5, 1, 0, {"n_terms": 20, "stopped_by": "cap"}),
        Span("force_model.force_gradient", 5.0, 8.0, 0, 0),
        Span("lifshitz.casimir_pressure", 5.5, 7.5, 3, 0, {"n_terms": 30, "stopped_by": "tol"}),
    ]
    assert self_times(spans) == [4.0, 1.0, 2.0, 1.0, 2.0]
    m = layer_metrics(spans, 2, import_s=0.5, bytes_written=10, overhead_frac=0.01)
    assert list(m) == [name for name, _ in PER_LAYER]
    assert m["force_model.self_s"] == 3.0
    assert m["lifshitz.self_s"] == 2.0
    assert m["lifshitz.pressure_calls"] == 1.0
    assert m["lifshitz.ms_per_call"] == 2000.0
    assert m["lifshitz.terms_mean"] == 25.0
    assert m["lifshitz.stop_tol_frac"] == 0.5
    assert m["cli.bytes_written"] == 5.0


def test_spans_outside_operations_are_excluded():
    spans = [Span("electrostatics.gamma_over_c", 0.0, 1.0, None, None, {"points": 3}),
             Span("electrostatics.gamma_over_c", 1.0, 1.5, None, 0, {"points": 5})]
    m = layer_metrics(spans, 1, import_s=0.0, bytes_written=0, overhead_frac=0.0)
    assert m["electrostatics.gamma_calls"] == 1.0
    assert m["electrostatics.points"] == 5.0


def test_traced_sweep_nests_and_accounts_all_time():
    geometry = force_model.Geometry(R=43.466e-6)
    grid = np.array([300e-9, 400e-9, 500e-9])
    with Tracer() as tracer:
        tracer.op = 0
        force_model.pressure_to_gradient_sweep(
            vexp.model_for_tag("plasma"), geometry, force_model.BetaTable(), grid)
    spans = tracer.spans
    names = [s.name for s in spans]
    assert names.count("force_model.force_gradient") == 3
    assert names.count("lifshitz.casimir_pressure") == 3
    for s in spans:
        if s.name == "lifshitz.casimir_pressure":
            assert spans[s.parent].name == "force_model.force_gradient"
        if s.name == "force_model.force_gradient":
            assert spans[s.parent].name == "force_model.pressure_to_gradient_sweep"
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration, rel=1e-9, abs=1e-12)
    m = layer_metrics(spans, 1, import_s=0.0, bytes_written=0, overhead_frac=0.0)
    assert m["force_model.points"] == 3
    assert m["lifshitz.pressure_calls"] == 3


def test_wrappers_bound_everywhere_and_restored():
    before = _package_bindings()
    original = electrostatics.gamma_over_c
    with pytest.raises(RuntimeError):
        with Tracer():
            assert analysis.gamma_over_c is vexp.gamma_over_c is electrostatics.gamma_over_c
            assert analysis.gamma_over_c is not original
            assert casimirlab.cli.pressure_to_gradient_sweep is vexp.pressure_to_gradient_sweep
            assert force_model.casimir_pressure.__wrapped__ is not None
            raise RuntimeError("leave the block with an exception")
    assert _package_bindings() == before
    assert "epsilon" in vars(type(vexp.model_for_tag("drude")))
    assert not hasattr(type(vexp.model_for_tag("drude")).epsilon, "__wrapped__")


def test_typed_errors_count_once_per_failing_call():
    with Tracer() as tracer:
        tracer.op = 0
        with pytest.raises(CasimirLabError):
            analysis.fit_calibration(np.arange(10) * 1e-9, np.ones(10), np.ones(10), 40e-6)
    m = layer_metrics(tracer.spans, 1, import_s=0.0, bytes_written=0, overhead_frac=0.0)
    assert m["analysis.errors"] == 1.0
