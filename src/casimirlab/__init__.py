"""Casimir force-gradient theory and frequency-modulation virtual experiment.

Subpackages by concern: optics (imaginary-axis permittivity), lifshitz
(plate-plate pressure), force_model (sphere-plate gradient), electrostatics
(calibration constant and the exact image-series coefficient), vexp
(synthetic measurement campaigns), analysis (calibration, error budget and
the confidence-band exclusion test), cli (command-line front end).
"""

__version__ = "0.1.0"

from .optics import (  # noqa: F401
    AU_CORE_OSCILLATORS,
    AU_DRUDE,
    Drude,
    DrudeParams,
    OpticalTable,
    Oscillator,
    PermittivityModel,
    Plasma,
    Tabulated,
)
from .lifshitz import (  # noqa: F401
    IDEAL_METAL,
    IdealMetal,
    MatsubaraCache,
    PressureResult,
    ReflectionPair,
    casimir_pressure,
    matsubara_frequency,
    pressure_sweep,
    reflection_coefficients,
)
from .force_model import (  # noqa: F401
    BetaTable,
    ForceGradient,
    Geometry,
    GradientSweep,
    force_gradient,
    pressure_to_gradient_sweep,
)
from .electrostatics import (  # noqa: F401
    calibration_constant,
    gamma_coefficient,
    gamma_over_c,
)
from .vexp import (  # noqa: F401
    CampaignSpec,
    MeasurementGrid,
    V0Law,
    load_grid,
    model_for_tag,
    reference_campaign,
    reference_geometry,
    save_grid,
    synthesize_campaign,
)
from .analysis import (  # noqa: F401
    CalibrationResult,
    ComparisonReport,
    GradientSeries,
    TheoryErrorConfig,
    calibrate,
    combine_gradient_series,
    compare,
    extract_gradients,
    fit_calibration,
    fit_parabolas,
    fit_v0_line,
)
