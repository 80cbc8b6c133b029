"""Load-imbalance metrics and simulation under multifractal traffic.

The package splits into synthetic traffic generation (`traffic`), scaling
estimators (`fractal`), the imbalance metric suite (`metrics`), a
discrete-time cluster simulator (`simulation`), and the config/CLI shell
(`config`, `cli`). The most used names are re-exported here.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CalibrationError,
    ConfigError,
    DegenerateSeriesError,
    EstimationError,
    InsufficientDataError,
)
from .fractal import (
    DEFAULT_Q_GRID,
    HurstEstimate,
    MultifractalSpectrum,
    estimate_hurst_dfa,
    mfdfa,
)
from .metrics import (
    ImbalanceReport,
    ResourceUtilization,
    ServerSpec,
    WeightTriple,
    composite_load,
    full_report,
    resource_imbalance,
    score_windows,
    sil_value,
)
from .simulation import (
    CalibrationTarget,
    ClusterState,
    DemandParams,
    Policy,
    PolicyKind,
    ScenarioConfig,
    ServiceClass,
    Task,
    arrivals_from_traffic,
    dispatch,
    homogeneous_cluster,
    rebalance,
    reference_cluster,
    run_scenario,
    step,
)
from .traffic import (
    GeneratorKind,
    GeneratorMeta,
    TrafficSeries,
    calibrate,
    generate_cascade,
    generate_composite,
    generate_fgn,
    generate_from_meta,
    measure_scaling,
    read_series_csv,
    write_series_csv,
)

__version__ = "0.1.0"

# every public name imported above; submodules bound by the imports are not exports
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
