"""Simulator and policy library for leased high-priority spectrum channels
serving smart-grid concentrator fleets."""

from .config import ScenarioConfig
from .engine import (
    RunMetrics,
    compare_with_oracle,
    derive_quality_params,
    run,
)
from .env import (
    SpectrumLevel,
    Trace,
    generate_trace,
    load_trace,
    save_trace,
)
from .errors import (
    ConfigurationError,
    InfeasibleError,
    InvariantViolationError,
    TraceFormatError,
)
from .oracle import OfflineInstance, instance_from_trace, solve_dp
from .policy import (
    Action,
    LyapunovParams,
    QualityParams,
    StaticParams,
)
from .report import (
    SweepPoint,
    SweepResult,
    emit,
    quality_sweep_summary,
    v_sweep_summary,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ConfigurationError",
    "InfeasibleError",
    "InvariantViolationError",
    "LyapunovParams",
    "OfflineInstance",
    "QualityParams",
    "RunMetrics",
    "ScenarioConfig",
    "SpectrumLevel",
    "StaticParams",
    "SweepPoint",
    "SweepResult",
    "Trace",
    "TraceFormatError",
    "compare_with_oracle",
    "derive_quality_params",
    "emit",
    "generate_trace",
    "instance_from_trace",
    "load_trace",
    "quality_sweep_summary",
    "run",
    "save_trace",
    "solve_dp",
    "v_sweep_summary",
    "__version__",
]
