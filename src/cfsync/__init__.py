"""Complex-frequency synchronization analysis for power-system transients."""

__version__ = "0.1.0"

from .grid_model import (  # noqa: F401
    BusSpec,
    CaseError,
    Event,
    ExciterSpec,
    GeneratorSpec,
    GovernorSpec,
    LineSpec,
    LoadSpec,
    NetworkCase,
    PowerFlowError,
    PowerFlowSolution,
    apply_event,
    build_ybus,
    solve_power_flow,
)
from .dynamics import (  # noqa: F401
    SimConfig,
    SimulationError,
    Trajectory,
    initialize_dynamics,
    simulate,
    step,
)
from .cf_estimator import (  # noqa: F401
    ComplexFrequencySample,
    ComplexFrequencySeries,
    estimate_complex_frequency,
    unwrap_angles,
)
from .sync_detector import (  # noqa: F401
    GlobalVerdict,
    NodeVerdict,
    SubnetVerdict,
    SyncConfig,
    SyncReport,
    evaluate,
    find_convergence_time,
    global_verdict,
    node_verdict,
    subnet_verdict,
)
from .metrics import (  # noqa: F401
    DampingFit,
    DisturbanceRegion,
    NodeMetrics,
    SubnetMetrics,
    disturbance_region,
    fit_damping,
    node_metrics,
    overshoot,
    subnet_metrics,
)
from .inertia import (  # noqa: F401
    CapacitorBusModel,
    CapacitorSweepResult,
    EstimationError,
    capacitor_voltage_inertia,
    estimate_frequency_inertia,
    estimate_voltage_inertia,
    generalized_inertia_series,
    simulate_capacitor_bus,
)


def bundled_case_path(name: str = "wscc9"):
    """Path to a bundled case file ('wscc9' or 'wscc9_loadshed')."""
    from importlib.resources import files

    return files("cfsync.cases").joinpath(f"{name}.json")
