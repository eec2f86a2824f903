"""Frequency regulation and cyber resilience for systems of AC microgrids.

Subpackages by concern:

  netmodel   physical model, linearization, Kron reduction, plant assembly
  transform  left-null z coordinates and the running z integral
  lqr        z-space optimal design plus runtime control laws
  sysid      excitation design, subspace identification, order selection
  watermark  dynamic-watermark FDI detection
  simcore    deterministic scenario engine (plants, sensors, attacks, tie line)
  casestudy  canonical two-microgrid system and training pipelines
  textio     CSV tables and block files: the one writer and reader of run logs,
             detector telemetry, identification records, models and baselines
  cli        command-line front end
"""

__version__ = "0.1.0"

from .netmodel import (  # noqa: F401
    AngleSensitivity,
    IbrParams,
    LinearPlant,
    ModelError,
    NetworkSpec,
    OperatingPoint,
    ReductionError,
    assemble_plant,
    build_sensitivity,
    kron_reduce,
    nonlinear_injection,
    solve_operating_point,
)
from .transform import (  # noqa: F401
    LeftNullTransform,
    make_transform,
    z_update,
)
from .lqr import (  # noqa: F401
    ControlDesignError,
    ControllerGain,
    CostWeights,
    ObserverState,
    control_decentralized,
    control_observer,
    control_optimal,
    control_pi_baseline,
    lqr_gain,
    solve_care,
)
from .sysid import (  # noqa: F401
    DiscreteModel,
    ExcitationSpec,
    IdentificationError,
    InsufficientExcitationError,
    OrderReport,
    generate_excitation,
    identify,
    predict,
    select_order,
)
from .watermark import (  # noqa: F401
    BaselineStats,
    DetectorState,
    WatermarkConfig,
    WatermarkSource,
    calibrate_baseline,
    calibrate_thresholds,
    dw_step,
    innovation_statistics,
    predict_step,
    window_statistics,
)
from .simcore import (  # noqa: F401
    AttackSpec,
    DetectorSetup,
    Event,
    GridSpec,
    LoadSignalSpec,
    Scenario,
    ScenarioError,
    SimulationError,
    TieSpec,
    TimeSeries,
    ZohStepper,
    apply_attack,
    close_tie_line,
    load_signal,
    measure_frequency_lagged,
    measure_power,
    run_scenario,
    summarize,
)
