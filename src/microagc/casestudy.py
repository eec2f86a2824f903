"""Canonical two-microgrid study system and the pipelines that prepare a
detection-ready scenario: identification records, and the training pipeline
that identifies the prediction model and calibrates the detector through
the CLI's one calibration recipe.

Grid 1: three IBRs (nodes 0-2) feeding two load nodes; grid 2: two IBRs
feeding one load node. Loads are resistive (25 / 20 / 33 ohm per phase)
converted to nominal three-phase powers at the nominal voltage. A tie branch
between load node 1 of grid 1 and the load node of grid 2 can network the two
grids.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import defaults
from .lqr import CostWeights
from .netmodel import IbrParams, NetworkSpec
from .simcore import (
    DetectorSetup,
    GridSpec,
    LoadSignalSpec,
    Scenario,
    TieSpec,
    ZohStepper,
    grid_plant,
)
from .sysid import ExcitationSpec, _recursion_rows, generate_excitation, select_order
from .watermark import WatermarkConfig

LOAD_OHMS_GRID1 = (25.0, 20.0)
LOAD_OHMS_GRID2 = (33.0,)


def load_power(ohms: float) -> float:
    """Three-phase power of a per-phase resistive load at nominal voltage."""
    return 3.0 * defaults.V_STAR**2 / ohms


def _study_grid(n_ibr: int, ohms, feeders, **settings) -> GridSpec:
    """n_ibr IBRs with the default droop and filter, sharing equally the
    resistive loads of the given ohms, one per load node (numbered after the
    IBRs); each (i, k) in feeders is a branch of defaults.FEEDER_ADMITTANCE.
    settings are the GridSpec's own fields."""
    network = NetworkSpec.from_branches(
        n_ibr=n_ibr, n_load=len(ohms),
        branches=[(i, k, defaults.FEEDER_ADMITTANCE) for i, k in feeders])
    ibrs = (IbrParams(omega_c=defaults.OMEGA_C, m_p=defaults.M_P),) * n_ibr
    return GridSpec(network=network, ibrs=ibrs, loads=[load_power(r) for r in ohms],
                    **settings)


def grid1_spec(
    controller: str = "optimal-z",
    weights: CostWeights | None = None,
    load_signals=(),
    detector: DetectorSetup | None = None,
) -> GridSpec:
    """Three-IBR microgrid with loads 1 and 2; load node 1 is the tie point."""
    return _study_grid(3, LOAD_OHMS_GRID1, [(0, 3), (1, 3), (2, 4), (3, 4)],
                       controller=controller, weights=weights,
                       load_signals=load_signals, detector=detector)


def grid2_spec(
    controller: str = "optimal-z",
    weights: CostWeights | None = None,
    load_signals=(),
) -> GridSpec:
    """Two-IBR microgrid with load 3 at its single load node."""
    return _study_grid(2, LOAD_OHMS_GRID2, [(0, 2), (1, 2)], controller=controller,
                       weights=weights, load_signals=load_signals)


def default_tie() -> TieSpec:
    return TieSpec(node_a=4, node_b=2, y_mag=defaults.TIE_ADMITTANCE)


def pulse_load_signal() -> LoadSignalSpec:
    """Periodic pulses on load 1, amplitude as a fraction of its nominal power."""
    return LoadSignalSpec(
        kind="periodic-pulse",
        amplitude=defaults.LOAD_PULSE_FRACTION * load_power(LOAD_OHMS_GRID1[0]),
    )


def simulate_open_loop(
    plant, u: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Drive the plant with a setpoint sequence held at dt, loads frozen.

    Returns (t, y) with y[k] the power deviation sampled before applying u[k]:
    x[k+1] = a_d x[k] + b_d u[k] of `ZohStepper(plant, dt)` from rest, by
    `sysid._recursion_rows`, and y = h_red e x (`measure_power` at zero load).
    The hold makes the exact ZOH step sufficient with no substeps.
    """
    stepper = ZohStepper(plant, dt)
    x = _recursion_rows(stepper.a_d.T, np.zeros(plant.n_states),
                        u @ stepper.b_d[:, : plant.n_ibr].T)
    return np.arange(u.shape[0]) * dt, x @ (plant.h_red @ plant.e).T


def identification_records(
    grid: GridSpec,
    spec: ExcitationSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Open-loop excitation records (t, u, y) for the grid's plant.

    The staircase excitation drives the setpoints directly (secondary control
    replaced by the excitation); the power response is sampled at the same
    cadence with loads frozen.
    """
    _, plant = grid_plant(grid)
    u = generate_excitation(spec, grid.network.n_ibr)
    t, y = simulate_open_loop(plant, u, spec.dt)
    return t, u, y


def trained_detector(
    grid: GridSpec,
    calibration_signals=(),
    calibration_horizon: float = 10.0,
    seed: int = 0,
    candidates=defaults.ORDER_CANDIDATES,
):
    """Full detection pipeline: identify, then calibrate as `microagc calibrate`
    does (`cli.calibrate_detector`), at the default excitation, watermark,
    window and margin.

    Returns (DetectorSetup, OrderReport). The calibration run uses the grid's
    controller and weights with the given calibration load signals.
    """
    from . import cli

    excitation = ExcitationSpec(seed=seed + 17)
    _, u, y = identification_records(grid, excitation)
    report, model = select_order(u, y, candidates=candidates, dt=excitation.dt)
    watermark = WatermarkConfig(defaults.WATERMARK_STD, seed=seed + 29)
    grid = replace(grid, load_signals=tuple(calibration_signals),
                   detector=cli.open_detector(model, watermark, defaults.DETECTOR_WINDOW))
    run = Scenario(grids=(grid,), horizon=calibration_horizon)
    return cli.calibrate_detector(run, defaults.THRESHOLD_MARGIN), report
