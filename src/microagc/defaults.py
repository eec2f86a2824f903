"""Canonical numeric defaults shared by the library, the CLI, and the config parser.

Every tunable that appears in more than one place is defined here once.
"""

import math

# IBR droop / filter parameters
OMEGA_C = 31.41                      # power-filter cutoff, rad/s
M_P = 9.4e-5                         # droop coefficient, (rad/s)/W
V_STAR = 230.0                       # nominal node voltage magnitude, V

# Network construction
BRANCH_THETA = math.pi / 2.0         # pure-reactance branch angle, rad
FEEDER_ADMITTANCE = 3.333            # default feeder branch magnitude, S
TIE_ADMITTANCE = 2.0                 # default tie-line branch magnitude, S

# Operating-point solve
OP_TOL = 1e-10                       # Newton convergence, relative to power scale
OP_MAX_ITER = 50

# Simulation cadence
CONTROL_PERIOD = 5e-3                # controller / measurement period, s
INTEGRATOR_STEP = 0.5e-3             # plant integration substep, s
SLOW_LQR_HOLD = 0.1                  # slow-baseline command hold, s (a fixed loop constant)
SENSOR_LAG_TAU = 0.1                 # PI baseline's frequency-sensor lag, s (fixed)

# Controller design
LQR_Q_DIAG = 1.0                     # default per-node state weight
LQR_R_DIAG = 1.0                     # default per-node command weight
SCENARIO_Q_DIAG = 10.0               # canonical study-scenario state weight
CARE_RTOL = 1e-8                     # Riccati residual tolerance (relative)
PI_KP = 0.6                          # PI baseline gains (fixed)
PI_KI = 6.0
COMMAND_LIMIT = 1.0                  # setpoint-deviation saturation, rad/s (fixed)

# Identification
SYSID_BETA = 0.1                     # excitation amplitude bound, rad/s
SYSID_DT_PRIME = 0.05                # excitation pulse width, s
SYSID_K0 = 4000                      # excitation record length, samples
ORDER_CANDIDATES = tuple(range(1, 11))

# Watermarking / detection
WATERMARK_STD = 0.012                # watermark std per channel, rad/s
DETECTOR_WINDOW = 100                # moving-window length W, samples
THRESHOLD_MARGIN = 2.0               # epsilon = margin * nominal peak
THRESHOLD_FLOOR = 1e-9               # lower bound so strict tests stay decidable

# Load signal defaults
LOAD_PULSE_PERIOD = 0.4              # s
LOAD_PULSE_WIDTH = 0.2               # s
LOAD_PULSE_FRACTION = 0.3            # amplitude as fraction of nominal load
