"""Physical constants and paper-level parameter defaults (Table 1).

All values are SI unless the name says otherwise.  The CREE XT-E LED and
Hamamatsu S5971 photodiode constants mirror Table 1 of the paper; the
calibration notes in DESIGN.md explain the two places where the paper's
stated numbers require a derived constant (dynamic resistance, luminous
flux).
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Universal physical constants
# ---------------------------------------------------------------------------

#: Boltzmann constant [J/K].
BOLTZMANN: float = 1.380649e-23

#: Elementary charge [C].
ELEMENTARY_CHARGE: float = 1.602176634e-19

#: Thermal voltage k_B*T/q at 300 K [V].
THERMAL_VOLTAGE_300K: float = BOLTZMANN * 300.0 / ELEMENTARY_CHARGE

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT: float = 299_792_458.0

# ---------------------------------------------------------------------------
# Table 1 -- General
# ---------------------------------------------------------------------------

#: Single-sided spectral power density of the receiver noise [A^2/Hz].
NOISE_PSD: float = 7.02e-23

#: Communication bandwidth [Hz].
BANDWIDTH: float = 1.0e6

# ---------------------------------------------------------------------------
# Table 1 -- LED (CREE XT-E behind a TINA FA10645 lens)
# ---------------------------------------------------------------------------

#: Half-power semi-angle of the lensed LED [rad] (15 degrees).
HALF_POWER_SEMI_ANGLE: float = math.radians(15.0)

#: Reverse-bias saturation current I_s [A].
SATURATION_CURRENT: float = 1.44e-18

#: Diode ideality factor k (dimensionless).
IDEALITY_FACTOR: float = 2.68

#: LED series resistance R_s [Ohm].
SERIES_RESISTANCE: float = 0.19

#: Bias (illumination) current I_b [A].
BIAS_CURRENT: float = 0.450

#: Maximum swing current I_sw,max [A].
MAX_SWING_CURRENT: float = 0.900

#: Wall-plug efficiency eta (electrical -> optical).
WALL_PLUG_EFFICIENCY: float = 0.40

#: Dynamic resistance r at the bias point implied by the paper's stated
#: P_C,tx,max = r * (I_sw,max / 2)^2 = 74.42 mW  ->  r = 0.36755 Ohm.
#: See DESIGN.md "Known calibration notes".
PAPER_DYNAMIC_RESISTANCE: float = 74.42e-3 / (MAX_SWING_CURRENT / 2.0) ** 2

#: Per-TX communication power at full swing [W] (Sec. 4.2).
FULL_SWING_TX_POWER: float = 74.42e-3

# ---------------------------------------------------------------------------
# Table 1 -- Receiver (Hamamatsu S5971 photodiode front-end)
# ---------------------------------------------------------------------------

#: Receiver field of view Psi_c [rad] (90 degrees).
RECEIVER_FOV: float = math.radians(90.0)

#: Photodiode collection area A_pd [m^2] (1.1 mm^2).
PHOTODIODE_AREA: float = 1.1e-6

#: Photodiode responsivity R [A/W].
RESPONSIVITY: float = 0.40

# ---------------------------------------------------------------------------
# Deployment geometry (Sec. 4 simulation setup / Sec. 8 experimental setup)
# ---------------------------------------------------------------------------

#: Room footprint [m] (3 m x 3 m).
ROOM_SIDE: float = 3.0

#: Ceiling height in the simulation setup [m].
SIM_CEILING_HEIGHT: float = 2.8

#: Receiver (table) height in the simulation setup [m].
SIM_RECEIVER_HEIGHT: float = 0.8

#: TX height above the floor in the hardware experiments [m].
EXP_TX_HEIGHT: float = 2.0

#: Number of transmitters (6 x 6 grid).
NUM_TRANSMITTERS: int = 36

#: Grid dimension (6 x 6).
GRID_SIDE: int = 6

#: Inter-TX spacing [m].
TX_SPACING: float = 0.5

#: Default number of receivers.
NUM_RECEIVERS: int = 4

#: Side of the central area-of-interest used for illumination statistics [m].
AREA_OF_INTEREST_SIDE: float = 2.2

# ---------------------------------------------------------------------------
# Illumination requirements (ISO 8995-1, Sec. 4)
# ---------------------------------------------------------------------------

#: Minimum average illuminance for office premises [lux].
ISO_MIN_AVERAGE_LUX: float = 500.0

#: Minimum illuminance uniformity (min / average).
ISO_MIN_UNIFORMITY: float = 0.70

#: Luminous flux per LED [lm], calibrated so the Sec. 4 setup reproduces the
#: paper's 564 lux average over the 2.2 m x 2.2 m area of interest
#: (see repro.illumination.calibration and EXPERIMENTS.md).
CALIBRATED_LUMINOUS_FLUX: float = 152.34

# ---------------------------------------------------------------------------
# Synchronization (Secs. 6-8)
# ---------------------------------------------------------------------------

#: Leading-TX pilot symbol rate f_tx [symbols/s].
SYNC_SYMBOL_RATE: float = 100_000.0

#: Non-leading TX sampling rate f_rx [samples/s].
SYNC_SAMPLING_RATE: float = 1_000_000.0

#: Maximum acceptable overlap between "synchronized" symbols, as a fraction
#: of the symbol width (Sec. 6.1).
MAX_SYMBOL_OVERLAP_FRACTION: float = 0.10

#: Default floor reflectivity used for the NLOS synchronization path.
FLOOR_REFLECTIVITY: float = 0.55

# ---------------------------------------------------------------------------
# Heuristic (Sec. 5)
# ---------------------------------------------------------------------------

#: The paper's recommended SJR exponent for the 36-TX / 4-RX setup.
DEFAULT_KAPPA: float = 1.3

#: The kappa values evaluated in Fig. 11.
PAPER_KAPPAS: tuple = (1.0, 1.2, 1.3, 1.5)

# ---------------------------------------------------------------------------
# Serving runtime
# ---------------------------------------------------------------------------

#: Solver names the allocation service accepts, sorted; the keys of
#: ``repro.runtime.pool.SOLVERS``.  Kept here so the CLI can offer them
#: without importing the runtime.
SOLVER_NAMES: tuple[str, ...] = ("greedy", "heuristic", "optimal", "swing")
