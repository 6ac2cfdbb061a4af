"""Evaluation codes on toric surfaces over small finite fields.

Construct a code from a complete 2-D fan, an invariant divisor, and a set
of rational points; compute its exact parameters; check the classical
closed forms, bounds, and conjectures; list-decode the dual code.
"""

from .field import GF, FieldError
from .geometry import (
    Fan2D,
    FanError,
    LatticePolytope,
    OrbitPoint,
    PoleError,
    TDivisor,
    TorusPoint,
    count_rational_points,
    is_ample,
    is_cartier,
    is_smooth,
    lattice_points,
    orbit_points,
    polytope_of_divisor,
    torus_points,
)
from .codes import (
    CodeError,
    LinearCode,
    WeightReport,
    WorkCapExceeded,
    min_distance,
    min_distance_exhaustive,
    min_distance_infoset,
    reed_muller,
    rm_predicted_params,
)
from .toric import (
    ToricCodeResult,
    ToricCodeSpec,
    build,
    default_points,
    hansen_code,
    hansen_divisor,
    hansen_fan,
    toric_code,
)
from .bounds import (
    BoundReport,
    HansenPrediction,
    beats_gv,
    bound_report,
    conjecture1_bound,
    conjecture2_bound,
    gv_rate,
    hansen_params,
    segment_upper_bound,
)
from .decoder import DecodeOutcome, DecoderSetup, SetupError, decode
from .decoder import setup as decoder_setup
from .reproduce import reproduce_table
from .tables import FANS, GOLDEN_TABLES

__version__ = "0.1.0"
