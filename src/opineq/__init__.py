"""opineq: numerical radius computation and operator-inequality
verification for dense complex matrices.

All operations are pure functions of their inputs; values are immutable
after construction and safe to share across threads.
"""

from .conjecture import ConjectureResult, conjecture_search, half_diff_slack
from .ensembles import KINDS, EnsembleSpec, generate, sample_matrix, trial_rng
from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    HypothesisUnmet,
    InvalidSpec,
    MatrixFormatError,
    NoConvergence,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotSquare,
    OpineqError,
    UnknownSuite,
)
from .fuzz import SUITE_NAMES, SuiteSummary, run_suites
from .inequalities import (
    BoundReport,
    PositivityVerdict,
    aluthge_bound_reports,
    beta_chain_reports,
    block_pair_report,
    block_positivity,
    compression_bound_report,
    corner_norm_report,
    default_tol,
    half_difference_reports,
    majorization_equiv,
    mixed_schwarz,
    radius_upper_reports,
)
from .linalg import (
    Contraction,
    HermEigen,
    SvdFactors,
    block2,
    contraction,
    fro_norm,
    herm_eig,
    matrix_abs,
    matrix_power_psd,
    re_im_parts,
    spectral_norm,
    svd,
)
from .matio import (
    dumps_matrix,
    load_matrix,
    loads_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_matrix,
)
from .radius import (
    SweepConfig,
    SweepResult,
    numerical_radius,
    rayleigh_radius,
)
from .tables import TABLE_TOL, GoldenTable, TableRow, reproduce_tables
from .transforms import AluthgeResult, PolarFactors, aluthge, generalized_polar, polar

__version__ = "0.1.0"
