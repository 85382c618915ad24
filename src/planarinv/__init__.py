"""planarinv: analysis toolkit for smooth planar involutions.

Verify the involution identity on a window, classify orientation, locate
fixed points, test the spectral linearization conditions, build the
explicit standard-map conjugacy, certify its injectivity empirically, and
trace the induced invariant foliation.
"""

from .dual import Dual
from .expr import EvaluationError, ExprNode, ParseError, PlanarMap, parse, recentered
from .foliation import (
    RADIAL,
    VERTICAL,
    CanonicalFoliation,
    InversionError,
    Leaf,
    canonical_parameter_range,
    default_leaf_parameters,
    diagonalize_involution,
    invert_standard_map,
    leaf_invariance_check,
    trace_leaf,
    trace_leaves,
)
from .gallery import GalleryEntry, example_c_map, get, list_entries
from .involution import (
    CURVE,
    FIX_MINUS,
    FIX_PLUS,
    ORIENTATION_PRESERVING,
    ORIENTATION_REVERSING,
    UNCLASSIFIED,
    BasePointError,
    DegenerateJacobianError,
    FixedPoint,
    FixedPointScan,
    GridSample,
    InvolutionCheck,
    OrientationClass,
    Region,
    classify_fixed_point,
    find_fixed_points,
    fix_origin,
    linear_part,
    orientation,
    polish_fixed_point,
    verify_involution,
)
from .linalg2 import (
    IDENTITY,
    MINUS_IDENTITY,
    Mat2,
    SingularMatrixError,
    Spectrum,
    eigenvalues,
    is_linear_involution,
)
from .linearize import (
    COLLISION,
    NO_COLLISION_FOUND,
    InjectivityCertificate,
    JacobianBounds,
    NotApplicableError,
    StandardMap,
    conjugacy_residual,
    injectivity_scan,
    spectrum_shift_check,
    standard_map,
    theorem_B_jacobian_check,
)
from .spectral import (
    COND_A_GAP,
    COND_A_IDENTITY,
    COND_A_REAL,
    COND_B_TRACE,
    ConditionVerdict,
    SpectralAssessment,
    SpectrumSample,
    SpectrumSamples,
    TheoremAChecks,
    check_condition_A,
    check_condition_B,
    sample_spectrum,
    theorem_verdict,
)

__version__ = "0.1.0"
