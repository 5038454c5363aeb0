"""Exact quaternion polynomial algebra and surfaces woven from circles.

The package keeps every computation in rational arithmetic: quaternions over
the rationals, one- and two-variable polynomials over them, division with
remainder on both sides, rank-one factorization of degenerate 2x2 matrices,
Pythagorean 6-tuples of polynomials, and exact samplers plus circle checks
for the surface families built from pairs of circles.
"""

from .errors import (
    BasePoint,
    DegenerateFamily,
    DegreeTooHigh,
    InvalidInput,
    NoProgress,
    NotDegenerate,
    NotTupleShaped,
    PolePoint,
    PreconditionDegree,
    QuatsurfError,
    TooFewPoints,
    UnsupportedFamily,
)
from .pythagorean import (
    PyTuple,
    is_pythagorean,
    matrix_to_tuple,
    tuple_from_pair,
    tuple_to_matrix,
    tuple_to_sphere_map,
)
from .qmat import Mat2, Vec2, col_op, conj_transpose, is_degenerate, kron, swap_cols, swap_rows
from .qpoly import (
    QPolyUV,
    RPolyUV,
    left_div_rem,
    quat_poly,
    right_div_rem,
    v_slices,
)
from .quat import Quaternion, Rational, rational_from_str, rational_to_str
from .split import SplitCertificate, split, split_normalize
from .surfaces import (
    Circle3,
    CircleS3,
    Quadric4,
    SurfaceSpec,
    coordinate_curve,
    cyclide_implicit,
    eval_c,
    eval_e,
    export_csv,
    export_obj,
    grid_params,
    is_circle_or_line,
    quartic_to_json,
    quartic_value,
    render_decimal,
    sample_grid,
    stereo,
    stereo_inv,
)

__all__ = [
    "BasePoint",
    "Circle3",
    "CircleS3",
    "DegenerateFamily",
    "DegreeTooHigh",
    "InvalidInput",
    "Mat2",
    "NoProgress",
    "NotDegenerate",
    "NotTupleShaped",
    "PolePoint",
    "PreconditionDegree",
    "PyTuple",
    "QPolyUV",
    "Quadric4",
    "Quaternion",
    "QuatsurfError",
    "RPolyUV",
    "Rational",
    "SplitCertificate",
    "SurfaceSpec",
    "TooFewPoints",
    "UnsupportedFamily",
    "Vec2",
    "col_op",
    "conj_transpose",
    "coordinate_curve",
    "cyclide_implicit",
    "eval_c",
    "eval_e",
    "export_csv",
    "export_obj",
    "grid_params",
    "is_circle_or_line",
    "is_degenerate",
    "is_pythagorean",
    "kron",
    "left_div_rem",
    "matrix_to_tuple",
    "quartic_to_json",
    "quartic_value",
    "quat_poly",
    "rational_from_str",
    "rational_to_str",
    "render_decimal",
    "right_div_rem",
    "sample_grid",
    "split",
    "split_normalize",
    "stereo",
    "stereo_inv",
    "swap_cols",
    "swap_rows",
    "tuple_from_pair",
    "tuple_to_matrix",
    "tuple_to_sphere_map",
    "v_slices",
]

__version__ = "0.1.0"
