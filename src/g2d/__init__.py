"""Certified gamma_2 factorization-norm solver and discrepancy bounds.

The central quantity is the factorization norm

    gamma_2(A) = min { max_i ||B_i||_2 * max_j ||C_j||_2 : A = B C },

equivalently the least L-infinity norm of a 0-centered ellipsoid
containing the columns of A. The package computes certified two-sided
estimates of it (every upper bound backed by an explicit factorization,
which defines its ellipsoid, every lower bound by explicit dual
weights), derives
discrepancy bounds from them, and ships exact brute-force oracles and
reproduction reports for canonical set systems: initial segments,
anchored grid boxes, Boolean subcubes, and arithmetic progressions.
"""

from .ellipsoid import membership_value
from .gamma2 import (
    CertificateError,
    Gamma2Certificate,
    check_certificate,
    dual_value,
    gamma2,
    gamma2_lower_dual,
    gamma2_upper,
    read_certificate,
    uniform_nuclear_lower,
    write_certificate,
)
from .interior import InteriorPointError, minimum_height_ellipsoid
from .linalg import (
    RefusedError,
    as_matrix,
    determinant,
    kron,
    nuclear_norm,
    read_matrix,
    singular_values,
    sn_tridiagonal,
    tn_matrix,
    tn_singular_values_closed_form,
    write_matrix,
)
from .oracles import (
    ColoringResult,
    detlb2_exact,
    detlb_bucketing,
    detlb_exact,
    disc_exact,
    disc_p_exact,
    herdisc_exact,
)
from .reports import (
    BoundsReport,
    ReportRow,
    ap_report,
    audit,
    ellipsoid_dump,
    subcube_report,
    tn_figure,
    tusnady_report,
    write_csv,
)
from .setsystems import (
    MaximalAps,
    SetSystem,
    arithmetic_progressions,
    grid_anchored,
    initial_segments,
    maximal_aps,
    power_set,
    read_set_system,
    subcubes,
    write_set_system,
)

__version__ = "0.1.0"
