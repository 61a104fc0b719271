"""Numerical laboratory for the restricted discrete quadratic Carleson operator.

Subpackages by concern:

* ``bumps``        -- the fixed smooth profiles psi, chi, phi_hat
* ``oscillatory``  -- quadratic-phase integrals H_j and their FFT rows
* ``arithmetic``   -- reduced rationals, Gauss sums, major boxes
* ``multiplier``   -- Weyl-sum pieces M_j, approximants L_j, errors E_j
* ``lambda_sets``  -- modulation sets and covering certificates
* ``operators``    -- the truncated maximal operator and growth reports
* ``cli``          -- artifact-emitting command-line interface
"""

from .bumps import chi, chi_s, phi_hat, psi, psi_k
from .oscillatory import h_j, h_row
from .arithmetic import (
    MajorBox,
    ReducedRational,
    enumerate_shell,
    find_box_overlaps,
    gauss_row,
    gauss_rows,
    gauss_sum,
)
from .multiplier import (
    GridSpec,
    decay_report,
    m_j,
    m_j_grid,
)
from .lambda_sets import (
    CoveringCertificate,
    LambdaSet,
    cantor_set,
    cover,
    verify_certificate,
)
from .operators import (
    Signal,
    apply_kernel,
    apply_kernel_brute,
    carleson_max,
    norm_probe,
)

__version__ = "0.1.0"
