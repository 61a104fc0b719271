"""Numerical laboratory for the restricted discrete quadratic Carleson operator.

Subpackages by concern:

* ``bumps``        -- the fixed smooth profiles psi, chi, phi_hat
* ``oscillatory``  -- quadratic-phase integrals H_j and scale bookkeeping
* ``arithmetic``   -- reduced rationals, Gauss sums, major boxes
* ``multiplier``   -- Weyl-sum pieces M_j, approximants L_j, errors E_j
* ``lambda_sets``  -- modulation sets and covering certificates
* ``operators``    -- the truncated maximal operator and grid probes
* ``cli``          -- artifact-emitting command-line interface
"""

from .bumps import chi, chi_s, phi_hat, psi, psi_k
from .oscillatory import ScaleIndex, envelope_check, h_j, h_row, mu, osc_norm, phi_kl_hat
from .arithmetic import (
    MajorBox,
    ReducedRational,
    enumerate_shell,
    find_box_overlaps,
    gauss_row,
    gauss_sum,
)
from .multiplier import (
    GridSpec,
    decay_report,
    e_j,
    l_js,
    l_super_s,
    m_j,
    m_j_grid,
)
from .lambda_sets import (
    CoveringCertificate,
    LambdaSet,
    cantor_set,
    cover,
    dimension_estimate,
    verify_certificate,
)
from .operators import (
    Signal,
    apply_kernel,
    apply_kernel_brute,
    bourgain_max_probe,
    carleson_max,
    norm_probe,
    oscillatory_max_probe,
    single_l_max_probe,
)

__version__ = "0.1.0"
