"""Noncommutative Pick interpolation at finite matrix scale.

Evaluate free matrix polynomials on tuples of complex matrices, certify
tangential interpolation problems through completely-positive-map Choi
tests, and synthesize contractive transfer-function realizations from
feasible data.
"""

from .core import (
    DimensionMismatchError,
    DomainError,
    MatrixTuple,
    NcMatrixPolynomial,
    Word,
    check_intertwining,
    direct_sum,
    domain_margin,
    eval_nc_poly,
    eval_word,
    in_domain,
    operator_norm,
    similarity,
    word_concat,
    word_transpose,
)
from .envelopes import (
    EnvelopeWitness,
    JordanData,
    full_envelope_membership,
    jordan_spectral_data,
    nc_envelope_point,
    similarity_envelope_membership,
    zariski_membership_d1,
)
from .interpolation import (
    LtoaProblem,
    PickProblem,
    SolveReport,
    ltoa_certificate,
    ltoa_eval,
    pick_certificate,
    solve_pick,
    stein_dominance_certificate,
    strict_stein_refuter,
    twisted_ltoa_eval,
)
from .kernels import (
    ChoiMatrix,
    KolmogorovFactor,
    NotPsdError,
    PsdCertificate,
    cp_check_finite,
    dbr_kernel,
    kolmogorov_factor,
    psd_check,
    szego_kernel_solve,
)
from .okaweil import (
    TruncationReport,
    extract_nc_polynomial,
    partial_sum_eval,
    uniform_error_report,
)
from .realization import (
    Colligation,
    RealizedFunction,
    amplify,
    colligation_contraction_check,
    lurking_isometry_synthesize,
    random_contractive_colligation,
    transfer_eval,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
