"""Numerical toolkit for biorthogonal random-matrix ensembles: correlation
kernels, multiple orthogonal polynomials of type I and II, the chiral GUE
with an external source, and Monte Carlo / quadrature verification of
characteristic-polynomial-average identities."""

from .charpoly import (
    AvgEstimate,
    RatioOracle,
    Rho1Report,
    SourceModel,
    avg_charpoly,
    avg_inv_charpoly,
    charpoly_estimate,
    kernel_from_ratio,
    residue_extract,
    rho1_check,
    rho1_report,
    sample_matrix,
    sample_spectra,
)
from .chgue import (
    ChgueParams,
    ConfluentSpec,
    chgue_gram,
    chgue_kernel,
    chgue_pdf,
    chgue_type_one,
    chgue_type_two,
    confluent_spec,
    confluent_weights,
    ensemble_spec,
    kernel_sum_check,
    laguerre_cd_kernel,
    rank_decomposition,
    reference_spec,
    residue_kernel,
    scaled_laguerre_eta,
    staircase_functions,
    w_alpha,
)
from .ensembles import (
    EnsembleSpec,
    HalfLine,
    KernelData,
    OrthoPolySystem,
    Segment,
    build_kernel,
    cd_check,
    correlation,
    correlation_by_marginal,
    default_rule,
    kernel_eval,
    op_from_weight,
    pdf_eval,
)
from .errors import (
    BiorthoError,
    CapacityError,
    ConfluentError,
    ConvergenceError,
    DomainError,
    NumericError,
    NumericWarning,
    SingularMatrixError,
    UnsupportedModelError,
)
from .multipoly import (
    Composition,
    TypeIFunction,
    TypeIIPolynomial,
    WeightSystem,
    biortho_sequence,
    check_ortho_one,
    check_ortho_two,
    staircase_path,
    type_one,
    type_two,
    xi_family,
)
from .numerics import (
    QuadratureRule,
    det,
    elem_sym,
    gauss_laguerre,
    gauss_legendre,
    hyp0f1,
    integrate_nd,
    laguerre,
    log_gamma,
    max_gram_size,
    solve,
    vandermonde,
)

__version__ = "0.1.0"
