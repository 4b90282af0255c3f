"""Renormalized higher powers of white noise.

Exact structure-constant algebra for the RHPWN and Virasoro-Zamolodchikov
w-infinity star-Lie algebras, the vacuum rewrite calculus (untruncated and
truncated), the Fock-representation no-go minors, truncated Fock kernels
with exponential vectors and jets, and the classical processes the spaces
carry (Brownian motion and the continuous binomial/Beta family).
"""

from .algebra import (
    RHPWN,
    WINFTY,
    AlgebraElement,
    GeneratorIndex,
    StirlingTable,
    commutator,
    creator_number_form,
    involution,
    normal_order_expansion,
    stirling_first,
)
from .errors import (
    DomainError,
    IndexRangeError,
    OutOfScopeError,
    PrescriptionError,
    RhpwnError,
    SchemaError,
    TagMismatchError,
    UnsupportedGeneratorError,
    UnsupportedOrderError,
)
from .fock import (
    ExponentialVector,
    GramReport,
    JetSum,
    JetVector,
    G_eval,
    Ghat_eval,
    apply_annihilator,
    apply_creator,
    apply_number,
    exp_inner_product,
    generic_rep_build,
    gram_psd_check,
    jet_inner_product,
    kernel_values,
    pair,
)
from .mupoly import MU, MuPoly
from .nogo import NoGoReport, nogo_report
from .processes import (
    ClassicalityReport,
    MgfNumericCheck,
    SecantDensity,
    SecantSampler,
    SplitCheckReport,
    SplittingSolution,
    classical_check,
    complex_log_gamma,
    density_p,
    density_q_scaled,
    mgf_eval,
    mgf_numeric_check,
    mgf_series,
    riccati_split,
    sample_X,
    scaled_density,
    splitting_series_check,
)
from .rewrite import (
    VacuumState,
    Word,
    kernel_bruteforce,
    reduce_truncated,
    reduce_untruncated,
    reduce_untruncated_with_stats,
    state_in_number_basis,
    step_bound,
    vacuum_expectation,
)
from .scalars import ComplexRational
from .stepfn import CHI, StepFunction, SymbolicIndicator

__version__ = "0.1.0"
