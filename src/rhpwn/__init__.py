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
    commutator,
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
    SecantDensity,
    SecantSampler,
    SplitCheckReport,
    SplittingSolution,
    classical_check,
    complex_log_gamma,
    mgf_eval,
    riccati_split,
    sample_X,
    scaled_density,
    splitting_series_check,
)
from .rewrite import (
    VacuumState,
    Word,
    reduce_truncated,
    reduce_untruncated,
    reduce_untruncated_with_stats,
    vacuum_expectation,
)
from .scalars import ComplexRational
from .stepfn import CHI, StepFunction, SymbolicIndicator

__version__ = "0.1.0"
