"""Exact and certified spectrality analysis for infinite convolutions.

The package builds measures as infinite convolutions of digit sets along
scale sequences, searches for integer spectra of the finite levels,
evaluates transforms and completeness functions with certified error
radii, and combines exact decision branches into a spectrality verdict.
"""

from .cyclotomic import cyclotomic, cyclotomic_orders, euler_phi
from .hadamard import (
    AdmissiblePair,
    find_spectra,
    first_spectrum,
    is_admissible,
)
from .mask import (
    IrrationalZeroPresent,
    MaskZeros,
    RationalZeroSet,
    mask_zero_set,
)
from .measures import (
    AtomicMeasure,
    ComplexInterval,
    convolve,
    frac_str,
    parse_frac,
)
from .words import (
    BernoulliSpec,
    BernoulliTail,
    EnumerationTail,
    MonteCarloSummary,
    PeriodicTail,
    SymbolicWord,
    monte_carlo_spectrality,
    sample_word,
)
from .convolution import (
    ConstantExponents,
    ConvolutionSpec,
    DepthLimitError,
    ExplicitExponents,
    PeriodicExponents,
    PiecewiseConstantDensity,
    SparseInsertionSpec,
    SpecialFamily,
    UnboundedExponents,
    density_consecutive,
    detect_special,
    overlap_mass,
    zero_set_window,
)
from .spectrality import (
    IZVerdict,
    QReport,
    SpectralReport,
    VerdictBudget,
    WindowCertificate,
    candidate_spectrum,
    iz_finite,
    iz_weak_limit,
    q_exact_discrete,
    q_partial,
    spectral_verdict,
    translate_disjoint_window,
)
from .catalog import example_ids, run_example

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePair",
    "AtomicMeasure",
    "BernoulliSpec",
    "BernoulliTail",
    "ComplexInterval",
    "ConstantExponents",
    "ConvolutionSpec",
    "DepthLimitError",
    "EnumerationTail",
    "ExplicitExponents",
    "IZVerdict",
    "IrrationalZeroPresent",
    "MaskZeros",
    "MonteCarloSummary",
    "PeriodicExponents",
    "PeriodicTail",
    "PiecewiseConstantDensity",
    "QReport",
    "RationalZeroSet",
    "SparseInsertionSpec",
    "SpecialFamily",
    "SpectralReport",
    "SymbolicWord",
    "UnboundedExponents",
    "VerdictBudget",
    "WindowCertificate",
    "candidate_spectrum",
    "convolve",
    "cyclotomic",
    "cyclotomic_orders",
    "density_consecutive",
    "detect_special",
    "euler_phi",
    "example_ids",
    "find_spectra",
    "first_spectrum",
    "frac_str",
    "is_admissible",
    "iz_finite",
    "iz_weak_limit",
    "mask_zero_set",
    "monte_carlo_spectrality",
    "overlap_mass",
    "parse_frac",
    "q_exact_discrete",
    "q_partial",
    "run_example",
    "sample_word",
    "spectral_verdict",
    "translate_disjoint_window",
    "zero_set_window",
]
