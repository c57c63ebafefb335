"""fpplab: a first passage percolation concentration laboratory.

Functional-inequality verifiers on finite product spaces, tail-accurate
Gaussian machinery with the quantile-coupling weight psi, the randomized
offset construction, and a deterministic lattice Monte Carlo engine.
"""

from ._version import __version__
from .errors import (
    ConfigError,
    DomainError,
    FppLabError,
    NumericError,
    ResourceGuardError,
    SingularityError,
    UnsupportedKindError,
    UnsupportedParameterError,
)
from .gaussian import (
    gauss_cdf,
    gauss_log_cdf,
    gauss_log_pdf,
    gauss_pdf,
    gauss_quantile,
    gauss_quantile_from_log_cdf,
    gauss_sf,
    tail_asymptotic_ratio,
)
from .distributions import (
    Bernoulli,
    Dirac,
    Distribution,
    Exponential,
    Gamma,
    HalfNormal,
    Tabulated,
    Truncated,
    Uniform,
    default_c5,
    lsi_constant_bernoulli,
    parse_spec,
)
from .neargamma import NearlyGammaVerdict, classify_nearly_gamma, psi
from .averaging import (
    AveragingMap,
    AveragingReport,
    OffsetSample,
    sample_offset,
    verify_averaging_properties,
    weight_reverse_lex_rank,
)
from .funcineq import (
    EnergyDecomposition,
    IneqReport,
    ProductTable,
    SuiteReport,
    entropy,
    gaussian_lsi_check,
    martingale_increments,
    onedim_lsi_check,
    run_random_suite,
    verify_energy_decomposition,
    verify_fs_bound,
    verify_modified_poincare,
)
from .fpp_core import (
    DerivativeCheck,
    GeodesicResult,
    LatticeBox,
    WeightField,
    edge_breakpoint,
    edge_influence,
    geodesic_breakpoints,
    geodesic_derivative_check,
    passage_time,
    randomized_passage_time,
    v_e_plus_bernoulli,
)
from .experiments import (
    ConcentrationDiagnostics,
    ExperimentConfig,
    FitReport,
    GeodesicStats,
    ReplicaBatch,
    ScalingRow,
    TailProfile,
    TimeConstantReport,
    TruncationReport,
    collect_batch,
    estimate_time_constant,
    fit_scaling,
    full_report,
    geodesic_stats,
    influence_diagnostics,
    jackknife_variance_ci,
    l_of_k,
    run_variance_scaling,
    tail_profile,
    truncation_experiment,
)
