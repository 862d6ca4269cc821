"""Meandric systems with one shallow side: exact enumeration, boolean and
free moment-cumulant series, and random-matrix verification."""

from .partitions import (
    CombSubset,
    GeodesicViolationError,
    NcPartition,
    Permutation,
    SizeMismatchError,
    catalan,
    enumerate_interval,
    enumerate_kr_interval,
    enumerate_nc,
    interval_join,
    kr_interval_meet,
    nc_join,
    nc_meet,
    refinement_leq,
)
from .meanders import (
    LoopPolynomial,
    MeanderClass,
    MeetNotTrivialError,
    ResourceLimitError,
    binomial_lemma_check,
    cumulant_coefficient,
    generating_coefficient,
    shallow_top_meander_count,
    loop_count,
    loop_count_comb,
    meander_polynomial,
    rainbow,
    semi_loop_distribution,
    thin_count,
)
from .transforms import (
    LaurentPoly,
    TruncSeries,
    boolean_inverse,
    boolean_transform,
    compose,
    free_inverse,
    free_transform,
    last_block_sum,
    semi_meander_series,
    shallow_top_series,
    thin_series,
)
from .matrix_models import (
    EstimateReport,
    Model,
    ModelSpec,
    estimate,
    estimate_sweep,
    omega,
    partial_trace,
    partial_transpose,
    phi_ginibre,
    psi,
    sample_ginibre,
    sample_gue,
    thin_exact,
)

__version__ = "0.1.0"
