"""Markov models for p-Selmer rank distributions in quadratic twist families.

The package has five layers, from the bottom up:

* :mod:`selmerlab.distributions`: densities on a truncated rank
  window, parity functionals, and banded row-stochastic operators;
* :mod:`selmerlab.lagrangian`: the mod-p Lagrangian operator, its
  equilibrium constants c_n and states E+/E-, and convergence runs;
* :mod:`selmerlab.twists`: a synthetic prime stream with widths, the
  localization-dimension sampler, and the exact one-step rank kernels;
* :mod:`selmerlab.fans`: stratification bounds, level sampling, fan
  averaging, and the collapse / mixture-bound experiments;
* :mod:`selmerlab.disparity`: the disparity functional, the
  disparity-weighted limit distributions, and average rank.

The command line front end lives in :mod:`selmerlab.cli` and is
installed as ``selmer-lab``.
"""

from .distributions import (
    TOL_NORM,
    TOL_TAIL,
    BandedOperator,
    Density,
    ParityClass,
    apply,
    classify_parity,
    identity_operator,
    l1_distance,
    make_density,
    make_operator,
    power,
    project_parity,
    rho_parity,
)
from .errors import (
    DegenerateConfig,
    DisparityOutOfRange,
    EmptyCharacterList,
    EmptyFan,
    InfeasibleFan,
    InvalidPrime,
    NegativeEntry,
    NoConvergence,
    NotNormalized,
    NotSubset,
    NumericError,
    SelmerLabError,
    TruncationMismatch,
    ValidationError,
)
from .lagrangian import (
    EquilibriumPair,
    LagrangianParams,
    build_lagrangian,
    c_constants,
    c_partial_products,
    equilibrium,
    iterate_limit,
    predicted_limit,
)
from .twists import (
    S3_WIDTH_DENSITIES,
    PrimeSite,
    StreamConfig,
    TStepSampler,
    exact_step_kernel,
    sample_transitions,
    simulate_walks,
    synth_prime_stream,
    t_distribution,
)
from .fans import (
    ConvergenceRate,
    Fan,
    FanSpec,
    Level,
    enumerate_levels,
    fan_collapse,
    fan_collapse_residual,
    fan_distribution,
    fan_union_distribution,
    level_membership,
    level_rank_distribution,
    make_level,
    mixture_bound_check,
    sample_levels,
    step_average_gap,
    strat_bounds,
    width_pattern,
)
from .disparity import (
    DisparityTable,
    FanExperimentReport,
    InitialPair,
    LocalCharacter,
    LocalPlaceData,
    average_rank,
    delta_global,
    delta_local,
    end_to_end_fan_experiment,
    finite_fan_distribution,
    initial_from_disparity,
    limit_distribution,
)

__version__ = "0.1.0"
