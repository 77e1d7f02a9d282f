"""jurylab: a numerical laboratory for majority and weighted-majority voting.

Measures on [0,1] with closed-form moments and sampling, exact
Poisson-binomial win probabilities, divergence and summability
diagnostics, stochastic bounded weights, ballot-path combinatorics, and
a reproducible experiment harness, all wired to one CLI.
"""

from .measure import (
    MeasureSpec,
    affine,
    atom_mass,
    bias,
    cdf,
    dirac,
    interval_mass,
    lebesgue,
    moment,
    quantile,
    reflect,
)
from .divergence import DivergenceReport, KakutaniVerdict, divergences, kakutani_criterion
from .profile import (
    C1Source,
    C2Source,
    CondorcetSource,
    ConditionReport,
    DegenerateProfileError,
    ExplicitSource,
    IidSource,
    MoaSource,
    Profile,
    condition_report,
    condition_two_holds,
    generate,
    geometric_checkpoints,
    q_statistic,
)
from .tally import (
    TallyEstimate,
    anti_majority_prob_exact,
    majority_prob_exact,
    proposition41_bound,
    weighted_majority_prob,
)
from .weights import (
    BoundedPoly,
    ExpertRule,
    LogOdds,
    StochasticPoly,
    TruncatedGaussianSpec,
    UnitWeights,
    deterministic_weight,
    drift,
    f_function,
    find_k,
    moment_criterion,
    sample_weight,
    truncated_normal_mean,
)
from .walk import (
    PathCount,
    border_measure,
    border_measure_enumerated,
    catalan,
    moa_fraction_experiment,
    random_walk_return,
    stirling_asymptote,
)
from .experiment import ExperimentConfig, ExperimentReport, classify_trend, run

__version__ = "0.1.0"
