"""CLV prediction toolkit for free-to-play-style transaction and event data.

Four model families behind a uniform fit/predict surface: cohort-average
formulas, buy-till-you-die probabilistic models, recency-state Markov
chains, and supervised forest models, plus a generative cohort simulator
used as the verification oracle.
"""

from .btyd import (
    BGNBDParams,
    FitResult,
    GammaGammaParams,
    ParetoNBDParams,
    bg_nbd_loglik,
    conditional_expected_value,
    discounted_clv,
    expected_lifetime_duration,
    expected_transactions,
    fit_bg_nbd,
    fit_gamma_gamma,
    fit_pareto_nbd,
    p_alive,
    pareto_nbd_loglik,
)
from .cohort import (
    BasicCLVConfig,
    MonetizationCurve,
    RetentionCurve,
    basic_clv,
    fit_monetization_curve,
    fit_retention_curve,
    kaplan_meier,
    monetization_clv,
    retention_clv,
)
from .data import (
    ActivityConfig,
    ColumnMapping,
    RFMCellCode,
    RFMSummaries,
    RFMSummary,
    TransactionLog,
    activity_state,
    parse_event_log,
    parse_transaction_log,
    rfm_quintile_scores,
    rfm_summary,
    split_calibration_holdout,
    weighted_rfm_rank,
)
from .errors import DataError, NumericalError
from .forest import FittedForest, ForestConfig, fit_random_forest
from .markov import (
    RecencyCellTable,
    RewardVector,
    StateSpace,
    TransitionMatrix,
    discretize_states,
    recency_migration_forecast,
    estimate_state_rewards,
    learn_transition_matrix,
    mcm_clv,
    optimize_promotion_policy,
)
from .simulate import (
    GroundTruth,
    SimConfig,
    simulate_bg_nbd_cohort,
    simulate_markov_cohort,
    simulate_pareto_nbd_cohort,
)
from .supervised import (
    ExtractedDataset,
    FeatureMatrix,
    SmoteConfig,
    evaluate,
    extract_features,
    fit_three_stage,
    predict_three_stage,
    smote_nc_regression,
)

__version__ = "0.1.0"
