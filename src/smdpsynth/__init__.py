"""Safe learning and risk-aware planning for semi-Markov decision processes."""

__version__ = "0.1.0"

from .errors import (
    SmdpsynthError, LtlSyntaxError, UnknownToken, CapacityExceeded, EmptyCycle,
    UnknownState, ActionNotEnabled, ConfigError, AlphabetMismatch,
    UntrackedPair, UntrackedTriple, MomentUndefined, EmptyWinningCandidate,
    NoAllowedAction, NonfiniteRisk, EmptyPredictiveRow, InvalidRiskModel,
    InvalidObservation, InvalidDistribution, NotConverged, PolicyLeavesW,
    DomainGap,
)
from .ltl import (
    Formula, TRUE, FALSE, atom, lnot, land, lor, implies, nxt, until,
    release, eventually, globally, parse_ltl, format_formula, to_nnf, atoms_of,
)
from .tableau import ltl_to_cba
from .automata import (
    OmegaAutomaton, Dkcba, lasso_accepted_kcba, determinize_kcba,
)
from .smdp import (
    Smdp, Exponential, Empirical, GridConfig, GRID_ACTIONS, sample_step,
    build_gridworld, load_scenario,
)
from .product import (
    ProductSmdp, build_product, exact_winning_region,
    exact_max_reach_probability, policy_reach_probability,
    sample_product_step,
)
from .bayes import (
    ObservationStore, DirichletPosterior, GammaPosterior, DwellPredictive,
    Quantile, MeanPlusSigma, update_posteriors, predictive_transition,
    predictive_successors, predictive_dwell, transition_entropy,
    dwell_entropy, risk_of,
)
from .winning import (
    LearnerConfig, LearnerResult, WinningLearner, run_algorithm1, ind_k,
)
from .reach import (
    RewardDiscountSpec, QLearnSchedule, TransientQ, qlearn_transient,
    extract_pi_tr,
)
from .risk import (
    RiskModel, RiskQ, build_risk_model, risk_model_from_product,
    risk_value_iteration, extract_pi_win, combine_policy,
    evaluate_policy_risk,
)
from .experiment import (
    ExperimentConfig, ExperimentArtifacts, desk_config, paper_config,
    parse_functional, build_pipeline, oracle_reference, top_up_observations,
    export_sample_paths, config_fingerprint, run_experiment,
)
