//! **Auric** — the paper's contribution: data-driven recommendation of
//! cellular configuration for newly added carriers (§3).
//!
//! The pipeline mirrors Fig. 5:
//!
//! 1. **Dependency learning** ([`dependency`]): for every configuration
//!    parameter, chi-square tests of independence (at `p = 0.01`) decide
//!    which carrier attributes the parameter depends on, filtering out the
//!    irrelevant ones that mislead distance-based learners.
//! 2. **Voting** ([`voting`], [`cf`]): existing carriers whose dependent
//!    attributes exactly match the target are grouped; the value with at
//!    least 75% support wins. The *global* learner votes over the whole
//!    learning scope.
//! 3. **Geographic proximity** ([`cf`], §3.3): the *local* learner
//!    restricts voters to the target's 1-hop X2 neighborhood (falling back
//!    to the global vote, then to the rule-book default) — nearby carriers
//!    share propagation conditions and tuning culture, so locality
//!    improves accuracy.
//!
//! [`recommend`] exposes the cold-start API for genuinely new carriers;
//! [`accuracy`] implements the §4.2 evaluation (leave-one-out for the CF
//! learners); [`mismatch`] reproduces the Fig. 12 mismatch labeling;
//! [`datasets`] bridges snapshots to the classic baseline learners; and
//! [`perf`] implements the §6 performance-feedback extension
//! (performance-weighted voting).

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod cf;
pub mod datasets;
pub mod dependency;
pub mod legacy;
pub mod mismatch;
pub mod perf;
pub mod recommend;
pub mod scope;
pub mod voting;

pub use accuracy::{evaluate_cf, AccuracyReport, ParamAccuracy};
pub use cf::{
    fit_worker_threads, parallel_map, Basis, CfConfig, CfModel, DeltaApply, DeltaFitReport,
    FitOptions, ModelLoadError, Recommendation, SharedKeyColumns,
};
pub use dependency::{PredictorAttr, SelectOptions, Selector, Side};
pub use mismatch::{label_for, MismatchLabel, MismatchReport};
pub use recommend::{
    recommend_pairwise, recommend_pairwise_keyed, recommend_singular, recommend_singular_keyed,
    ConfigRecommendation, NewCarrier, Rendered,
};
pub use scope::Scope;
