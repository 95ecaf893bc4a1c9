//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation from the synthetic network substrate.
//!
//! Each experiment lives in [`experiments`] and produces an
//! [`ExpOutput`]: a rendered ASCII report plus a JSON value for
//! machine-readable archiving (EXPERIMENTS.md records the paper-vs-
//! measured comparison). The `auric-eval` binary dispatches by name:
//!
//! ```text
//! cargo run --release -p auric-eval -- table4 --scale small --seed 7
//! cargo run --release -p auric-eval -- all
//! ```
//!
//! | name            | paper artifact                                  |
//! |-----------------|--------------------------------------------------|
//! | `fig2`          | Fig. 2 — distinct values per parameter           |
//! | `fig3`          | Fig. 3 — distinct values per parameter × market  |
//! | `fig4`          | Fig. 4 — skewness across markets                 |
//! | `table3`        | Table 3 — four-market dataset summary            |
//! | `table4`        | Table 4 — five global learners × four markets    |
//! | `fig10`         | Fig. 10 — per-parameter accuracy, four markets   |
//! | `fig11`         | Fig. 11 — local accuracy of top-variability params |
//! | `global-vs-local` | §4.3.2 — global vs local CF headline           |
//! | `fig12`         | Fig. 12 — mismatch labeling shares               |
//! | `table5`        | Table 5 — SmartLaunch campaign                   |
//! | `ops-chaos`     | fault-rate × retry-policy resilience sweep (ours)|
//! | `kpi_loop`      | §6 closed loop — KPI rollback + quarantine (ours)|
//! | `serve-batch`   | batched serving: coalescing + epoch cache (ours) |
//! | `stream-ingest` | streaming ingestion: incremental fit == refit (ours) |
//! | `ablation-vote` | voting-threshold sweep (ours)                    |
//! | `ablation-alpha`| significance-level sweep (ours)                  |
//! | `ablation-hops` | locality-radius sweep (ours)                     |
//! | `ablation-dependency` | marginal vs conditional selection (ours)   |

#![forbid(unsafe_code)]

pub mod experiments;
pub mod render;

use auric_netgen::{NetScale, TuningKnobs};
use auric_obs::Recorder;
use experiments::global_learners::{self, MarketResult};
use serde::Serialize;

/// Options shared by every experiment run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Scale override; `None` uses each experiment's own default.
    pub scale: Option<NetScale>,
    pub knobs: TuningKnobs,
    pub seed: u64,
    /// Per-run metrics sink: stage spans, CF fit/recommendation metrics,
    /// SmartLaunch counters. Disabled by default; pass
    /// [`Recorder::deterministic`] for byte-reproducible reports.
    pub obs: Recorder,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: None,
            knobs: TuningKnobs::default(),
            seed: 7,
            obs: Recorder::disabled(),
        }
    }
}

/// One experiment's rendered output.
#[derive(Debug, Clone, Serialize)]
pub struct ExpOutput {
    /// Experiment id, e.g. `"table4"`.
    pub id: String,
    /// Human title, e.g. `"Table 4 — average accuracy of five global learners"`.
    pub title: String,
    /// Rendered ASCII report.
    pub text: String,
    /// Machine-readable result.
    pub json: serde_json::Value,
}

/// The registry of experiment names, in presentation order.
pub const EXPERIMENTS: [&str; 18] = [
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "table4",
    "fig10",
    "global-vs-local",
    "fig11",
    "fig12",
    "table5",
    "ops-chaos",
    "kpi_loop",
    "serve-batch",
    "stream-ingest",
    "ablation-vote",
    "ablation-alpha",
    "ablation-hops",
    "ablation-dependency",
];

/// Runs experiments one after another, computing what several of them
/// render only once: `table4` and `fig10` both render the global
/// learners' cross-validation ([`run_global_learners`]), which dominates
/// an `all` run, so the second of the two reuses the first's results.
/// Every call must pass the same options, the obs recorder aside; the
/// obs report of the second experiment then omits the shared run.
///
/// [`run_global_learners`]: global_learners::run_global_learners
#[derive(Default)]
pub struct Runner {
    global_learners: Option<Vec<MarketResult>>,
}

impl Runner {
    /// Runs one experiment by name.
    ///
    /// # Errors
    /// Returns an error string for unknown names.
    pub fn run(&mut self, name: &str, opts: &RunOptions) -> Result<ExpOutput, String> {
        let span = opts.obs.span(&format!("exp.{name}"));
        let out = match name {
            "table4" | "fig10" => {
                let results = self
                    .global_learners
                    .get_or_insert_with(|| global_learners::run_global_learners(opts));
                Ok(if name == "table4" {
                    global_learners::table4(results)
                } else {
                    global_learners::fig10(results)
                })
            }
            _ => dispatch(name, opts),
        };
        span.close();
        out
    }
}

fn dispatch(name: &str, opts: &RunOptions) -> Result<ExpOutput, String> {
    match name {
        "table3" => Ok(experiments::dataset::table3(opts)),
        "fig2" => Ok(experiments::variability::fig2(opts)),
        "fig3" => Ok(experiments::variability::fig3(opts)),
        "fig4" => Ok(experiments::variability::fig4(opts)),
        "global-vs-local" => Ok(experiments::local_learner::global_vs_local(opts)),
        "fig11" => Ok(experiments::local_learner::fig11(opts)),
        "fig12" => Ok(experiments::mismatch_labels::fig12(opts)),
        "table5" => Ok(experiments::operations::table5(opts)),
        "ops-chaos" => Ok(experiments::chaos::ops_chaos(opts)),
        "kpi_loop" => Ok(experiments::kpi_loop::kpi_loop(opts)),
        "serve-batch" => Ok(experiments::serve_batch::serve_batch(opts)),
        "stream-ingest" => Ok(experiments::stream_ingest::stream_ingest(opts)),
        "ablation-vote" => Ok(experiments::ablation::vote_threshold(opts)),
        "ablation-alpha" => Ok(experiments::ablation::alpha_sweep(opts)),
        "ablation-hops" => Ok(experiments::ablation::hops_sweep(opts)),
        "ablation-dependency" => Ok(experiments::ablation::dependency_selection(opts)),
        other => Err(format!(
            "unknown experiment {other:?}; known: {}",
            EXPERIMENTS.join(", ")
        )),
    }
}
