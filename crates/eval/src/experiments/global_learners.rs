//! Table 4 and Fig. 10 — the five global learners compared across four
//! markets (§4.3.1).
//!
//! The four classic learners run k-fold cross-validation per parameter
//! (the paper's "standard machine learning cross-validation approach");
//! collaborative filtering runs exact leave-one-out. Accuracies are
//! macro-averaged over the 65 parameters per market, exactly like
//! Table 4's rows.

use crate::experiments::{distinct_in_scope, network};
use crate::render::{pct, TextTable};
use crate::{ExpOutput, RunOptions};
use auric_core::datasets::dataset_for_param_in;
use auric_core::{evaluate_cf, parallel_map, CfConfig, CfModel, Scope};
use auric_learners::{
    cross_val_accuracy, Classifier, Dataset, DecisionTree, KnnClassifier, MlpClassifier, Model,
    RandomForest,
};
use auric_model::{ParamId, Timezone};
use auric_netgen::NetScale;
use serde_json::json;

/// Column order of Table 4.
pub const LEARNERS: [&str; 5] = [
    "Random forest",
    "k-Nearest neighbors",
    "Decision tree",
    "Deep neural network",
    "Collaborative filtering",
];

/// Caps an inner classifier's training set — the practical stand-in for
/// scikit-learn's cluster-scale training budget (documented in DESIGN.md).
/// Subsampling is deterministic (striding), so runs reproduce.
struct Capped<C: Classifier> {
    inner: C,
    max_rows: usize,
}

impl<C: Classifier> Classifier for Capped<C> {
    fn fit(&self, data: &Dataset) -> Box<dyn Model> {
        if data.n_rows() <= self.max_rows {
            return self.inner.fit(data);
        }
        let stride = data.n_rows().div_ceil(self.max_rows);
        let idx: Vec<usize> = (0..data.n_rows()).step_by(stride).collect();
        self.inner.fit(&data.subset(&idx))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Row budget for the classic learners' cross-validation. The paper ran
/// scikit-learn over 4.5M values on carrier-grade hardware; this harness
/// runs on whatever `cargo` runs on, so each (parameter, market) dataset
/// is deterministically subsampled to this many rows before CV.
const CLASSIC_ROW_BUDGET: usize = 1200;

/// Deterministic stride subsample of a dataset to at most `max` rows.
fn subsample(data: Dataset, max: usize) -> Dataset {
    if data.n_rows() <= max {
        return data;
    }
    let stride = data.n_rows().div_ceil(max);
    let idx: Vec<usize> = (0..data.n_rows()).step_by(stride).collect();
    data.subset(&idx)
}

/// The classic learners with the paper's hyperparameters, epoch-budgeted
/// for the harness.
fn classic_learners() -> Vec<Box<dyn Classifier>> {
    let mut mlp = MlpClassifier::paper();
    mlp.max_iter = 35;
    mlp.patience = 5;
    mlp.learning_rate = 2e-3;
    vec![
        Box::new(RandomForest::paper()),
        Box::new(KnnClassifier::paper()),
        Box::new(DecisionTree::paper()),
        Box::new(Capped {
            inner: mlp,
            max_rows: 600,
        }),
    ]
}

/// Per-parameter accuracy row.
#[derive(Debug, Clone)]
pub struct ParamRow {
    pub param: ParamId,
    pub name: String,
    pub distinct: usize,
    /// Accuracy per learner, in [`LEARNERS`] order.
    pub accuracy: [f64; 5],
}

/// One market's results.
#[derive(Debug, Clone)]
pub struct MarketResult {
    pub market_name: String,
    pub timezone: &'static str,
    pub carriers: usize,
    pub rows: Vec<ParamRow>,
}

impl MarketResult {
    /// Macro-average per learner over all parameters (Table 4 cell).
    pub fn macro_accuracy(&self) -> [f64; 5] {
        let mut acc = [0.0; 5];
        for row in &self.rows {
            for (a, r) in acc.iter_mut().zip(row.accuracy) {
                *a += r;
            }
        }
        for a in &mut acc {
            *a /= self.rows.len().max(1) as f64;
        }
        acc
    }
}

/// Runs the five global learners over the four timezone markets.
pub fn run_global_learners(opts: &RunOptions) -> Vec<MarketResult> {
    run_global_learners_filtered(opts, None)
}

/// Like [`run_global_learners`], restricted to a parameter subset. The
/// full catalog is expensive under `cargo test` (the MLP dominates), so
/// tests exercise the machinery on a few parameters; `None` runs all 65.
pub fn run_global_learners_filtered(
    opts: &RunOptions,
    params: Option<&[ParamId]>,
) -> Vec<MarketResult> {
    let net = network(opts, NetScale::small());
    let snap = &net.snapshot;
    let arena = net.arena();

    // One market per timezone, as in Table 3.
    let mut picks = Vec::new();
    for tz in Timezone::ALL {
        if let Some(m) = snap.markets.iter().find(|m| m.timezone == tz) {
            picks.push(m.id);
        }
    }

    picks
        .iter()
        .enumerate()
        .map(|(mi, &m)| {
            let scope = Scope::market(snap, m);
            let cf = CfModel::fit_with(
                snap,
                &scope,
                CfConfig::default(),
                auric_core::FitOptions {
                    obs: opts.obs.clone(),
                    threads: None,
                    key_cache: None,
                },
            );
            let cf_report = evaluate_cf(snap, &scope, &cf, false);
            let param_ids: Vec<ParamId> = match params {
                Some(ps) => ps.to_vec(),
                None => snap.catalog.param_ids().collect(),
            };
            let rows = parallel_map(param_ids.len(), |i| {
                let param = param_ids[i];
                let pi = param.index();
                let data = subsample(
                    dataset_for_param_in(&arena, snap, &scope, param),
                    CLASSIC_ROW_BUDGET,
                );
                let learners = classic_learners();
                let mut accuracy = [0.0; 5];
                for (li, learner) in learners.iter().enumerate() {
                    accuracy[li] =
                        cross_val_accuracy(learner.as_ref(), &data, 3, opts.seed ^ pi as u64);
                }
                accuracy[4] = cf_report.per_param[pi].accuracy();
                ParamRow {
                    param,
                    name: snap.catalog.def(param).name.clone(),
                    distinct: distinct_in_scope(snap, &scope, param),
                    accuracy,
                }
            });
            MarketResult {
                market_name: format!("Market {}", mi + 1),
                timezone: snap.market(m).timezone.label(),
                carriers: scope.n_carriers(),
                rows,
            }
        })
        .collect()
}

/// Table 4 — average accuracy of the five global learners per market,
/// rendered from [`run_global_learners`]'s results.
pub fn table4(results: &[MarketResult]) -> ExpOutput {
    let mut table = TextTable::new(
        std::iter::once("".to_string())
            .chain(LEARNERS.iter().map(|s| s.to_string()))
            .collect::<Vec<String>>(),
    );
    let mut json_rows = Vec::new();
    let mut all = [0.0; 5];
    for r in results {
        let acc = r.macro_accuracy();
        table.row(
            std::iter::once(r.market_name.clone())
                .chain(acc.iter().map(|&a| pct(a)))
                .collect::<Vec<String>>(),
        );
        json_rows.push(json!({
            "market": r.market_name,
            "timezone": r.timezone,
            "accuracy": LEARNERS.iter().zip(acc).map(|(l, a)| json!({"learner": l, "accuracy": a})).collect::<Vec<_>>(),
        }));
        for (t, a) in all.iter_mut().zip(acc) {
            *t += a;
        }
    }
    for a in &mut all {
        *a /= results.len().max(1) as f64;
    }
    table.row(
        std::iter::once("All four".to_string())
            .chain(all.iter().map(|&a| pct(a)))
            .collect::<Vec<String>>(),
    );

    let cf_wins = all[4] >= all[..4].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let text = format!(
        "Table 4 — average accuracy of five global learners (macro over 65 parameters)\n\
         (paper, all four: RF 92.11  kNN 91.18  DT 91.68  DNN 91.70  CF 95.48)\n\
         measured: collaborative filtering {} the classic learners\n\n{}",
        if cf_wins {
            "outperforms"
        } else {
            "does NOT outperform"
        },
        table.render()
    );
    ExpOutput {
        id: "table4".into(),
        title: "Table 4 — five global learners × four markets".into(),
        text,
        json: json!({
            "markets": json_rows,
            "all_four": LEARNERS.iter().zip(all).map(|(l, a)| json!({"learner": l, "accuracy": a})).collect::<Vec<_>>(),
            "cf_wins": cf_wins,
        }),
    }
}

/// Fig. 10 — per-parameter accuracy of the five global learners per
/// market, reverse-sorted by variability, rendered from
/// [`run_global_learners`]'s results.
pub fn fig10(results: &[MarketResult]) -> ExpOutput {
    let mut text = String::from(
        "Fig. 10 — per-parameter accuracy of five global learners, by market\n\
         (paper: accuracy drops as variability rises; learners correlate)\n\n",
    );
    let mut json_markets = Vec::new();
    for r in results {
        let mut rows = r.rows.clone();
        rows.sort_by(|a, b| b.distinct.cmp(&a.distinct).then(a.name.cmp(&b.name)));
        let mut table = TextTable::new(vec![
            "Parameter",
            "distinct",
            "RF",
            "kNN",
            "DT",
            "DNN",
            "CF",
        ]);
        for row in &rows {
            table.row(vec![
                row.name.clone(),
                row.distinct.to_string(),
                pct(row.accuracy[0]),
                pct(row.accuracy[1]),
                pct(row.accuracy[2]),
                pct(row.accuracy[3]),
                pct(row.accuracy[4]),
            ]);
        }
        // The paper's headline correlation: accuracy vs variability.
        let (hi_var, lo_var): (Vec<&ParamRow>, Vec<&ParamRow>) =
            rows.iter().partition(|x| x.distinct > 10);
        let mean = |xs: &[&ParamRow]| -> f64 {
            if xs.is_empty() {
                return 1.0;
            }
            xs.iter().map(|x| x.accuracy[4]).sum::<f64>() / xs.len() as f64
        };
        text.push_str(&format!(
            "{} ({} carriers, {} timezone) — CF accuracy: high-variability params {} vs low {}\n{}\n",
            r.market_name,
            r.carriers,
            r.timezone,
            pct(mean(&hi_var)),
            pct(mean(&lo_var)),
            table.render()
        ));
        json_markets.push(json!({
            "market": r.market_name,
            "rows": rows.iter().map(|x| json!({
                "param": x.name,
                "distinct": x.distinct,
                "accuracy": x.accuracy.to_vec(),
            })).collect::<Vec<_>>(),
        }));
    }
    ExpOutput {
        id: "fig10".into(),
        title: "Fig. 10 — per-parameter accuracy of five global learners".into(),
        text,
        json: json!({ "markets": json_markets, "learners": LEARNERS }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_netgen::TuningKnobs;

    fn tiny_opts() -> RunOptions {
        RunOptions {
            scale: Some(NetScale::tiny()),
            knobs: TuningKnobs::default(),
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn runner_produces_per_market_rows() {
        // Tiny scale has 2 markets (2 timezones present). Restricted to
        // three parameters: the full catalog is a release-mode workload
        // (`auric-eval table4`), not a unit test.
        let params = [ParamId(0), ParamId(5), ParamId(40)];
        let results = run_global_learners_filtered(&tiny_opts(), Some(&params));
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.rows.len(), 3);
            for row in &r.rows {
                for a in row.accuracy {
                    assert!((0.0..=1.0).contains(&a));
                }
            }
        }
    }

    #[test]
    fn capped_wrapper_subsamples() {
        let rows: Vec<Vec<u16>> = (0..100).map(|i| vec![(i % 3) as u16]).collect();
        let values: Vec<u16> = (0..100).map(|i| (i % 3) as u16 * 5).collect();
        let data = Dataset::new(rows, values, None);
        let capped = Capped {
            inner: DecisionTree::paper(),
            max_rows: 10,
        };
        let model = capped.fit(&data);
        // Even from 10 rows the clean signal is learnable.
        assert_eq!(model.predict(&[0]), 0);
        assert_eq!(model.predict(&[2]), 10);
    }
}
