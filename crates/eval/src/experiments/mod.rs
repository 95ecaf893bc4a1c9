//! One module per paper artifact, plus the ablations. Shared plumbing
//! lives here: network generation, per-market model fitting, and distinct
//! value counting.

pub mod ablation;
pub mod chaos;
pub mod dataset;
pub mod global_learners;
pub mod kpi_loop;
pub mod local_learner;
pub mod mismatch_labels;
pub mod operations;
pub mod serve_batch;
pub mod stream_ingest;
pub mod variability;

use crate::RunOptions;
use auric_core::{CfConfig, CfModel, FitOptions, Scope, SharedKeyColumns};
use auric_model::{NetworkSnapshot, ParamId, ParamKind};
use auric_netgen::{generate, GeneratedNetwork, NetScale};
use auric_obs::Recorder;

/// Generates the experiment network: the option override, else `default`.
pub fn network(opts: &RunOptions, default: NetScale) -> GeneratedNetwork {
    let scale = opts.scale.unwrap_or(default).with_seed(opts.seed);
    generate(&scale, &opts.knobs)
}

/// Fits one CF model per market (the paper's per-market methodology).
/// Returned in market order. Fit metrics land on `obs`, which stays
/// attached to each model so recommendation metrics follow.
pub fn fit_per_market(
    snapshot: &NetworkSnapshot,
    config: CfConfig,
    obs: &Recorder,
) -> Vec<(Scope, CfModel)> {
    let span = obs.span("eval.fit_per_market");
    // Key columns cover each fit scope's index window, so markets never
    // share a column; one cache across the fits still makes the
    // `cf.fit.keycol.*` gauges report the total over every market.
    let key_cache = SharedKeyColumns::new();
    let models = snapshot
        .markets
        .iter()
        .map(|m| {
            let scope = Scope::market(snapshot, m.id);
            let opts = FitOptions {
                obs: obs.clone(),
                threads: None,
                key_cache: Some(key_cache.clone()),
            };
            let model = CfModel::fit_with(snapshot, &scope, config, opts);
            (scope, model)
        })
        .collect();
    span.close();
    models
}

/// Number of distinct values `param` takes over an explicit slot list
/// (carrier indices for singular, pair indices for pair-wise).
pub fn distinct_in_scope(snapshot: &NetworkSnapshot, scope: &Scope, param: ParamId) -> usize {
    match snapshot.catalog.def(param).kind {
        ParamKind::Singular => snapshot
            .config
            .distinct_values(param, scope.carriers.iter().map(|c| c.index())),
        ParamKind::Pairwise => snapshot
            .config
            .distinct_values(param, scope.pairs.iter().map(|&p| p as usize)),
    }
}

/// Network-wide distinct values per parameter, in catalog order.
pub fn distinct_network_wide(snapshot: &NetworkSnapshot) -> Vec<usize> {
    let whole = Scope::whole(snapshot);
    snapshot
        .catalog
        .param_ids()
        .map(|p| distinct_in_scope(snapshot, &whole, p))
        .collect()
}

/// The concrete (grid) values of `param` over a scope, for the skewness
/// analysis.
pub fn concrete_values(snapshot: &NetworkSnapshot, scope: &Scope, param: ParamId) -> Vec<f64> {
    let range = snapshot.catalog.def(param).range;
    match snapshot.catalog.def(param).kind {
        ParamKind::Singular => scope
            .carriers
            .iter()
            .map(|&c| range.value(snapshot.config.value(param, c)))
            .collect(),
        ParamKind::Pairwise => scope
            .pairs
            .iter()
            .map(|&q| range.value(snapshot.config.pair_value(param, q)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_netgen::TuningKnobs;

    #[test]
    fn helpers_are_consistent() {
        let opts = RunOptions {
            scale: None,
            knobs: TuningKnobs::none(),
            seed: 3,
            ..Default::default()
        };
        let net = network(&opts, NetScale::tiny());
        let snap = &net.snapshot;
        let models = fit_per_market(snap, CfConfig::default(), &opts.obs);
        assert_eq!(models.len(), snap.markets.len());
        let distinct = distinct_network_wide(snap);
        assert_eq!(distinct.len(), snap.catalog.len());
        // Per-market distinct never exceeds network-wide distinct.
        for (m, (scope, _)) in snap.markets.iter().zip(&models) {
            for p in snap.catalog.param_ids() {
                assert!(
                    distinct_in_scope(snap, scope, p) <= distinct[p.index()],
                    "market {} param {p}",
                    m.name
                );
            }
        }
        // Concrete values land on each parameter's grid.
        let whole = Scope::whole(snap);
        for p in snap.catalog.param_ids().take(5) {
            let vals = concrete_values(snap, &whole, p);
            let range = snap.catalog.def(p).range;
            assert!(vals.iter().all(|&v| range.contains(v)));
        }
    }
}
