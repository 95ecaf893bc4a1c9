//! The §4.2 evaluation: treat every carrier as if it were new, recommend,
//! and compare against its current configuration. For collaborative
//! filtering this is exact leave-one-out — the probe's own value is
//! removed from every vote it would participate in.

use crate::cf::{parallel_map, Basis, CfModel};
use crate::scope::Scope;
use auric_model::{NetworkSnapshot, ParamId, ParamKind};
use serde::{Deserialize, Serialize};

/// Accuracy of one parameter over a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamAccuracy {
    pub param: ParamId,
    pub correct: usize,
    pub total: usize,
    /// How many predictions came from each basis (local vote, global
    /// vote, group majority, global majority, default).
    pub by_basis: [usize; 5],
}

impl ParamAccuracy {
    /// Accuracy ratio; 1.0 for an empty scope (nothing to get wrong).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.correct as f64 / self.total as f64
    }
}

/// Evaluation summary over all parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccuracyReport {
    pub per_param: Vec<ParamAccuracy>,
}

impl AccuracyReport {
    /// Micro-average: pooled correct / pooled total (the paper's
    /// "accuracy across N configuration parameter values").
    pub fn micro_accuracy(&self) -> f64 {
        let correct: usize = self.per_param.iter().map(|p| p.correct).sum();
        let total: usize = self.per_param.iter().map(|p| p.total).sum();
        if total == 0 {
            return 1.0;
        }
        correct as f64 / total as f64
    }

    /// Macro-average: mean of per-parameter accuracies (Table 4's
    /// "average accuracy across all configuration parameters").
    pub fn macro_accuracy(&self) -> f64 {
        if self.per_param.is_empty() {
            return 1.0;
        }
        self.per_param.iter().map(|p| p.accuracy()).sum::<f64>() / self.per_param.len() as f64
    }

    /// Total evaluated slots.
    pub fn total_values(&self) -> usize {
        self.per_param.iter().map(|p| p.total).sum()
    }
}

fn basis_slot(b: Basis) -> usize {
    match b {
        Basis::LocalVote => 0,
        Basis::GlobalVote => 1,
        Basis::GroupMajority => 2,
        Basis::GlobalMajority => 3,
        Basis::Default => 4,
    }
}

/// Evaluates a fitted CF model over `scope` with leave-one-out semantics.
/// `local = true` runs the §3.3 local learner (1-hop X2 voting first);
/// `local = false` runs the pure global learner. Parameters are evaluated
/// in parallel through [`parallel_map`]: threads claim the next parameter
/// as they free up (pair-wise parameters are an order of magnitude more
/// work than singular ones), and the results come back in parameter
/// order.
pub fn evaluate_cf(
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    model: &CfModel,
    local: bool,
) -> AccuracyReport {
    let per_param = parallel_map(snapshot.catalog.len(), |i| {
        evaluate_param(snapshot, scope, model, ParamId(i as u16), local)
    });
    AccuracyReport { per_param }
}

/// Evaluates one parameter.
pub fn evaluate_param(
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    model: &CfModel,
    param: ParamId,
    local: bool,
) -> ParamAccuracy {
    let mut acc = ParamAccuracy {
        param,
        correct: 0,
        total: 0,
        by_basis: [0; 5],
    };
    match snapshot.catalog.def(param).kind {
        ParamKind::Singular => {
            for &c in &scope.carriers {
                let current = snapshot.config.value(param, c);
                let rec = if local {
                    model.recommend_local_singular(snapshot, param, c, true)
                } else {
                    // Column fast path: no per-probe key projection.
                    model.recommend_global_for_carrier(snapshot, param, c, Some(current))
                };
                acc.total += 1;
                acc.by_basis[basis_slot(rec.basis)] += 1;
                acc.correct += usize::from(rec.value == current);
            }
        }
        ParamKind::Pairwise => {
            for &q in &scope.pairs {
                let current = snapshot.config.pair_value(param, q);
                let rec = if local {
                    model.recommend_local_pair(snapshot, param, q, true)
                } else {
                    model.recommend_global_for_pair(snapshot, param, q, Some(current))
                };
                acc.total += 1;
                acc.by_basis[basis_slot(rec.basis)] += 1;
                acc.correct += usize::from(rec.value == current);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::CfConfig;
    use auric_netgen::{generate, NetScale, TuningKnobs};

    #[test]
    fn clean_network_scores_high_and_local_beats_global_with_pockets() {
        let knobs = TuningKnobs {
            pocket_prob: 0.8,
            ..TuningKnobs::none()
        };
        let net = generate(
            &NetScale {
                n_markets: 2,
                enbs_per_market: 14,
                seed: 2,
            },
            &knobs,
        );
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        let global = evaluate_cf(snap, &scope, &model, false);
        let local = evaluate_cf(snap, &scope, &model, true);
        assert!(
            global.micro_accuracy() > 0.80,
            "global {}",
            global.micro_accuracy()
        );
        assert!(
            local.micro_accuracy() >= global.micro_accuracy(),
            "local {} < global {}",
            local.micro_accuracy(),
            global.micro_accuracy()
        );
    }

    #[test]
    fn report_accounting_is_consistent() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        let report = evaluate_cf(snap, &scope, &model, true);
        assert_eq!(report.per_param.len(), snap.catalog.len());
        for pa in &report.per_param {
            assert!(pa.correct <= pa.total);
            assert_eq!(pa.by_basis.iter().sum::<usize>(), pa.total);
        }
        assert_eq!(
            report.total_values(),
            snap.catalog.singular_ids().count() * snap.n_carriers()
                + snap.catalog.pairwise_ids().count() * snap.x2.n_pairs()
        );
        assert!(report.micro_accuracy() <= 1.0);
        assert!(report.macro_accuracy() <= 1.0);
    }

    #[test]
    fn market_scope_evaluates_only_that_market() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let m = snap.markets[0].id;
        let scope = Scope::market(snap, m);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        let report = evaluate_cf(snap, &scope, &model, false);
        let expected = snap.catalog.singular_ids().count() * scope.n_carriers()
            + snap.catalog.pairwise_ids().count() * scope.n_pairs();
        assert_eq!(report.total_values(), expected);
    }

    #[test]
    fn empty_report_conventions() {
        let r = AccuracyReport { per_param: vec![] };
        assert_eq!(r.micro_accuracy(), 1.0);
        assert_eq!(r.macro_accuracy(), 1.0);
        let pa = ParamAccuracy {
            param: ParamId(0),
            correct: 0,
            total: 0,
            by_basis: [0; 5],
        };
        assert_eq!(pa.accuracy(), 1.0);
    }
}
