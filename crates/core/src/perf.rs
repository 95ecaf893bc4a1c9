//! Performance-feedback-weighted voting — the §6 extension.
//!
//! The paper proposes: "for the similar carriers with matching attributes
//! and different distribution of parameter values, we can provide higher
//! weights (in our voting approach) to configuration changes that have
//! improved service performance in the past." This module implements that
//! weighted voter: each voting carrier contributes its KPI-derived weight
//! instead of a unit count, and the winner still needs the support
//! threshold — now over weighted mass.

use auric_model::ValueIdx;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A weighted multiset of values.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WeightedVotes {
    mass: HashMap<ValueIdx, f64>,
    total: f64,
}

impl WeightedVotes {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vote for `value` with weight `w` (a KPI health score; unit
    /// weight reproduces plain voting).
    ///
    /// # Panics
    /// Panics on non-finite or negative weights.
    pub fn add(&mut self, value: ValueIdx, w: f64) {
        assert!(
            w.is_finite() && w >= 0.0,
            "weights must be finite and >= 0, got {w}"
        );
        *self.mass.entry(value).or_insert(0.0) += w;
        self.total += w;
    }

    /// Total weighted mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The value with the largest mass if its share reaches `threshold`.
    /// Ties break toward the smaller value.
    pub fn winner(&self, threshold: f64) -> Option<(ValueIdx, f64)> {
        if self.total <= 0.0 {
            return None;
        }
        let (&v, &m) = self
            .mass
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))?;
        (m >= threshold * self.total - 1e-12).then_some((v, m))
    }
}

/// A per-carrier KPI score in `[0, 1]` used as the vote weight. In
/// production this would come from throughput / accessibility / retention
/// counters; here it is supplied by the caller (the EMS simulator derives
/// one from its monitoring stage).
pub trait KpiSource {
    /// The weight of carrier `c`'s vote.
    fn weight(&self, c: auric_model::CarrierId) -> f64;
}

/// A KPI source backed by a map, defaulting to 1.0 (healthy).
#[derive(Debug, Clone, Default)]
pub struct MapKpi {
    pub weights: HashMap<auric_model::CarrierId, f64>,
}

impl KpiSource for MapKpi {
    fn weight(&self, c: auric_model::CarrierId) -> f64 {
        self.weights.get(&c).copied().unwrap_or(1.0)
    }
}

/// Performance-weighted local recommendation for a singular parameter:
/// like [`crate::cf::CfModel::recommend_local_singular`], but neighbors
/// vote with their KPI weight.
pub fn recommend_local_weighted(
    snapshot: &auric_model::NetworkSnapshot,
    model: &crate::cf::CfModel,
    kpi: &dyn KpiSource,
    param: auric_model::ParamId,
    carrier: auric_model::CarrierId,
) -> crate::cf::Recommendation {
    let pc = model.param(param);
    // Integer compares against the fitted key column (see cf.rs).
    let key = pc.carrier_key(snapshot, carrier);
    let mut votes = WeightedVotes::new();
    for n in snapshot.x2.k_hop_neighbors(carrier, model.config.hops) {
        if pc.carrier_key(snapshot, n) == key {
            votes.add(snapshot.config.value(param, n), kpi.weight(n));
        }
    }
    if let Some((value, mass)) = votes.winner(model.config.support) {
        return crate::cf::Recommendation {
            value,
            basis: crate::cf::Basis::LocalVote,
            support: mass.round() as usize,
            voters: votes.total().round() as usize,
        };
    }
    model.global_chain(pc, key, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::{CfConfig, CfModel};
    use crate::scope::Scope;
    use auric_model::CarrierId;
    use auric_netgen::{generate, NetScale, TuningKnobs};

    #[test]
    fn unit_weights_reproduce_plain_voting() {
        let mut w = WeightedVotes::new();
        for _ in 0..3 {
            w.add(5, 1.0);
        }
        w.add(9, 1.0);
        assert_eq!(w.winner(0.75), Some((5, 3.0)));
        assert_eq!(w.winner(0.76), None);
    }

    #[test]
    fn heavier_voters_flip_outcomes() {
        let mut w = WeightedVotes::new();
        w.add(5, 1.0);
        w.add(5, 1.0);
        // One voter whose value historically improved performance.
        w.add(9, 8.0);
        assert_eq!(w.winner(0.75), Some((9, 8.0)));
    }

    #[test]
    fn zero_weight_voters_are_inert() {
        let mut w = WeightedVotes::new();
        w.add(3, 0.0);
        assert_eq!(w.winner(0.5), None, "zero total mass cannot elect anyone");
        w.add(4, 1.0);
        assert_eq!(w.winner(0.9), Some((4, 1.0)));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_bad_weights() {
        WeightedVotes::new().add(1, f64::NAN);
    }

    #[test]
    fn weighted_recommendation_downweights_unhealthy_neighbors() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        let p = snap.catalog.singular_ids().next().unwrap();
        // Healthy network: weighted == unweighted.
        let kpi = MapKpi::default();
        for i in 0..snap.n_carriers().min(50) {
            let c = CarrierId::from_index(i);
            let plain = model.recommend_local_singular(snap, p, c, false);
            let weighted = recommend_local_weighted(snap, &model, &kpi, p, c);
            assert_eq!(plain.value, weighted.value, "carrier {c}");
        }
    }
}
