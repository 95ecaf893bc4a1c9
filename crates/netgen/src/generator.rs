//! Top-level generator: topology + rules + tuning → a validated
//! [`NetworkSnapshot`] plus the ground truth that produced it.

use crate::names;
use crate::rules::{self, LatentRule};
use crate::scale::{NetScale, TuningKnobs};
use crate::topology;
use crate::tuning::{self, Pocket};
use auric_model::{AttrArena, NetworkSnapshot, ParamCatalog};
use serde::{Deserialize, Serialize};

/// Everything the generator knows that the learners must *discover*:
/// the latent rules and the tuning pockets. Exposed for diagnostics,
/// generator tests and the mismatch-labeling evaluation — never fed to a
/// learner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruth {
    pub rules: Vec<LatentRule>,
    pub pockets: Vec<Pocket>,
}

/// A generated network: the observable snapshot and the hidden truth.
#[derive(Debug, Clone)]
pub struct GeneratedNetwork {
    pub snapshot: NetworkSnapshot,
    pub truth: GroundTruth,
}

impl GeneratedNetwork {
    /// Encodes the generated fleet's attributes into a shared columnar
    /// [`AttrArena`] — build it once before fanning jobs out and pass it
    /// to the `_in` fit/dataset entry points.
    pub fn arena(&self) -> AttrArena {
        AttrArena::from_snapshot(&self.snapshot)
    }
}

/// Generates a network at `scale` with tuning processes `knobs`.
/// Deterministic: equal inputs give byte-identical outputs.
///
/// # Panics
/// Panics if the generated snapshot fails validation — that is a bug in
/// the generator, never a caller error.
pub fn generate(scale: &NetScale, knobs: &TuningKnobs) -> GeneratedNetwork {
    let schema = names::build_schema(scale.n_markets);
    let catalog = ParamCatalog::standard();
    let topo = topology::build(scale, &schema);
    let rules = rules::generate_rules(&catalog, scale.seed ^ 0x5EED_0F0F);
    let mut config = tuning::apply_rules(&topo, &catalog, &rules);
    let [pockets_seed, stale_seed, live_seed, noise_seed] = pass_seeds(scale.seed);
    let pockets = tuning::apply_pockets(&mut config, &topo, &catalog, &rules, knobs, pockets_seed);
    tuning::apply_stale_trials(&mut config, &topo, &catalog, &rules, knobs, stale_seed);
    tuning::apply_live_trials(&mut config, &topo, &catalog, &rules, knobs, live_seed);
    tuning::apply_noise(&mut config, &topo, &catalog, &rules, knobs, noise_seed);

    let snapshot = NetworkSnapshot {
        schema,
        catalog,
        markets: topo.markets,
        enodebs: topo.enodebs,
        carriers: topo.carriers,
        x2: topo.x2,
        config,
    };
    snapshot
        .validate()
        .unwrap_or_else(|e| panic!("generator produced an invalid snapshot: {e}"));
    GeneratedNetwork {
        snapshot,
        truth: GroundTruth { rules, pockets },
    }
}

/// The seeds [`generate`] hands the pockets, stale-trial, live-trial and
/// noise passes.
pub(crate) fn pass_seeds(seed: u64) -> [u64; 4] {
    [seed ^ 0x01, seed ^ 0x02, seed ^ 0x03, seed ^ 0x04]
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_model::Provenance;

    #[test]
    fn generates_valid_snapshot() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        net.snapshot.validate().unwrap();
        assert_eq!(net.snapshot.markets.len(), 2);
        assert_eq!(net.snapshot.catalog.len(), 65);
        assert_eq!(net.truth.rules.len(), 65);
    }

    #[test]
    fn arena_matches_the_generated_fleet() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let arena = net.arena();
        assert_eq!(arena.n_carriers(), net.snapshot.n_carriers());
        assert_eq!(arena.n_pairs(), net.snapshot.x2.n_pairs());
        for a in net.snapshot.schema.attr_ids() {
            let col = arena.column(a);
            for (i, c) in net.snapshot.carriers.iter().enumerate() {
                assert_eq!(col[i], c.attrs.get(a));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let scale = NetScale::tiny();
        let knobs = TuningKnobs::default();
        let a = generate(&scale, &knobs);
        let b = generate(&scale, &knobs);
        assert_eq!(a.snapshot.config, b.snapshot.config);
        assert_eq!(a.snapshot.carriers, b.snapshot.carriers);
        assert_eq!(a.truth.pockets, b.truth.pockets);
    }

    #[test]
    fn seeds_produce_different_networks() {
        let knobs = TuningKnobs::default();
        let a = generate(&NetScale::tiny(), &knobs);
        let b = generate(&NetScale::tiny().with_seed(1234), &knobs);
        assert_ne!(a.snapshot.config, b.snapshot.config);
    }

    #[test]
    fn default_knobs_leave_most_values_rule_driven() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let snap = &net.snapshot;
        let mut rule_slots = 0usize;
        let mut total = 0usize;
        let mut provenance_kinds = std::collections::HashSet::new();
        for p in snap.catalog.singular_ids() {
            for c in &snap.carriers {
                total += 1;
                let prov = snap.config.provenance(p, c.id);
                provenance_kinds.insert(format!("{prov:?}"));
                if prov == Provenance::Rule {
                    rule_slots += 1;
                }
            }
        }
        let frac = rule_slots as f64 / total as f64;
        assert!(
            frac > 0.90,
            "rule-driven fraction {frac} too low — tuning overwhelms rules"
        );
        assert!(
            frac < 0.999,
            "rule-driven fraction {frac} too high — tuning never fired"
        );
        assert!(
            provenance_kinds.len() >= 3,
            "expected several provenance kinds, saw {provenance_kinds:?}"
        );
    }

    #[test]
    fn clean_network_is_pure_rules() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        assert!(net.truth.pockets.is_empty());
        for p in snap.catalog.singular_ids() {
            for c in &snap.carriers {
                assert_eq!(snap.config.provenance(p, c.id), Provenance::Rule);
            }
        }
        for p in snap.catalog.pairwise_ids() {
            for q in 0..snap.x2.n_pairs() as u32 {
                assert_eq!(snap.config.pair_provenance(p, q), Provenance::Rule);
            }
        }
    }

    #[test]
    fn variability_shape_matches_fig2() {
        // Fig. 2: several of the 65 parameters exceed 10 distinct values
        // and the maximum approaches 200. The tiny network can't reach
        // 200 combinations, so check at small scale and proportionally.
        let net = generate(&NetScale::small(), &TuningKnobs::default());
        let snap = &net.snapshot;
        let mut distinct: Vec<usize> = Vec::new();
        for def in snap.catalog.defs() {
            let n = match def.kind {
                auric_model::ParamKind::Singular => {
                    auric_stats::freq::distinct_count(snap.config.values_of(def.id))
                }
                auric_model::ParamKind::Pairwise => {
                    auric_stats::freq::distinct_count(snap.config.pair_values_of(def.id))
                }
            };
            distinct.push(n);
        }
        let over_10 = distinct.iter().filter(|&&d| d > 10).count();
        let max = *distinct.iter().max().unwrap();
        assert!(
            over_10 >= 5,
            "only {over_10} parameters exceed 10 distinct values"
        );
        assert!(max >= 50, "max variability {max} nowhere near Fig. 2's 200");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any seed yields a valid snapshot with the catalog invariants.
        #[test]
        fn any_seed_generates_valid_networks(seed in 0u64..1_000_000) {
            let scale = NetScale { n_markets: 2, enbs_per_market: 6, seed };
            let net = generate(&scale, &TuningKnobs::default());
            prop_assert!(net.snapshot.validate().is_ok());
            prop_assert_eq!(net.snapshot.catalog.len(), 65);
            prop_assert_eq!(net.truth.rules.len(), 65);
            // Every pocket only references catalog parameters and on-grid
            // values.
            for pocket in &net.truth.pockets {
                for &(p, v) in &pocket.params {
                    let def = net.snapshot.catalog.def(p);
                    prop_assert!((v as usize) < def.range.n_values());
                }
            }
        }

        /// Knob extremes never panic: everything-on and everything-off.
        #[test]
        fn knob_extremes_are_safe(seed in 0u64..10_000) {
            let scale = NetScale { n_markets: 1, enbs_per_market: 4, seed };
            let heavy = TuningKnobs {
                pocket_prob: 1.0,
                max_pockets: 4,
                params_per_pocket: (30, 65),
                pocket_radius_km: (10.0, 50.0),
                hidden_pocket_frac: 1.0,
                stale_trial_prob: 1.0,
                stale_trial_frac: 0.5,
                live_trial_prob: 1.0,
                live_trial_frac: 0.9,
                noise_rate: 0.5,
            };
            let net = generate(&scale, &heavy);
            prop_assert!(net.snapshot.validate().is_ok());
            let clean = generate(&scale, &TuningKnobs::none());
            prop_assert!(clean.snapshot.validate().is_ok());
        }
    }
}
