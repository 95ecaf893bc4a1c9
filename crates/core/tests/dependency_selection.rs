//! Regression tests for dependency selection quality, promoted from the
//! old ignored `dbg_dependency` diagnostics: the printouts became
//! assertions on the planted ground truth the generator records in
//! `net.truth`.
//!
//! Everything here is deterministic — `NetScale::tiny()` pins the
//! generator seed, and fitting is order-stable regardless of the
//! work-stealing schedule.

use auric_core::dependency::{PredictorAttr, SelectOptions, Selector, Side};
use auric_core::{CfConfig, CfModel, Scope};
use auric_model::{AttrArena, NetworkSnapshot, ParamId, ParamKind, Provenance};
use auric_netgen::rules::RuleAttr;
use auric_netgen::{generate, GeneratedNetwork, NetScale, TuningKnobs};
use auric_obs::Recorder;

fn clean_network() -> GeneratedNetwork {
    generate(&NetScale::tiny(), &TuningKnobs::none())
}

/// Dependency selection at the paper's `alpha = 0.01`.
fn select(
    arena: &AttrArena,
    snap: &NetworkSnapshot,
    scope: &Scope,
    param: ParamId,
    marginal: bool,
) -> Vec<PredictorAttr> {
    let obs = Recorder::disabled();
    let opts = SelectOptions {
        alpha: 0.01,
        marginal,
        obs: &obs,
    };
    Selector::new(arena, snap, scope, opts).select(param)
}

/// Whether a planted rule attribute and a selected predictor agree. The
/// generator and the learner use distinct `Side` enums, so compare
/// structurally.
fn same(pa: &RuleAttr, d: &PredictorAttr) -> bool {
    let side_matches = matches!(
        (pa.side, d.side),
        (auric_netgen::rules::Side::Src, Side::Src) | (auric_netgen::rules::Side::Dst, Side::Dst)
    );
    side_matches && pa.attr == d.attr
}

/// How many planted relevant attributes appear in the selected set.
fn hits(planted: &[RuleAttr], found: &[PredictorAttr]) -> usize {
    planted
        .iter()
        .filter(|pa| found.iter().any(|d| same(pa, d)))
        .count()
}

#[test]
fn conditional_selection_recovers_planted_dependencies() {
    let net = clean_network();
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let arena = AttrArena::from_snapshot(snap);
    let mut planted_total = 0usize;
    let mut recovered = 0usize;
    let mut with_rule = 0usize;
    let mut empty = 0usize;
    for def in snap.catalog.defs() {
        let rule = &net.truth.rules[def.id.index()];
        if rule.relevant.is_empty() {
            continue;
        }
        with_rule += 1;
        let dep = select(&arena, snap, &scope, def.id, false);
        empty += usize::from(dep.is_empty());
        planted_total += rule.relevant.len();
        recovered += hits(&rule.relevant, &dep);
    }
    assert!(
        planted_total > 50,
        "ground truth too small: {planted_total}"
    );
    // A parameter whose rule value is nearly constant at this scale can
    // legitimately select nothing (heavily skewed palettes leave chi-square
    // nothing to work with), but that must stay a small minority.
    assert!(
        empty * 5 <= with_rule,
        "{empty}/{with_rule} ruled parameters selected no dependencies"
    );
    // Not every planted attribute is recoverable (some are near-constant
    // in a tiny network, and a conditionally redundant attribute is
    // *correctly* dropped), but the bulk must be found.
    let recall = recovered as f64 / planted_total as f64;
    assert!(
        recall > 0.45,
        "conditional recall {recall:.3} ({recovered}/{planted_total})"
    );
}

#[test]
fn conditional_selection_is_sparser_than_marginal() {
    // The marginal test keeps every attribute with a significant raw
    // association — including confounders that are redundant given an
    // earlier pick. The conditional forward selection must produce
    // strictly smaller dependency sets overall without losing recall to
    // the point of hurting the recommender (covered by the accuracy
    // tests).
    let net = clean_network();
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let arena = AttrArena::from_snapshot(snap);
    let mut conditional_total = 0usize;
    let mut marginal_total = 0usize;
    let mut marginal_recovered = 0usize;
    let mut conditional_recovered = 0usize;
    let mut planted_total = 0usize;
    for def in snap.catalog.defs() {
        let cond = select(&arena, snap, &scope, def.id, false);
        let marg = select(&arena, snap, &scope, def.id, true);
        conditional_total += cond.len();
        marginal_total += marg.len();
        // Everything the conditional pass keeps is marginally associated
        // too, so it must appear in the marginal set.
        for pa in &cond {
            assert!(
                marg.contains(pa),
                "{}: conditional pick {pa:?} missing from the marginal set",
                def.name
            );
        }
        let rule = &net.truth.rules[def.id.index()];
        planted_total += rule.relevant.len();
        conditional_recovered += hits(&rule.relevant, &cond);
        marginal_recovered += hits(&rule.relevant, &marg);
    }
    assert!(
        conditional_total < marginal_total,
        "conditional kept {conditional_total} vs marginal {marginal_total}"
    );
    // The conditional pass trades some ground-truth coverage for
    // sparsity (a planted attribute can be conditionally redundant once
    // its confounders are in), but it must keep at least half of what the
    // marginal pass finds — the accuracy tests confirm that is enough.
    assert!(planted_total > 0);
    assert!(
        conditional_recovered * 2 >= marginal_recovered,
        "conditional recovered {conditional_recovered}, marginal {marginal_recovered}"
    );
}

#[test]
fn mismatches_concentrate_on_noise_and_pockets() {
    // The Fig. 12 story: on a network with tuning noise, the recommender
    // should disagree with *noisy* slots far more often than with
    // rule-conforming slots — that is what makes the mismatch report a
    // misconfiguration detector rather than a random-error meter.
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let model = CfModel::fit(snap, &scope, CfConfig::default());
    let mut rule_slots = 0usize;
    let mut rule_mismatch = 0usize;
    let mut odd_slots = 0usize;
    let mut odd_mismatch = 0usize;
    let mut tally = |prov: Provenance, mismatch: bool| match prov {
        Provenance::Rule => {
            rule_slots += 1;
            rule_mismatch += usize::from(mismatch);
        }
        Provenance::Noise | Provenance::StaleTrial | Provenance::Pocket { .. } => {
            odd_slots += 1;
            odd_mismatch += usize::from(mismatch);
        }
        // Deliberate ongoing experiments are neither conforming nor
        // misconfigured; they don't belong in either rate.
        Provenance::TrialInProgress => {}
    };
    for def in snap.catalog.defs() {
        match def.kind {
            ParamKind::Singular => {
                for &c in &scope.carriers {
                    let rec = model.recommend_local_singular(snap, def.id, c, true);
                    tally(
                        snap.config.provenance(def.id, c),
                        rec.value != snap.config.value(def.id, c),
                    );
                }
            }
            ParamKind::Pairwise => {
                for &q in &scope.pairs {
                    let rec = model.recommend_local_pair(snap, def.id, q, true);
                    tally(
                        snap.config.pair_provenance(def.id, q),
                        rec.value != snap.config.pair_value(def.id, q),
                    );
                }
            }
        }
    }
    assert!(rule_slots > 0 && odd_slots > 0, "both populations present");
    let rule_rate = rule_mismatch as f64 / rule_slots as f64;
    let odd_rate = odd_mismatch as f64 / odd_slots as f64;
    assert!(
        odd_rate > 5.0 * rule_rate.max(0.001),
        "noise/pocket mismatch rate {odd_rate:.4} vs rule rate {rule_rate:.4}"
    );
}
