//! The configuration-perturbing processes layered over the latent rules:
//! geographic tuning pockets, stale and in-progress trials, and one-off
//! noise. Each writes [`Provenance`] so the Fig. 12 mismatch labeling can
//! be reproduced mechanically.
//!
//! Each pass is one body per unit of work (`Passes`: pockets per market;
//! stale trials, live trials and noise per parameter) run over the units
//! in order from the pass's own RNG. The `apply_*` functions run a whole
//! pass; the fleet stream runs the same bodies unit by unit through a
//! recording `Writer`, so both produce the same writes.

use crate::rules::{LatentRule, Side};
use crate::scale::TuningKnobs;
use crate::topology::Topology;
use auric_model::delta::{DeltaSlot, FleetDelta};
use auric_model::{
    AttrValue, Carrier, CarrierId, Configuration, Market, MarketId, PairIdx, ParamCatalog,
    ParamDef, ParamId, ParamKind, Point, Provenance, ValueIdx, X2Graph,
};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A geographic tuning pocket: one optimization campaign in which
/// engineers overrode a *set* of parameters together on every `band`-layer
/// carrier of `market` within `radius_km` of `center`. Campaign-style
/// tuning (many parameters, one area) is what gives Table 5 its shape —
/// a launched carrier either needs no changes or needs many.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pocket {
    pub market: MarketId,
    pub center: Point,
    pub radius_km: f64,
    /// Frequency-band layer the tuning applies to.
    pub band: auric_model::Band,
    /// The tuned parameters and their pocket values.
    pub params: Vec<(ParamId, ValueIdx)>,
    /// True when the pocket's cause (terrain, propagation) is absent from
    /// the attribute schema — the paper's "update learner" cause (i).
    pub hidden: bool,
}

/// Builds the rule key for a singular parameter on carrier `c`.
pub fn singular_key(rule: &LatentRule, c: &Carrier) -> Vec<AttrValue> {
    rule.relevant
        .iter()
        .map(|r| {
            debug_assert_eq!(r.side, Side::Src, "singular rules read only the carrier");
            c.attrs.get(r.attr)
        })
        .collect()
}

/// Builds the rule key for a pair-wise parameter on pair `(j, k)`.
pub fn pairwise_key(rule: &LatentRule, j: &Carrier, k: &Carrier) -> Vec<AttrValue> {
    rule.relevant
        .iter()
        .map(|r| match r.side {
            Side::Src => j.attrs.get(r.attr),
            Side::Dst => k.attrs.get(r.attr),
        })
        .collect()
}

/// Applies every latent rule, producing the clean rule-driven
/// configuration (all provenance [`Provenance::Rule`]).
pub fn apply_rules(topo: &Topology, catalog: &ParamCatalog, rules: &[LatentRule]) -> Configuration {
    let mut cfg = Configuration::with_defaults(catalog, topo.carriers.len(), topo.x2.n_pairs());
    for def in catalog.defs() {
        let rule = &rules[def.id.index()];
        match def.kind {
            ParamKind::Singular => {
                for c in &topo.carriers {
                    let v = rule.value_for(&singular_key(rule, c));
                    cfg.set_value(def.id, c.id, v, Provenance::Rule);
                }
            }
            ParamKind::Pairwise => {
                for (p, j, k) in topo.x2.pairs() {
                    let key =
                        pairwise_key(rule, &topo.carriers[j.index()], &topo.carriers[k.index()]);
                    cfg.set_pair_value(def.id, p, rule.value_for(&key), Provenance::Rule);
                }
            }
        }
    }
    cfg
}

/// Picks an override value distinct from `avoid`: a rare palette entry or
/// one of the rule's small fixed noise-pool values. Drawing from bounded
/// per-parameter pools (instead of the whole grid) keeps each parameter's
/// distinct-value count in Fig. 2's observed range.
fn override_value(rng: &mut ChaCha8Rng, rule: &LatentRule, avoid: Option<ValueIdx>) -> ValueIdx {
    for _ in 0..64 {
        let v = if rng.random_range(0.0..1.0) < 0.6 && rule.palette.len() > 1 {
            rule.palette[rng.random_range(1..rule.palette.len())]
        } else {
            rule.noise_pool[rng.random_range(0..rule.noise_pool.len())]
        };
        if Some(v) != avoid {
            return v;
        }
    }
    // Degenerate single-value grids: nothing else to pick.
    rule.palette[0]
}

// Each pass draws from its own RNG, seeded `seed ^ salt` from the seed
// its `apply_*` function is given.
const POCKETS_SALT: u64 = 0xB0C4_E75A;
const STALE_SALT: u64 = 0x57A1_E7A1;
const LIVE_SALT: u64 = 0x11FE_77AB;
const NOISE_SALT: u64 = 0x0D15_EA5E;

/// The four passes' RNGs, seeded as [`crate::generate`] seeds them from
/// the fleet seed, for running the passes one unit at a time.
pub(crate) struct PassRngs {
    pub pockets: ChaCha8Rng,
    pub stale: ChaCha8Rng,
    pub live: ChaCha8Rng,
    pub noise: ChaCha8Rng,
}

impl PassRngs {
    pub(crate) fn for_fleet(seed: u64) -> Self {
        let [pockets, stale, live, noise] = crate::generator::pass_seeds(seed);
        Self {
            pockets: ChaCha8Rng::seed_from_u64(pockets ^ POCKETS_SALT),
            stale: ChaCha8Rng::seed_from_u64(stale ^ STALE_SALT),
            live: ChaCha8Rng::seed_from_u64(live ^ LIVE_SALT),
            noise: ChaCha8Rng::seed_from_u64(noise ^ NOISE_SALT),
        }
    }
}

/// Where the passes write a slot. Every write sets the configuration; a
/// recording writer also appends it as a [`FleetDelta::Retune`], naming a
/// pair slot by its endpoints.
pub(crate) struct Writer<'a> {
    cfg: &'a mut Configuration,
    x2: &'a X2Graph,
    events: Option<&'a mut VecDeque<FleetDelta>>,
}

impl<'a> Writer<'a> {
    pub(crate) fn new(
        cfg: &'a mut Configuration,
        x2: &'a X2Graph,
        events: Option<&'a mut VecDeque<FleetDelta>>,
    ) -> Self {
        Self { cfg, x2, events }
    }

    fn carrier(&mut self, param: ParamId, c: CarrierId, value: ValueIdx, why: Provenance) {
        self.cfg.set_value(param, c, value, why);
        if let Some(events) = self.events.as_deref_mut() {
            events.push_back(FleetDelta::Retune {
                param,
                slot: DeltaSlot::Carrier(c),
                value,
                why,
            });
        }
    }

    fn pair(&mut self, param: ParamId, q: PairIdx, value: ValueIdx, why: Provenance) {
        self.cfg.set_pair_value(param, q, value, why);
        if let Some(events) = self.events.as_deref_mut() {
            let (j, k) = self.x2.pair(q);
            events.push_back(FleetDelta::Retune {
                param,
                slot: DeltaSlot::Pair(j, k),
                value,
                why,
            });
        }
    }
}

/// The passes' read-only inputs and each pass's body for one unit of work:
/// pockets per market; stale trials, live trials and noise per parameter.
/// A pass runs its body over every unit in order, drawing from one RNG.
pub(crate) struct Passes<'a> {
    topo: &'a Topology,
    catalog: &'a ParamCatalog,
    rules: &'a [LatentRule],
    knobs: &'a TuningKnobs,
}

impl<'a> Passes<'a> {
    pub(crate) fn new(
        topo: &'a Topology,
        catalog: &'a ParamCatalog,
        rules: &'a [LatentRule],
        knobs: &'a TuningKnobs,
    ) -> Self {
        Self {
            topo,
            catalog,
            rules,
            knobs,
        }
    }

    /// Runs a per-parameter pass over every parameter in catalog order,
    /// drawing from one RNG seeded `seed`.
    fn per_param(
        &self,
        cfg: &mut Configuration,
        seed: u64,
        body: fn(&Self, &mut Writer, &mut ChaCha8Rng, &ParamDef),
    ) {
        let mut w = Writer::new(cfg, &self.topo.x2, None);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for def in self.catalog.defs() {
            body(self, &mut w, &mut rng, def);
        }
    }

    /// `market`'s tuning pockets, appended to `pockets`.
    pub(crate) fn pockets(
        &self,
        w: &mut Writer,
        rng: &mut ChaCha8Rng,
        market: &Market,
        pockets: &mut Vec<Pocket>,
    ) {
        let (topo, knobs) = (self.topo, self.knobs);
        if rng.random_range(0.0..1.0) >= knobs.pocket_prob
            || knobs.max_pockets == 0
            || market.enodebs.is_empty()
        {
            return;
        }
        let n = rng.random_range(1..=knobs.max_pockets);
        // Tuning campaigns target dense areas (the paper's motivating
        // example is downtown Manhattan): centers land on urban or
        // suburban eNodeBs, where the X2 neighborhood is geographically
        // tight and local voting has signal.
        let dense: Vec<_> = market
            .enodebs
            .iter()
            .filter(|&&e| topo.enodebs[e.index()].morphology != auric_model::Morphology::Rural)
            .copied()
            .collect();
        let candidates = if dense.is_empty() {
            &market.enodebs
        } else {
            &dense
        };
        for _ in 0..n {
            let center_enb = candidates[rng.random_range(0..candidates.len())];
            let center = topo.enodebs[center_enb.index()].position;
            let radius = rng.random_range(knobs.pocket_radius_km.0..=knobs.pocket_radius_km.1);
            let hidden = rng.random_range(0.0..1.0) < knobs.hidden_pocket_frac;
            let band = auric_model::Band::ALL[rng.random_range(0..3usize)];
            let why = Provenance::Pocket {
                hidden_attribute: hidden,
            };

            // The campaign's parameter set: a handful tuned together.
            let n_params = rng
                .random_range(knobs.params_per_pocket.0..=knobs.params_per_pocket.1)
                .min(self.catalog.len());
            let mut chosen: Vec<ParamId> = Vec::with_capacity(n_params);
            while chosen.len() < n_params {
                let p = ParamId(rng.random_range(0..self.catalog.len() as u16));
                if !chosen.contains(&p) {
                    chosen.push(p);
                }
            }
            chosen.sort_unstable();

            let in_pocket = |c: &Carrier| {
                c.market == market.id
                    && c.band == band
                    && topo.enodebs[c.enodeb.index()].position.distance(center) <= radius
            };
            let mut params = Vec::with_capacity(chosen.len());
            for &pid in &chosen {
                let kind = self.catalog.def(pid).kind;
                let value = override_value(rng, &self.rules[pid.index()], None);
                for &cid in &market.carriers {
                    if !in_pocket(&topo.carriers[cid.index()]) {
                        continue;
                    }
                    match kind {
                        ParamKind::Singular => w.carrier(pid, cid, value, why),
                        ParamKind::Pairwise => {
                            for q in topo.x2.pairs_from(cid) {
                                w.pair(pid, q, value, why);
                            }
                        }
                    }
                }
                params.push((pid, value));
            }
            pockets.push(Pocket {
                market: market.id,
                center,
                radius_km: radius,
                band,
                params,
                hidden,
            });
        }
    }

    /// Parameter `def`'s stale-trial leftovers.
    pub(crate) fn stale(&self, w: &mut Writer, rng: &mut ChaCha8Rng, def: &ParamDef) {
        let knobs = self.knobs;
        if rng.random_range(0.0..1.0) >= knobs.stale_trial_prob {
            return;
        }
        let rule = &self.rules[def.id.index()];
        // Abandoned trials tried a *new* value, not one of the standing
        // palette values — draw from the rule's bounded noise pool.
        let value = rule.noise_pool[rng.random_range(0..rule.noise_pool.len())];
        match def.kind {
            ParamKind::Singular => {
                for c in &self.topo.carriers {
                    if rng.random_range(0.0..1.0) < knobs.stale_trial_frac {
                        w.carrier(def.id, c.id, value, Provenance::StaleTrial);
                    }
                }
            }
            ParamKind::Pairwise => {
                for q in 0..self.topo.x2.n_pairs() as PairIdx {
                    if rng.random_range(0.0..1.0) < knobs.stale_trial_frac {
                        w.pair(def.id, q, value, Provenance::StaleTrial);
                    }
                }
            }
        }
    }

    /// Parameter `def`'s in-progress trial, in one market's TAC block.
    pub(crate) fn live(&self, w: &mut Writer, rng: &mut ChaCha8Rng, def: &ParamDef) {
        let (topo, knobs) = (self.topo, self.knobs);
        if rng.random_range(0.0..1.0) >= knobs.live_trial_prob {
            return;
        }
        let rule = &self.rules[def.id.index()];
        // The certification candidate is likewise a new value.
        let value = rule.noise_pool[rng.random_range(0..rule.noise_pool.len())];
        let market = &topo.markets[rng.random_range(0..topo.markets.len())];
        let tac = rng.random_range(0..crate::names::TACS_PER_MARKET as u16)
            + market.id.0 * crate::names::TACS_PER_MARKET as u16;
        let in_trial = |c: &Carrier| c.attrs.get(crate::attr_idx::TAC) == tac;
        match def.kind {
            ParamKind::Singular => {
                for &cid in &market.carriers {
                    if in_trial(&topo.carriers[cid.index()])
                        && rng.random_range(0.0..1.0) < knobs.live_trial_frac
                    {
                        w.carrier(def.id, cid, value, Provenance::TrialInProgress);
                    }
                }
            }
            ParamKind::Pairwise => {
                for &cid in &market.carriers {
                    if !in_trial(&topo.carriers[cid.index()]) {
                        continue;
                    }
                    for q in topo.x2.pairs_from(cid) {
                        if rng.random_range(0.0..1.0) < knobs.live_trial_frac {
                            w.pair(def.id, q, value, Provenance::TrialInProgress);
                        }
                    }
                }
            }
        }
    }

    /// Parameter `def`'s one-off noise. Reads each hit slot's current
    /// value from the configuration, so it runs after the parameter's
    /// pockets and trials.
    pub(crate) fn noise(&self, w: &mut Writer, rng: &mut ChaCha8Rng, def: &ParamDef) {
        let rate = self.knobs.noise_rate;
        if rate <= 0.0 {
            return;
        }
        let rule = &self.rules[def.id.index()];
        match def.kind {
            ParamKind::Singular => {
                for c in &self.topo.carriers {
                    if rng.random_range(0.0..1.0) < rate {
                        let cur = w.cfg.value(def.id, c.id);
                        let v = override_value(rng, rule, Some(cur));
                        w.carrier(def.id, c.id, v, Provenance::Noise);
                    }
                }
            }
            ParamKind::Pairwise => {
                for q in 0..self.topo.x2.n_pairs() as PairIdx {
                    if rng.random_range(0.0..1.0) < rate {
                        let cur = w.cfg.pair_value(def.id, q);
                        let v = override_value(rng, rule, Some(cur));
                        w.pair(def.id, q, v, Provenance::Noise);
                    }
                }
            }
        }
    }
}

/// Carves geographic tuning pockets (optimization campaigns) and applies
/// their overrides. Returns the pockets for ground-truth bookkeeping.
pub fn apply_pockets(
    cfg: &mut Configuration,
    topo: &Topology,
    catalog: &ParamCatalog,
    rules: &[LatentRule],
    knobs: &TuningKnobs,
    seed: u64,
) -> Vec<Pocket> {
    let passes = Passes::new(topo, catalog, rules, knobs);
    let mut w = Writer::new(cfg, &topo.x2, None);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ POCKETS_SALT);
    let mut pockets = Vec::new();
    for market in &topo.markets {
        passes.pockets(&mut w, &mut rng, market, &mut pockets);
    }
    pockets
}

/// Sprinkles stale-trial leftovers: per parameter (with probability
/// `stale_trial_prob`), a scattered `stale_trial_frac` of slots keep an
/// abandoned trial's value. Scattered — not clustered — so neighborhood
/// majorities vote against them and Auric's disagreement is the *better*
/// configuration (the paper's 28% "good recommendation").
pub fn apply_stale_trials(
    cfg: &mut Configuration,
    topo: &Topology,
    catalog: &ParamCatalog,
    rules: &[LatentRule],
    knobs: &TuningKnobs,
    seed: u64,
) {
    Passes::new(topo, catalog, rules, knobs).per_param(cfg, seed ^ STALE_SALT, Passes::stale);
}

/// Runs in-progress certification trials: per parameter (with probability
/// `live_trial_prob`), one market's TAC block flips `live_trial_frac` of
/// its slots to the candidate value. Kept below the voting threshold —
/// the paper notes these recommendations mismatch precisely because the
/// trial value "was not in the majority".
pub fn apply_live_trials(
    cfg: &mut Configuration,
    topo: &Topology,
    catalog: &ParamCatalog,
    rules: &[LatentRule],
    knobs: &TuningKnobs,
    seed: u64,
) {
    Passes::new(topo, catalog, rules, knobs).per_param(cfg, seed ^ LIVE_SALT, Passes::live);
}

/// Adds one-off noise: each slot independently deviates with probability
/// `noise_rate` to an arbitrary plausible value. These are the
/// irreducible "inconclusive" mismatches.
pub fn apply_noise(
    cfg: &mut Configuration,
    topo: &Topology,
    catalog: &ParamCatalog,
    rules: &[LatentRule],
    knobs: &TuningKnobs,
    seed: u64,
) {
    Passes::new(topo, catalog, rules, knobs).per_param(cfg, seed ^ NOISE_SALT, Passes::noise);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::build_schema;
    use crate::rules::generate_rules;
    use crate::scale::NetScale;
    use crate::topology;

    fn fixture() -> (Topology, ParamCatalog, Vec<LatentRule>) {
        let scale = NetScale {
            n_markets: 2,
            enbs_per_market: 8,
            seed: 3,
        };
        let schema = build_schema(scale.n_markets);
        let topo = topology::build(&scale, &schema);
        let catalog = ParamCatalog::standard();
        let rules = generate_rules(&catalog, 3);
        (topo, catalog, rules)
    }

    #[test]
    fn rules_fill_every_slot_with_rule_provenance() {
        let (topo, catalog, rules) = fixture();
        let cfg = apply_rules(&topo, &catalog, &rules);
        for def in catalog.defs() {
            match def.kind {
                ParamKind::Singular => {
                    for c in &topo.carriers {
                        assert_eq!(cfg.provenance(def.id, c.id), Provenance::Rule);
                        assert!((cfg.value(def.id, c.id) as usize) < def.range.n_values());
                    }
                }
                ParamKind::Pairwise => {
                    for p in 0..topo.x2.n_pairs() as u32 {
                        assert_eq!(cfg.pair_provenance(def.id, p), Provenance::Rule);
                    }
                }
            }
        }
    }

    #[test]
    fn rule_values_are_attribute_determined() {
        // Two carriers with identical relevant attributes get identical
        // rule values for every singular parameter.
        let (topo, catalog, rules) = fixture();
        let cfg = apply_rules(&topo, &catalog, &rules);
        for def in catalog.singular_ids() {
            let rule = &rules[def.index()];
            let mut by_key = std::collections::HashMap::new();
            for c in &topo.carriers {
                let key = singular_key(rule, c);
                let v = cfg.value(def, c.id);
                let prev = by_key.insert(key, v);
                if let Some(prev) = prev {
                    assert_eq!(prev, v, "same key, different value");
                }
            }
        }
    }

    #[test]
    fn pockets_are_geographically_coherent() {
        let (topo, catalog, rules) = fixture();
        let mut cfg = apply_rules(&topo, &catalog, &rules);
        let knobs = TuningKnobs {
            pocket_prob: 1.0,
            ..TuningKnobs::default()
        };
        let pockets = apply_pockets(&mut cfg, &topo, &catalog, &rules, &knobs, 17);
        assert!(!pockets.is_empty());
        for pocket in &pockets {
            assert!(!pocket.params.is_empty(), "campaign pocket tunes something");
            for &(pid, _) in &pocket.params {
                if catalog.def(pid).kind != ParamKind::Singular {
                    continue;
                }
                // Every in-market carrier of the pocket's band inside the
                // radius carries pocket provenance — possibly from a later
                // pocket of the same parameter that overwrote this one.
                for &cid in &topo.markets[pocket.market.index()].carriers {
                    let c = &topo.carriers[cid.index()];
                    let d = topo.enodebs[c.enodeb.index()]
                        .position
                        .distance(pocket.center);
                    if d <= pocket.radius_km && c.band == pocket.band {
                        let prov = cfg.provenance(pid, cid);
                        assert!(
                            matches!(prov, Provenance::Pocket { .. }),
                            "carrier inside pocket has provenance {prov:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stale_trials_are_scattered_at_the_requested_rate() {
        let (topo, catalog, rules) = fixture();
        let mut cfg = apply_rules(&topo, &catalog, &rules);
        let knobs = TuningKnobs {
            stale_trial_prob: 1.0,
            stale_trial_frac: 0.05,
            ..TuningKnobs::none()
        };
        apply_stale_trials(&mut cfg, &topo, &catalog, &rules, &knobs, 11);
        let mut stale = 0usize;
        let mut total = 0usize;
        for def in catalog.singular_ids() {
            for c in &topo.carriers {
                total += 1;
                if cfg.provenance(def, c.id) == Provenance::StaleTrial {
                    stale += 1;
                }
            }
        }
        let rate = stale as f64 / total as f64;
        assert!(
            (rate - 0.05).abs() < 0.02,
            "stale rate {rate} far from requested 0.05"
        );
    }

    #[test]
    fn noise_respects_rate_and_changes_values() {
        let (topo, catalog, rules) = fixture();
        let clean = apply_rules(&topo, &catalog, &rules);
        let mut cfg = clean.clone();
        let knobs = TuningKnobs {
            noise_rate: 0.1,
            ..TuningKnobs::none()
        };
        apply_noise(&mut cfg, &topo, &catalog, &rules, &knobs, 23);
        let mut noisy = 0usize;
        let mut total = 0usize;
        for def in catalog.singular_ids() {
            for c in &topo.carriers {
                total += 1;
                if cfg.provenance(def, c.id) == Provenance::Noise {
                    noisy += 1;
                    assert_ne!(
                        cfg.value(def, c.id),
                        clean.value(def, c.id),
                        "noise must actually change the value"
                    );
                }
            }
        }
        let rate = noisy as f64 / total as f64;
        assert!((rate - 0.1).abs() < 0.03, "noise rate {rate}");
    }

    #[test]
    fn zero_knobs_leave_config_untouched() {
        let (topo, catalog, rules) = fixture();
        let clean = apply_rules(&topo, &catalog, &rules);
        let mut cfg = clean.clone();
        let knobs = TuningKnobs::none();
        let pockets = apply_pockets(&mut cfg, &topo, &catalog, &rules, &knobs, 1);
        apply_stale_trials(&mut cfg, &topo, &catalog, &rules, &knobs, 2);
        apply_live_trials(&mut cfg, &topo, &catalog, &rules, &knobs, 3);
        apply_noise(&mut cfg, &topo, &catalog, &rules, &knobs, 4);
        assert!(pockets.is_empty());
        assert_eq!(cfg, clean);
    }

    #[test]
    fn live_trials_stay_within_one_tac() {
        let (topo, catalog, rules) = fixture();
        let mut cfg = apply_rules(&topo, &catalog, &rules);
        let knobs = TuningKnobs {
            live_trial_prob: 1.0,
            live_trial_frac: 0.5,
            ..TuningKnobs::none()
        };
        apply_live_trials(&mut cfg, &topo, &catalog, &rules, &knobs, 7);
        for def in catalog.singular_ids() {
            let tacs: std::collections::HashSet<u16> = topo
                .carriers
                .iter()
                .filter(|c| cfg.provenance(def, c.id) == Provenance::TrialInProgress)
                .map(|c| c.attrs.get(crate::attr_idx::TAC))
                .collect();
            assert!(tacs.len() <= 1, "trial for {def} spans TACs {tacs:?}");
        }
    }
}
