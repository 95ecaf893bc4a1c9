//! Cold-start recommendation for genuinely new carriers (§3, Fig. 5).
//!
//! A new carrier is not yet carrying traffic, so all Auric can see is its
//! static attributes (and the X2 neighbor relations planned for it). This
//! module turns a fitted [`CfModel`] plus that information into a full
//! configuration recommendation with human-readable explanations — the
//! interpretability the paper's §5 "lessons learned" calls essential for
//! adoption.

use crate::cf::{Basis, CfModel, ParamCf, Recommendation};
use crate::dependency::{PredictorAttr, Side};
use auric_model::{AttrValue, AttrVec, CarrierId, NetworkSnapshot, PairIdx, ParamId};
use auric_stats::freq::FreqTable;
use serde::{Deserialize, Serialize};

/// A carrier about to be launched: attributes plus planned X2 neighbors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewCarrier {
    pub attrs: AttrVec,
    /// Existing carriers the new one will have X2 relations with.
    pub neighbors: Vec<CarrierId>,
}

/// One parameter's recommendation, with explanation material. Names are
/// not stored: the record carries ids only, and
/// [`ConfigRecommendation::render`] resolves them against the snapshot's
/// catalog and schema when a human reads the answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigRecommendation {
    pub param: ParamId,
    /// Recommended grid index.
    pub value: auric_model::ValueIdx,
    /// Recommended concrete value on the parameter's grid.
    pub concrete: f64,
    pub basis: Basis,
    /// Votes for the winner / total voters (0/0 for fallback bases).
    pub support: usize,
    pub voters: usize,
    /// The dependent attributes with the level each was matched on —
    /// "carriers matching on these attributes voted for this value".
    pub matched_on: Vec<(PredictorAttr, AttrValue)>,
}

/// A [`ConfigRecommendation`] with its ids resolved to display names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendered<'a> {
    /// The vendor-style parameter name.
    pub name: &'a str,
    /// `(attribute name, level name)` pairs of the dependent attributes;
    /// neighbor-side attributes are prefixed `"neighbor "`.
    pub matched_on: Vec<(String, String)>,
}

impl ConfigRecommendation {
    /// Resolves the parameter and the matched attributes and levels to
    /// their names in `snapshot`'s catalog and schema.
    pub fn render<'a>(&self, snapshot: &'a NetworkSnapshot) -> Rendered<'a> {
        let matched_on = self
            .matched_on
            .iter()
            .map(|&(pa, level)| {
                let prefix = match pa.side {
                    Side::Src => "",
                    Side::Dst => "neighbor ",
                };
                (
                    format!("{prefix}{}", snapshot.schema.def(pa.attr).name),
                    snapshot.schema.level_name(pa.attr, level).to_string(),
                )
            })
            .collect();
        Rendered {
            name: &snapshot.catalog.def(self.param).name,
            matched_on,
        }
    }
}

/// Recommends every **singular** parameter for a new carrier. Local
/// voting over the planned neighbors runs first; the global chain backs
/// it up.
pub fn recommend_singular(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    new_carrier: &NewCarrier,
) -> Vec<ConfigRecommendation> {
    let keys = model.probe_singular(snapshot, &new_carrier.attrs);
    recommend_singular_keyed(snapshot, model, new_carrier, &keys)
}

/// [`recommend_singular`] with the new carrier's vote keys already
/// packed: `keys` is [`CfModel::probe_singular`] of its attributes, one
/// key per singular parameter in `catalog.singular_ids()` order. The
/// serving layer resolves exactly these keys at admission, so the
/// recommender votes with the probe it was admitted under.
pub fn recommend_singular_keyed(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    new_carrier: &NewCarrier,
    keys: &[u128],
) -> Vec<ConfigRecommendation> {
    debug_assert_eq!(keys.len(), snapshot.catalog.singular_ids().count());
    // Planned neighbors come from an external radio-planning tool; one
    // that names a carrier the snapshot has never heard of must not take
    // the whole recommendation down (it used to index out of bounds).
    // Drop it from the vote and count the drop.
    let neighbors = known_neighbors(snapshot, model, &new_carrier.neighbors);
    snapshot
        .catalog
        .singular_ids()
        .zip(keys)
        .map(|(p, &key)| {
            let pc = model.param(p);
            // Local vote over the planned neighbors with matching keys:
            // integer compares against the fitted key column (a neighbor
            // outside its window is packed from the snapshot).
            let mut table = FreqTable::new();
            for &n in &neighbors {
                if pc.carrier_key(snapshot, n) == key {
                    table.add(snapshot.config.value(p, n));
                }
            }
            let rec = local_or_global(model, pc, key, &table);
            explain(snapshot, model, p, &new_carrier.attrs, None, rec)
        })
        .collect()
}

/// Recommends every **pair-wise** parameter for the relation between a new
/// carrier and one planned neighbor.
///
/// An out-of-range `neighbor` (a planning-tool reference the snapshot has
/// never heard of) yields no recommendations — there is no relation to
/// configure — and bumps the `cf.coldstart.unknown_neighbor` counter
/// instead of panicking.
///
/// The local vote scans the directed pairs sourced at the planned
/// neighbors, enumerated once per request (see `candidate_pairs`). A
/// pair whose reverse direction is missing is skipped and counted in
/// `cf.coldstart.asymmetric_pair` once per request, not once per
/// parameter.
pub fn recommend_pairwise(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    new_carrier: &NewCarrier,
    neighbor: CarrierId,
) -> Vec<ConfigRecommendation> {
    let keys = model.probe_pairwise(snapshot, &new_carrier.attrs, neighbor);
    recommend_pairwise_keyed(snapshot, model, new_carrier, neighbor, &keys)
}

/// [`recommend_pairwise`] with the pair's vote keys already packed:
/// `keys` is [`CfModel::probe_pairwise`] from the new carrier toward
/// `neighbor`, one key per pair-wise parameter in
/// `catalog.pairwise_ids()` order (empty when `neighbor` is unknown).
/// The serving layer resolves exactly these keys at admission.
pub fn recommend_pairwise_keyed(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    new_carrier: &NewCarrier,
    neighbor: CarrierId,
    keys: &[u128],
) -> Vec<ConfigRecommendation> {
    let obs = model.recorder();
    if neighbor.index() >= snapshot.n_carriers() {
        obs.inc("cf.coldstart.unknown_neighbor");
        return Vec::new();
    }
    debug_assert_eq!(keys.len(), snapshot.catalog.pairwise_ids().count());
    let neighbors = known_neighbors(snapshot, model, &new_carrier.neighbors);
    let candidates = candidate_pairs(snapshot, model, &neighbors);
    let dst = &snapshot.carrier(neighbor).attrs;
    snapshot
        .catalog
        .pairwise_ids()
        .zip(keys)
        .map(|(p, &key)| {
            let pc = model.param(p);
            // Keys come off the fitted pair column when its window covers
            // the pair; otherwise the pair's endpoints are packed directly.
            let values = snapshot.config.pair_values_of(p);
            let mut table = FreqTable::new();
            for &q in &candidates {
                if pc.pair_key(snapshot, q) == key {
                    table.add(values[q as usize]);
                }
            }
            let rec = local_or_global(model, pc, key, &table);
            explain(snapshot, model, p, &new_carrier.attrs, Some(dst), rec)
        })
        .collect()
}

/// The directed pairs a pair-wise cold-start vote scans: every pair
/// sourced at a planned neighbor, in planned-neighbor order (a neighbor
/// listed twice is scanned twice). The list does not depend on the
/// parameter, so it is built once per request.
///
/// Scanning only `pairs_from(n)` (pairs whose *source* is a planned
/// neighbor) still covers both directions of every relation between
/// planned neighbors: `X2Graph::from_edges` stores each undirected edge
/// as two directed pairs, so the reverse pair (m, n) is enumerated when
/// the scan reaches source `m` (`validate()` enforces this symmetry, and
/// `pairwise_scan_covers_both_directions` below pins it). A graph that
/// nonetheless arrives asymmetric — deserialized from a foreign
/// inventory export, say — must not poison the vote with unpaired
/// directions: those pairs are skipped and counted
/// (`cf.coldstart.asymmetric_pair`) rather than trusted or panicked
/// over. Pairs *into* a planned neighbor from a non-planned carrier are
/// deliberately out of scope — their source is not part of the new
/// carrier's planned neighborhood, mirroring
/// `CfModel::recommend_local_pair`.
fn candidate_pairs(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    neighbors: &[CarrierId],
) -> Vec<PairIdx> {
    let x2 = &snapshot.x2;
    let mut out = Vec::new();
    for &n in neighbors {
        for (q, &b) in x2.pairs_from(n).zip(x2.neighbors(n)) {
            if x2.pair_idx(b, n).is_none() {
                model.recorder().inc("cf.coldstart.asymmetric_pair");
                continue;
            }
            out.push(q);
        }
    }
    out
}

/// The local vote's majority when it clears the support threshold, else
/// the global chain on the new carrier's key; counts which one answered.
fn local_or_global(model: &CfModel, pc: &ParamCf, key: u128, table: &FreqTable) -> Recommendation {
    let obs = model.recorder();
    obs.inc("cf.coldstart.total");
    if let Some((value, support, voters)) =
        table.majority_with_support_excluding(None, model.config.support)
    {
        obs.inc("cf.coldstart.local_vote");
        Recommendation {
            value,
            basis: Basis::LocalVote,
            support,
            voters,
        }
    } else {
        obs.inc("cf.coldstart.fallback");
        model.global_chain(pc, key, None)
    }
}

/// Planned neighbors restricted to carriers the snapshot knows. Each
/// dropped reference bumps `cf.coldstart.unknown_neighbor` — a planning
/// tool handing over stale carrier ids loses those voters, not the whole
/// recommendation.
fn known_neighbors(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    planned: &[CarrierId],
) -> Vec<CarrierId> {
    let obs = model.recorder();
    planned
        .iter()
        .copied()
        .filter(|&n| {
            let known = n.index() < snapshot.n_carriers();
            if !known {
                obs.inc("cf.coldstart.unknown_neighbor");
            }
            known
        })
        .collect()
}

/// Assembles the explanation record for one recommendation: ids only,
/// rendered to names on demand by [`ConfigRecommendation::render`].
fn explain(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    param: ParamId,
    src: &AttrVec,
    dst: Option<&AttrVec>,
    rec: Recommendation,
) -> ConfigRecommendation {
    let matched_on = model
        .param(param)
        .dependent
        .iter()
        .map(|&pa| {
            let attrs = match pa.side {
                Side::Src => src,
                Side::Dst => dst.expect("pair-wise explanation needs neighbor attrs"),
            };
            (pa, attrs.get(pa.attr))
        })
        .collect();
    ConfigRecommendation {
        param,
        value: rec.value,
        concrete: snapshot.catalog.def(param).range.value(rec.value),
        basis: rec.basis,
        support: rec.support,
        voters: rec.voters,
        matched_on,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::CfConfig;
    use crate::scope::Scope;
    use auric_netgen::{generate, NetScale, TuningKnobs};

    fn setup() -> (auric_model::NetworkSnapshot, CfModel) {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let scope = Scope::whole(&net.snapshot);
        let model = CfModel::fit(&net.snapshot, &scope, CfConfig::default());
        (net.snapshot, model)
    }

    /// A "new" carrier cloned from an existing one: attributes and
    /// neighbor relations copied, so the right answer is known.
    fn clone_of(snapshot: &auric_model::NetworkSnapshot, c: CarrierId) -> NewCarrier {
        NewCarrier {
            attrs: snapshot.carrier(c).attrs.clone(),
            neighbors: snapshot.x2.neighbors(c).to_vec(),
        }
    }

    #[test]
    fn singular_recommendations_cover_all_39_parameters() {
        let (snap, model) = setup();
        let nc = clone_of(&snap, CarrierId(0));
        let recs = recommend_singular(&snap, &model, &nc);
        assert_eq!(recs.len(), 39);
        for r in &recs {
            // Concrete value lies on the grid.
            let def = snap.catalog.def(r.param);
            assert_eq!(def.range.index_of(r.concrete), Some(r.value));
            assert_eq!(r.render(&snap).name, def.name);
        }
    }

    #[test]
    fn clone_recommendations_match_the_original() {
        // Recommending for an exact clone of an existing carrier should
        // reproduce that carrier's configuration almost everywhere on a
        // clean network.
        let (snap, model) = setup();
        let c = CarrierId(3);
        let nc = clone_of(&snap, c);
        let recs = recommend_singular(&snap, &model, &nc);
        let mut hits = 0usize;
        for r in &recs {
            if r.value == snap.config.value(r.param, c) {
                hits += 1;
            }
        }
        assert!(hits >= 36, "only {hits}/39 matched the clone's original");
    }

    #[test]
    fn pairwise_recommendations_cover_all_26_parameters() {
        let (snap, model) = setup();
        let c = CarrierId(1);
        let nc = clone_of(&snap, c);
        let neighbor = snap.x2.neighbors(c)[0];
        let recs = recommend_pairwise(&snap, &model, &nc, neighbor);
        assert_eq!(recs.len(), 26);
        // Neighbor-side dependent attributes are labeled as such.
        let any_neighbor_attr = recs
            .iter()
            .flat_map(|r| r.render(&snap).matched_on)
            .any(|(name, _)| name.starts_with("neighbor "));
        assert!(
            any_neighbor_attr,
            "no pair-wise explanation mentions the neighbor"
        );
    }

    #[test]
    fn unobserved_attribute_combinations_still_get_recommendations() {
        // §6 "bootstrapping configuration for the unobserved": a carrier
        // whose attribute combination was never seen cannot be matched
        // exactly; the fallback chain must still produce a value for
        // every parameter (backoff plurality, scope majority, or the
        // default — never a panic, never a gap).
        let (snap, model) = setup();
        let mut attrs = snap.carrier(CarrierId(0)).attrs.clone();
        // Scramble several attributes to a combination that cannot occur
        // (e.g. an NB-IoT FirstNet hybrid on the high band).
        attrs.set(auric_model::AttrId(0), 4); // 2300MHz
        attrs.set(auric_model::AttrId(1), 2); // NB-IoT
        attrs.set(auric_model::AttrId(7), 3); // 5mi cell on high band
        let nc = NewCarrier {
            attrs,
            neighbors: vec![],
        };
        let recs = recommend_singular(&snap, &model, &nc);
        assert_eq!(recs.len(), 39);
        for r in &recs {
            let def = snap.catalog.def(r.param);
            assert!(
                (r.value as usize) < def.range.n_values(),
                "{} off grid",
                def.name
            );
        }
    }

    /// Satellite audit for the pairwise local-vote scan: iterating only
    /// `pairs_from(n)` over the planned neighbors must still reach *both*
    /// directed pairs of every relation between planned neighbors,
    /// because `X2Graph` stores each undirected edge as two directed
    /// pairs. If pair storage ever became asymmetric, this test would
    /// catch the silently missing reverse-direction voters.
    #[test]
    fn pairwise_scan_covers_both_directions() {
        let (snap, _) = setup();
        snap.x2
            .validate()
            .expect("X2 symmetry is a graph invariant");
        let c = CarrierId(1);
        let nc = clone_of(&snap, c);
        assert!(nc.neighbors.len() >= 2, "need two planned neighbors");
        let scanned: std::collections::HashSet<u32> = nc
            .neighbors
            .iter()
            .flat_map(|&n| snap.x2.pairs_from(n))
            .collect();
        for &m in &nc.neighbors {
            for &n in &nc.neighbors {
                if m == n {
                    continue;
                }
                // Either direction exists iff the edge exists, and then
                // both directions are in the scanned set.
                match (snap.x2.pair_idx(m, n), snap.x2.pair_idx(n, m)) {
                    (Some(f), Some(r)) => {
                        assert!(scanned.contains(&f), "forward pair {m}->{n} not scanned");
                        assert!(scanned.contains(&r), "reverse pair {n}->{m} not scanned");
                    }
                    (None, None) => {}
                    _ => panic!("asymmetric pair storage between {m} and {n}"),
                }
            }
        }
    }

    #[test]
    fn unknown_planned_neighbor_is_dropped_not_fatal() {
        // Regression: a planning tool handing over a carrier id the
        // snapshot has never heard of used to index the key column out of
        // bounds. The stale reference must lose its vote, not kill the
        // recommendation.
        let (snap, mut model) = setup();
        model.set_recorder(auric_obs::Recorder::deterministic());
        let mut nc = clone_of(&snap, CarrierId(0));
        nc.neighbors.push(CarrierId(u32::MAX));
        let recs = recommend_singular(&snap, &model, &nc);
        assert_eq!(recs.len(), 39);
        assert!(model.recorder().counter("cf.coldstart.unknown_neighbor") >= 1);

        // A pair-wise recommendation *against* an unknown neighbor has no
        // relation to configure: empty, counted, no panic.
        let recs = recommend_pairwise(&snap, &model, &nc, CarrierId(u32::MAX));
        assert!(recs.is_empty());
        assert!(model.recorder().counter("cf.coldstart.unknown_neighbor") >= 2);
    }

    #[test]
    fn asymmetric_pair_storage_is_skipped_not_fatal() {
        // Regression: the pairwise scan trusted the undirected-edge
        // invariant (every directed pair has its reverse). A graph
        // deserialized from a foreign inventory export can violate it;
        // unpaired directions must be skipped and counted, not voted on
        // or panicked over. `from_edges` cannot build such a graph, so
        // arrive the way the hostile data would: through serde.
        let (mut snap, mut model) = setup();
        model.set_recorder(auric_obs::Recorder::deterministic());
        let n = snap.n_carriers();
        // Carrier 0 lists 1 as a neighbor; 1 does not list 0 back.
        let mut offsets = vec![1u32; n + 1];
        offsets[0] = 0;
        let json = format!(
            "{{\"offsets\":{},\"adj\":[1]}}",
            serde_json::to_string(&offsets).unwrap()
        );
        let g: auric_model::X2Graph = serde_json::from_str(&json).unwrap();
        assert!(g.validate().is_err(), "graph must really be asymmetric");
        snap.x2 = g;
        let nc = NewCarrier {
            attrs: snap.carrier(CarrierId(2)).attrs.clone(),
            neighbors: vec![CarrierId(0)],
        };
        let recs = recommend_pairwise(&snap, &model, &nc, CarrierId(0));
        assert_eq!(recs.len(), 26, "still a full recommendation set");
        // One skipped pair, counted once for the request, not once per
        // pair-wise parameter.
        assert_eq!(model.recorder().counter("cf.coldstart.asymmetric_pair"), 1);
        // The unpaired direction contributed no voters: nothing local.
        assert!(recs.iter().all(|r| r.basis != Basis::LocalVote));
    }

    #[test]
    fn isolated_new_carrier_falls_back_to_global() {
        let (snap, model) = setup();
        let nc = NewCarrier {
            attrs: snap.carrier(CarrierId(0)).attrs.clone(),
            neighbors: vec![],
        };
        let recs = recommend_singular(&snap, &model, &nc);
        assert!(recs.iter().all(|r| r.basis != Basis::LocalVote));
    }

    /// The string-building explanation the records carried before they
    /// went id-only: the oracle [`ConfigRecommendation::render`] must
    /// reproduce exactly.
    fn explain_oracle(
        snapshot: &NetworkSnapshot,
        model: &CfModel,
        param: ParamId,
        src: &AttrVec,
        dst: Option<&AttrVec>,
    ) -> (String, Vec<(String, String)>) {
        let def = snapshot.catalog.def(param);
        let pc = model.param(param);
        let matched_on = pc
            .dependent
            .iter()
            .map(|pa| {
                let (attrs, prefix) = match pa.side {
                    crate::dependency::Side::Src => (src, ""),
                    crate::dependency::Side::Dst => (
                        dst.expect("pair-wise explanation needs neighbor attrs"),
                        "neighbor ",
                    ),
                };
                (
                    format!("{prefix}{}", snapshot.schema.def(pa.attr).name),
                    snapshot
                        .schema
                        .level_name(pa.attr, attrs.get(pa.attr))
                        .to_string(),
                )
            })
            .collect();
        (def.name.clone(), matched_on)
    }

    #[test]
    fn render_matches_the_string_building_oracle() {
        let (snap, model) = setup();
        let (mut singular, mut pairwise, mut src, mut dst) = (0usize, 0usize, 0usize, 0usize);
        for c in (0..snap.n_carriers())
            .step_by(7)
            .map(|i| CarrierId(i as u32))
        {
            let nc = clone_of(&snap, c);
            let mut check = |recs: &[ConfigRecommendation], neighbor: Option<CarrierId>| {
                let dst_attrs = neighbor.map(|n| &snap.carrier(n).attrs);
                for r in recs {
                    let rendered = r.render(&snap);
                    let (name, matched_on) =
                        explain_oracle(&snap, &model, r.param, &nc.attrs, dst_attrs);
                    assert_eq!(rendered.name, name);
                    assert_eq!(rendered.matched_on, matched_on, "{name} for {c}");
                    for (pa, _) in &r.matched_on {
                        match pa.side {
                            Side::Src => src += 1,
                            Side::Dst => dst += 1,
                        }
                    }
                }
                recs.len()
            };
            singular += check(&recommend_singular(&snap, &model, &nc), None);
            if let Some(&n) = nc.neighbors.first() {
                pairwise += check(&recommend_pairwise(&snap, &model, &nc, n), Some(n));
            }
        }
        assert!(
            singular >= 39 && pairwise >= 26,
            "every parameter kind covered"
        );
        assert!(src > 0 && dst > 0, "both pair sides covered");
    }

    /// The per-parameter scan `recommend_singular` ran before it took
    /// packed keys: each key packed inside the parameter loop. The
    /// differential oracle for the keyed body.
    fn recommend_singular_oracle(
        snapshot: &NetworkSnapshot,
        model: &CfModel,
        new_carrier: &NewCarrier,
    ) -> Vec<ConfigRecommendation> {
        let obs = model.recorder();
        let neighbors = known_neighbors(snapshot, model, &new_carrier.neighbors);
        snapshot
            .catalog
            .singular_ids()
            .map(|p| {
                let pc = model.param(p);
                let key = pc.packed_for_carrier(&new_carrier.attrs);
                let mut table = FreqTable::new();
                for &n in &neighbors {
                    if pc.carrier_key(snapshot, n) == key {
                        table.add(snapshot.config.value(p, n));
                    }
                }
                obs.inc("cf.coldstart.total");
                let rec = if let Some((value, support, voters)) =
                    table.majority_with_support_excluding(None, model.config.support)
                {
                    obs.inc("cf.coldstart.local_vote");
                    Recommendation {
                        value,
                        basis: Basis::LocalVote,
                        support,
                        voters,
                    }
                } else {
                    obs.inc("cf.coldstart.fallback");
                    model.global_chain(pc, key, None)
                };
                explain(snapshot, model, p, &new_carrier.attrs, None, rec)
            })
            .collect()
    }

    /// The per-parameter scan `recommend_pairwise` ran before the
    /// candidate pairs were enumerated once per request: every parameter
    /// re-walks the planned neighborhood, resolving each pair's endpoints
    /// with `x2.pair(q)` and checking its reverse direction again. The
    /// differential oracle for the one-scan kernel.
    fn recommend_pairwise_oracle(
        snapshot: &NetworkSnapshot,
        model: &CfModel,
        new_carrier: &NewCarrier,
        neighbor: CarrierId,
    ) -> Vec<ConfigRecommendation> {
        let obs = model.recorder();
        if neighbor.index() >= snapshot.n_carriers() {
            obs.inc("cf.coldstart.unknown_neighbor");
            return Vec::new();
        }
        let neighbors = known_neighbors(snapshot, model, &new_carrier.neighbors);
        let dst = &snapshot.carrier(neighbor).attrs;
        snapshot
            .catalog
            .pairwise_ids()
            .map(|p| {
                let pc = model.param(p);
                let key = pc.packed_for_pair(&new_carrier.attrs, dst);
                let mut table = FreqTable::new();
                for &n in &neighbors {
                    for q in snapshot.x2.pairs_from(n) {
                        let (a, b) = snapshot.x2.pair(q);
                        if snapshot.x2.pair_idx(b, a).is_none() {
                            obs.inc("cf.coldstart.asymmetric_pair");
                            continue;
                        }
                        if pc.pair_key(snapshot, q) == key {
                            table.add(snapshot.config.pair_value(p, q));
                        }
                    }
                }
                obs.inc("cf.coldstart.total");
                let rec = if let Some((value, support, voters)) =
                    table.majority_with_support_excluding(None, model.config.support)
                {
                    obs.inc("cf.coldstart.local_vote");
                    Recommendation {
                        value,
                        basis: Basis::LocalVote,
                        support,
                        voters,
                    }
                } else {
                    obs.inc("cf.coldstart.fallback");
                    model.global_chain(pc, key, None)
                };
                explain(snapshot, model, p, &new_carrier.attrs, Some(dst), rec)
            })
            .collect()
    }

    mod oracle_differential {
        //! Differential tests: the one-scan pair-wise kernel and the
        //! keyed entry points against the per-parameter oracles, on
        //! inputs the generator never produces — unknown, duplicated and
        //! beyond-the-key-column planned neighbors, asymmetric pair
        //! storage, and a deserialized model with no key columns.

        use super::*;
        use auric_model::{apply_fleet_deltas, empty_snapshot, X2Graph};
        use auric_netgen::stream;
        use proptest::prelude::*;

        /// The cold-start counters both implementations must move alike.
        /// `cf.coldstart.asymmetric_pair` is left out: the one-scan
        /// kernel counts a skipped pair once per request, the oracle once
        /// per parameter.
        const COUNTERS: [&str; 4] = [
            "cf.coldstart.total",
            "cf.coldstart.local_vote",
            "cf.coldstart.fallback",
            "cf.coldstart.unknown_neighbor",
        ];

        /// A `(snapshot, model)` pair the kernels serve against; every
        /// model carries its own deterministic recorder.
        struct World {
            name: &'static str,
            snapshot: NetworkSnapshot,
            model: CfModel,
        }

        fn with_recorder(mut model: CfModel) -> CfModel {
            model.set_recorder(auric_obs::Recorder::deterministic());
            model
        }

        /// `snapshot.x2` with every `stride`-th directed pair dropped, so
        /// the reverse directions of the dropped pairs go unpaired. Built
        /// the way hostile data arrives: through serde.
        fn drop_pairs(g: &X2Graph, stride: usize) -> X2Graph {
            let (mut offsets, mut adj) = (vec![0u32], Vec::new());
            for j in (0..g.n_carriers()).map(CarrierId::from_index) {
                for (q, &k) in g.pairs_from(j).zip(g.neighbors(j)) {
                    if !(q as usize).is_multiple_of(stride) {
                        adj.push(k.0);
                    }
                }
                offsets.push(adj.len() as u32);
            }
            let json = format!(
                "{{\"offsets\":{},\"adj\":{}}}",
                serde_json::to_string(&offsets).unwrap(),
                serde_json::to_string(&adj).unwrap()
            );
            serde_json::from_str(&json).unwrap()
        }

        /// The four worlds: the fitted tiny fleet; the same model
        /// reloaded from JSON (no key columns); the full fleet served by
        /// a model fitted on its first market only (carriers and pairs
        /// beyond the fitted columns); and the fitted model over a graph
        /// with unpaired directions.
        fn worlds() -> Vec<World> {
            let (snap, model) = setup();
            let bytes = serde_json::to_string(&model).unwrap();
            let loaded = CfModel::from_json_bytes(bytes.as_bytes()).expect("round trip");
            assert!(loaded
                .params()
                .iter()
                .all(|pc| pc.carrier_keys().is_none() && pc.pair_keys().is_none()));

            let mut s = stream(&NetScale::tiny(), &TuningKnobs::none());
            let mut first = empty_snapshot(s.schema().clone(), s.catalog().clone());
            let batch = s.next_batch().expect("first market");
            apply_fleet_deltas(&mut first, &batch).expect("consistent batch");
            assert!(first.n_carriers() < snap.n_carriers());
            let small = CfModel::fit(&first, &Scope::whole(&first), CfConfig::default());

            let mut asym = snap.clone();
            asym.x2 = drop_pairs(&snap.x2, 7);
            assert!(
                asym.x2.validate().is_err(),
                "graph must really be asymmetric"
            );

            vec![
                World {
                    name: "fitted",
                    snapshot: snap.clone(),
                    model: with_recorder(model.clone()),
                },
                World {
                    name: "loaded",
                    snapshot: snap.clone(),
                    model: with_recorder(loaded),
                },
                World {
                    name: "fitted on the first market",
                    snapshot: snap,
                    model: with_recorder(small),
                },
                World {
                    name: "asymmetric",
                    snapshot: asym,
                    model: with_recorder(model),
                },
            ]
        }

        /// Runs `f` and returns its output with the [`COUNTERS`] it moved.
        fn counted<T>(model: &CfModel, f: impl FnOnce() -> T) -> (T, [u64; 4]) {
            let read = || COUNTERS.map(|c| model.recorder().counter(c));
            let before = read();
            let out = f();
            let after = read();
            (out, std::array::from_fn(|i| after[i] - before[i]))
        }

        /// Asserts every entry point agrees with its oracle on one
        /// request: output and counters, keyed and unkeyed.
        fn check(w: &World, nc: &NewCarrier, neighbor: CarrierId) -> Result<(), TestCaseError> {
            let (snap, model) = (&w.snapshot, &w.model);
            let ctx = format!(
                "world {}, neighbors {:?}, target {neighbor}",
                w.name, nc.neighbors
            );

            let (want, want_n) = counted(model, || recommend_singular_oracle(snap, model, nc));
            let (got, got_n) = counted(model, || recommend_singular(snap, model, nc));
            prop_assert_eq!(&got, &want, "singular: {}", ctx);
            prop_assert_eq!(got_n, want_n, "singular counters: {}", ctx);
            let keys = model.probe_singular(snap, &nc.attrs);
            let (keyed, keyed_n) =
                counted(model, || recommend_singular_keyed(snap, model, nc, &keys));
            prop_assert_eq!(&keyed, &want, "keyed singular: {}", ctx);
            prop_assert_eq!(keyed_n, want_n, "keyed singular counters: {}", ctx);

            let (want, want_n) = counted(model, || {
                recommend_pairwise_oracle(snap, model, nc, neighbor)
            });
            let (got, got_n) = counted(model, || recommend_pairwise(snap, model, nc, neighbor));
            prop_assert_eq!(&got, &want, "pairwise: {}", ctx);
            prop_assert_eq!(got_n, want_n, "pairwise counters: {}", ctx);
            let keys = model.probe_pairwise(snap, &nc.attrs, neighbor);
            let (keyed, keyed_n) = counted(model, || {
                recommend_pairwise_keyed(snap, model, nc, neighbor, &keys)
            });
            prop_assert_eq!(&keyed, &want, "keyed pairwise: {}", ctx);
            prop_assert_eq!(keyed_n, want_n, "keyed pairwise counters: {}", ctx);
            Ok(())
        }

        #[test]
        fn clones_with_every_neighbor_match_the_oracles() {
            for w in &worlds()[..2] {
                let snap = &w.snapshot;
                let mut pairs = 0usize;
                for c in (0..snap.n_carriers()).map(CarrierId::from_index) {
                    let nc = clone_of(snap, c);
                    for &n in snap.x2.neighbors(c) {
                        check(w, &nc, n).unwrap();
                        pairs += 1;
                    }
                }
                assert_eq!(pairs, snap.x2.n_pairs(), "every directed pair requested");
            }
        }

        /// The worlds the proptest draws from, built once. Only that test
        /// reads them, so the counters it diffs move for its calls alone.
        fn shared_worlds() -> &'static [World] {
            static WORLDS: std::sync::OnceLock<Vec<World>> = std::sync::OnceLock::new();
            WORLDS.get_or_init(worlds)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn hostile_planned_neighborhoods_match_the_oracles(
                world in 0usize..4,
                src in 0usize..10_000,
                planned in collection::vec((0u8..3, 0usize..10_000), 0..12),
                target in (0u8..3, 0usize..10_000),
            ) {
                let w = &shared_worlds()[world];
                let snap = &w.snapshot;
                let n = snap.n_carriers();
                let src = CarrierId::from_index(src % n);
                let own = snap.x2.neighbors(src);
                // 0: one of the source's own X2 neighbors (drawn with
                // repeats, so duplicates are common); 1: any carrier of
                // the fleet; 2: an id the snapshot has never heard of.
                let pick = |(kind, x): (u8, usize)| match kind {
                    0 if !own.is_empty() => own[x % own.len()],
                    2 => CarrierId::from_index(n + x % 5),
                    _ => CarrierId::from_index(x % n),
                };
                let nc = NewCarrier {
                    attrs: snap.carrier(src).attrs.clone(),
                    neighbors: planned.into_iter().map(pick).collect(),
                };
                check(w, &nc, pick(target))?;
            }
        }
    }
}
