//! Cold-start recommendation for genuinely new carriers (§3, Fig. 5).
//!
//! A new carrier is not yet carrying traffic, so all Auric can see is its
//! static attributes (and the X2 neighbor relations planned for it). This
//! module turns a fitted [`CfModel`] plus that information into a full
//! configuration recommendation with human-readable explanations — the
//! interpretability the paper's §5 "lessons learned" calls essential for
//! adoption.

use crate::cf::{Basis, CfModel, Recommendation};
use crate::dependency::{PredictorAttr, Side};
use auric_model::{AttrValue, AttrVec, CarrierId, NetworkSnapshot, ParamId};
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
    let obs = model.recorder();
    // Planned neighbors come from an external radio-planning tool; one
    // that names a carrier the snapshot has never heard of must not take
    // the whole recommendation down (it used to index out of bounds).
    // Drop it from the vote and count the drop.
    let neighbors = known_neighbors(snapshot, model, &new_carrier.neighbors);
    snapshot
        .catalog
        .singular_ids()
        .map(|p| {
            let pc = model.param(p);
            // Local vote over the planned neighbors with matching keys:
            // integer compares against the fitted key column.
            let key = pc.packed_for_carrier(&new_carrier.attrs);
            let col = pc.carrier_keys();
            let mut table = FreqTable::new();
            for &n in &neighbors {
                let nkey = match col {
                    // The fitted key column covers the fitting scope's
                    // snapshot; a neighbor beyond it (fit on an older,
                    // smaller network) is projected directly instead.
                    Some(col) if n.index() < col.len() => col[n.index()],
                    _ => pc.packed_for_carrier(&snapshot.carrier(n).attrs),
                };
                if nkey == key {
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

/// Recommends every **pair-wise** parameter for the relation between a new
/// carrier and one planned neighbor.
///
/// An out-of-range `neighbor` (a planning-tool reference the snapshot has
/// never heard of) yields no recommendations — there is no relation to
/// configure — and bumps the `cf.coldstart.unknown_neighbor` counter
/// instead of panicking.
pub fn recommend_pairwise(
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
            // Local vote over pairs sourced at the planned neighbors,
            // reading keys off the fitted pair column when available.
            //
            // Scanning only `pairs_from(n)` (pairs whose *source* is a
            // planned neighbor) still covers both directions of every
            // relation between planned neighbors: `X2Graph::from_edges`
            // stores each undirected edge as two directed pairs, so the
            // reverse pair (m, n) is enumerated when the scan reaches
            // source `m` (`validate()` enforces this symmetry, and
            // `pairwise_scan_covers_both_directions` below pins it). A
            // graph that nonetheless arrives asymmetric — deserialized
            // from a foreign inventory export, say — must not poison the
            // vote with unpaired directions: those pairs are skipped and
            // counted (`cf.coldstart.asymmetric_pair`) rather than trusted
            // or panicked over.
            // Pairs *into* a planned neighbor from a non-planned carrier
            // are deliberately out of scope — their source is not part of
            // the new carrier's planned neighborhood, mirroring
            // `CfModel::recommend_local_pair`.
            let col = pc.pair_keys();
            let mut table = FreqTable::new();
            for &n in &neighbors {
                for q in snapshot.x2.pairs_from(n) {
                    let (a, b) = snapshot.x2.pair(q);
                    if snapshot.x2.pair_idx(b, a).is_none() {
                        obs.inc("cf.coldstart.asymmetric_pair");
                        continue;
                    }
                    let qkey = match col {
                        Some(col) if (q as usize) < col.len() => col[q as usize],
                        _ => pc.packed_for_pair(
                            &snapshot.carrier(a).attrs,
                            &snapshot.carrier(b).attrs,
                        ),
                    };
                    if qkey == key {
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
        assert!(model.recorder().counter("cf.coldstart.asymmetric_pair") >= 1);
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
}
