//! Fleet deltas: the streaming-ingestion event vocabulary.
//!
//! A [`FleetDelta`] is one observable change to the fleet: a market, an
//! eNodeB, a carrier or an X2 edge appearing, a carrier leaving, or one
//! configuration slot being retuned. The streaming generator
//! (`auric-netgen`) yields these instead of a materialized snapshot, and
//! the incremental fit (`auric-core`) consumes them instead of refitting
//! from scratch.
//!
//! [`apply_fleet_deltas`] folds one *batch* of events into a
//! [`NetworkSnapshot`] and returns an [`AppliedBatch`] — the digest the
//! incremental fit needs: which pre-batch slots were retuned, and how the
//! directed pair list re-indexed. Which carriers and pairs came and went
//! needs no record of its own: the fit reads it off the learning scope
//! before and after the batch and the pair remap. Batches are the
//! atomicity unit: within a batch the X2 CSR is rebuilt lazily (once per
//! run of edge adds, not once per edge), and the snapshot is only
//! guaranteed self-consistent at batch boundaries.
//!
//! ## Addressing
//!
//! Carrier ids are dense indices, so adds must arrive in id order and
//! only the *last* carrier can be removed (LIFO). Pair slots are
//! addressed by **endpoints**, not pair index: edge adds re-index the
//! whole CSR pair list, so an index-addressed retune would be ambiguous
//! about which side of the re-index it means.

use std::collections::HashSet;

use crate::carrier::{Carrier, Enodeb, Market, Timezone};
use crate::config::Provenance;
use crate::ids::{CarrierId, MarketId, ParamId};
use crate::params::{ParamKind, ValueIdx};
use crate::snapshot::NetworkSnapshot;
use crate::x2::{PairIdx, X2Graph};
use serde::{Deserialize, Serialize};

/// Which configuration slot a [`FleetDelta::Retune`] lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeltaSlot {
    /// A singular parameter's slot on one carrier.
    Carrier(CarrierId),
    /// A pair-wise parameter's slot on the directed pair `(src, dst)`.
    Pair(CarrierId, CarrierId),
}

/// One streaming change to the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetDelta {
    /// A new (initially empty) market. `id` must be the next market index.
    AddMarket {
        id: MarketId,
        name: String,
        timezone: Timezone,
    },
    /// A new eNodeB. Its `carriers` list must be empty — carriers arrive
    /// as their own events and are appended to the eNodeB on the way in.
    AddEnodeb { enodeb: Enodeb },
    /// A new carrier with its final attributes, plus its rule-book base
    /// value for every *singular* parameter in catalog order.
    AddCarrier {
        carrier: Carrier,
        base: Vec<ValueIdx>,
    },
    /// A new undirected X2 edge, with the rule-book base values of both
    /// directed pairs for every *pair-wise* parameter in catalog order.
    AddX2Edge {
        a: CarrierId,
        b: CarrierId,
        base_ab: Vec<ValueIdx>,
        base_ba: Vec<ValueIdx>,
    },
    /// Removes the (currently last) carrier and every pair touching it.
    RemoveCarrier { id: CarrierId },
    /// One configuration slot changes value.
    Retune {
        param: ParamId,
        slot: DeltaSlot,
        value: ValueIdx,
        why: Provenance,
    },
}

/// One retune of a slot that existed before the batch: the incremental
/// fit reads it to tell which parameters the batch touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppliedRetune {
    pub param: ParamId,
    pub slot: DeltaSlot,
}

/// Digest of one applied delta batch: what [`apply_fleet_deltas`] did to
/// the snapshot, in the vocabulary the incremental fit consumes. The
/// carriers and pairs a batch added or removed are not listed: carrier
/// ids are dense, adds append and removes pop the tail, so the pre- and
/// post-batch fleets (and any batch-stable scope over them) together with
/// [`AppliedBatch::pair_remap`] determine them.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AppliedBatch {
    /// Events in the batch (the `cf.delta.events` counter's unit).
    pub events: usize,
    /// Old pair index → new pair index across the whole batch, whenever
    /// the batch changed the fleet's carriers or pairs. `None` entries are
    /// pairs that left with a removed carrier; new pair indices outside
    /// the map's image are pairs the batch created. A batch that only
    /// appended carriers maps every pair to itself. `None` at the top
    /// level means the fleet kept its shape: no carrier or pair came or
    /// went, and no pair moved.
    pub pair_remap: Option<Vec<Option<PairIdx>>>,
    /// Retunes on slots that existed *before* the batch, in event order.
    /// Retunes landing on slots the same batch created are folded into
    /// the add instead (the slot's post-batch value covers them).
    pub retunes: Vec<AppliedRetune>,
}

impl AppliedBatch {
    /// Did the batch change fleet shape (carriers or pairs), as opposed
    /// to only retuning values in place?
    pub fn structural(&self) -> bool {
        self.pair_remap.is_some()
    }
}

/// Typed failure applying a delta batch. The snapshot may be left
/// mid-batch on error; callers should treat it as corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An add arrived with a non-dense id (`got` where `want` expected).
    NonDenseId {
        kind: &'static str,
        got: usize,
        want: usize,
    },
    /// An event referenced an entity the snapshot does not have.
    UnknownRef(String),
    /// `AddEnodeb` must carry an empty carrier list.
    EnodebNotEmpty,
    /// A base-value vector's length does not match the catalog.
    BaseArity { got: usize, want: usize },
    /// An `AddX2Edge` duplicates an existing (or in-batch) edge, or is a
    /// self-loop.
    BadEdge(CarrierId, CarrierId),
    /// Only the last carrier can be removed (ids are dense indices).
    NotLastCarrier(CarrierId),
    /// A retune addressed a directed pair that does not exist.
    UnknownPair(CarrierId, CarrierId),
    /// A retune's parameter kind does not match its slot kind.
    KindMismatch(ParamId),
    /// A batch may not add carriers after removing one: the arena/key
    /// column append contract relies on prefix immutability per batch.
    AddAfterRemove,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::NonDenseId { kind, got, want } => {
                write!(f, "{kind} id {got} out of order (expected {want})")
            }
            DeltaError::UnknownRef(what) => write!(f, "unknown reference: {what}"),
            DeltaError::EnodebNotEmpty => {
                write!(f, "AddEnodeb must carry an empty carrier list")
            }
            DeltaError::BaseArity { got, want } => {
                write!(
                    f,
                    "base value vector has {got} entries, catalog wants {want}"
                )
            }
            DeltaError::BadEdge(a, b) => write!(f, "bad X2 edge {a} - {b} (duplicate or loop)"),
            DeltaError::NotLastCarrier(c) => {
                write!(f, "{c} is not the last carrier; removals are LIFO")
            }
            DeltaError::UnknownPair(a, b) => write!(f, "no directed pair {a} -> {b}"),
            DeltaError::KindMismatch(p) => write!(f, "retune slot kind does not match {p}"),
            DeltaError::AddAfterRemove => {
                write!(f, "a batch may not add carriers after removing one")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// An empty snapshot over `schema`/`catalog`: the seed a delta stream is
/// collected into.
pub fn empty_snapshot(
    schema: crate::attrs::AttributeSchema,
    catalog: crate::params::ParamCatalog,
) -> NetworkSnapshot {
    let config = crate::config::Configuration::with_defaults(&catalog, 0, 0);
    NetworkSnapshot {
        schema,
        catalog,
        markets: Vec::new(),
        enodebs: Vec::new(),
        carriers: Vec::new(),
        x2: X2Graph::from_edges(0, &[]),
        config,
    }
}

/// In-flight state for one batch: buffered edge adds plus the cumulative
/// pair re-index.
struct BatchState {
    pending: Vec<(CarrierId, CarrierId, Vec<ValueIdx>, Vec<ValueIdx>)>,
    /// Undirected edges created by this batch, kept across flushes: a
    /// second add of one is a duplicate, and their pairs have no pre-batch
    /// observations, so retunes on them fold into the add.
    batch_edges: HashSet<(CarrierId, CarrierId)>,
    /// Carrier count before the batch: ids at or past it are batch-born.
    carriers_before: usize,
    cum_remap: Option<Vec<Option<PairIdx>>>,
    removed_any: bool,
}

impl BatchState {
    fn compose(&mut self, local: Vec<Option<PairIdx>>) {
        self.cum_remap = Some(match self.cum_remap.take() {
            None => local,
            Some(prev) => prev
                .into_iter()
                .map(|t| t.and_then(|i| local[i as usize]))
                .collect(),
        });
    }
}

/// Folds one batch of deltas into `snapshot`, returning the applied
/// digest. See the module docs for the addressing and atomicity rules.
///
/// # Errors
/// Any structural inconsistency is a typed [`DeltaError`]; the snapshot
/// must then be considered corrupt (mid-batch state).
pub fn apply_fleet_deltas(
    snapshot: &mut NetworkSnapshot,
    batch: &[FleetDelta],
) -> Result<AppliedBatch, DeltaError> {
    let mut out = AppliedBatch {
        events: batch.len(),
        ..AppliedBatch::default()
    };
    let mut st = BatchState {
        pending: Vec::new(),
        batch_edges: HashSet::new(),
        carriers_before: snapshot.carriers.len(),
        cum_remap: None,
        removed_any: false,
    };

    for ev in batch {
        match ev {
            FleetDelta::AddMarket { id, name, timezone } => {
                if id.index() != snapshot.markets.len() {
                    return Err(DeltaError::NonDenseId {
                        kind: "market",
                        got: id.index(),
                        want: snapshot.markets.len(),
                    });
                }
                snapshot.markets.push(Market {
                    id: *id,
                    name: name.clone(),
                    timezone: *timezone,
                    carriers: Vec::new(),
                    enodebs: Vec::new(),
                });
            }
            FleetDelta::AddEnodeb { enodeb } => {
                if enodeb.id.index() != snapshot.enodebs.len() {
                    return Err(DeltaError::NonDenseId {
                        kind: "eNodeB",
                        got: enodeb.id.index(),
                        want: snapshot.enodebs.len(),
                    });
                }
                if !enodeb.carriers.is_empty() {
                    return Err(DeltaError::EnodebNotEmpty);
                }
                let market = snapshot
                    .markets
                    .get_mut(enodeb.market.index())
                    .ok_or_else(|| DeltaError::UnknownRef(format!("{}", enodeb.market)))?;
                market.enodebs.push(enodeb.id);
                snapshot.enodebs.push(enodeb.clone());
            }
            FleetDelta::AddCarrier { carrier, base } => {
                if st.removed_any {
                    return Err(DeltaError::AddAfterRemove);
                }
                if carrier.id.index() != snapshot.carriers.len() {
                    return Err(DeltaError::NonDenseId {
                        kind: "carrier",
                        got: carrier.id.index(),
                        want: snapshot.carriers.len(),
                    });
                }
                let n_singular = snapshot.catalog.singular_ids().count();
                if base.len() != n_singular {
                    return Err(DeltaError::BaseArity {
                        got: base.len(),
                        want: n_singular,
                    });
                }
                let enb = snapshot
                    .enodebs
                    .get_mut(carrier.enodeb.index())
                    .ok_or_else(|| DeltaError::UnknownRef(format!("{}", carrier.enodeb)))?;
                if enb.market != carrier.market {
                    return Err(DeltaError::UnknownRef(format!(
                        "{} market disagrees with its eNodeB",
                        carrier.id
                    )));
                }
                enb.carriers.push(carrier.id);
                snapshot.markets[carrier.market.index()]
                    .carriers
                    .push(carrier.id);
                snapshot.config.push_carrier(&snapshot.catalog);
                let ids: Vec<ParamId> = snapshot.catalog.singular_ids().collect();
                for (pid, &v) in ids.into_iter().zip(base) {
                    snapshot
                        .config
                        .set_value(pid, carrier.id, v, Provenance::Rule);
                }
                snapshot.carriers.push(carrier.clone());
            }
            FleetDelta::AddX2Edge {
                a,
                b,
                base_ab,
                base_ba,
            } => {
                let n = snapshot.carriers.len();
                if a.index() >= n || b.index() >= n {
                    return Err(DeltaError::UnknownRef(format!("edge endpoint {a} or {b}")));
                }
                let norm = if a < b { (*a, *b) } else { (*b, *a) };
                let existing = a.index() < snapshot.x2.n_carriers()
                    && b.index() < snapshot.x2.n_carriers()
                    && snapshot.x2.pair_idx(*a, *b).is_some();
                if *a == *b || existing || !st.batch_edges.insert(norm) {
                    return Err(DeltaError::BadEdge(*a, *b));
                }
                let n_pairwise = snapshot.catalog.pairwise_ids().count();
                if base_ab.len() != n_pairwise || base_ba.len() != n_pairwise {
                    return Err(DeltaError::BaseArity {
                        got: base_ab.len().max(base_ba.len()),
                        want: n_pairwise,
                    });
                }
                st.pending.push((*a, *b, base_ab.clone(), base_ba.clone()));
            }
            FleetDelta::Retune {
                param,
                slot,
                value,
                why,
            } => {
                let born_this_batch = match slot {
                    DeltaSlot::Carrier(c) => {
                        if c.index() >= snapshot.carriers.len() {
                            return Err(DeltaError::UnknownRef(format!("{c}")));
                        }
                        if snapshot.config.kind(*param) != ParamKind::Singular {
                            return Err(DeltaError::KindMismatch(*param));
                        }
                        snapshot.config.set_value(*param, *c, *value, *why);
                        c.index() >= st.carriers_before
                    }
                    DeltaSlot::Pair(a, b) => {
                        flush_pairs(snapshot, &mut st)?;
                        if snapshot.config.kind(*param) != ParamKind::Pairwise {
                            return Err(DeltaError::KindMismatch(*param));
                        }
                        if a.index() >= snapshot.x2.n_carriers() {
                            return Err(DeltaError::UnknownPair(*a, *b));
                        }
                        let q = snapshot
                            .x2
                            .pair_idx(*a, *b)
                            .ok_or(DeltaError::UnknownPair(*a, *b))?;
                        snapshot.config.set_pair_value(*param, q, *value, *why);
                        let norm = if a < b { (*a, *b) } else { (*b, *a) };
                        st.batch_edges.contains(&norm)
                    }
                };
                // A slot the batch created folds its retunes into the add:
                // the slot's post-batch value covers them.
                if !born_this_batch {
                    out.retunes.push(AppliedRetune {
                        param: *param,
                        slot: *slot,
                    });
                }
            }
            FleetDelta::RemoveCarrier { id } => {
                flush_pairs(snapshot, &mut st)?;
                remove_carrier(snapshot, &mut st, *id)?;
            }
        }
    }
    flush_pairs(snapshot, &mut st)?;
    out.pair_remap = st.cum_remap;
    Ok(out)
}

/// Brings the X2 graph (and the pair-indexed configuration rows) up to
/// date: rebuilds the CSR over the current carrier count with all
/// buffered edge adds, remaps existing pair slots, and writes the new
/// pairs' base values.
fn flush_pairs(snapshot: &mut NetworkSnapshot, st: &mut BatchState) -> Result<(), DeltaError> {
    let n = snapshot.carriers.len();
    if st.pending.is_empty() {
        if snapshot.x2.n_carriers() != n {
            // Carriers appended without edges: same pair list, wider CSR.
            // The identity remap still marks the batch structural.
            let edges = undirected_edges(&snapshot.x2);
            snapshot.x2 = X2Graph::from_edges(n, &edges);
            if st.cum_remap.is_none() {
                st.cum_remap = Some((0..snapshot.x2.n_pairs() as PairIdx).map(Some).collect());
            }
        }
        return Ok(());
    }
    let old_pairs: Vec<(PairIdx, CarrierId, CarrierId)> = snapshot.x2.pairs().collect();
    let mut edges = undirected_edges(&snapshot.x2);
    edges.extend(st.pending.iter().map(|&(a, b, _, _)| (a, b)));
    let new_x2 = X2Graph::from_edges(n, &edges);
    let mut map = vec![None; snapshot.x2.n_pairs()];
    for (p, j, k) in old_pairs {
        map[p as usize] = new_x2.pair_idx(j, k);
    }
    snapshot
        .config
        .remap_pairs(&snapshot.catalog, &map, new_x2.n_pairs());
    let pairwise: Vec<ParamId> = snapshot.catalog.pairwise_ids().collect();
    for (a, b, base_ab, base_ba) in st.pending.drain(..) {
        for (dir, base) in [((a, b), base_ab), ((b, a), base_ba)] {
            let q = new_x2
                .pair_idx(dir.0, dir.1)
                .expect("edge was just inserted");
            for (pid, &v) in pairwise.iter().zip(&base) {
                snapshot.config.set_pair_value(*pid, q, v, Provenance::Rule);
            }
        }
    }
    snapshot.x2 = new_x2;
    st.compose(map);
    Ok(())
}

/// LIFO carrier removal: shrinks the snapshot by its last carrier and
/// every pair touching it, and folds the pair re-index into the batch's.
fn remove_carrier(
    snapshot: &mut NetworkSnapshot,
    st: &mut BatchState,
    id: CarrierId,
) -> Result<(), DeltaError> {
    let last = snapshot
        .carriers
        .last()
        .ok_or_else(|| DeltaError::UnknownRef(format!("{id}")))?
        .id;
    if id != last {
        return Err(DeltaError::NotLastCarrier(id));
    }
    let carrier = snapshot.carriers.pop().expect("checked non-empty");
    // Shrink the graph: every surviving undirected edge, one fewer node.
    let edges: Vec<(CarrierId, CarrierId)> = undirected_edges(&snapshot.x2)
        .into_iter()
        .filter(|&(a, b)| a != id && b != id)
        .collect();
    let new_x2 = X2Graph::from_edges(snapshot.carriers.len(), &edges);
    let mut map = vec![None; snapshot.x2.n_pairs()];
    for (p, j, k) in snapshot.x2.pairs() {
        if j != id && k != id {
            map[p as usize] = new_x2.pair_idx(j, k);
        }
    }
    snapshot
        .config
        .remap_pairs(&snapshot.catalog, &map, new_x2.n_pairs());
    snapshot.config.pop_carrier();
    snapshot.x2 = new_x2;
    st.compose(map);
    st.removed_any = true;
    snapshot.markets[carrier.market.index()]
        .carriers
        .retain(|&c| c != id);
    snapshot.enodebs[carrier.enodeb.index()]
        .carriers
        .retain(|&c| c != id);
    Ok(())
}

/// The undirected edge set `(j, k)` with `j < k`, recovered from the
/// directed pair list.
fn undirected_edges(x2: &X2Graph) -> Vec<(CarrierId, CarrierId)> {
    x2.pairs()
        .filter(|&(_, j, k)| j < k)
        .map(|(_, j, k)| (j, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AttrDef, AttrVec, AttributeSchema};
    use crate::carrier::{Band, Morphology, Point, Vendor};
    use crate::ids::EnodebId;
    use crate::params::{ParamCatalog, ParamDef, ParamFunction, ValueRange};

    fn catalog() -> ParamCatalog {
        let range = ValueRange::new(0.0, 10.0, 1.0);
        ParamCatalog::new(vec![
            ParamDef {
                id: ParamId(0),
                name: "s0".into(),
                kind: ParamKind::Singular,
                function: ParamFunction::Mobility,
                range,
                default: 5,
            },
            ParamDef {
                id: ParamId(1),
                name: "p0".into(),
                kind: ParamKind::Pairwise,
                function: ParamFunction::Handover,
                range,
                default: 2,
            },
        ])
    }

    fn schema() -> AttributeSchema {
        AttributeSchema::new(vec![AttrDef {
            name: "morphology".into(),
            dynamic: false,
            levels: vec!["urban".into(), "rural".into()],
        }])
    }

    fn enodeb(id: u32, market: u16) -> Enodeb {
        Enodeb {
            id: EnodebId(id),
            market: MarketId(market),
            position: Point { x: 0.0, y: 0.0 },
            morphology: Morphology::Urban,
            vendor: Vendor::VendorA,
            carriers: Vec::new(),
        }
    }

    fn carrier(id: u32, enb: u32, market: u16, attr: u16) -> Carrier {
        Carrier {
            id: CarrierId(id),
            enodeb: EnodebId(enb),
            market: MarketId(market),
            face: 0,
            band: Band::Low,
            attrs: AttrVec::new(vec![attr]),
        }
    }

    /// Builds a 3-carrier market purely from deltas and validates it.
    fn build_market() -> (NetworkSnapshot, AppliedBatch) {
        let mut snap = empty_snapshot(schema(), catalog());
        let batch = vec![
            FleetDelta::AddMarket {
                id: MarketId(0),
                name: "Market 1".into(),
                timezone: Timezone::Eastern,
            },
            FleetDelta::AddEnodeb {
                enodeb: enodeb(0, 0),
            },
            FleetDelta::AddCarrier {
                carrier: carrier(0, 0, 0, 0),
                base: vec![7],
            },
            FleetDelta::AddCarrier {
                carrier: carrier(1, 0, 0, 1),
                base: vec![4],
            },
            FleetDelta::AddCarrier {
                carrier: carrier(2, 0, 0, 0),
                base: vec![7],
            },
            FleetDelta::AddX2Edge {
                a: CarrierId(0),
                b: CarrierId(1),
                base_ab: vec![3],
                base_ba: vec![6],
            },
            FleetDelta::AddX2Edge {
                a: CarrierId(1),
                b: CarrierId(2),
                base_ab: vec![1],
                base_ba: vec![2],
            },
            FleetDelta::Retune {
                param: ParamId(0),
                slot: DeltaSlot::Carrier(CarrierId(1)),
                value: 9,
                why: Provenance::Noise,
            },
        ];
        let applied = apply_fleet_deltas(&mut snap, &batch).expect("clean batch");
        snap.validate().expect("collected snapshot is consistent");
        (snap, applied)
    }

    #[test]
    fn builds_a_consistent_snapshot_from_scratch() {
        let (snap, applied) = build_market();
        assert_eq!(snap.n_carriers(), 3);
        assert_eq!(snap.x2.n_pairs(), 4);
        assert_eq!(snap.config.value(ParamId(0), CarrierId(0)), 7);
        assert_eq!(snap.config.value(ParamId(0), CarrierId(1)), 9);
        let q01 = snap.x2.pair_idx(CarrierId(0), CarrierId(1)).unwrap();
        let q10 = snap.x2.pair_idx(CarrierId(1), CarrierId(0)).unwrap();
        assert_eq!(snap.config.pair_value(ParamId(1), q01), 3);
        assert_eq!(snap.config.pair_value(ParamId(1), q10), 6);
        assert!(applied.structural());
        assert_eq!(
            applied.retunes,
            vec![],
            "retunes on carriers added this batch fold into the add"
        );
        assert_eq!(
            applied.pair_remap,
            Some(vec![]),
            "no pre-batch pair: all four pairs lie outside the remap's image"
        );
    }

    /// Pairs outside the remap's image, by their post-batch endpoints.
    fn born_pairs(snap: &NetworkSnapshot, applied: &AppliedBatch) -> Vec<(CarrierId, CarrierId)> {
        let remap = applied
            .pair_remap
            .as_ref()
            .expect("the batch was structural");
        (0..snap.x2.n_pairs() as PairIdx)
            .filter(|q| !remap.contains(&Some(*q)))
            .map(|q| snap.x2.pair(q))
            .collect()
    }

    #[test]
    fn appending_carriers_without_edges_maps_every_pair_to_itself() {
        let (mut snap, _) = build_market();
        let applied = apply_fleet_deltas(
            &mut snap,
            &[FleetDelta::AddCarrier {
                carrier: carrier(3, 0, 0, 1),
                base: vec![2],
            }],
        )
        .unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.n_carriers(), 4);
        assert!(applied.structural(), "the fleet gained a carrier");
        assert_eq!(
            applied.pair_remap,
            Some(vec![Some(0), Some(1), Some(2), Some(3)])
        );
    }

    #[test]
    fn retunes_on_existing_slots_are_recorded_in_event_order() {
        let (mut snap, _) = build_market();
        let applied = apply_fleet_deltas(
            &mut snap,
            &[
                FleetDelta::Retune {
                    param: ParamId(0),
                    slot: DeltaSlot::Carrier(CarrierId(2)),
                    value: 1,
                    why: Provenance::StaleTrial,
                },
                FleetDelta::Retune {
                    param: ParamId(1),
                    slot: DeltaSlot::Pair(CarrierId(1), CarrierId(2)),
                    value: 8,
                    why: Provenance::Noise,
                },
            ],
        )
        .unwrap();
        assert!(!applied.structural());
        assert_eq!(
            applied.retunes,
            vec![
                AppliedRetune {
                    param: ParamId(0),
                    slot: DeltaSlot::Carrier(CarrierId(2)),
                },
                AppliedRetune {
                    param: ParamId(1),
                    slot: DeltaSlot::Pair(CarrierId(1), CarrierId(2)),
                },
            ]
        );
        assert_eq!(snap.config.value(ParamId(0), CarrierId(2)), 1);
        assert_eq!(
            snap.config.provenance(ParamId(0), CarrierId(2)),
            Provenance::StaleTrial
        );
    }

    #[test]
    fn edge_add_remaps_existing_pair_slots() {
        let (mut snap, _) = build_market();
        let q10_before = snap.x2.pair_idx(CarrierId(1), CarrierId(0)).unwrap();
        let v10 = snap.config.pair_value(ParamId(1), q10_before);
        let applied = apply_fleet_deltas(
            &mut snap,
            &[FleetDelta::AddX2Edge {
                a: CarrierId(0),
                b: CarrierId(2),
                base_ab: vec![9],
                base_ba: vec![9],
            }],
        )
        .unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.x2.n_pairs(), 6);
        let q10 = snap.x2.pair_idx(CarrierId(1), CarrierId(0)).unwrap();
        assert_eq!(
            snap.config.pair_value(ParamId(1), q10),
            v10,
            "existing value moved with its pair"
        );
        let remap = applied.pair_remap.as_ref().expect("pairs re-indexed");
        assert_eq!(remap[q10_before as usize], Some(q10));
        assert_eq!(
            born_pairs(&snap, &applied),
            vec![(CarrierId(0), CarrierId(2)), (CarrierId(2), CarrierId(0))]
        );
    }

    #[test]
    fn lifo_remove_drops_the_carrier_and_its_pairs() {
        let (mut snap, _) = build_market();
        assert_eq!(
            apply_fleet_deltas(&mut snap, &[FleetDelta::RemoveCarrier { id: CarrierId(0) }]),
            Err(DeltaError::NotLastCarrier(CarrierId(0)))
        );
        let (mut snap, _) = build_market();
        let pre = snap.clone();
        let applied =
            apply_fleet_deltas(&mut snap, &[FleetDelta::RemoveCarrier { id: CarrierId(2) }])
                .unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.n_carriers(), 2);
        assert_eq!(snap.x2.n_pairs(), 2, "pairs touching carrier 2 left");
        assert!(applied.structural());
        let remap = applied.pair_remap.as_ref().expect("pairs re-indexed");
        let dropped: Vec<_> = (0..pre.x2.n_pairs() as PairIdx)
            .filter(|&q| remap[q as usize].is_none())
            .map(|q| pre.x2.pair(q))
            .collect();
        assert_eq!(
            dropped,
            vec![(CarrierId(1), CarrierId(2)), (CarrierId(2), CarrierId(1))],
            "both directions of edge 1-2"
        );
        assert!(born_pairs(&snap, &applied).is_empty());
    }

    /// Entities born and destroyed inside one batch leave no trace in the
    /// digest: the fitted model never saw them, so the remap drops no
    /// pre-batch pair and only the surviving batch-born pairs are new.
    #[test]
    fn in_batch_add_then_remove_leaves_only_surviving_pairs_new() {
        let (mut snap, _) = build_market();
        let applied = apply_fleet_deltas(
            &mut snap,
            &[
                FleetDelta::AddCarrier {
                    carrier: carrier(3, 0, 0, 1),
                    base: vec![2],
                },
                FleetDelta::AddX2Edge {
                    a: CarrierId(2),
                    b: CarrierId(3),
                    base_ab: vec![5],
                    base_ba: vec![5],
                },
                // A batch-born pair between two pre-existing carriers:
                // its retune must fold into the add, not be recorded.
                FleetDelta::AddX2Edge {
                    a: CarrierId(0),
                    b: CarrierId(2),
                    base_ab: vec![4],
                    base_ba: vec![4],
                },
                FleetDelta::Retune {
                    param: ParamId(1),
                    slot: DeltaSlot::Pair(CarrierId(0), CarrierId(2)),
                    value: 9,
                    why: Provenance::Noise,
                },
                FleetDelta::Retune {
                    param: ParamId(0),
                    slot: DeltaSlot::Carrier(CarrierId(3)),
                    value: 8,
                    why: Provenance::Noise,
                },
                FleetDelta::RemoveCarrier { id: CarrierId(3) },
            ],
        )
        .unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.n_carriers(), 3);
        assert_eq!(snap.x2.n_pairs(), 6, "edge 0-2 survives, edge 2-3 left");
        let remap = applied.pair_remap.as_ref().expect("pairs re-indexed");
        assert!(
            remap.iter().all(Option::is_some),
            "nothing pre-batch was removed"
        );
        assert_eq!(
            born_pairs(&snap, &applied),
            vec![(CarrierId(0), CarrierId(2)), (CarrierId(2), CarrierId(0))]
        );
        assert_eq!(applied.retunes, vec![], "both retunes hit batch-born slots");
        let q02 = snap.x2.pair_idx(CarrierId(0), CarrierId(2)).unwrap();
        assert_eq!(
            snap.config.pair_value(ParamId(1), q02),
            9,
            "the folded retune still landed on the surviving pair"
        );
    }

    #[test]
    fn add_after_remove_is_rejected() {
        let (mut snap, _) = build_market();
        let err = apply_fleet_deltas(
            &mut snap,
            &[
                FleetDelta::RemoveCarrier { id: CarrierId(2) },
                FleetDelta::AddCarrier {
                    carrier: carrier(2, 0, 0, 1),
                    base: vec![0],
                },
            ],
        )
        .unwrap_err();
        assert_eq!(err, DeltaError::AddAfterRemove);
    }

    #[test]
    fn structural_errors_are_typed() {
        let (mut snap, _) = build_market();
        assert_eq!(
            apply_fleet_deltas(
                &mut snap,
                &[FleetDelta::Retune {
                    param: ParamId(1),
                    slot: DeltaSlot::Pair(CarrierId(0), CarrierId(2)),
                    value: 1,
                    why: Provenance::Noise,
                }]
            ),
            Err(DeltaError::UnknownPair(CarrierId(0), CarrierId(2)))
        );
        assert_eq!(
            apply_fleet_deltas(
                &mut snap,
                &[FleetDelta::Retune {
                    param: ParamId(1),
                    slot: DeltaSlot::Carrier(CarrierId(0)),
                    value: 1,
                    why: Provenance::Noise,
                }]
            ),
            Err(DeltaError::KindMismatch(ParamId(1)))
        );
        assert_eq!(
            apply_fleet_deltas(
                &mut snap,
                &[FleetDelta::AddX2Edge {
                    a: CarrierId(0),
                    b: CarrierId(1),
                    base_ab: vec![0],
                    base_ba: vec![0],
                }]
            ),
            Err(DeltaError::BadEdge(CarrierId(0), CarrierId(1)))
        );
    }
}
