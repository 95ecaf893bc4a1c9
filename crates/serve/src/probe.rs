//! Request → serving-probe resolution: the packed-key serving index.
//!
//! A [`ProbeKey`] is the *complete functional identity* of a request
//! under a fixed `(model epoch, snapshot, KPI report)`: two requests
//! with equal probes are guaranteed to produce byte-identical primary
//! bodies, so the shard may compute one and fan the answer out — or
//! serve it straight from the epoch-validated response cache.
//!
//! Cold-start and pairwise requests resolve to the packed `u128` vote
//! key of every fitted parameter (one integer per parameter, resolved
//! **once at admission**) plus the exact planned-neighbor list — the only
//! other input the local-vote path reads. The recommender votes with
//! these same keys ([`ProbeKey::packed`]), so a probe is packed once per
//! request. Singular and KPI requests are keyed by carrier id: the model
//! answers them from the carrier's fitted state alone.
//!
//! Resolution cannot fail: every vote key is a `u128`, and a shard
//! refuses at the swap any model that does not cover its catalog and
//! schema (see `Shard::install`).

use auric_core::CfModel;
use auric_model::{CarrierId, NetworkSnapshot};

use crate::api::RequestKind;

/// An equality-comparable serving handle. `Ord` sorts by the packed key
/// vectors first, so a batch sorted by `ProbeKey` walks each frozen
/// key-sorted vote table as sequential runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProbeKey {
    /// Packed singular keys of the new carrier's attributes + the exact
    /// planned-neighbor list (vote order matters to tie-breaks).
    ColdStart {
        keys: Vec<u128>,
        neighbors: Vec<CarrierId>,
    },
    /// Packed pair keys toward `neighbor`, plus the planned-neighbor
    /// list the local vote scans. An unknown neighbor keys on the empty
    /// key vector: its body is the deterministic empty set.
    Pairwise {
        keys: Vec<u128>,
        neighbor: CarrierId,
        neighbors: Vec<CarrierId>,
    },
    /// Existing-carrier singular service: the carrier id *is* the key.
    Singular { carrier: CarrierId },
    /// KPI health lookup from the shard's cached report.
    Kpi { carrier: CarrierId },
}

impl ProbeKey {
    /// The packed vote keys, one per parameter of the request's kind in
    /// catalog order: what the cold-start recommender votes with. Empty
    /// for carrier-keyed probes and for a pair-wise probe toward an
    /// unknown neighbor.
    pub fn packed(&self) -> &[u128] {
        match self {
            ProbeKey::ColdStart { keys, .. } | ProbeKey::Pairwise { keys, .. } => keys,
            ProbeKey::Singular { .. } | ProbeKey::Kpi { .. } => &[],
        }
    }
}

/// Resolves a request to its probe under `model`, which must cover
/// `snapshot`'s catalog.
pub fn resolve(model: &CfModel, snapshot: &NetworkSnapshot, kind: &RequestKind) -> ProbeKey {
    match kind {
        RequestKind::ColdStart(nc) => ProbeKey::ColdStart {
            keys: model.probe_singular(snapshot, &nc.attrs),
            neighbors: nc.neighbors.clone(),
        },
        RequestKind::Pairwise {
            new_carrier,
            neighbor,
        } => ProbeKey::Pairwise {
            keys: model.probe_pairwise(snapshot, &new_carrier.attrs, *neighbor),
            neighbor: *neighbor,
            neighbors: new_carrier.neighbors.clone(),
        },
        RequestKind::Singular { carrier } => ProbeKey::Singular { carrier: *carrier },
        RequestKind::Kpi { carrier } => ProbeKey::Kpi { carrier: *carrier },
    }
}
