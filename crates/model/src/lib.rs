//! Domain model for the Auric reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: markets, eNodeBs, faces, carriers, the carrier *attribute*
//! schema of Table 1 of the paper, the catalog of 65 range configuration
//! parameters (39 singular + 26 pair-wise), the X2 neighbor-relation graph
//! used for geographic proximity, and the configuration store that holds a
//! value (plus its *provenance*, used for the Fig. 12 mismatch labeling) for
//! every (parameter, carrier) and (parameter, carrier-pair) combination.
//!
//! Nothing in this crate generates data or learns anything; it is the typed
//! substrate the generator (`auric-netgen`), the recommender (`auric-core`)
//! and the deployment simulator (`auric-ems`) all build on.

#![forbid(unsafe_code)]

pub mod arena;
pub mod attrs;
pub mod carrier;
pub mod config;
pub mod delta;
pub mod ids;
pub mod params;
pub mod snapshot;
pub mod x2;

pub use arena::AttrArena;
pub use attrs::{AttrDef, AttrId, AttrValue, AttrVec, AttributeSchema};
pub use carrier::{Band, Carrier, Enodeb, Market, Morphology, Point, Timezone, Vendor};
pub use config::{Configuration, PairIdx, Provenance};
pub use delta::{
    apply_fleet_deltas, empty_snapshot, AppliedBatch, AppliedRetune, DeltaError, DeltaSlot,
    FleetDelta,
};
pub use ids::{CarrierId, EnodebId, MarketId, ParamId};
pub use params::{ParamCatalog, ParamDef, ParamFunction, ParamKind, ValueIdx, ValueRange};
pub use snapshot::NetworkSnapshot;
pub use x2::X2Graph;
