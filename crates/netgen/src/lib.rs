//! Synthetic LTE network and configuration ground-truth generator.
//!
//! The paper evaluates on a proprietary snapshot of a large US LTE network:
//! 400K+ carriers across 28 markets with 65 actively-tuned range
//! parameters. This crate is the substitute substrate (see DESIGN.md): a
//! deterministic generator that reproduces the *causal structure* the paper
//! attributes its phenomena to, so that the relative results — variability
//! and skew (Figs. 2–4), collaborative filtering beating classic learners
//! (Table 4, Fig. 10), locality beating global voting (§4.3.2, Fig. 11),
//! and the mismatch categories (Fig. 12) — emerge from the same mechanisms
//! rather than being hard-coded.
//!
//! The generative process, in order:
//!
//! 1. **Topology** ([`topology`]): markets on a plane, eNodeBs clustered
//!    around urban cores, 3 faces each, carriers per face by morphology and
//!    band, X2 relations from radio adjacency, Table-1 attributes.
//! 2. **Engineering rules** ([`rules`]): per parameter, a latent rule over
//!    a small set of relevant attributes maps each attribute combination to
//!    a value from a skewed per-parameter palette. This is the "rule-book +
//!    per-market tuning" the paper's engineers maintain.
//! 3. **Local tuning pockets** ([`tuning`]): geographic clusters whose
//!    engineers overrode a parameter — some driven by factors absent from
//!    the attribute schema (terrain), the paper's "update learner" cause.
//! 4. **Trials** ([`tuning`]): stale leftovers of abandoned trials (the
//!    28% "good recommendation" cause) and in-progress certification
//!    roll-outs (the other "update learner" cause).
//! 5. **Noise** ([`tuning`]): one-off manual deviations with no cause.
//!
//! Everything is driven by a single seed; identical inputs give identical
//! snapshots, byte for byte.

#![forbid(unsafe_code)]

pub mod generator;
pub mod names;
pub mod rules;
pub mod scale;
pub mod stream;
pub mod topology;
pub mod tuning;

pub use generator::{generate, GeneratedNetwork, GroundTruth};
pub use rules::LatentRule;
pub use scale::{NetScale, TuningKnobs};
pub use stream::{stream, FleetStream};
pub use tuning::Pocket;

/// Attribute column indices matching
/// [`auric_model::attrs::table1_schema`]'s order. Kept as constants so the
/// generator and its tests agree on positions without string lookups.
pub mod attr_idx {
    use auric_model::AttrId;

    pub const FREQUENCY: AttrId = AttrId(0);
    pub const CARRIER_TYPE: AttrId = AttrId(1);
    pub const CARRIER_INFO: AttrId = AttrId(2);
    pub const MORPHOLOGY: AttrId = AttrId(3);
    pub const BANDWIDTH: AttrId = AttrId(4);
    pub const MIMO: AttrId = AttrId(5);
    pub const HARDWARE: AttrId = AttrId(6);
    pub const CELL_SIZE: AttrId = AttrId(7);
    pub const TAC: AttrId = AttrId(8);
    pub const MARKET: AttrId = AttrId(9);
    pub const VENDOR: AttrId = AttrId(10);
    pub const NEIGHBOR_CHANNEL: AttrId = AttrId(11);
    pub const NEIGHBORS_SAME_ENB: AttrId = AttrId(12);
    pub const SOFTWARE: AttrId = AttrId(13);
}
