//! `auric-repro` — facade crate for the Auric (SIGCOMM 2021) reproduction.
//!
//! Re-exports every workspace member under one roof so the examples and
//! integration tests read naturally. See the README for a tour and
//! DESIGN.md for the system inventory.

#![forbid(unsafe_code)]

pub use auric_core as core;
pub use auric_ems as ems;
pub use auric_eval as eval;
pub use auric_kpi as kpi;
pub use auric_learners as learners;
pub use auric_model as model;
pub use auric_netgen as netgen;
pub use auric_rulebook as rulebook;
pub use auric_serve as serve;
pub use auric_stats as stats;
