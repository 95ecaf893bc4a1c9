//! Deployment substrate (§5): everything between a recommendation and a
//! configured base station.
//!
//! The paper's production integration ("SmartLaunch") wraps Auric in the
//! machinery real carrier changes go through:
//!
//! - [`mo`] — vendor configuration schemas: hierarchical *managed objects*
//!   ("similar to interfaces in routers"), vendor-specific templates, and
//!   config-file generation with instance IDs filled from a database;
//! - [`ems`] — the element management system and carrier lifecycle:
//!   lock/unlock semantics (changing lock-required parameters on a live
//!   carrier would disrupt traffic), batch execution limits and the
//!   timeouts they cause, per-variant push audit counters, and the
//!   [`EmsBackend`] trait the pipeline talks through;
//! - [`fault`] — deterministic, seeded fault injection over any backend
//!   (transient failures, partial batch application, dropped inventory,
//!   spurious unlocks, latency timeouts) plus the [`InvariantChecker`]
//!   that audits campaign traces for lifecycle/consistency/accounting
//!   violations;
//! - [`retry`] — bounded retries with exponential backoff on a simulated
//!   clock, batch splitting under the execution limit, and the
//!   transactional per-launch [`LaunchJournal`];
//! - [`postcheck`] — the §4.3.3/§6 post-launch monitoring hook: a
//!   [`PostCheck`] trait SmartLaunch consults after every successful
//!   push. The default replays the plan's injected flag (paper-faithful
//!   Table 5); `auric_kpi::KpiPostCheck` measures real simulated KPIs;
//! - [`quarantine`] — the repeat-offender ledger: rolled-back changes
//!   file offenses against their `(parameter, value)` pair, quarantined
//!   pairs are suppressed from later campaign rounds, and entries expire
//!   after a configurable number of rounds (the appeal);
//! - [`smartlaunch`] — the launch pipeline: pre-checks → Auric
//!   recommendation → diff against the vendor's initial configuration →
//!   push mismatches while still locked → unlock → post-check monitoring,
//!   with the two §5 fall-out causes injected (premature off-band unlocks,
//!   EMS execution timeouts), journaled rollback, and fall-out accounting
//!   that survives injected faults. Its campaign report reproduces
//!   Table 5.

#![forbid(unsafe_code)]

pub mod ems;
pub mod fault;
pub mod mo;
pub mod postcheck;
pub mod quarantine;
pub mod retry;
pub mod smartlaunch;

pub use ems::{CarrierState, Ems, EmsAudit, EmsBackend, EmsSettings, PushError, PushOutcome};
pub use fault::{
    FaultCounts, FaultInjector, FaultPlan, FaultRates, InvariantChecker, InvariantViolation,
};
pub use mo::{ConfigChange, ConfigFile, InstanceDb, VendorTemplate};
pub use postcheck::{InjectedPostCheck, PostCheck, PostCheckContext, PostCheckVerdict};
pub use quarantine::{Quarantine, QuarantineEntry, QuarantinePolicy};
pub use retry::{LaunchJournal, RetryPolicy, SimClock};
pub use smartlaunch::{
    sample_campaign, sample_campaign_with_post_checks, CampaignReport, FalloutCause, LaunchOutcome,
    LaunchPlan, LaunchPolicy, LaunchRecord, SmartLaunch, VendorConfigSource,
};
