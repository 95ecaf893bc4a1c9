//! Service-performance substrate: a lightweight traffic / carrier-layer /
//! handover simulator producing the KPIs the paper's operational loop
//! watches (§2.1, §4.3.3, §5, §6).
//!
//! The paper's engineers judge a configuration by what it does to
//! *service performance*: "the engineers carefully monitor the traffic
//! distribution on the newly added carrier ..., and the service
//! performance impact of the change (e.g., data throughput, voice call
//! admissions)" (§4.3.3), and §6 proposes feeding those KPIs back into
//! the voting. This crate closes that loop with a deliberately simple,
//! fully deterministic simulator:
//!
//! 1. [`traffic`] — offered load: user sessions placed around each
//!    eNodeB with morphology-dependent density, then attached to carriers
//!    via *carrier-layer management* (§2.1): coverage gating by
//!    `qRxLevMin` and `pMax`, priority order by `sFreqPrio` (high bands
//!    first at equal priority), and `lbCapacityThreshold`-driven
//!    inter-frequency load balancing spill-over.
//! 2. [`handover`] — mobility: sessions attempt handovers across X2
//!    relations; the `hysA3Offset` margin governs the classic trade-off
//!    (too small → ping-pong, too large → drag and drops).
//! 3. [`report`] — per-carrier KPIs (accessibility, retainability,
//!    mobility quality, utilization) aggregated into a health score in
//!    `[0, 1]`, which plugs straight into
//!    [`auric_core::perf::KpiSource`] for performance-weighted voting.
//!
//! None of this aims for radio-accurate numbers; it aims for the right
//! *directions* — a carrier with a hostile `qRxLevMin` stops admitting
//! users, an overloaded layer blocks, a razor-thin hysteresis ping-pongs
//! — so configuration quality becomes observable, exactly what the §6
//! extension needs.

#![forbid(unsafe_code)]

pub mod error;
pub mod handover;
pub mod postcheck;
pub mod report;
pub mod traffic;

pub use error::MissingParameter;
pub use postcheck::KpiPostCheck;
pub use report::{CarrierKpi, KpiReport};
pub use traffic::{simulate, TrafficModel};
