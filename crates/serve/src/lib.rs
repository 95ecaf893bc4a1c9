//! `auric-serve` — fault-tolerant serving layer for Auric
//! recommendations (§7 "deployment" concerns the paper leaves to ops).
//!
//! A sharded front door routes recommendation traffic to per-market CF
//! model shards and guarantees **exactly one typed terminal outcome per
//! request** under chaos:
//!
//! - **Deadlines** — requests carry absolute simulated-µs deadlines; a
//!   request that cannot start in time is shed *before any shard work*.
//! - **Load shedding** — bounded per-shard virtual queues reject with a
//!   typed `Overloaded` instead of queueing unboundedly.
//! - **Panic containment** — every model lookup runs under
//!   `catch_unwind` on the caller's thread; a panic degrades the answer
//!   (fallback chain pairwise → singular → market mode), never loses it
//!   or the thread. Repeated panics trip the shard to Degraded and
//!   schedule a restart.
//! - **Circuit breaking** — consecutive primary-path failures open a
//!   seeded breaker that half-opens on a simulated-time cooldown with
//!   deterministic jitter.
//! - **Hot refit** — each shard's model is an `Arc` swapped under a
//!   lock; a refitting, degraded, or poisoned shard serves the stale
//!   model rather than erroring, and a delta refit that another refit
//!   overtook is refused rather than undoing it.
//! - **Batched hot path** — admission resolves each request once into a
//!   packed-key [`ProbeKey`]; a batch coalesces duplicate probes into
//!   one model lookup (leads sorted by packed key), and a bounded
//!   per-shard [`ResponseCache`] serves repeats, validated against a
//!   model epoch bumped on every refit swap so stale bodies never
//!   serve. Answers carry ids, not names, and share one `Arc` body
//!   between a lead, its batch-mates and the cache.
//!
//! Everything is driven by simulated time and seeded fault plans
//! ([`ShardFaultPlan`], mirroring `auric_ems::fault`), so the
//! `bench_serve` load generator produces byte-identical chaos reports
//! across same-seed runs. No async runtime and no threads of its own:
//! each request executes on the thread that calls the service, between
//! two short critical sections on its shard's control mutex.

#![forbid(unsafe_code)]

pub mod api;
pub mod breaker;
pub mod cache;
pub mod fault;
pub mod probe;
pub mod service;
pub mod shard;

pub use api::{Answer, Body, DegradeReason, Rejection, Request, RequestKind, ShardState};
pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use cache::{CacheLookup, ResponseCache};
pub use fault::{ShardFaultCounts, ShardFaultPlan, ShardFaultRates};
pub use probe::ProbeKey;
pub use service::{Service, ServiceConfig, ServiceStats};
pub use shard::{RefitError, RejectionCounts, ServiceCosts, Shard, ShardConfig, ShardStats};
