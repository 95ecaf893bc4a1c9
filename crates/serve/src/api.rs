//! The request/response surface of the serving layer.
//!
//! Time is simulated microseconds throughout: requests carry their
//! submission instant and an absolute deadline, and every latency the
//! service reports is virtual. That keeps load tests deterministic — the
//! same seed produces byte-identical reports — while every admitted
//! request is still really executed, on the caller's thread.

use std::sync::Arc;

use auric_core::recommend::{ConfigRecommendation, NewCarrier};
use auric_model::{CarrierId, MarketId};
use serde::{Deserialize, Serialize};

/// One recommendation request addressed to a market shard.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id, echoed in the answer; the chaos invariant
    /// checker uses it to prove exactly-once terminal outcomes.
    pub id: u64,
    pub market: MarketId,
    /// Simulated submission instant (µs). Per market, callers must
    /// submit in non-decreasing `submitted_us` order — the shard's
    /// admission clock follows the request stream.
    pub submitted_us: u64,
    /// Absolute simulated deadline (µs). A request that cannot start
    /// before this instant is shed without doing any shard work.
    pub deadline_us: u64,
    pub kind: RequestKind,
}

/// What the request asks for.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// Singular-parameter recommendations for a carrier not yet in the
    /// network (§4: attributes plus planned X2 neighbors).
    ColdStart(NewCarrier),
    /// Pairwise-parameter recommendations for a new carrier toward one
    /// planned neighbor.
    Pairwise {
        new_carrier: NewCarrier,
        neighbor: CarrierId,
    },
    /// Singular-parameter recommendations for an existing carrier
    /// (neighborhood vote first, global chain as fallback).
    Singular { carrier: CarrierId },
    /// Simulated-KPI health of an existing carrier, served from the
    /// shard's cached KPI report.
    Kpi { carrier: CarrierId },
}

impl RequestKind {
    /// Short label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RequestKind::ColdStart(_) => "cold_start",
            RequestKind::Pairwise { .. } => "pairwise",
            RequestKind::Singular { .. } => "singular",
            RequestKind::Kpi { .. } => "kpi",
        }
    }
}

/// Why an admitted-path request was turned away. Every variant is a
/// *typed terminal outcome* — the caller always learns what happened,
/// and none of these performs any shard work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rejection {
    /// The request named a market the service has no shard for.
    UnknownMarket,
    /// The shard is draining and accepts no new work.
    Draining,
    /// The shard's circuit breaker is open (recent consecutive
    /// failures); retry after the breaker half-opens.
    BreakerOpen,
    /// The shard's queue is at capacity; explicit backpressure.
    Overloaded,
    /// The request was already past its deadline, or could not have
    /// started before it; shed before any work.
    DeadlineExpired,
}

impl Rejection {
    /// Short label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Rejection::UnknownMarket => "unknown_market",
            Rejection::Draining => "draining",
            Rejection::BreakerOpen => "breaker_open",
            Rejection::Overloaded => "overloaded",
            Rejection::DeadlineExpired => "deadline_expired",
        }
    }
}

/// The shard state machine. Transitions:
/// `Warming → Ready → Degraded → (restart) → Warming`, with `Draining`
/// terminal. Warming and Degraded shards still answer — degraded, from
/// the market-mode path — rather than erroring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardState {
    /// Recently (re)started; serves market-mode answers until warmup
    /// elapses.
    Warming,
    /// Full service over the current model.
    Ready,
    /// Too many panics or a poisoned refit; serves market-mode answers
    /// from the stale model until the scheduled restart.
    Degraded,
    /// Shutting down; new requests are rejected with
    /// [`Rejection::Draining`].
    Draining,
}

impl ShardState {
    /// Short label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShardState::Warming => "warming",
            ShardState::Ready => "ready",
            ShardState::Degraded => "degraded",
            ShardState::Draining => "draining",
        }
    }
}

/// Why an answer is degraded rather than first-class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// The shard is warming up; market-mode answer.
    Warming,
    /// The shard is in the Degraded state; market-mode answer from the
    /// stale model.
    ShardDegraded,
    /// This request's primary path panicked; the fallback chain
    /// (pairwise → singular → market mode) produced the answer.
    PanicFallback,
    /// A KPI query for a carrier the cached report does not cover.
    KpiUnavailable,
}

impl DegradeReason {
    /// Short label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeReason::Warming => "warming",
            DegradeReason::ShardDegraded => "shard_degraded",
            DegradeReason::PanicFallback => "panic_fallback",
            DegradeReason::KpiUnavailable => "kpi_unavailable",
        }
    }
}

/// The answer payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Per-parameter recommendations (cold-start, pairwise, singular),
    /// shared: a cache hit, a coalesced batch-mate and the cache entry
    /// all hold the lead's one allocation. Records carry ids only;
    /// [`ConfigRecommendation::render`] turns them into names.
    Recommendations(Arc<[ConfigRecommendation]>),
    /// Simulated KPI health in `[0, 1]`; `None` when the cached report
    /// does not cover the carrier (the answer is then degraded).
    KpiHealth(Option<f64>),
}

/// A served answer — possibly degraded, never silently wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// `true` when the fallback chain (not the primary path) answered.
    pub degraded: bool,
    /// Why, when `degraded`.
    pub reason: Option<DegradeReason>,
    /// Shard state that served the request.
    pub state: ShardState,
    /// Virtual completion minus submission (µs), queueing included.
    pub latency_us: u64,
    pub body: Body,
}
