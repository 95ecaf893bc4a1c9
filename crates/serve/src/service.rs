//! The front door: routes requests to per-market shards, turns every
//! submission into exactly one typed terminal outcome (an [`Answer`] or
//! a [`Rejection`]), and aggregates shard stats for the chaos report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use auric_core::CfModel;
use auric_kpi::report::KpiReport;
use auric_kpi::traffic::TrafficModel;
use auric_model::{MarketId, NetworkSnapshot};
use auric_obs::Recorder;
use serde::{Deserialize, Serialize};

use crate::api::{Answer, Rejection, Request};
use crate::fault::ShardFaultPlan;
use crate::shard::{RefitError, Shard, ShardConfig, ShardStats};

/// Service-wide configuration: one [`ShardConfig`] applied to every
/// shard (per-shard fault seeds are derived from the plan seed).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceConfig {
    pub shard: ShardConfig,
}

/// Deterministic service-level accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Requests addressed to markets with no shard.
    pub unknown_market: u64,
    /// Per-shard stats, sorted by market id.
    pub shards: Vec<ShardStats>,
}

/// The sharded recommendation service. One shard (model + admission
/// state) per market; requests route by market id and execute on the
/// calling thread, so the service owns no threads.
pub struct Service {
    shards: Vec<Shard>,
    /// `market id → index into shards`, dense.
    route: Vec<Option<usize>>,
    unknown_market: AtomicU64,
    obs: Recorder,
}

impl Service {
    /// Builds one shard per `(market, model)` pair. The KPI report is
    /// simulated once here and shared read-only by every shard; a
    /// snapshot whose traffic model cannot resolve simply serves
    /// `KpiHealth(None)` (degraded), it does not fail construction.
    pub fn new(
        snapshot: Arc<NetworkSnapshot>,
        models: Vec<(MarketId, CfModel)>,
        plan: ShardFaultPlan,
        config: ServiceConfig,
        obs: Recorder,
    ) -> Self {
        let kpi: Arc<Option<KpiReport>> =
            Arc::new(auric_kpi::simulate(&snapshot, &TrafficModel::default()).ok());
        let mut models = models;
        models.sort_by_key(|(m, _)| m.0);
        let mut shards = Vec::with_capacity(models.len());
        let max_id = models.iter().map(|(m, _)| m.0 as usize).max();
        let mut route = vec![None; max_id.map_or(0, |m| m + 1)];
        for (market, model) in models {
            assert!(
                route[market.0 as usize].is_none(),
                "duplicate shard for market {}",
                market.0
            );
            route[market.0 as usize] = Some(shards.len());
            shards.push(Shard::new(
                market,
                Arc::clone(&snapshot),
                model,
                Arc::clone(&kpi),
                plan,
                config.shard,
                obs.clone(),
            ));
        }
        Self {
            shards,
            route,
            unknown_market: AtomicU64::new(0),
            obs,
        }
    }

    fn shard(&self, market: MarketId) -> Option<&Shard> {
        self.route
            .get(market.0 as usize)
            .copied()
            .flatten()
            .map(|i| &self.shards[i])
    }

    /// Markets this service has shards for, sorted.
    pub fn markets(&self) -> Vec<MarketId> {
        self.shards.iter().map(|s| s.market()).collect()
    }

    /// Serves one request: route, admit, execute, answer. Exactly one
    /// terminal outcome per call — a possibly-degraded [`Answer`] or a
    /// typed [`Rejection`]. Per market, callers must present requests in
    /// non-decreasing `submitted_us` order.
    pub fn call(&self, req: &Request) -> Result<Answer, Rejection> {
        match self.shard(req.market) {
            Some(shard) => shard.call(req),
            None => {
                self.unknown_market.fetch_add(1, Ordering::SeqCst);
                self.obs.inc("serve.rejected.unknown_market");
                Err(Rejection::UnknownMarket)
            }
        }
    }

    /// Serves a batch of requests, one typed terminal outcome each, in
    /// input order. Consecutive same-market runs go to their shard as
    /// one coalescing batch (the shard splits at `max_batch`); per
    /// market the batch must be in non-decreasing `submitted_us` order.
    pub fn call_batch(&self, reqs: &[Request]) -> Vec<Result<Answer, Rejection>> {
        let mut out = Vec::with_capacity(reqs.len());
        let mut i = 0;
        while i < reqs.len() {
            let market = reqs[i].market;
            let mut j = i + 1;
            while j < reqs.len() && reqs[j].market == market {
                j += 1;
            }
            match self.shard(market) {
                Some(shard) => out.extend(shard.call_batch(&reqs[i..j])),
                None => {
                    for _ in i..j {
                        self.unknown_market.fetch_add(1, Ordering::SeqCst);
                        self.obs.inc("serve.rejected.unknown_market");
                        out.push(Err(Rejection::UnknownMarket));
                    }
                }
            }
            i = j;
        }
        out
    }

    /// Hot-refits one market's model (subject to the shard's seeded
    /// refit fault stream). The old model keeps serving on failure.
    pub fn refit(&self, market: MarketId, model: CfModel, now_us: u64) -> Result<(), RefitError> {
        self.shard(market)
            .ok_or(RefitError::UnknownMarket)?
            .refit(model, now_us)
    }

    /// Streaming ingestion: rolls **every** shard forward over one
    /// applied delta batch against the post-batch snapshot, swapping
    /// each shard's `(snapshot, model)` pair under its epoch/cache
    /// invariants. Each shard's seeded refit fault stream still applies —
    /// a shard that draws a failure, or that a concurrent refit overtook
    /// ([`RefitError::Superseded`]), keeps its current pair and reports
    /// the error in its result slot.
    pub fn refit_delta(
        &self,
        snapshot: &Arc<NetworkSnapshot>,
        arena: &auric_model::AttrArena,
        batch: &auric_model::AppliedBatch,
        now_us: u64,
    ) -> Vec<(MarketId, Result<auric_core::DeltaFitReport, RefitError>)> {
        self.shards
            .iter()
            .map(|s| {
                (
                    s.market(),
                    s.refit_delta(Arc::clone(snapshot), arena, batch, now_us),
                )
            })
            .collect()
    }

    /// Refits one market from serialized model bytes; corrupt bytes are
    /// a typed error and the stale model keeps serving.
    pub fn install_model_json(
        &self,
        market: MarketId,
        bytes: &[u8],
        now_us: u64,
    ) -> Result<(), RefitError> {
        self.shard(market)
            .ok_or(RefitError::UnknownMarket)?
            .install_model_json(bytes, now_us)
    }

    /// Puts one market's shard into Draining; returns `false` for an
    /// unknown market.
    pub fn drain(&self, market: MarketId) -> bool {
        match self.shard(market) {
            Some(s) => {
                s.drain();
                true
            }
            None => false,
        }
    }

    /// The current model `Arc` of one market's shard (test/ops hook).
    pub fn model(&self, market: MarketId) -> Option<Arc<CfModel>> {
        self.shard(market).map(|s| s.model())
    }

    /// Deterministic stats snapshot, shards sorted by market id.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            unknown_market: self.unknown_market.load(Ordering::SeqCst),
            shards: self.shards.iter().map(|s| s.stats()).collect(),
        }
    }

    /// Checks the chaos invariants against `submitted` (ids presented
    /// per market, whether admitted or not). Returns human-readable
    /// violations; empty means the serving layer held its contract:
    /// every admitted request did exactly one unit of shard work, shed
    /// and rejected requests did none, and every submission reached
    /// exactly one terminal outcome.
    pub fn invariant_violations(&self, submitted_per_market: &[(MarketId, u64)]) -> Vec<String> {
        let stats = self.stats();
        let mut violations = Vec::new();
        for shard in &stats.shards {
            if shard.dispatched + shard.cache_hits + shard.coalesced != shard.admitted {
                violations.push(format!(
                    "market {}: {} executed + {} cache hits + {} coalesced != {} admitted \
                     (every admitted request is served exactly once — by a model \
                     lookup, the cache, or a coalesced batch-mate; shed/rejected do no work)",
                    shard.market,
                    shard.dispatched,
                    shard.cache_hits,
                    shard.coalesced,
                    shard.admitted
                ));
            }
            if shard.answered + shard.degraded_answers != shard.admitted {
                violations.push(format!(
                    "market {}: {} ok + {} degraded answers != {} admitted \
                     (every admitted request needs exactly one answer)",
                    shard.market, shard.answered, shard.degraded_answers, shard.admitted
                ));
            }
            if let Some(&(_, submitted)) = submitted_per_market
                .iter()
                .find(|(m, _)| m.0 == shard.market)
            {
                let accounted = shard.admitted + shard.rejected.total();
                if accounted != submitted {
                    violations.push(format!(
                        "market {}: {} admitted + {} rejected != {} submitted \
                         (every submission needs exactly one terminal outcome)",
                        shard.market,
                        shard.admitted,
                        shard.rejected.total(),
                        submitted
                    ));
                }
            }
        }
        violations
    }

    /// Drops the service. Shards own no threads (requests execute on
    /// the caller's thread), so there is nothing to join.
    pub fn shutdown(self) {}
}
