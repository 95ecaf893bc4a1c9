//! One per-market model shard: an `Arc`-swappable `(snapshot, model)`
//! pair, a virtual-time admission queue, a panic-containment boundary,
//! and the Warming → Ready → Degraded → Draining state machine.
//!
//! ## Execution model
//!
//! A shard owns no thread. The caller's thread runs each batch in three
//! phases: admission and classification under the shard's control
//! mutex, execution of the leads with no lock held, and settlement
//! under the control mutex again. Execution runs against the
//! `(snapshot, model)` pair pinned in phase 1, each lead under its own
//! `catch_unwind`, so a panic degrades that one answer and the calling
//! thread carries on. Concurrent callers of one shard execute in
//! parallel; only admission and settlement serialize.
//!
//! ## Determinism model
//!
//! Admission control runs entirely in *virtual* time: each request
//! carries its simulated submission instant, the shard tracks when a
//! single virtual server would finish each admitted request, and queue
//! depth / deadline / breaker decisions are made from that state under
//! the shard's control mutex. Fault draws happen at admission, in
//! admission order, from a per-shard seeded stream. As long as each
//! market's requests are submitted in `submitted_us` order (one client
//! thread per market in the load generator), every admission decision —
//! and hence the whole chaos report — is a pure function of (snapshot,
//! models, schedule, fault plan seed). Every admitted lead is still
//! *really executed*, so panic containment and `Arc` hot-swaps are
//! exercised for real; its results are deterministic because the model
//! and inputs are.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use auric_core::recommend::{
    recommend_pairwise_keyed, recommend_singular, recommend_singular_keyed, ConfigRecommendation,
};
use auric_core::{CfModel, DeltaApply, DeltaFitReport, Recommendation, Scope, Side};
use auric_kpi::report::KpiReport;
use auric_model::{AppliedBatch, AttrArena, MarketId, NetworkSnapshot, ParamDef, ParamKind};
use auric_obs::Recorder;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::api::{Answer, Body, DegradeReason, Rejection, Request, RequestKind, ShardState};
use crate::breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::cache::{CacheLookup, ResponseCache};
use crate::fault::{
    draw_refit_faults, draw_request_faults, InjectedPanic, ShardFaultCounts, ShardFaultPlan,
};
use crate::probe::{self, ProbeKey};
use rand::SeedableRng;
use std::collections::HashMap;

/// Virtual service cost (µs) per request kind, and the latency-spike
/// multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceCosts {
    pub cold_start_us: u64,
    pub pairwise_us: u64,
    pub singular_us: u64,
    pub kpi_us: u64,
    /// Cost of serving straight from the response cache (no model
    /// lookup).
    pub cache_hit_us: u64,
    /// Cost of fanning a coalesced batch-mate's answer out (no model
    /// lookup).
    pub coalesced_us: u64,
    /// A latency-spike fault multiplies the request's cost by this.
    pub spike_factor: u64,
}

impl Default for ServiceCosts {
    fn default() -> Self {
        Self {
            cold_start_us: 400,
            pairwise_us: 250,
            singular_us: 150,
            kpi_us: 50,
            cache_hit_us: 20,
            coalesced_us: 25,
            spike_factor: 20,
        }
    }
}

impl ServiceCosts {
    fn base(&self, kind: &RequestKind) -> u64 {
        match kind {
            RequestKind::ColdStart(_) => self.cold_start_us,
            RequestKind::Pairwise { .. } => self.pairwise_us,
            RequestKind::Singular { .. } => self.singular_us,
            RequestKind::Kpi { .. } => self.kpi_us,
        }
    }
}

/// Shard policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Admitted-but-unfinished requests the virtual queue holds
    /// (in-service included) before `Overloaded` rejections.
    pub queue_capacity: usize,
    /// Contained panics since the last restart that trip the shard to
    /// Degraded. Kept above the breaker's `trip_after` so a panic storm
    /// opens the breaker first and degrades the shard second.
    pub panic_threshold: u32,
    /// Simulated µs a (re)started shard spends Warming.
    pub warmup_us: u64,
    /// Simulated µs between degrading and the automatic restart.
    pub restart_delay_us: u64,
    /// Largest admission batch processed as one coalescing group;
    /// `call_batch` splits longer inputs into chunks of this size.
    pub max_batch: usize,
    /// Response-cache entries per shard; `0` disables caching (the
    /// unbatched/uncached A/B baseline).
    pub cache_capacity: usize,
    pub breaker: BreakerConfig,
    pub costs: ServiceCosts,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            panic_threshold: 5,
            warmup_us: 20_000,
            restart_delay_us: 100_000,
            max_batch: 8,
            cache_capacity: 256,
            breaker: BreakerConfig::default(),
            costs: ServiceCosts::default(),
        }
    }
}

/// Typed refit failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefitError {
    /// The refit addressed a market the service has no shard for.
    UnknownMarket,
    /// The fault plan injected a refit failure; the stale model stays.
    Injected,
    /// The serialized model failed to load (see
    /// [`auric_core::ModelLoadError`]); the stale model stays.
    Load(auric_core::ModelLoadError),
    /// Another refit swapped the shard's model while this delta refit
    /// rolled its base forward; swapping now would silently undo that
    /// refit, so the current pair stays.
    Superseded,
    /// The model does not match the shard's fleet: it lacks a parameter
    /// for some catalog entry, or a key layout disagrees with the schema
    /// (see [`model_fits_fleet`]). The stale pair stays.
    Incompatible,
}

impl std::fmt::Display for RefitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefitError::UnknownMarket => write!(f, "refit addressed an unknown market"),
            RefitError::Injected => write!(f, "refit failed (injected fault); stale model kept"),
            RefitError::Load(e) => write!(f, "refit model rejected: {e}; stale model kept"),
            RefitError::Superseded => write!(
                f,
                "delta refit superseded by a concurrent refit; current model kept"
            ),
            RefitError::Incompatible => write!(
                f,
                "refit model does not match the shard's catalog and schema; stale model kept"
            ),
        }
    }
}

impl std::error::Error for RefitError {}

/// Per-rejection-kind counters (shard level; `UnknownMarket` is counted
/// by the service front door).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectionCounts {
    pub draining: u64,
    pub breaker_open: u64,
    pub overloaded: u64,
    pub deadline_expired: u64,
}

impl RejectionCounts {
    pub fn total(&self) -> u64 {
        self.draining + self.breaker_open + self.overloaded + self.deadline_expired
    }
}

/// A deterministic snapshot of one shard's lifetime accounting, for the
/// chaos report and the invariant checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    pub market: u16,
    pub state: ShardState,
    /// Requests past admission control (exactly these get an answer).
    pub admitted: u64,
    /// First-class answers.
    pub answered: u64,
    /// Degraded answers (fallback chain, warming/degraded service).
    pub degraded_answers: u64,
    pub rejected: RejectionCounts,
    /// Panics the per-request `catch_unwind` contained.
    pub panics_contained: u64,
    pub faults: ShardFaultCounts,
    pub breaker: BreakerStats,
    pub refits_ok: u64,
    pub refits_failed: u64,
    /// Model swaps since construction (initial model is epoch 0).
    pub model_epoch: u64,
    /// Leads executed against the model on the calling thread (counted
    /// at settlement). The chaos invariant
    /// `dispatched + cache_hits + coalesced == admitted` proves
    /// shed/rejected requests did no shard work and every admitted
    /// request was either executed once, served from cache, or fanned
    /// out from a coalesced batch-mate.
    pub dispatched: u64,
    /// Admitted requests served from the epoch-validated response cache.
    pub cache_hits: u64,
    /// Admitted requests that shared a batch-mate's model lookup.
    pub coalesced: u64,
    /// Total virtual µs of booked service time (the busy ledger the
    /// bench divides answers by for honest virtual throughput).
    pub busy_us: u64,
    pub restarts: u64,
}

/// Mutable shard control state, all under one mutex so admission
/// decisions and post-completion accounting are serialized per shard.
struct ShardCtl {
    /// The fleet this shard serves against, swapped together with the
    /// model by [`Shard::refit_delta`] (streaming ingestion). Plain
    /// [`Shard::refit`] leaves it in place.
    snapshot: Arc<NetworkSnapshot>,
    model: Arc<CfModel>,
    state: ShardState,
    warm_until_us: u64,
    restart_at_us: Option<u64>,
    poisoned: bool,
    panics_since_restart: u32,
    /// Virtual instant the shard finishes its last admitted request.
    virtual_done_us: u64,
    /// Virtual completion instants of admitted, unfinished requests.
    inflight: VecDeque<u64>,
    breaker: CircuitBreaker,
    request_rng: ChaCha8Rng,
    refit_rng: ChaCha8Rng,
    /// Epoch-validated response cache (seeded eviction stream).
    cache: ResponseCache,
    // Deterministic lifetime accounting.
    admitted: u64,
    answered: u64,
    degraded_answers: u64,
    rejected: RejectionCounts,
    panics_contained: u64,
    faults: ShardFaultCounts,
    refits_ok: u64,
    refits_failed: u64,
    model_epoch: u64,
    dispatched: u64,
    cache_hits: u64,
    coalesced: u64,
    busy_us: u64,
    restarts: u64,
}

/// Where one batched request goes after admission + classification.
enum Disposition {
    /// A typed rejection, already counted at admission.
    Reject(Rejection),
    /// Admitted and booked; answered as `class` says.
    Admitted {
        /// Virtual completion instant.
        done_us: u64,
        /// State that serves the request (for the answer + histograms).
        state: ShardState,
        class: Class,
    },
}

/// How an admitted request is answered.
enum Class {
    /// Served from the response cache: no model lookup at all.
    Hit(Body),
    /// Coalesced onto the lead at `reqs[lead]` (same probe, same batch):
    /// the lead's answer fans out here.
    Member(usize),
    /// Executes on the calling thread.
    Lead(Lead),
}

/// What a lead executes. Only [`Lead::Primary`] carries a probe, so only
/// it can reach the primary path, the cache and coalescing: a drawn
/// panic must really fire (fault parity), and market-mode answers are
/// degraded state, not lookups.
enum Lead {
    /// Full service, fallback chain on panic. The recommender votes with
    /// the probe's packed keys, and a clean answer is cached under it.
    Primary(ProbeKey),
    /// Full service with an injected or poisoned-model panic drawn at
    /// admission: the panic fires inside the unwind boundary before any
    /// lookup, then the fallback chain answers.
    Panic,
    /// Warming/Degraded service: market-mode only, explicit reason.
    MarketMode(DegradeReason),
}

/// What executing one lead produced.
struct LeadReply {
    body: Body,
    degraded: bool,
    reason: Option<DegradeReason>,
    /// A panic was contained while serving this request.
    panicked: bool,
}

/// A per-market shard. Construct via the service.
pub struct Shard {
    market: MarketId,
    /// The KPI report, pinned to the construction-time fleet:
    /// re-simulating KPIs per ingested batch is the KPI pipeline's job,
    /// not the serving path's.
    kpi: Arc<Option<KpiReport>>,
    config: ShardConfig,
    plan: ShardFaultPlan,
    ctl: Mutex<ShardCtl>,
    obs: Recorder,
}

/// The `(snapshot, model, epoch)` triple read in one control-lock
/// critical section: what a batch executes against and what a delta
/// refit rolls forward from.
struct Pinned {
    snapshot: Arc<NetworkSnapshot>,
    model: Arc<CfModel>,
    epoch: u64,
}

fn mix_seed(seed: u64, market: u16, stream: u64) -> u64 {
    seed ^ (u64::from(market) + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

impl Shard {
    /// Builds the shard. It begins Warming and becomes Ready once
    /// `config.warmup_us` of simulated time has passed.
    pub fn new(
        market: MarketId,
        snapshot: Arc<NetworkSnapshot>,
        model: CfModel,
        kpi: Arc<Option<KpiReport>>,
        plan: ShardFaultPlan,
        config: ShardConfig,
        obs: Recorder,
    ) -> Self {
        crate::fault::silence_injected_panics();
        let m = market.0;
        assert!(
            model_fits_fleet(&snapshot, &model),
            "market {m}: model does not match the snapshot's catalog and schema"
        );
        let ctl = ShardCtl {
            snapshot,
            model: Arc::new(model),
            state: ShardState::Warming,
            warm_until_us: config.warmup_us,
            restart_at_us: None,
            poisoned: false,
            panics_since_restart: 0,
            virtual_done_us: 0,
            inflight: VecDeque::new(),
            breaker: CircuitBreaker::new(config.breaker, mix_seed(plan.seed, m, 2)),
            request_rng: ChaCha8Rng::seed_from_u64(mix_seed(plan.seed, m, 0)),
            refit_rng: ChaCha8Rng::seed_from_u64(mix_seed(plan.seed, m, 1)),
            cache: ResponseCache::new(config.cache_capacity, mix_seed(plan.seed, m, 3)),
            admitted: 0,
            answered: 0,
            degraded_answers: 0,
            rejected: RejectionCounts::default(),
            panics_contained: 0,
            faults: ShardFaultCounts::default(),
            refits_ok: 0,
            refits_failed: 0,
            model_epoch: 0,
            dispatched: 0,
            cache_hits: 0,
            coalesced: 0,
            busy_us: 0,
            restarts: 0,
        };
        Self {
            market,
            kpi,
            config,
            plan,
            ctl: Mutex::new(ctl),
            obs,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardCtl> {
        self.ctl.lock().expect("shard ctl poisoned")
    }

    pub fn market(&self) -> MarketId {
        self.market
    }

    /// The current model `Arc` (hot-swapped by refits).
    pub fn model(&self) -> Arc<CfModel> {
        Arc::clone(&self.lock().model)
    }

    /// The fleet snapshot this shard currently serves against
    /// (hot-swapped by [`Shard::refit_delta`]).
    pub fn snapshot(&self) -> Arc<NetworkSnapshot> {
        Arc::clone(&self.lock().snapshot)
    }

    /// The current `(snapshot, model, epoch)` triple: refits swap all
    /// three in one critical section, so they are mutually consistent.
    fn pinned(ctl: &ShardCtl) -> Pinned {
        Pinned {
            snapshot: Arc::clone(&ctl.snapshot),
            model: Arc::clone(&ctl.model),
            epoch: ctl.model_epoch,
        }
    }

    /// Serves one request end to end: a batch of one. A single request
    /// can still hit the response cache; coalescing needs batch-mates.
    pub fn call(&self, req: &Request) -> Result<Answer, Rejection> {
        self.call_batch(std::slice::from_ref(req))
            .pop()
            .expect("one request, one terminal outcome")
    }

    /// Serves a batch end to end on the calling thread: deterministic
    /// admission + classification under the control mutex, one model
    /// lookup per *distinct* lead (sorted by packed key so the frozen
    /// vote groups are scanned as sequential runs), then deterministic
    /// settlement that fans each lead's answer out to its coalesced
    /// batch-mates. Outcomes come back in input order, one per request.
    /// Callers must present one market's requests in non-decreasing
    /// `submitted_us` order; batches longer than `config.max_batch` are
    /// split.
    pub fn call_batch(&self, reqs: &[Request]) -> Vec<Result<Answer, Rejection>> {
        let mut out = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(self.config.max_batch.max(1)) {
            self.serve_chunk(chunk, &mut out);
        }
        out
    }

    fn serve_chunk(&self, reqs: &[Request], out: &mut Vec<Result<Answer, Rejection>>) {
        // Phase 1 (ctl lock): admission, fault draws, classification.
        // The snapshot, model and epoch are read together under the lock
        // — refits swap them in one critical section — so every probe in
        // this batch resolves against one consistent triple.
        let (pinned, dispositions) = {
            let mut ctl = self.lock();
            let pinned = Self::pinned(&ctl);
            // Only batch-mates coalesce: a chunk of one keeps no map.
            let mut seen: Option<HashMap<ProbeKey, usize>> = (reqs.len() > 1).then(HashMap::new);
            let dispositions: Vec<Disposition> = reqs
                .iter()
                .enumerate()
                .map(|(i, req)| self.admit_classify(&mut ctl, req, &pinned, seen.as_mut(), i))
                .collect();
            (pinned, dispositions)
        };
        let lead = |i: usize| match &dispositions[i] {
            Disposition::Admitted {
                class: Class::Lead(lead),
                ..
            } => Some(lead),
            _ => None,
        };
        let n_admitted = dispositions
            .iter()
            .filter(|d| matches!(d, Disposition::Admitted { .. }))
            .count();
        let mut lead_order: Vec<usize> = (0..reqs.len()).filter(|&i| lead(i).is_some()).collect();
        if n_admitted > 0 {
            self.obs.observe("serve.batch.size", n_admitted as u64);
            self.obs
                .observe("serve.batch.groups", lead_order.len() as u64);
        }

        // Phase 2 (no locks): execute the leads on this thread against
        // the pinned pair, keyed leads first in probe-key order so
        // equal-prefix packed keys are looked up back to back.
        lead_order.sort_by_key(|&i| {
            let key = match lead(i) {
                Some(Lead::Primary(key)) => Some(key),
                _ => None,
            };
            (key.is_none(), key, i)
        });
        let mut replies: Vec<Option<LeadReply>> = reqs.iter().map(|_| None).collect();
        for i in lead_order {
            replies[i] = Some(serve_job(
                &pinned.snapshot,
                &pinned.model,
                self.kpi.as_ref().as_ref(),
                &reqs[i].kind,
                lead(i).expect("lead_order holds leads only"),
            ));
        }

        // Phase 3 (ctl lock): settle in input order, fan out, cache.
        // Bodies are shared `Arc`s: fan-out and cache inserts copy none,
        // and each lead's probe moves into the cache.
        let mut ctl = self.lock();
        for (i, (req, disposition)) in reqs.iter().zip(dispositions).enumerate() {
            let (done_us, state, class) = match disposition {
                Disposition::Reject(r) => {
                    out.push(Err(r));
                    continue;
                }
                Disposition::Admitted {
                    done_us,
                    state,
                    class,
                } => (done_us, state, class),
            };
            let (degraded, reason, body) = match class {
                Class::Hit(body) => {
                    // A cache hit is a primary-path success: the cached
                    // body was computed by a successful primary serve of
                    // this same probe under this same epoch.
                    let (degraded, reason) = degrade_from_body(&req.kind, &body);
                    self.count_answer(&mut ctl, degraded);
                    self.breaker_success(&mut ctl);
                    (degraded, reason, body)
                }
                Class::Member(lead) => {
                    // The lead owns the breaker feedback and any
                    // contained-panic accounting; members only share the
                    // answer (degraded status included).
                    let r = replies[lead].as_ref().expect("lead executed");
                    self.count_answer(&mut ctl, r.degraded);
                    (r.degraded, r.reason, r.body.clone())
                }
                Class::Lead(lead) => {
                    // Borrowed, not taken: members settle after their
                    // lead (input order) and still need the reply.
                    let r = replies[i].as_ref().expect("lead executed");
                    ctl.dispatched += 1;
                    self.settle(&mut ctl, req.submitted_us, &lead, r);
                    // Cache only clean primary bodies, and only if the
                    // epoch this batch resolved under is still current —
                    // a refit mid-batch cleared the cache and bumped the
                    // epoch, and a stale insert would just waste a slot
                    // (epoch validation would refuse to serve it).
                    if let Lead::Primary(key) = lead {
                        if !r.panicked && ctl.model_epoch == pinned.epoch {
                            let evicted = ctl.cache.insert(key, pinned.epoch, r.body.clone());
                            self.obs.inc("serve.cache.insert");
                            if evicted {
                                self.obs.inc("serve.cache.evict");
                            }
                        }
                    }
                    (r.degraded, r.reason, r.body.clone())
                }
            };
            let latency_us = done_us - req.submitted_us;
            self.observe_latency(state, latency_us, n_admitted);
            out.push(Ok(Answer {
                id: req.id,
                degraded,
                reason,
                state,
                latency_us,
                body,
            }));
        }
    }

    /// Deterministic admission + classification for one batched request
    /// at `req.submitted_us`. Rejections are counted here; admitted
    /// requests draw their faults (admission order = stream order,
    /// batched or not), get classified as cache hit / coalesced member /
    /// lead, and book their class's virtual cost.
    fn admit_classify(
        &self,
        ctl: &mut ShardCtl,
        req: &Request,
        pinned: &Pinned,
        seen: Option<&mut HashMap<ProbeKey, usize>>,
        idx: usize,
    ) -> Disposition {
        let now = req.submitted_us;
        self.advance_state(ctl, now);

        match ctl.state {
            ShardState::Draining => {
                ctl.rejected.draining += 1;
                self.obs.inc("serve.rejected.draining");
                return Disposition::Reject(Rejection::Draining);
            }
            ShardState::Ready => {
                let was = ctl.breaker.state();
                if !ctl.breaker.admit(now) {
                    ctl.rejected.breaker_open += 1;
                    self.obs.inc("serve.rejected.breaker_open");
                    return Disposition::Reject(Rejection::BreakerOpen);
                }
                if was != ctl.breaker.state() {
                    self.obs.inc("serve.breaker.half_open");
                }
            }
            ShardState::Warming | ShardState::Degraded => {}
        }

        // Shed already-expired requests before anything else touches
        // them: no queue slot, no fault draw, no cache probe.
        if now > req.deadline_us {
            ctl.rejected.deadline_expired += 1;
            self.obs.inc("serve.shed.deadline");
            return Disposition::Reject(Rejection::DeadlineExpired);
        }
        // Virtual queue: retire completions, then check capacity.
        while ctl.inflight.front().is_some_and(|&done| done <= now) {
            ctl.inflight.pop_front();
        }
        if ctl.inflight.len() >= self.config.queue_capacity {
            ctl.rejected.overloaded += 1;
            self.obs.inc("serve.shed.overload");
            return Disposition::Reject(Rejection::Overloaded);
        }
        // Proactive shedding: a request that cannot *start* before its
        // deadline is dead on arrival too (whatever its class would
        // have been — classification must not resurrect it, or A/B
        // runs would shed different request sets).
        let start_us = ctl.virtual_done_us.max(now);
        if start_us > req.deadline_us {
            ctl.rejected.deadline_expired += 1;
            self.obs.inc("serve.shed.deadline");
            return Disposition::Reject(Rejection::DeadlineExpired);
        }

        // Admitted: draw request-path faults. Every admitted request
        // draws, whatever its class, so the fault stream — and with it
        // the whole chaos schedule — is identical across batched,
        // unbatched, cached, and uncached runs of the same plan.
        let faults = draw_request_faults(&mut ctl.request_rng, &self.plan.rates);
        if faults.latency_spike {
            ctl.faults.latency_spikes += 1;
            self.obs.inc("serve.fault.latency_spike");
        }
        let state = ctl.state;

        let class = match state {
            ShardState::Warming => Class::Lead(Lead::MarketMode(DegradeReason::Warming)),
            ShardState::Degraded => Class::Lead(Lead::MarketMode(DegradeReason::ShardDegraded)),
            ShardState::Ready => {
                let inject = faults.worker_panic;
                if inject {
                    ctl.faults.worker_panics += 1;
                    self.obs.inc("serve.fault.worker_panic");
                }
                if inject || ctl.poisoned {
                    Class::Lead(Lead::Panic)
                } else {
                    let key = probe::resolve(&pinned.model, &pinned.snapshot, &req.kind);
                    let looked_up = ctl.cache.get(&key, pinned.epoch);
                    if matches!(looked_up, CacheLookup::Stale) {
                        self.obs.inc("serve.cache.invalidated");
                    }
                    match looked_up {
                        CacheLookup::Hit(body) => {
                            ctl.cache_hits += 1;
                            self.obs.inc("serve.cache.hit");
                            Class::Hit(body)
                        }
                        CacheLookup::Miss | CacheLookup::Stale => {
                            self.obs.inc("serve.cache.miss");
                            match seen {
                                Some(seen) => match seen.get(&key) {
                                    Some(&lead) => {
                                        ctl.coalesced += 1;
                                        self.obs.inc("serve.batch.coalesced");
                                        Class::Member(lead)
                                    }
                                    None => {
                                        seen.insert(key.clone(), idx);
                                        Class::Lead(Lead::Primary(key))
                                    }
                                },
                                None => Class::Lead(Lead::Primary(key)),
                            }
                        }
                    }
                }
            }
            ShardState::Draining => unreachable!("rejected above"),
        };

        // Price the request by class and book the virtual completion.
        let base = match &class {
            Class::Hit(_) => self.config.costs.cache_hit_us,
            Class::Member(_) => self.config.costs.coalesced_us,
            Class::Lead(_) => self.config.costs.base(&req.kind),
        };
        let cost = if faults.latency_spike {
            base.saturating_mul(self.config.costs.spike_factor)
        } else {
            base
        };
        let done_us = start_us + cost;
        ctl.virtual_done_us = done_us;
        ctl.inflight.push_back(done_us);
        ctl.busy_us += cost;
        ctl.admitted += 1;
        self.obs.inc("serve.admitted");
        Disposition::Admitted {
            done_us,
            state,
            class,
        }
    }

    /// Counts one answered request (first-class or degraded).
    fn count_answer(&self, ctl: &mut ShardCtl, degraded: bool) {
        if degraded {
            ctl.degraded_answers += 1;
            self.obs.inc("serve.answered.degraded");
        } else {
            ctl.answered += 1;
            self.obs.inc("serve.answered.ok");
        }
    }

    /// Breaker feedback for a primary-path success.
    fn breaker_success(&self, ctl: &mut ShardCtl) {
        let was_half_open = ctl.breaker.state() == BreakerState::HalfOpen;
        ctl.breaker.on_success();
        if was_half_open {
            self.obs.inc("serve.breaker.closed");
        }
    }

    /// Per-state and per-batch-size latency histograms.
    fn observe_latency(&self, state: ShardState, latency_us: u64, batch_size: usize) {
        self.obs.observe(
            match state {
                ShardState::Warming => "serve.latency_us.warming",
                ShardState::Ready => "serve.latency_us.ready",
                ShardState::Degraded => "serve.latency_us.degraded",
                ShardState::Draining => unreachable!("draining admits nothing"),
            },
            latency_us,
        );
        self.obs.observe(
            match batch_size {
                0 | 1 => "serve.batch.latency_us.b1",
                2..=4 => "serve.batch.latency_us.b2_4",
                5..=8 => "serve.batch.latency_us.b5_8",
                _ => "serve.batch.latency_us.b9plus",
            },
            latency_us,
        );
    }

    /// Time-driven state transitions at `now`: scheduled restart, warmup
    /// completion.
    fn advance_state(&self, ctl: &mut ShardCtl, now: u64) {
        if ctl.state == ShardState::Degraded && ctl.restart_at_us.is_some_and(|at| now >= at) {
            ctl.state = ShardState::Warming;
            ctl.warm_until_us = now + self.config.warmup_us;
            ctl.restart_at_us = None;
            ctl.poisoned = false;
            ctl.panics_since_restart = 0;
            ctl.breaker.reset();
            ctl.restarts += 1;
            self.obs.inc("serve.shard.restarted");
        }
        if ctl.state == ShardState::Warming && now >= ctl.warm_until_us {
            ctl.state = ShardState::Ready;
            self.obs.inc("serve.shard.ready");
        }
    }

    /// Post-completion accounting for a lead submitted at `now`: panic
    /// containment, breaker feedback, the Degraded trip.
    fn settle(&self, ctl: &mut ShardCtl, now: u64, lead: &Lead, r: &LeadReply) {
        self.count_answer(ctl, r.degraded);
        if r.panicked {
            ctl.panics_contained += 1;
            self.obs.inc("serve.panics.contained");
        }
        // Breaker + degradation feedback applies to full-service
        // requests only; market-mode service has no primary path.
        if let Lead::MarketMode(_) = lead {
            return;
        }
        if !r.panicked {
            self.breaker_success(ctl);
            return;
        }
        let was_half_open = ctl.breaker.state() == BreakerState::HalfOpen;
        if ctl.breaker.on_failure(now) {
            self.obs.inc("serve.breaker.opened");
            if was_half_open {
                self.obs.inc("serve.breaker.reopened");
            }
        }
        ctl.panics_since_restart += 1;
        if ctl.state == ShardState::Ready && ctl.panics_since_restart >= self.config.panic_threshold
        {
            ctl.state = ShardState::Degraded;
            ctl.restart_at_us = Some(now + self.config.restart_delay_us);
            self.obs.inc("serve.shard.degraded");
        }
    }

    /// Hot refit: swaps the model `Arc` on success. An injected refit
    /// failure (or a poisoned swap) follows the shard's seeded refit
    /// fault stream; either way the shard keeps answering — stale model
    /// beats no model.
    pub fn refit(&self, model: CfModel, _now_us: u64) -> Result<(), RefitError> {
        self.install(&mut self.lock(), None, model)
    }

    /// Incremental hot refit for streaming ingestion: reads the current
    /// `(snapshot, model, epoch)` in one critical section, rolls a clone
    /// of the model forward over one applied delta batch
    /// ([`CfModel::apply_delta`] — byte-identical to a full refit of the
    /// post-batch fleet), and swaps the `(snapshot, model)` pair through
    /// the same fault-checked path as [`Shard::refit`]: same seeded fault
    /// draw, same epoch bump, same cache clear, all in one critical
    /// section. The expensive work happens with no lock held, so
    /// admission keeps serving the old pair meanwhile.
    ///
    /// If another refit swapped the model in the meantime, the swap is
    /// refused with [`RefitError::Superseded`] before any fault draw:
    /// installing a model rolled forward from the replaced one would
    /// silently undo that refit. On an injected refit failure the shard
    /// likewise keeps its old — mutually consistent — `(snapshot, model)`
    /// pair and keeps answering: a stale fleet beats a torn one. The
    /// caller may retry with the same arguments once its next batch
    /// arrives.
    pub fn refit_delta(
        &self,
        snapshot: Arc<NetworkSnapshot>,
        arena: &AttrArena,
        batch: &AppliedBatch,
        _now_us: u64,
    ) -> Result<DeltaFitReport, RefitError> {
        let base = Self::pinned(&self.lock());
        let (model, report) = self.roll_forward(&base, &snapshot, arena, batch);
        self.swap_delta(base.epoch, snapshot, model)?;
        Ok(report)
    }

    /// Rolls a clone of `base.model` forward over one applied batch; no
    /// lock is held.
    fn roll_forward(
        &self,
        base: &Pinned,
        snapshot: &NetworkSnapshot,
        arena: &AttrArena,
        batch: &AppliedBatch,
    ) -> (CfModel, DeltaFitReport) {
        let scope_before = Scope::market(&base.snapshot, self.market);
        let scope_after = Scope::market(snapshot, self.market);
        let mut model = (*base.model).clone();
        let report = model.apply_delta(&DeltaApply {
            snapshot,
            arena,
            scope_before: &scope_before,
            scope_after: &scope_after,
            batch,
            key_cache: None,
        });
        (model, report)
    }

    /// Installs a model rolled forward from the pair at `base_epoch`,
    /// unless a refit has swapped the model since.
    fn swap_delta(
        &self,
        base_epoch: u64,
        snapshot: Arc<NetworkSnapshot>,
        model: CfModel,
    ) -> Result<(), RefitError> {
        let mut ctl = self.lock();
        if ctl.model_epoch != base_epoch {
            ctl.refits_failed += 1;
            self.obs.inc("serve.refit.superseded");
            return Err(RefitError::Superseded);
        }
        self.install(&mut ctl, Some(snapshot), model)
    }

    /// The fault-checked swap shared by every refit path: a model that
    /// does not match the fleet it would serve is refused with no fault
    /// draw; otherwise one seeded refit fault draw, then the model (and,
    /// for delta refits, the snapshot) swap in the same critical section
    /// as the epoch bump and the cache clear — no batch can resolve
    /// probes against the new model over the old fleet (or vice versa),
    /// and no pre-swap cache entry survives into the new epoch.
    fn install(
        &self,
        ctl: &mut ShardCtl,
        snapshot: Option<Arc<NetworkSnapshot>>,
        model: CfModel,
    ) -> Result<(), RefitError> {
        if !model_fits_fleet(snapshot.as_deref().unwrap_or(&ctl.snapshot), &model) {
            ctl.refits_failed += 1;
            self.obs.inc("serve.refit.rejected");
            return Err(RefitError::Incompatible);
        }
        let faults = draw_refit_faults(&mut ctl.refit_rng, &self.plan.rates);
        if faults.refit_failure {
            ctl.refits_failed += 1;
            ctl.faults.refit_failures += 1;
            self.obs.inc("serve.refit.failed");
            return Err(RefitError::Injected);
        }
        if let Some(snapshot) = snapshot {
            ctl.snapshot = snapshot;
        }
        ctl.model = Arc::new(model);
        ctl.model_epoch += 1;
        let dropped = ctl.cache.clear();
        if dropped > 0 {
            self.obs.add("serve.cache.invalidated", dropped as u64);
        }
        ctl.refits_ok += 1;
        self.obs.inc("serve.refit.ok");
        if faults.poisoned {
            ctl.poisoned = true;
            ctl.faults.poisoned_models += 1;
            self.obs.inc("serve.fault.poisoned_model");
        }
        Ok(())
    }

    /// Refit from serialized bytes: a corrupt model file is a typed
    /// error and the stale model keeps serving. Only a successfully
    /// parsed model consumes a refit fault draw, so a deterministic
    /// byte stream keeps the fault stream deterministic.
    pub fn install_model_json(&self, bytes: &[u8], now_us: u64) -> Result<(), RefitError> {
        let model = CfModel::from_json_bytes(bytes).map_err(|e| {
            self.obs.inc("serve.refit.rejected_bytes");
            self.lock().refits_failed += 1;
            RefitError::Load(e)
        })?;
        self.refit(model, now_us)
    }

    /// Enters Draining: all new requests get a typed rejection.
    pub fn drain(&self) {
        let mut ctl = self.lock();
        if ctl.state != ShardState::Draining {
            ctl.state = ShardState::Draining;
            self.obs.inc("serve.shard.draining");
        }
    }

    /// Deterministic stats snapshot (safe between requests).
    pub fn stats(&self) -> ShardStats {
        let ctl = self.lock();
        ShardStats {
            market: self.market.0,
            state: ctl.state,
            admitted: ctl.admitted,
            answered: ctl.answered,
            degraded_answers: ctl.degraded_answers,
            rejected: ctl.rejected,
            panics_contained: ctl.panics_contained,
            faults: ctl.faults,
            breaker: ctl.breaker.stats(),
            refits_ok: ctl.refits_ok,
            refits_failed: ctl.refits_failed,
            model_epoch: ctl.model_epoch,
            dispatched: ctl.dispatched,
            cache_hits: ctl.cache_hits,
            coalesced: ctl.coalesced,
            busy_us: ctl.busy_us,
            restarts: ctl.restarts,
        }
    }
}

/// Whether `model` can serve `snapshot`: one parameter per catalog entry
/// in id order, every dependent attribute inside the schema with the
/// attribute's radix as its layout cardinality, and singular keys reading
/// the carrier side only. Probe resolution indexes and packs on exactly
/// these facts, unchecked, so a model that breaks one never serves.
fn model_fits_fleet(snapshot: &NetworkSnapshot, model: &CfModel) -> bool {
    let schema = &snapshot.schema;
    model.params().len() == snapshot.catalog.len()
        && model
            .params()
            .iter()
            .zip(snapshot.catalog.defs())
            .all(|(pc, def)| {
                let singular = def.kind == ParamKind::Singular;
                pc.param == def.id
                    && pc.codec().cards().len() == pc.dependent.len()
                    && pc
                        .dependent
                        .iter()
                        .zip(pc.codec().cards())
                        .all(|(pa, &card)| {
                            pa.attr.index() < schema.n_attrs()
                                && card == schema.radix(pa.attr)
                                && !(singular && pa.side == Side::Dst)
                        })
            })
}

/// Degradation status a cached body implies: a `KpiHealth(None)` hit is
/// still a degraded answer (the report does not cover the carrier),
/// exactly as its original primary serve was.
fn degrade_from_body(kind: &RequestKind, body: &Body) -> (bool, Option<DegradeReason>) {
    let kpi_missing =
        matches!(kind, RequestKind::Kpi { .. }) && matches!(body, Body::KpiHealth(None));
    (
        kpi_missing,
        kpi_missing.then_some(DegradeReason::KpiUnavailable),
    )
}

/// Executes one lead through the fallback chain. Every stage runs under
/// `catch_unwind`; a stage that panics falls through to the next, and
/// the final market-mode stage is panic-free by construction (and still
/// guarded — an empty answer beats a lost one).
fn serve_job(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    kpi: Option<&KpiReport>,
    kind: &RequestKind,
    lead: &Lead,
) -> LeadReply {
    // Primary path. Injected panics (one-shot or poisoned-model) fire
    // inside the unwind boundary, exactly where a genuine model panic
    // would.
    let primary = match lead {
        Lead::Primary(key) => catch_unwind(AssertUnwindSafe(|| {
            primary_body(snapshot, model, kpi, kind, key.packed())
        })),
        Lead::Panic => catch_unwind(|| -> Body { std::panic::panic_any(InjectedPanic) }),
        Lead::MarketMode(reason) => {
            let body = catch_unwind(AssertUnwindSafe(|| {
                market_mode_body(snapshot, model, kpi, kind)
            }))
            .unwrap_or_else(|_| empty_body(kind));
            return LeadReply {
                body,
                degraded: true,
                reason: Some(*reason),
                panicked: false,
            };
        }
    };
    if let Ok(body) = primary {
        let kpi_missing = matches!(body, Body::KpiHealth(None));
        return LeadReply {
            body,
            degraded: kpi_missing,
            reason: kpi_missing.then_some(DegradeReason::KpiUnavailable),
            panicked: false,
        };
    }

    // Fallback chain: pairwise → singular → market mode.
    let secondary = match kind {
        RequestKind::Pairwise { new_carrier, .. } => catch_unwind(AssertUnwindSafe(|| {
            Body::Recommendations(recommend_singular(snapshot, model, new_carrier).into())
        }))
        .ok(),
        _ => None,
    };
    let body = secondary.unwrap_or_else(|| {
        catch_unwind(AssertUnwindSafe(|| {
            market_mode_body(snapshot, model, kpi, kind)
        }))
        .unwrap_or_else(|_| empty_body(kind))
    });
    LeadReply {
        body,
        degraded: true,
        reason: Some(DegradeReason::PanicFallback),
        panicked: true,
    }
}

/// Full-service answer for one request kind. `keys` are the packed vote
/// keys of the request's probe ([`ProbeKey::packed`]): cold-start and
/// pair-wise recommendations vote with them instead of packing again.
fn primary_body(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    kpi: Option<&KpiReport>,
    kind: &RequestKind,
    keys: &[u128],
) -> Body {
    match kind {
        RequestKind::ColdStart(nc) => {
            Body::Recommendations(recommend_singular_keyed(snapshot, model, nc, keys).into())
        }
        RequestKind::Pairwise {
            new_carrier,
            neighbor,
        } => Body::Recommendations(
            recommend_pairwise_keyed(snapshot, model, new_carrier, *neighbor, keys).into(),
        ),
        RequestKind::Singular { carrier } => Body::Recommendations(
            snapshot
                .catalog
                .defs()
                .iter()
                .filter(|def| def.kind == ParamKind::Singular)
                .map(|def| {
                    let r = model.recommend_local_singular(snapshot, def.id, *carrier, false);
                    bare_recommendation(def, r)
                })
                .collect(),
        ),
        RequestKind::Kpi { carrier } => {
            Body::KpiHealth(kpi.and_then(|rep| rep.kpi(*carrier)).map(|k| k.health()))
        }
    }
}

/// A recommendation with no explanation material (no dependent-attribute
/// match to report).
fn bare_recommendation(def: &ParamDef, r: Recommendation) -> ConfigRecommendation {
    ConfigRecommendation {
        param: def.id,
        value: r.value,
        concrete: def.range.value(r.value),
        basis: r.basis,
        support: r.support,
        voters: r.voters,
        matched_on: Vec::new(),
    }
}

/// The degraded last-resort answer: per-parameter market mode (scope
/// plurality, else catalog default) — no probe keys, no neighborhood
/// scans, nothing that can panic.
fn market_mode_body(
    snapshot: &NetworkSnapshot,
    model: &CfModel,
    kpi: Option<&KpiReport>,
    kind: &RequestKind,
) -> Body {
    let wanted = match kind {
        RequestKind::ColdStart(_) | RequestKind::Singular { .. } => ParamKind::Singular,
        RequestKind::Pairwise { .. } => ParamKind::Pairwise,
        RequestKind::Kpi { carrier } => {
            // KPI queries degrade to the same cached lookup; the cache
            // never panics.
            return Body::KpiHealth(kpi.and_then(|rep| rep.kpi(*carrier)).map(|k| k.health()));
        }
    };
    Body::Recommendations(
        snapshot
            .catalog
            .defs()
            .iter()
            .filter(|def| def.kind == wanted)
            .map(|def| bare_recommendation(def, model.market_mode(def.id)))
            .collect(),
    )
}

/// The absolute floor: an explicitly empty answer (only reachable if
/// even market mode panicked, which would itself be a bug — but a lost
/// reply would violate exactly-once terminal outcomes).
fn empty_body(kind: &RequestKind) -> Body {
    match kind {
        RequestKind::Kpi { .. } => Body::KpiHealth(None),
        _ => Body::Recommendations(Arc::new([])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_core::CfConfig;
    use auric_model::{apply_fleet_deltas, empty_snapshot};
    use auric_netgen::{stream, NetScale, TuningKnobs};
    use rand::RngCore;

    /// A delta refit reads its base, rolls forward with no lock held,
    /// then swaps. A plain refit that lands in between must survive: the
    /// swap is refused (typed error + counter) before the fault draw.
    #[test]
    fn delta_refit_overtaken_by_a_refit_is_refused_and_the_refit_survives() {
        let scale = NetScale::tiny();
        let mut s = stream(&scale, &TuningKnobs::default());
        let mut cur = empty_snapshot(s.schema().clone(), s.catalog().clone());
        for _ in 0..scale.n_markets {
            let b = s.next_batch().expect("market batch");
            apply_fleet_deltas(&mut cur, &b).expect("consistent batch");
        }
        let market = cur.markets[0].id;
        let fit = |snap: &NetworkSnapshot| {
            CfModel::fit(snap, &Scope::market(snap, market), CfConfig::default())
        };
        let pre = Arc::new(cur.clone());
        let obs = Recorder::deterministic();
        let shard = Shard::new(
            market,
            Arc::clone(&pre),
            fit(&cur),
            Arc::new(None),
            ShardFaultPlan::none(3),
            ShardConfig::default(),
            obs.clone(),
        );

        let mut arena = AttrArena::from_snapshot(&cur);
        let batch = s.next_batch().expect("retune batch");
        let digest = apply_fleet_deltas(&mut cur, &batch).expect("consistent batch");
        arena.append(&cur);
        let post = Arc::new(cur.clone());
        let base = Shard::pinned(&shard.lock());
        let (rolled, _) = shard.roll_forward(&base, &post, &arena, &digest);

        // A plain refit lands between the base read and the swap.
        shard.refit(fit(&pre), 0).expect("faultless refit");
        let survivor = shard.model();
        let mut draws_before = shard.lock().refit_rng.clone();

        assert_eq!(
            shard.swap_delta(base.epoch, Arc::clone(&post), rolled),
            Err(RefitError::Superseded)
        );
        assert!(
            Arc::ptr_eq(&shard.model(), &survivor),
            "the refit's model survives"
        );
        assert!(
            Arc::ptr_eq(&shard.snapshot(), &pre),
            "no fleet swap without its model"
        );
        let stats = shard.stats();
        assert_eq!(stats.model_epoch, 1);
        assert_eq!((stats.refits_ok, stats.refits_failed), (1, 1));
        assert_eq!(obs.counter("serve.refit.superseded"), 1);
        assert_eq!(
            shard.lock().refit_rng.clone().next_u64(),
            draws_before.next_u64(),
            "a refused swap consumes no refit fault draw"
        );

        // Rolled forward from the current pair, the same batch lands.
        shard
            .refit_delta(Arc::clone(&post), &arena, &digest, 0)
            .expect("faultless delta refit");
        assert!(Arc::ptr_eq(&shard.snapshot(), &post));
        assert_eq!(
            serde_json::to_string(&*shard.model()).unwrap(),
            serde_json::to_string(&fit(&post)).unwrap()
        );
    }
}
