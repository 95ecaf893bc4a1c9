//! Chaos-facing integration tests for the serving layer: the shard
//! state machine, deadline shedding, load shedding, breaker cycling,
//! panic containment, refit fault handling, determinism, and the
//! exactly-once terminal-outcome invariants.

use std::sync::Arc;

use auric_core::recommend::NewCarrier;
use auric_core::{CfConfig, CfModel, PredictorAttr, Scope, Side};
use auric_model::{AttrId, CarrierId, MarketId, NetworkSnapshot, ParamId, ParamKind, ValueIdx};
use auric_netgen::{generate, NetScale, TuningKnobs};
use auric_obs::Recorder;
use auric_serve::{
    Answer, Body, BreakerConfig, DegradeReason, RefitError, Rejection, Request, RequestKind,
    Service, ServiceConfig, ShardFaultPlan, ShardFaultRates, ShardState,
};

fn snapshot() -> Arc<NetworkSnapshot> {
    Arc::new(generate(&NetScale::tiny(), &TuningKnobs::none()).snapshot)
}

fn fit_market(snap: &NetworkSnapshot, m: MarketId) -> CfModel {
    CfModel::fit(snap, &Scope::market(snap, m), CfConfig::default())
}

fn fitted(snap: &NetworkSnapshot) -> Vec<(MarketId, CfModel)> {
    snap.markets
        .iter()
        .map(|m| (m.id, fit_market(snap, m.id)))
        .collect()
}

/// A config whose shards are Ready from t=0 (no warmup) unless a test
/// wants otherwise.
fn ready_config() -> ServiceConfig {
    let mut c = ServiceConfig::default();
    c.shard.warmup_us = 0;
    c
}

fn service(snap: &Arc<NetworkSnapshot>, plan: ShardFaultPlan, config: ServiceConfig) -> Service {
    Service::new(
        Arc::clone(snap),
        fitted(snap),
        plan,
        config,
        Recorder::disabled(),
    )
}

fn clone_of(snap: &NetworkSnapshot, c: CarrierId) -> NewCarrier {
    NewCarrier {
        attrs: snap.carrier(c).attrs.clone(),
        neighbors: snap.x2.neighbors(c).to_vec(),
    }
}

fn singular(id: u64, market: MarketId, carrier: CarrierId, t: u64, deadline: u64) -> Request {
    Request {
        id,
        market,
        submitted_us: t,
        deadline_us: deadline,
        kind: RequestKind::Singular { carrier },
    }
}

#[test]
fn warming_serves_degraded_market_mode_then_ready_serves_first_class() {
    let snap = snapshot();
    let svc = service(&snap, ShardFaultPlan::none(1), ServiceConfig::default());
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    // Default warmup is 20ms of simulated time: t=0 is Warming.
    let a = svc.call(&singular(1, m, c, 0, u64::MAX)).expect("answered");
    assert!(a.degraded, "warming answers are degraded, not errors");
    assert_eq!(a.reason, Some(DegradeReason::Warming));
    assert_eq!(a.state, ShardState::Warming);
    let Body::Recommendations(recs) = &a.body else {
        panic!("expected recommendations");
    };
    assert!(!recs.is_empty(), "market mode still answers every param");

    let a = svc
        .call(&singular(2, m, c, 30_000, u64::MAX))
        .expect("answered");
    assert!(!a.degraded, "past warmup the shard serves first-class");
    assert_eq!(a.state, ShardState::Ready);
    assert!(svc.invariant_violations(&[(m, 2)]).is_empty());
}

#[test]
fn expired_requests_are_shed_before_any_shard_work() {
    let snap = snapshot();
    let svc = service(&snap, ShardFaultPlan::none(2), ready_config());
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    // Fill the virtual worker: one admitted request finishing at t=150.
    assert!(svc.call(&singular(1, m, c, 0, u64::MAX)).is_ok());
    // Cannot start before its deadline (worker busy until 150 > 100).
    assert_eq!(
        svc.call(&singular(2, m, c, 0, 100)),
        Err(Rejection::DeadlineExpired)
    );
    // Already expired on arrival.
    assert_eq!(
        svc.call(&singular(3, m, c, 200, 100)),
        Err(Rejection::DeadlineExpired)
    );

    let stats = svc.stats();
    let shard = stats.shards.iter().find(|s| s.market == m.0).unwrap();
    assert_eq!(shard.admitted, 1);
    assert_eq!(shard.rejected.deadline_expired, 2);
    assert_eq!(
        shard.dispatched, 1,
        "shed requests must never reach the worker"
    );
    assert!(svc.invariant_violations(&[(m, 3)]).is_empty());
}

#[test]
fn bounded_queue_rejects_overload_with_typed_backpressure() {
    let snap = snapshot();
    let mut config = ready_config();
    config.shard.queue_capacity = 2;
    let svc = service(&snap, ShardFaultPlan::none(3), config);
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    let mut outcomes = Vec::new();
    for id in 0..5 {
        outcomes.push(svc.call(&singular(id, m, c, 0, u64::MAX)));
    }
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok());
    for o in &outcomes[2..] {
        assert_eq!(*o, Err(Rejection::Overloaded).map(|_: ()| unreachable!()));
    }
    let stats = svc.stats();
    let shard = stats.shards.iter().find(|s| s.market == m.0).unwrap();
    assert_eq!(shard.rejected.overloaded, 3);
    // Once the queue drains in virtual time, admission resumes.
    assert!(svc.call(&singular(9, m, c, 10_000, u64::MAX)).is_ok());
    assert!(svc.invariant_violations(&[(m, 6)]).is_empty());
}

#[test]
fn injected_panics_are_contained_and_the_fallback_chain_answers() {
    let snap = snapshot();
    let plan = ShardFaultPlan {
        seed: 4,
        rates: ShardFaultRates {
            worker_panic: 1.0,
            ..ShardFaultRates::none()
        },
    };
    let svc = service(&snap, plan, ready_config());
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];
    let nc = clone_of(&snap, c);

    // Every primary path panics; every answer must still arrive,
    // degraded, with the panic-fallback reason and a non-empty body.
    for (id, kind) in [
        RequestKind::ColdStart(nc.clone()),
        RequestKind::Pairwise {
            new_carrier: nc.clone(),
            neighbor: nc.neighbors[0],
        },
        RequestKind::Singular { carrier: c },
    ]
    .into_iter()
    .enumerate()
    {
        let a = svc
            .call(&Request {
                id: id as u64,
                market: m,
                submitted_us: id as u64 * 10,
                deadline_us: u64::MAX,
                kind,
            })
            .expect("panic must degrade the answer, not lose it");
        assert!(a.degraded);
        assert_eq!(a.reason, Some(DegradeReason::PanicFallback));
        let Body::Recommendations(recs) = &a.body else {
            panic!("expected recommendations");
        };
        assert!(!recs.is_empty());
    }
    let stats = svc.stats();
    let shard = stats.shards.iter().find(|s| s.market == m.0).unwrap();
    assert_eq!(shard.panics_contained, 3);
    assert_eq!(shard.faults.worker_panics, 3);
    assert_eq!(
        shard.breaker.opened, 1,
        "three consecutive failures open the breaker"
    );
    assert!(svc.invariant_violations(&[(m, 3)]).is_empty());
}

#[test]
fn poisoned_refit_walks_breaker_then_degraded_then_restart() {
    let snap = snapshot();
    let plan = ShardFaultPlan {
        seed: 5,
        rates: ShardFaultRates {
            poisoned_shard: 1.0,
            ..ShardFaultRates::none()
        },
    };
    let mut config = ready_config();
    config.shard.breaker = BreakerConfig {
        trip_after: 3,
        cooldown_us: 50_000,
        jitter_us: 10_000,
    };
    config.shard.panic_threshold = 5;
    config.shard.restart_delay_us = 100_000;
    let svc = service(&snap, plan, config);
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    // A refit that swaps in a poisoned model: every primary call panics.
    svc.refit(m, fit_market(&snap, m), 0)
        .expect("swap succeeds");

    let mut submitted = 0u64;
    let mut t = 1_000;
    let mut id = 0;
    let mut outcomes: Vec<Result<ShardState, Rejection>> = Vec::new();
    // March simulated time forward; ~1 request per ms for 400ms covers
    // trip → cooldown → probe → re-trip → degrade → restart.
    while t < 400_000 {
        let r = svc.call(&singular(id, m, c, t, u64::MAX));
        outcomes.push(r.map(|a| a.state));
        submitted += 1;
        id += 1;
        t += 1_000;
    }
    let stats = svc.stats();
    let shard = stats.shards.iter().find(|s| s.market == m.0).unwrap();
    assert!(
        shard.breaker.opened >= 2,
        "breaker must open and re-open from failed probes (opened={})",
        shard.breaker.opened
    );
    assert!(
        shard.rejected.breaker_open > 0,
        "open breaker must reject instead of hammering a panicking model"
    );
    assert_eq!(
        shard.panics_contained, 5,
        "degradation trips at the panic threshold"
    );
    assert_eq!(shard.restarts, 1, "degraded shard restarts on schedule");
    assert_eq!(shard.faults.poisoned_models, 1);
    assert!(
        outcomes.contains(&Ok(ShardState::Degraded)),
        "degraded shard still answers (market mode)"
    );
    assert_eq!(
        *outcomes.last().unwrap(),
        Ok(ShardState::Ready),
        "restart clears the poison and returns to full service"
    );
    assert!(svc.invariant_violations(&[(m, submitted)]).is_empty());
}

#[test]
fn injected_refit_failure_keeps_the_stale_model_serving() {
    let snap = snapshot();
    let plan = ShardFaultPlan {
        seed: 6,
        rates: ShardFaultRates {
            refit_failure: 1.0,
            ..ShardFaultRates::none()
        },
    };
    let svc = service(&snap, plan, ready_config());
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    let before = svc.model(m).expect("shard exists");
    assert_eq!(
        svc.refit(m, fit_market(&snap, m), 0),
        Err(RefitError::Injected)
    );
    let after = svc.model(m).expect("shard exists");
    assert!(
        Arc::ptr_eq(&before, &after),
        "failed refit must not swap the model"
    );
    // And the stale model keeps serving first-class answers.
    let a = svc.call(&singular(1, m, c, 10, u64::MAX)).unwrap();
    assert!(!a.degraded);
    let stats = svc.stats();
    let shard = stats.shards.iter().find(|s| s.market == m.0).unwrap();
    assert_eq!(shard.refits_failed, 1);
    assert_eq!(shard.model_epoch, 0);
}

#[test]
fn corrupt_model_bytes_are_a_typed_error_and_stale_model_survives() {
    let snap = snapshot();
    let svc = service(&snap, ShardFaultPlan::none(7), ready_config());
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    let before = svc.model(m).expect("shard exists");
    let err = svc
        .install_model_json(m, b"{ not a model }", 0)
        .expect_err("corrupt bytes must fail typed");
    assert!(matches!(err, RefitError::Load(_)), "got {err:?}");
    assert!(Arc::ptr_eq(&before, &svc.model(m).unwrap()));
    assert!(!svc.call(&singular(1, m, c, 10, u64::MAX)).unwrap().degraded);

    // Unknown markets are typed too, at every entry point.
    let ghost = MarketId(9_999);
    assert_eq!(
        svc.install_model_json(ghost, b"{}", 0),
        Err(RefitError::UnknownMarket)
    );
    assert_eq!(
        svc.call(&singular(2, ghost, c, 20, u64::MAX)),
        Err(Rejection::UnknownMarket)
    );
    assert_eq!(svc.stats().unknown_market, 1);
}

/// Mutable access to a JSON object's field (the vendored `Value` has no
/// `IndexMut`).
fn field_mut<'a>(v: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
    let serde_json::Value::Map(entries) = v else {
        panic!("not a JSON object")
    };
    &mut entries
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no field {key}"))
        .1
}

/// Models that parse but do not match the shard's fleet are refused at
/// the swap: serving resolves probes without checks, so such a model must
/// never become current.
#[test]
fn incompatible_models_are_refused_at_the_swap_and_stale_model_survives() {
    let snap = snapshot();
    let obs = Recorder::deterministic();
    let svc = Service::new(
        Arc::clone(&snap),
        fitted(&snap),
        ShardFaultPlan::none(8),
        ready_config(),
        obs.clone(),
    );
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];
    let model = fit_market(&snap, m);
    let wire: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&model).unwrap()).unwrap();
    let p = snap
        .catalog
        .singular_ids()
        .find(|&p| !model.param(p).dependent.is_empty())
        .expect("a singular parameter with dependent attributes")
        .index();
    let attr = model.param(ParamId(p as u16)).dependent[0].attr;
    let first_dependent = |params: &mut Vec<serde_json::Value>, pa: PredictorAttr| {
        let serde_json::Value::Seq(dependent) = field_mut(&mut params[p], "dependent") else {
            panic!("dependent array")
        };
        dependent[0] = serde::to_value(&pa);
    };
    // Each edit of the wire `params` array breaks one condition probe
    // resolution relies on.
    type Edit<'a> = &'a dyn Fn(&mut Vec<serde_json::Value>);
    let edits: [Edit; 4] = [
        // One parameter per catalog entry.
        &|params| {
            params.pop();
        },
        // Layout cardinalities equal the schema radices.
        &|params| {
            let serde_json::Value::Seq(cards) = field_mut(&mut params[p], "cards") else {
                panic!("cards array")
            };
            cards[0] = serde_json::Value::UInt(u64::from(snap.schema.radix(attr)) + 1);
        },
        // Singular keys read the carrier side only.
        &|params| {
            let side = Side::Dst;
            first_dependent(params, PredictorAttr { side, attr });
        },
        // Dependent attributes lie inside the schema.
        &|params| {
            let attr = AttrId(snap.schema.n_attrs() as u8);
            first_dependent(
                params,
                PredictorAttr {
                    side: Side::Src,
                    attr,
                },
            );
        },
    ];
    let before = svc.model(m).expect("shard exists");
    for (i, edit) in edits.iter().enumerate() {
        let mut value = wire.clone();
        let serde_json::Value::Seq(params) = field_mut(&mut value, "params") else {
            panic!("params array")
        };
        edit(params);
        let bytes = serde_json::to_string(&value).unwrap();
        assert_eq!(
            svc.install_model_json(m, bytes.as_bytes(), 0),
            Err(RefitError::Incompatible),
            "edit {i}"
        );
        assert!(Arc::ptr_eq(&before, &svc.model(m).unwrap()), "edit {i}");
        assert_eq!(obs.counter("serve.refit.rejected"), i as u64 + 1);
    }
    let stats = svc.stats();
    let shard = stats.shards.iter().find(|s| s.market == m.0).unwrap();
    assert_eq!((shard.refits_failed, shard.model_epoch), (4, 0));
    assert!(!svc.call(&singular(1, m, c, 10, u64::MAX)).unwrap().degraded);
}

#[test]
fn draining_rejects_new_work_other_shards_unaffected() {
    let snap = snapshot();
    let svc = service(&snap, ShardFaultPlan::none(8), ready_config());
    assert!(snap.markets.len() >= 2, "tiny scale has multiple markets");
    let m0 = snap.markets[0].id;
    let m1 = snap.markets[1].id;
    let c0 = snap.carriers_in_market(m0)[0];
    let c1 = snap.carriers_in_market(m1)[0];

    assert!(svc.drain(m0));
    assert_eq!(
        svc.call(&singular(1, m0, c0, 0, u64::MAX)),
        Err(Rejection::Draining)
    );
    assert!(svc.call(&singular(2, m1, c1, 0, u64::MAX)).is_ok());
    assert!(!svc.drain(MarketId(9_999)));
}

#[test]
fn kpi_queries_serve_from_the_cached_report() {
    let snap = snapshot();
    let svc = service(&snap, ShardFaultPlan::none(9), ready_config());
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    let a = svc
        .call(&Request {
            id: 1,
            market: m,
            submitted_us: 0,
            deadline_us: u64::MAX,
            kind: RequestKind::Kpi { carrier: c },
        })
        .unwrap();
    let Body::KpiHealth(health) = a.body else {
        panic!("expected KPI health");
    };
    let h = health.expect("simulated report covers every carrier");
    assert!((0.0..=1.0).contains(&h), "health {h} out of range");
    assert!(!a.degraded);
}

/// Two same-seed services fed the same mixed chaos schedule must agree
/// exactly — outcome by outcome and stat by stat.
#[test]
fn same_seed_chaos_runs_are_deterministic() {
    let snap = snapshot();
    let run = || {
        let svc = service(&snap, ShardFaultPlan::uniform(42, 0.2), ready_config());
        let mut log: Vec<String> = Vec::new();
        let mut submitted: Vec<(MarketId, u64)> =
            snap.markets.iter().map(|m| (m.id, 0u64)).collect();
        let mut id = 0u64;
        for step in 0..300u64 {
            let mi = (step % snap.markets.len() as u64) as usize;
            let m = snap.markets[mi].id;
            let carriers = snap.carriers_in_market(m);
            let c = carriers[(step as usize / snap.markets.len()) % carriers.len()];
            let t = step * 120;
            let kind = match step % 4 {
                0 => RequestKind::Singular { carrier: c },
                1 => RequestKind::Kpi { carrier: c },
                2 => RequestKind::ColdStart(clone_of(&snap, c)),
                _ => {
                    let nc = clone_of(&snap, c);
                    let neighbor = nc.neighbors[0];
                    RequestKind::Pairwise {
                        new_carrier: nc,
                        neighbor,
                    }
                }
            };
            if step % 97 == 0 {
                let _ = svc.refit(m, fit_market(&snap, m), t);
            }
            let outcome = svc.call(&Request {
                id,
                market: m,
                submitted_us: t,
                deadline_us: t + 2_000,
                kind,
            });
            submitted[mi].1 += 1;
            id += 1;
            log.push(match outcome {
                Ok(a) => format!(
                    "{} ok state={} degraded={} reason={:?} latency={}",
                    a.id,
                    a.state.label(),
                    a.degraded,
                    a.reason.map(|r| r.label()),
                    a.latency_us
                ),
                Err(r) => format!("{id} rej {}", r.label()),
            });
        }
        let violations = svc.invariant_violations(&submitted);
        assert!(violations.is_empty(), "violations: {violations:?}");
        let stats = serde_json::to_string(&svc.stats()).expect("stats serialize");
        (log, stats)
    };
    let (log_a, stats_a) = run();
    let (log_b, stats_b) = run();
    assert_eq!(log_a, log_b, "per-request outcomes must be reproducible");
    assert_eq!(stats_a, stats_b, "chaos report must be reproducible");
}

/// What the primary singular path would answer for `c` under `model` —
/// the ground truth the cache/coalescing tests compare served bodies
/// against.
fn singular_values(snap: &NetworkSnapshot, model: &CfModel, c: CarrierId) -> Vec<ValueIdx> {
    snap.catalog
        .defs()
        .iter()
        .filter(|d| d.kind == ParamKind::Singular)
        .map(|d| model.recommend_local_singular(snap, d.id, c, false).value)
        .collect()
}

fn body_values(body: &Body) -> Vec<ValueIdx> {
    let Body::Recommendations(recs) = body else {
        panic!("expected recommendations");
    };
    recs.iter().map(|r| r.value).collect()
}

/// N identical concurrent requests in one batch: exactly one model
/// lookup (the lead), N identical typed answers. A second identical
/// batch is served entirely from the response cache — still one lookup
/// lifetime-total.
#[test]
fn identical_batch_coalesces_to_one_lookup_with_identical_answers() {
    let snap = snapshot();
    let svc = service(&snap, ShardFaultPlan::none(21), ready_config());
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    let reqs: Vec<Request> = (0..5).map(|id| singular(id, m, c, 0, u64::MAX)).collect();
    let answers: Vec<Answer> = svc
        .call_batch(&reqs)
        .into_iter()
        .map(|r| r.expect("faultless plan answers everything"))
        .collect();
    assert_eq!(answers.len(), 5);
    for a in &answers {
        assert!(!a.degraded);
        assert_eq!(a.body, answers[0].body, "fanned-out answers must agree");
        assert_eq!(
            body_values(&a.body),
            singular_values(&snap, &svc.model(m).unwrap(), c)
        );
    }
    let shard = svc.stats().shards[0];
    assert_eq!(shard.dispatched, 1, "one lead, one model lookup");
    assert_eq!(shard.coalesced, 4, "the other four rode along");
    assert_eq!(shard.cache_hits, 0, "cold cache: nothing to hit yet");

    // Same batch again: the lead's body is cached now.
    let reqs: Vec<Request> = (5..10)
        .map(|id| singular(id, m, c, 1_000, u64::MAX))
        .collect();
    for r in svc.call_batch(&reqs) {
        let a = r.expect("answered");
        assert_eq!(a.body, answers[0].body);
        assert!(
            a.latency_us < 150,
            "cache hits are priced below a model lookup (got {})",
            a.latency_us
        );
    }
    let shard = svc.stats().shards[0];
    assert_eq!(shard.dispatched, 1, "cache absorbed the whole second batch");
    assert_eq!(shard.cache_hits, 5);
    assert!(svc.invariant_violations(&[(m, 10)]).is_empty());
}

/// Mixed-market batches route per consecutive run and keep input order;
/// unknown markets get typed rejections inline.
#[test]
fn service_batch_routes_per_market_and_keeps_order() {
    let snap = snapshot();
    let svc = service(&snap, ShardFaultPlan::none(22), ready_config());
    let m0 = snap.markets[0].id;
    let m1 = snap.markets[1].id;
    let c0 = snap.carriers_in_market(m0)[0];
    let c1 = snap.carriers_in_market(m1)[0];
    let ghost = MarketId(9_999);

    let reqs = vec![
        singular(0, m0, c0, 0, u64::MAX),
        singular(1, m0, c0, 0, u64::MAX),
        singular(2, ghost, c0, 0, u64::MAX),
        singular(3, m1, c1, 0, u64::MAX),
    ];
    let outcomes = svc.call_batch(&reqs);
    assert_eq!(outcomes.len(), 4);
    assert_eq!(outcomes[0].as_ref().unwrap().id, 0);
    assert_eq!(outcomes[1].as_ref().unwrap().id, 1);
    assert_eq!(outcomes[2], Err(Rejection::UnknownMarket));
    assert_eq!(outcomes[3].as_ref().unwrap().id, 3);
    assert!(svc.invariant_violations(&[(m0, 2), (m1, 1)]).is_empty());
}

/// The acceptance-criteria test: hammer one hot probe across
/// alternating refits between two models with *provably different*
/// answers. Every served body must match the model of the current
/// epoch — a single stale-epoch cache serve would produce the previous
/// model's body and fail the comparison.
#[test]
fn cache_never_serves_a_stale_epoch_answer_across_refits() {
    let snap = snapshot();
    let m = snap.markets[0].id;
    let fit_a = || fit_market(&snap, m);
    let fit_b = || CfModel::fit(&snap, &Scope::whole(&snap), CfConfig::default());
    let (ma, mb) = (fit_a(), fit_b());
    // A carrier the two models disagree on — the discriminator that
    // makes stale serving observable.
    let c = snap
        .carriers_in_market(m)
        .iter()
        .copied()
        .find(|&c| singular_values(&snap, &ma, c) != singular_values(&snap, &mb, c))
        .expect("market-scope and whole-scope models must disagree somewhere");

    let svc = Service::new(
        Arc::clone(&snap),
        vec![(m, fit_a())],
        ShardFaultPlan::none(23),
        ready_config(),
        Recorder::disabled(),
    );
    let mut t = 0u64;
    let mut id = 0u64;
    let mut submitted = 0u64;
    for round in 0..8u64 {
        // Rounds 0, 2, .. serve model A; a successful refit flips to
        // the other model (and must invalidate every cached body).
        let expected = if round % 2 == 0 {
            singular_values(&snap, &ma, c)
        } else {
            singular_values(&snap, &mb, c)
        };
        for _ in 0..6 {
            let a = svc
                .call(&singular(id, m, c, t, u64::MAX))
                .expect("faultless plan");
            assert_eq!(
                body_values(&a.body),
                expected,
                "round {round} request {id}: answer from a stale model epoch"
            );
            id += 1;
            submitted += 1;
            t += 1_000;
        }
        let next = if round % 2 == 0 { fit_b() } else { fit_a() };
        svc.refit(m, next, t).expect("faultless refit");
    }
    let shard = svc.stats().shards[0];
    assert_eq!(shard.model_epoch, 8);
    assert!(
        shard.cache_hits >= 8 * 4,
        "the hot probe must actually exercise the cache (hits={})",
        shard.cache_hits
    );
    assert!(svc.invariant_violations(&[(m, submitted)]).is_empty());
}

/// Real-threads chaos: caller threads hammer hot probes in batches
/// while the main thread refits every market as fast as it can. Checks
/// the batched exactly-once invariants under genuine concurrency (the
/// deterministic stale-epoch check lives above).
#[test]
fn concurrent_refit_hammering_with_cache_holds_invariants() {
    let snap = snapshot();
    let svc = Arc::new(service(&snap, ShardFaultPlan::none(24), ready_config()));
    let mut handles = Vec::new();
    for m in &snap.markets {
        let svc = Arc::clone(&svc);
        let snap = Arc::clone(&snap);
        let market = m.id;
        handles.push(std::thread::spawn(move || {
            let carriers = snap.carriers_in_market(market);
            let mut submitted = 0u64;
            for batch in 0..60u64 {
                // Hot probes: three carriers cycle, so batches coalesce
                // and the cache hits across batches between refits.
                let reqs: Vec<Request> = (0..4u64)
                    .map(|k| {
                        let c = carriers[(k % 3) as usize % carriers.len()];
                        singular(batch * 4 + k, market, c, batch * 2_000, u64::MAX)
                    })
                    .collect();
                for r in svc.call_batch(&reqs) {
                    assert!(r.is_ok(), "faultless plan, generous deadline: {r:?}");
                    submitted += 1;
                }
            }
            (market, submitted)
        }));
    }
    for round in 0..10u64 {
        for m in &snap.markets {
            svc.refit(m.id, fit_market(&snap, m.id), round * 10_000)
                .expect("faultless refits succeed");
        }
    }
    let submitted: Vec<(MarketId, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("caller thread panicked"))
        .collect();
    let violations = svc.invariant_violations(&submitted);
    assert!(violations.is_empty(), "violations: {violations:?}");
    let stats = svc.stats();
    let hits: u64 = stats.shards.iter().map(|s| s.cache_hits).sum();
    let coalesced: u64 = stats.shards.iter().map(|s| s.coalesced).sum();
    assert!(hits > 0, "hot probes must hit the cache");
    assert!(coalesced > 0, "hot batches must coalesce");
    for shard in stats.shards {
        assert_eq!(shard.model_epoch, 10, "all swaps landed");
    }
}

/// Real-threads smoke test: concurrent callers per market while the
/// main thread hot-swaps models. Not deterministic — it checks the
/// exactly-once and no-lost-answer invariants under genuine concurrency.
#[test]
fn concurrent_callers_survive_hot_refits() {
    let snap = snapshot();
    let svc = Arc::new(service(&snap, ShardFaultPlan::none(10), ready_config()));
    let mut handles = Vec::new();
    for m in &snap.markets {
        let svc = Arc::clone(&svc);
        let snap = Arc::clone(&snap);
        let market = m.id;
        handles.push(std::thread::spawn(move || {
            let carriers = snap.carriers_in_market(market);
            let mut submitted = 0u64;
            for i in 0..200u64 {
                let c = carriers[i as usize % carriers.len()];
                let r = svc.call(&singular(i, market, c, i * 500, u64::MAX));
                assert!(r.is_ok(), "faultless plan, generous deadline: {r:?}");
                submitted += 1;
            }
            (market, submitted)
        }));
    }
    // Hot-swap every market's model while traffic flows.
    for round in 0..3u64 {
        for m in &snap.markets {
            svc.refit(m.id, fit_market(&snap, m.id), round * 1_000)
                .expect("faultless refits succeed");
        }
    }
    let submitted: Vec<(MarketId, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("caller thread panicked"))
        .collect();
    let violations = svc.invariant_violations(&submitted);
    assert!(violations.is_empty(), "violations: {violations:?}");
    for shard in svc.stats().shards {
        assert_eq!(shard.model_epoch, 3, "all swaps landed");
    }
}

/// Streaming ingestion end to end: the service absorbs delta batches via
/// `refit_delta` — every shard's `(snapshot, model)` pair swaps under the
/// epoch/cache invariants — and at every checkpoint each shard's model is
/// byte-identical to a full scoped refit of the post-batch fleet. Probes
/// cached immediately before a delta refit must never serve a stale body
/// after it.
#[test]
fn delta_refits_swap_fleet_and_model_under_cache_invariants() {
    use auric_model::{apply_fleet_deltas, empty_snapshot, AttrArena, FleetDelta};
    use auric_netgen::stream;

    let scale = NetScale::tiny();
    let mut s = stream(&scale, &TuningKnobs::default());
    let mut cur = empty_snapshot(s.schema().clone(), s.catalog().clone());
    // Phase A: build the fleet outright; the service starts from fitted
    // per-market models, as production would.
    for _ in 0..scale.n_markets {
        let b = s.next_batch().expect("market batch");
        apply_fleet_deltas(&mut cur, &b).expect("consistent batch");
    }
    let mut arena = AttrArena::from_snapshot(&cur);
    let svc = Service::new(
        Arc::new(cur.clone()),
        fitted(&cur),
        ShardFaultPlan::none(31),
        ready_config(),
        Recorder::disabled(),
    );
    let markets: Vec<MarketId> = cur.markets.iter().map(|m| m.id).collect();

    // Phase B retune batches, plus a structural tail (carrier removal —
    // pairs leave, every singular table shifts).
    let mut batches: Vec<Vec<FleetDelta>> = Vec::new();
    while let Some(b) = s.next_batch() {
        batches.push(b);
    }
    batches.push(vec![FleetDelta::RemoveCarrier {
        id: CarrierId(cur.n_carriers() as u32 - 1),
    }]);

    let n_batches = batches.len() as u64;
    let mut t = 0u64;
    let mut id = 0u64;
    let mut submitted: Vec<(MarketId, u64)> = markets.iter().map(|&m| (m, 0)).collect();
    let serve = |svc: &Service, m: MarketId, c: CarrierId, t: u64, id: &mut u64| {
        let a = svc
            .call(&singular(*id, m, c, t, u64::MAX))
            .expect("faultless plan");
        *id += 1;
        a
    };
    for (bi, batch) in batches.iter().enumerate() {
        let digest = apply_fleet_deltas(&mut cur, batch).expect("consistent batch");
        arena.append(&cur);
        let post = Arc::new(cur.clone());

        // Prime + hit the cache on one probe per market right before the
        // swap: these bodies are about to go stale.
        for (mi, &m) in markets.iter().enumerate() {
            let c = cur.carriers_in_market(m)[0];
            serve(&svc, m, c, t, &mut id);
            serve(&svc, m, c, t + 1, &mut id);
            submitted[mi].1 += 2;
            t += 1_000;
        }

        for (m, r) in svc.refit_delta(&post, &arena, &digest, t) {
            r.unwrap_or_else(|e| panic!("faultless delta refit for {m:?}: {e:?}"));
        }

        // Post-swap answers come from the new fleet and model.
        for (mi, &m) in markets.iter().enumerate() {
            let c = cur.carriers_in_market(m)[0];
            let a = serve(&svc, m, c, t, &mut id);
            submitted[mi].1 += 1;
            t += 1_000;
            if bi % 9 == 0 || bi as u64 + 1 == n_batches {
                let fresh = fit_market(&cur, m);
                assert_eq!(
                    body_values(&a.body),
                    singular_values(&cur, &fresh, c),
                    "batch {bi}: stale body served after delta refit of {m:?}"
                );
                let swapped = svc.model(m).expect("shard exists");
                assert_eq!(
                    serde_json::to_string(&*swapped).unwrap(),
                    serde_json::to_string(&fresh).unwrap(),
                    "batch {bi}: delta-refitted model diverged from scoped refit of {m:?}"
                );
            }
        }
    }

    for shard in svc.stats().shards {
        assert_eq!(
            shard.model_epoch, n_batches,
            "every delta batch bumped the epoch exactly once"
        );
        assert!(
            shard.cache_hits >= n_batches,
            "pre-swap probe pairs must exercise the cache (hits={})",
            shard.cache_hits
        );
        assert_eq!(shard.refits_ok, n_batches);
        assert_eq!(shard.refits_failed, 0);
    }
    assert!(svc.invariant_violations(&submitted).is_empty());
}

/// Panics are contained on the caller's thread: two callers share one
/// shard under a nonzero injected-panic rate while a third thread
/// refits it. Every call gets exactly one outcome, both callers keep
/// serving after their own contained panics, and the accounting holds.
#[test]
fn contained_panics_leave_concurrent_callers_serving() {
    let snap = snapshot();
    let plan = ShardFaultPlan {
        seed: 41,
        rates: ShardFaultRates {
            worker_panic: 0.2,
            ..ShardFaultRates::none()
        },
    };
    // Keep the shard Ready with a closed breaker so every panic walks
    // the fallback chain instead of tripping into market mode.
    let mut config = ready_config();
    config.shard.panic_threshold = u32::MAX;
    config.shard.breaker.trip_after = u32::MAX;
    let svc = Arc::new(service(&snap, plan, config));
    let m = snap.markets[0].id;
    let clock = Arc::new(std::sync::atomic::AtomicU64::new(0));
    // Both callers and the refitter start together.
    let start = Arc::new(std::sync::Barrier::new(3));
    let callers: Vec<_> = (0..2u64)
        .map(|t| {
            let (svc, snap, clock) = (Arc::clone(&svc), Arc::clone(&snap), Arc::clone(&clock));
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let carriers = snap.carriers_in_market(m);
                let (mut outcomes, mut panicked, mut ok_after_panic) = (0u64, 0u64, 0u64);
                for i in 0..300u64 {
                    let c = carriers[(i as usize * 7 + t as usize) % carriers.len()];
                    let kind = if i % 2 == 0 {
                        RequestKind::Singular { carrier: c }
                    } else {
                        RequestKind::ColdStart(clone_of(&snap, c))
                    };
                    let t_us = clock.fetch_add(1_000, std::sync::atomic::Ordering::SeqCst);
                    let a = svc
                        .call(&Request {
                            id: (t << 32) | i,
                            market: m,
                            submitted_us: t_us,
                            deadline_us: u64::MAX,
                            kind,
                        })
                        .expect("a contained panic degrades the answer, it never rejects");
                    outcomes += 1;
                    if a.reason == Some(DegradeReason::PanicFallback) {
                        panicked += 1;
                    } else if panicked > 0 && !a.degraded {
                        ok_after_panic += 1;
                    }
                }
                (outcomes, panicked, ok_after_panic)
            })
        })
        .collect();
    let refitter = {
        let (svc, snap) = (Arc::clone(&svc), Arc::clone(&snap));
        std::thread::spawn(move || {
            start.wait();
            for round in 0..5u64 {
                svc.refit(m, fit_market(&snap, m), round * 10_000)
                    .expect("faultless refits succeed");
            }
        })
    };
    let mut submitted = 0;
    for h in callers {
        let (outcomes, panicked, ok_after_panic) = h.join().expect("caller thread survives");
        assert_eq!(outcomes, 300, "one outcome per call");
        assert!(panicked > 0, "this caller saw contained panics");
        assert!(
            ok_after_panic > 0,
            "and kept serving first-class answers after them"
        );
        submitted += outcomes;
    }
    refitter.join().expect("refit thread survives");
    let shard = svc.stats().shards[0];
    assert_eq!(
        shard.dispatched + shard.cache_hits + shard.coalesced,
        shard.admitted
    );
    assert_eq!(shard.admitted, submitted);
    assert_eq!(shard.panics_contained, shard.faults.worker_panics);
    assert_eq!(shard.model_epoch, 5);
    assert!(svc.invariant_violations(&[(m, submitted)]).is_empty());
}

fn shared_body(a: &Answer) -> &Arc<[auric_core::ConfigRecommendation]> {
    let Body::Recommendations(recs) = &a.body else {
        panic!("expected recommendations");
    };
    recs
}

/// Fan-out shares the lead's body: coalesced batch-mates and later cache
/// hits return the very same allocation. A refit swap still forces a
/// fresh lookup, so sharing never outlives its epoch.
#[test]
fn fan_out_and_cache_hits_share_the_lead_body() {
    let snap = snapshot();
    let svc = service(&snap, ShardFaultPlan::none(23), ready_config());
    let m = snap.markets[0].id;
    let c = snap.carriers_in_market(m)[0];

    let batch: Vec<Answer> = svc
        .call_batch(
            &(0..3)
                .map(|id| singular(id, m, c, 0, u64::MAX))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(|r| r.expect("answered"))
        .collect();
    let lead = shared_body(&batch[0]);
    for member in &batch[1..] {
        assert!(
            Arc::ptr_eq(lead, shared_body(member)),
            "coalesced member copies"
        );
    }
    let hit = svc
        .call(&singular(3, m, c, 1_000, u64::MAX))
        .expect("answered");
    assert!(Arc::ptr_eq(lead, shared_body(&hit)), "cache hit copies");
    let shard = svc.stats().shards[0];
    assert_eq!(
        (shard.dispatched, shard.coalesced, shard.cache_hits),
        (1, 2, 1)
    );

    svc.refit(m, fit_market(&snap, m), 2_000).expect("refit");
    let after = svc
        .call(&singular(4, m, c, 3_000, u64::MAX))
        .expect("answered");
    assert!(
        !Arc::ptr_eq(lead, shared_body(&after)),
        "a new epoch needs a fresh body"
    );
    assert_eq!(
        svc.stats().shards[0].dispatched,
        2,
        "post-swap request is a miss"
    );
    assert_eq!(shared_body(&after)[..], lead[..], "same model, same answer");
    assert!(svc.invariant_violations(&[(m, 5)]).is_empty());
}
