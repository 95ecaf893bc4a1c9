//! Differential suite for the incremental fit: a model rolled forward
//! with [`CfModel::apply_delta`] must serialize **byte-identically** to a
//! full refit of the post-batch snapshot — same dependency selections,
//! same sorted vote groups, same defaults. The suite drives the streaming
//! generator batch-by-batch (adds, pockets, retunes), layers synthetic
//! removal / edge-add / retune batches on top, at whole-network and
//! per-market scopes, and throws random adversarial batches at a fitted
//! two-market fleet.

use auric_core::{CfConfig, CfModel, DeltaApply, DeltaFitReport, Scope, SharedKeyColumns};
use auric_model::{
    apply_fleet_deltas, empty_snapshot, AppliedBatch, AttrArena, AttrId, CarrierId, DeltaError,
    DeltaSlot, FleetDelta, MarketId, NetworkSnapshot, ParamKind, Provenance,
};
use auric_netgen::{generate, stream, NetScale, TuningKnobs};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

fn json(model: &CfModel) -> String {
    serde_json::to_string(model).expect("model serializes")
}

fn full_fit(snapshot: &NetworkSnapshot, scope: &Scope) -> CfModel {
    CfModel::fit(snapshot, scope, CfConfig::default())
}

/// Applies one event batch and rolls `arena`/`scope` forward, returning
/// the digest and the pre-batch scope.
fn roll_forward(
    snapshot: &mut NetworkSnapshot,
    arena: &mut AttrArena,
    scope: &mut Scope,
    batch: &[FleetDelta],
) -> (AppliedBatch, Scope) {
    let digest = apply_fleet_deltas(snapshot, batch).expect("consistent batch");
    arena.append(snapshot);
    let before = std::mem::replace(scope, Scope::whole(snapshot));
    (digest, before)
}

/// Streams a fleet from the empty snapshot, applying every batch
/// incrementally; compares against a full refit on every batch index
/// where `compare` says so. Returns the final state for follow-on
/// synthetic batches.
fn run_stream_differential(
    scale: NetScale,
    compare: impl Fn(usize, bool) -> bool,
) -> (NetworkSnapshot, AttrArena, Scope, CfModel) {
    // Default knobs so Phase B emits real retune batches (stale trials,
    // live trials, noise) — the pure-retune fast path needs exercise.
    let mut s = stream(&scale, &TuningKnobs::default());
    let mut snapshot = empty_snapshot(s.schema().clone(), s.catalog().clone());
    let mut arena = AttrArena::from_snapshot(&snapshot);
    let mut scope = Scope::whole(&snapshot);
    let mut model = full_fit(&snapshot, &scope);
    let mut i = 0usize;
    let mut saw_untouched_retune_batch = false;
    while let Some(batch) = s.next_batch() {
        let (digest, before) = roll_forward(&mut snapshot, &mut arena, &mut scope, &batch);
        let report = model.apply_delta(&DeltaApply {
            snapshot: &snapshot,
            arena: &arena,
            scope_before: &before,
            scope_after: &scope,
            batch: &digest,
            key_cache: None,
        });
        assert_eq!(
            report.params_patched + report.params_rebuilt + report.params_untouched,
            snapshot.catalog.len(),
            "every parameter is accounted for"
        );
        // A pure-retune batch must leave the parameters it names as the
        // only touched ones — that skip is the whole point of the
        // incremental fit.
        if !digest.structural() && !digest.retunes.is_empty() && report.params_untouched > 0 {
            saw_untouched_retune_batch = true;
        }
        if compare(i, false) {
            assert_eq!(
                json(&model),
                json(&full_fit(&snapshot, &scope)),
                "batch {i}: incremental model diverged from full refit"
            );
        }
        i += 1;
    }
    if compare(i, true) {
        assert_eq!(
            json(&model),
            json(&full_fit(&snapshot, &scope)),
            "final: incremental model diverged from full refit"
        );
    }
    assert!(
        saw_untouched_retune_batch,
        "stream never exercised the untouched-parameter fast path"
    );
    (snapshot, arena, scope, model)
}

#[test]
fn exhaustive_stream_matches_full_refit_on_every_batch() {
    let scale = NetScale {
        n_markets: 1,
        enbs_per_market: 3,
        seed: 11,
    };
    run_stream_differential(scale, |_, _| true);
}

#[test]
fn tiny_stream_strided_matches_full_refit() {
    run_stream_differential(NetScale::tiny(), |i, last| last || i % 7 == 0);
}

/// Picks two same-market carriers with no X2 edge between them.
fn absent_edge(snapshot: &NetworkSnapshot) -> (CarrierId, CarrierId) {
    for a in 0..snapshot.n_carriers() {
        let ca = CarrierId(a as u32);
        for b in (a + 1)..snapshot.n_carriers() {
            let cb = CarrierId(b as u32);
            if snapshot.carrier(ca).market == snapshot.carrier(cb).market
                && !snapshot.x2.neighbors(ca).contains(&cb)
            {
                return (ca, cb);
            }
        }
    }
    panic!("fleet is a clique");
}

#[test]
fn synthetic_retunes_removals_and_edge_adds_match_full_refit() {
    let scale = NetScale {
        n_markets: 2,
        enbs_per_market: 4,
        seed: 23,
    };
    let (mut snapshot, mut arena, mut scope, mut model) =
        run_stream_differential(scale, |_, last| last);

    let catalog = snapshot.catalog.clone();
    let sing: Vec<_> = catalog.singular_ids().collect();
    let pair_params: Vec<_> = catalog.pairwise_ids().collect();
    let why = Provenance::Noise;

    // Batch 1: pure retunes — a singular slot (twice, chaining values),
    // and a pair slot.
    let c0 = CarrierId(0);
    let (pa, pb) = snapshot.x2.pair(0);
    let p_sing = sing[0];
    let p_pair = pair_params[0];
    let v1 = (snapshot.config.value(p_sing, c0) + 1) % catalog.def(p_sing).range.n_values() as u16;
    let v2 = (v1 + 1) % catalog.def(p_sing).range.n_values() as u16;
    let pv =
        (snapshot.config.pair_value(p_pair, 0) + 1) % catalog.def(p_pair).range.n_values() as u16;
    let batches: Vec<Vec<FleetDelta>> = vec![
        vec![
            FleetDelta::Retune {
                param: p_sing,
                slot: DeltaSlot::Carrier(c0),
                value: v1,
                why,
            },
            FleetDelta::Retune {
                param: p_sing,
                slot: DeltaSlot::Carrier(c0),
                value: v2,
                why,
            },
            FleetDelta::Retune {
                param: p_pair,
                slot: DeltaSlot::Pair(pa, pb),
                value: pv,
                why,
            },
        ],
        // Batch 2: a new X2 edge, plus a retune on one of its directed
        // pairs (must fold into the add, not double-count).
        {
            let (ea, eb) = absent_edge(&snapshot);
            let base: Vec<_> = pair_params
                .iter()
                .map(|&p| snapshot.config.pair_value(p, 0))
                .collect();
            vec![
                FleetDelta::AddX2Edge {
                    a: ea,
                    b: eb,
                    base_ab: base.clone(),
                    base_ba: base,
                },
                FleetDelta::Retune {
                    param: p_pair,
                    slot: DeltaSlot::Pair(ea, eb),
                    value: pv,
                    why,
                },
            ]
        },
        // Batch 3: remove the tail carrier (its pairs leave with it).
        vec![FleetDelta::RemoveCarrier {
            id: CarrierId(snapshot.n_carriers() as u32 - 1),
        }],
        // Batch 4: retune-then-remove the (new) tail carrier in one batch
        // — the removal record carries the retuned value, so the swap
        // must land before the subtract.
        {
            let tail = CarrierId(snapshot.n_carriers() as u32 - 2);
            let tv = (snapshot.config.value(p_sing, tail) + 1)
                % catalog.def(p_sing).range.n_values() as u16;
            vec![
                FleetDelta::Retune {
                    param: p_sing,
                    slot: DeltaSlot::Carrier(tail),
                    value: tv,
                    why,
                },
                FleetDelta::RemoveCarrier { id: tail },
            ]
        },
    ];

    for (i, batch) in batches.iter().enumerate() {
        let (digest, before) = roll_forward(&mut snapshot, &mut arena, &mut scope, batch);
        model.apply_delta(&DeltaApply {
            snapshot: &snapshot,
            arena: &arena,
            scope_before: &before,
            scope_after: &scope,
            batch: &digest,
            key_cache: None,
        });
        assert_eq!(
            json(&model),
            json(&full_fit(&snapshot, &scope)),
            "synthetic batch {i}: incremental model diverged from full refit"
        );
    }
}

/// Asserts that `model`'s key columns equal those of `refit`, a full fit
/// over the same scope (the wire JSON leaves columns out).
fn assert_same_columns(model: &CfModel, refit: &CfModel, what: &str) {
    for (a, b) in model.params().iter().zip(refit.params()) {
        assert_eq!(
            (a.carrier_keys(), a.pair_keys()),
            (b.carrier_keys(), b.pair_keys()),
            "{what}, param {:?}: key column differs from the scoped refit",
            a.param
        );
    }
}

/// Picks two carriers of market `m` with no X2 edge between them.
fn absent_edge_in(snapshot: &NetworkSnapshot, m: MarketId) -> (CarrierId, CarrierId) {
    let cs = snapshot.carriers_in_market(m);
    for (i, &a) in cs.iter().enumerate() {
        for &b in &cs[i + 1..] {
            if !snapshot.x2.neighbors(a).contains(&b) {
                return (a, b);
            }
        }
    }
    panic!("market {m:?} is a clique");
}

/// Whether a batch left the targets of a scope's window alone: the window
/// is unchanged and (pairs) the remap sends every pair in it to itself.
fn window_untouched(
    before: std::ops::Range<usize>,
    after: std::ops::Range<usize>,
    remap: Option<&[Option<u32>]>,
) -> bool {
    before == after
        && remap.is_none_or(|map| after.clone().all(|q| map.get(q) == Some(&Some(q as u32))))
}

#[test]
fn per_market_models_with_a_shared_cache_match_scoped_refits() {
    let scale = NetScale::tiny();
    let mut s = stream(&scale, &TuningKnobs::none());
    let mut snapshot = empty_snapshot(s.schema().clone(), s.catalog().clone());

    // Phase A: build the fleet outright — per-market models start from a
    // fitted state, as the serving layer does.
    for _ in 0..scale.n_markets {
        let batch = s.next_batch().expect("market batch");
        apply_fleet_deltas(&mut snapshot, &batch).expect("consistent batch");
    }
    let mut arena = AttrArena::from_snapshot(&snapshot);
    let markets: Vec<MarketId> = (0..scale.n_markets as u16).map(MarketId).collect();
    let mut scopes: Vec<Scope> = markets
        .iter()
        .map(|&m| Scope::market(&snapshot, m))
        .collect();
    let mut models: Vec<CfModel> = scopes.iter().map(|sc| full_fit(&snapshot, sc)).collect();

    // Phase B (retunes), then structural batches, applied to every market
    // model through one shared key-column cache per batch.
    let mut batches: Vec<Vec<FleetDelta>> = Vec::new();
    while let Some(b) = s.next_batch() {
        batches.push(b);
    }
    let n_retune_batches = batches.len();
    let last_market = *markets.last().unwrap();
    let n_structural = 3;

    // Per structural batch: parameters that kept their column.
    let mut kept = vec![0usize; n_structural];
    for i in 0..n_retune_batches + n_structural {
        // Structural batches are built against the current snapshot.
        let structural = i >= n_retune_batches;
        let batch = match i.checked_sub(n_retune_batches) {
            None => batches[i].clone(),
            // Remove the tail carrier (the last market's): that market's
            // windows shrink, market 0's stay put.
            Some(0) => {
                let tail = CarrierId(snapshot.n_carriers() as u32 - 1);
                assert_eq!(snapshot.carrier(tail).market, last_market);
                vec![FleetDelta::RemoveCarrier { id: tail }]
            }
            // Add a carrier to market 0: it takes the next id, so market
            // 0's carrier window widens across every other market.
            Some(1) => {
                let mut carrier = snapshot.carrier(CarrierId(0)).clone();
                carrier.id = CarrierId(snapshot.n_carriers() as u32);
                let base = snapshot
                    .catalog
                    .singular_ids()
                    .map(|p| snapshot.config.value(p, CarrierId(0)))
                    .collect();
                vec![FleetDelta::AddCarrier { carrier, base }]
            }
            // Insert an X2 edge inside market 0: its two directed pairs
            // land inside market 0's pair range and shift every later
            // market's pair window.
            _ => {
                let (a, b) = absent_edge_in(&snapshot, markets[0]);
                let base: Vec<_> = snapshot
                    .catalog
                    .pairwise_ids()
                    .map(|p| snapshot.config.pair_value(p, 0))
                    .collect();
                vec![FleetDelta::AddX2Edge {
                    a,
                    b,
                    base_ab: base.clone(),
                    base_ba: base,
                }]
            }
        };
        let digest = apply_fleet_deltas(&mut snapshot, &batch).expect("consistent batch");
        arena.append(&snapshot);
        let cache = SharedKeyColumns::new();
        for (mi, &m) in markets.iter().enumerate() {
            let after = Scope::market(&snapshot, m);
            let before = std::mem::replace(&mut scopes[mi], after);
            let old = models[mi].clone();
            models[mi].apply_delta(&DeltaApply {
                snapshot: &snapshot,
                arena: &arena,
                scope_before: &before,
                scope_after: &scopes[mi],
                batch: &digest,
                key_cache: Some(cache.clone()),
            });
            // A parameter whose layout survived keeps its physical column
            // when the batch left the targets of its window alone.
            let remap = digest.pair_remap.as_deref();
            let untouched_carriers =
                window_untouched(before.carrier_window(), scopes[mi].carrier_window(), None);
            let untouched_pairs =
                window_untouched(before.pair_window(), scopes[mi].pair_window(), remap);
            for (a, b) in old.params().iter().zip(models[mi].params()) {
                let untouched = match snapshot.catalog.def(a.param).kind {
                    ParamKind::Singular => untouched_carriers,
                    ParamKind::Pairwise => untouched_pairs,
                };
                if untouched && a.dependent == b.dependent {
                    assert!(
                        Arc::ptr_eq(&a.key_column_arc().unwrap(), &b.key_column_arc().unwrap()),
                        "batch {i}, market {mi}, param {:?}: untouched window lost its column",
                        a.param
                    );
                    if structural {
                        kept[i - n_retune_batches] += 1;
                    }
                }
            }
        }
        if i % 9 == 0 || structural {
            for (mi, model) in models.iter().enumerate() {
                let refit = full_fit(&snapshot, &scopes[mi]);
                assert_eq!(
                    json(model),
                    json(&refit),
                    "batch {i}, market {mi}: incremental model diverged from scoped refit"
                );
                assert_same_columns(model, &refit, &format!("batch {i}, market {mi}"));
            }
        }
    }
    // Each structural batch leaves some market's window alone: the
    // removal and the carrier add touch one market's carriers, the edge
    // insert touches no carrier window.
    assert!(
        kept.iter().all(|&k| k > 0),
        "a structural batch kept no column: {kept:?}"
    );

    // Sanity: rolling an *empty* digest forward is a no-op — same
    // tables, same physical columns.
    let digest = AppliedBatch::default();
    for (model, scope) in models.iter().zip(&scopes) {
        let mut m = model.clone();
        let report = m.apply_delta(&DeltaApply {
            snapshot: &snapshot,
            arena: &arena,
            scope_before: scope,
            scope_after: scope,
            batch: &digest,
            key_cache: None,
        });
        assert_eq!(report.params_rebuilt + report.params_patched, 0);
        assert_eq!(json(&m), json(model));
        for (a, b) in m.params().iter().zip(model.params()) {
            assert!(Arc::ptr_eq(
                &a.key_column_arc().unwrap(),
                &b.key_column_arc().unwrap()
            ));
        }
    }
}

#[test]
fn pure_retune_batches_only_touch_named_parameters() {
    let scale = NetScale {
        n_markets: 1,
        enbs_per_market: 3,
        seed: 29,
    };
    let (mut snapshot, mut arena, mut scope, mut model) =
        run_stream_differential(scale, |_, last| last);
    let sing = snapshot.catalog.singular_ids().next().unwrap();
    let card = snapshot.catalog.def(sing).range.n_values() as u16;
    let c0 = CarrierId(0);
    let batch = vec![FleetDelta::Retune {
        param: sing,
        slot: DeltaSlot::Carrier(c0),
        value: (snapshot.config.value(sing, c0) + 1) % card,
        why: Provenance::Noise,
    }];
    let (digest, before) = roll_forward(&mut snapshot, &mut arena, &mut scope, &batch);
    let report = model.apply_delta(&DeltaApply {
        snapshot: &snapshot,
        arena: &arena,
        scope_before: &before,
        scope_after: &scope,
        batch: &digest,
        key_cache: None,
    });
    // Exactly one parameter changed; everything else must ride the
    // untouched fast path (no re-selection, no table churn).
    assert_eq!(report.params_patched + report.params_rebuilt, 1);
    assert_eq!(
        report.params_untouched,
        snapshot.catalog.len() - 1,
        "a single retune must not disturb other parameters"
    );
    assert_eq!(json(&model), json(&full_fit(&snapshot, &scope)));
}

/// A fitted two-market fleet and a model per scope — [`Scope::whole`],
/// then each market's — for the adversarial batches to start from.
struct Fitted {
    snapshot: NetworkSnapshot,
    arena: AttrArena,
    models: Vec<CfModel>,
}

fn scopes(snapshot: &NetworkSnapshot) -> Vec<Scope> {
    std::iter::once(Scope::whole(snapshot))
        .chain(
            snapshot
                .markets
                .iter()
                .map(|m| Scope::market(snapshot, m.id)),
        )
        .collect()
}

fn two_market_fleet() -> &'static Fitted {
    static FITTED: OnceLock<Fitted> = OnceLock::new();
    FITTED.get_or_init(|| {
        let scale = NetScale {
            n_markets: 2,
            enbs_per_market: 4,
            seed: 31,
        };
        let snapshot = generate(&scale, &TuningKnobs::default()).snapshot;
        let tail = CarrierId(snapshot.n_carriers() as u32 - 1);
        assert!(
            !snapshot.x2.neighbors(tail).is_empty(),
            "the tail carrier must have X2 edges for removals to drop pairs"
        );
        let arena = AttrArena::from_snapshot(&snapshot);
        let models = scopes(&snapshot)
            .iter()
            .map(|sc| full_fit(&snapshot, sc))
            .collect();
        Fitted {
            snapshot,
            arena,
            models,
        }
    })
}

/// The fleet as a batch under construction leaves it: carrier count,
/// undirected edges `(lo, hi)`, and whether a removal already happened
/// (after which `apply_fleet_deltas` refuses adds).
struct Sketch {
    n: u32,
    edges: BTreeSet<(CarrierId, CarrierId)>,
    removed: bool,
}

impl Sketch {
    fn edge(a: CarrierId, b: CarrierId) -> (CarrierId, CarrierId) {
        (a.min(b), a.max(b))
    }

    fn tail(&self) -> CarrierId {
        CarrierId(self.n - 1)
    }

    fn remove_tail(&mut self, out: &mut Vec<FleetDelta>) {
        let tail = self.tail();
        self.edges.retain(|&(a, b)| a != tail && b != tail);
        self.n -= 1;
        self.removed = true;
        out.push(FleetDelta::RemoveCarrier { id: tail });
    }
}

/// Turns raw draws into one event batch against `base`. Ops: 0 add a
/// carrier to either market (attributes and base values perturbed), 1
/// remove the tail carrier, 2 add an X2 edge (possibly across markets),
/// 3 retune a carrier slot, 4 and 7 retune a pair slot, 5 retune then
/// remove the tail, 6 add a carrier, give it an edge, remove it again, 8
/// remove the tail and add as many edges as it had — the pair count
/// stays, but pairs move inside an unchanged window, 9 remove every
/// carrier of the tail market, leaving its scope empty.
fn adversarial_batch(base: &NetworkSnapshot, ops: &[(u8, u32, u32, u16)]) -> Vec<FleetDelta> {
    let catalog = &base.catalog;
    let singular: Vec<_> = catalog.singular_ids().collect();
    let pairwise: Vec<_> = catalog.pairwise_ids().collect();
    let value = |p, v: u16| v % catalog.def(p).range.n_values() as u16;
    let why = Provenance::Noise;
    let mut sketch = Sketch {
        n: base.n_carriers() as u32,
        edges: base
            .x2
            .pairs()
            .map(|(_, j, k)| Sketch::edge(j, k))
            .collect(),
        removed: false,
    };
    // The tail market's carriers are the fleet's last ids, so popping
    // the tail down to its first carrier empties it (batch-born carriers
    // sit above it and go too).
    let tail_market = base.carrier(CarrierId(sketch.n - 1)).market;
    let tail_market_start = base
        .carriers_in_market(tail_market)
        .iter()
        .min()
        .expect("the tail market has carriers")
        .0;
    assert_eq!(
        base.carriers_in_market(tail_market).len() as u32,
        sketch.n - tail_market_start,
        "the tail market holds exactly the fleet's last ids"
    );
    let mut out = Vec::new();
    // Carriers added by this batch are clones of `base` carriers, so
    // every template is read from the pre-batch fleet.
    let add_carrier = |sketch: &mut Sketch, out: &mut Vec<FleetDelta>, r1: u32, r2: u32, v: u16| {
        let m = MarketId((r1 % base.markets.len() as u32) as u16);
        let members = base.carriers_in_market(m);
        let mut carrier = base.carrier(members[r2 as usize % members.len()]).clone();
        carrier.id = CarrierId(sketch.n);
        let donor = base.carrier(CarrierId(r2 % base.n_carriers() as u32));
        let a = AttrId((r1 / 2 % carrier.attrs.len() as u32) as u8);
        carrier.attrs.set(a, donor.attrs.get(a));
        let mut values: Vec<_> = singular
            .iter()
            .map(|&p| base.config.value(p, donor.id))
            .collect();
        let i = v as usize % values.len();
        values[i] = value(singular[i], v);
        sketch.n += 1;
        out.push(FleetDelta::AddCarrier {
            carrier,
            base: values,
        });
    };
    let add_edge =
        |sketch: &mut Sketch, out: &mut Vec<FleetDelta>, a: CarrierId, r: u32, v: u16| {
            let free: Vec<CarrierId> = (0..sketch.n)
                .map(CarrierId)
                .filter(|&b| b != a && !sketch.edges.contains(&Sketch::edge(a, b)))
                .collect();
            if free.is_empty() {
                return;
            }
            let b = free[r as usize % free.len()];
            sketch.edges.insert(Sketch::edge(a, b));
            let base_values = |shift: u16| -> Vec<_> {
                pairwise
                    .iter()
                    .map(|&p| value(p, v.wrapping_add(shift)))
                    .collect()
            };
            out.push(FleetDelta::AddX2Edge {
                a,
                b,
                base_ab: base_values(0),
                base_ba: base_values(1),
            });
        };
    for &(op, r1, r2, v) in ops {
        match op {
            0 | 6 if sketch.removed => {}
            0 => add_carrier(&mut sketch, &mut out, r1, r2, v),
            1 | 5 | 8 if sketch.n <= 2 => {}
            1 => sketch.remove_tail(&mut out),
            2 => {
                let a = CarrierId(r1 % sketch.n);
                add_edge(&mut sketch, &mut out, a, r2, v)
            }
            3 => {
                let p = singular[r1 as usize % singular.len()];
                out.push(FleetDelta::Retune {
                    param: p,
                    slot: DeltaSlot::Carrier(CarrierId(r2 % sketch.n)),
                    value: value(p, v),
                    why,
                });
            }
            4 | 7 => {
                let edges: Vec<_> = sketch.edges.iter().copied().collect();
                let (a, b) = edges[r2 as usize % edges.len()];
                let (src, dst) = if v % 2 == 0 { (a, b) } else { (b, a) };
                let p = pairwise[r1 as usize % pairwise.len()];
                out.push(FleetDelta::Retune {
                    param: p,
                    slot: DeltaSlot::Pair(src, dst),
                    value: value(p, v / 2),
                    why,
                });
            }
            5 => {
                let p = singular[r1 as usize % singular.len()];
                out.push(FleetDelta::Retune {
                    param: p,
                    slot: DeltaSlot::Carrier(sketch.tail()),
                    value: value(p, v),
                    why,
                });
                sketch.remove_tail(&mut out);
            }
            6 => {
                add_carrier(&mut sketch, &mut out, r1, r2, v);
                let born = sketch.tail();
                add_edge(&mut sketch, &mut out, born, r1, v);
                sketch.remove_tail(&mut out);
            }
            8 => {
                let tail = sketch.tail();
                let degree = sketch
                    .edges
                    .iter()
                    .filter(|&&(a, b)| a == tail || b == tail)
                    .count() as u32;
                sketch.remove_tail(&mut out);
                for k in 0..degree {
                    let a = CarrierId((r1 + k) % sketch.n);
                    add_edge(&mut sketch, &mut out, a, r2 + k, v);
                }
            }
            _ => {
                while sketch.n > tail_market_start {
                    sketch.remove_tail(&mut out);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random batches the stream generator would never emit — adds into
    /// either market, tail removals that drop X2 pairs, cross-market
    /// edges, carrier and pair retunes, retune-then-remove and
    /// add-then-remove inside one batch — rolled into the whole-fleet
    /// model and each market's model must equal a full refit over the
    /// same scope: wire JSON and key columns.
    #[test]
    fn adversarial_batches_match_scoped_refits(
        ops in collection::vec((0u8..10, 0u32..1_000_000, 0u32..1_000_000, 0u16..1_000), 1..10),
    ) {
        let fitted = two_market_fleet();
        let batch = adversarial_batch(&fitted.snapshot, &ops);
        let mut snapshot = fitted.snapshot.clone();
        // A batch the fleet refuses leaves nothing to roll forward.
        let Ok(digest) = apply_fleet_deltas(&mut snapshot, &batch) else {
            return Ok(());
        };
        let mut arena = fitted.arena.clone();
        arena.append(&snapshot);
        let befores = scopes(&fitted.snapshot);
        let afters = scopes(&snapshot);
        for (si, model) in fitted.models.iter().enumerate() {
            let mut model = model.clone();
            let report = model.apply_delta(&DeltaApply {
                snapshot: &snapshot,
                arena: &arena,
                scope_before: &befores[si],
                scope_after: &afters[si],
                batch: &digest,
                key_cache: None,
            });
            prop_assert_eq!(
                report.params_patched + report.params_rebuilt + report.params_untouched,
                snapshot.catalog.len()
            );
            let refit = full_fit(&snapshot, &afters[si]);
            prop_assert_eq!(json(&model), json(&refit), "scope {}: tables diverge", si);
            for (a, b) in model.params().iter().zip(refit.params()) {
                prop_assert_eq!(
                    (a.carrier_keys(), a.pair_keys()),
                    (b.carrier_keys(), b.pair_keys()),
                    "scope {}, param {:?}: key column diverges",
                    si,
                    a.param
                );
            }
        }
    }
}

#[test]
fn duplicate_edges_are_refused() {
    let fitted = two_market_fleet();
    let mut snapshot = fitted.snapshot.clone();
    let (_, a, b) = snapshot.x2.pairs().next().expect("fleet has pairs");
    let base: Vec<_> = snapshot
        .catalog
        .pairwise_ids()
        .map(|p| snapshot.config.pair_value(p, 0))
        .collect();
    assert_eq!(
        apply_fleet_deltas(
            &mut snapshot,
            &[FleetDelta::AddX2Edge {
                a: b,
                b: a,
                base_ab: base.clone(),
                base_ba: base,
            }]
        ),
        Err(DeltaError::BadEdge(b, a))
    );
}

/// FNV-1a over the `Debug` form of each report, in order.
fn report_hash(reports: &[DeltaFitReport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in reports {
        for b in format!("{r:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Streams `scale` from the empty fleet into a whole-fleet model and one
/// model per market (its scope empty until the market arrives), and
/// returns every model's reports, whole-fleet model first.
fn stream_reports(scale: NetScale) -> Vec<Vec<DeltaFitReport>> {
    let mut s = stream(&scale, &TuningKnobs::default());
    let mut snapshot = empty_snapshot(s.schema().clone(), s.catalog().clone());
    let mut arena = AttrArena::from_snapshot(&snapshot);
    let scopes_of = |snapshot: &NetworkSnapshot| -> Vec<Scope> {
        std::iter::once(Scope::whole(snapshot))
            .chain(
                (0..scale.n_markets as u16).map(|m| match snapshot.markets.get(m as usize) {
                    Some(_) => Scope::market(snapshot, MarketId(m)),
                    None => Scope::markets(snapshot, &[]),
                }),
            )
            .collect()
    };
    let mut scopes = scopes_of(&snapshot);
    let mut models: Vec<CfModel> = scopes.iter().map(|sc| full_fit(&snapshot, sc)).collect();
    let mut reports = vec![Vec::new(); models.len()];
    while let Some(batch) = s.next_batch() {
        let digest = apply_fleet_deltas(&mut snapshot, &batch).expect("consistent batch");
        arena.append(&snapshot);
        let befores = std::mem::replace(&mut scopes, scopes_of(&snapshot));
        for (mi, model) in models.iter_mut().enumerate() {
            reports[mi].push(model.apply_delta(&DeltaApply {
                snapshot: &snapshot,
                arena: &arena,
                scope_before: &befores[mi],
                scope_after: &scopes[mi],
                batch: &digest,
                key_cache: None,
            }));
        }
    }
    reports
}

/// The reports, summed field by field.
fn summed(reports: &[DeltaFitReport]) -> DeltaFitReport {
    reports
        .iter()
        .fold(DeltaFitReport::default(), |a, r| DeltaFitReport {
            params_patched: a.params_patched + r.params_patched,
            params_rebuilt: a.params_rebuilt + r.params_rebuilt,
            params_untouched: a.params_untouched + r.params_untouched,
            obs_added: a.obs_added + r.obs_added,
            obs_removed: a.obs_removed + r.obs_removed,
            count_saturated: a.count_saturated + r.count_saturated,
        })
}

/// A report that removed nothing and saturated nothing.
fn report(
    params_patched: usize,
    params_rebuilt: usize,
    params_untouched: usize,
    obs_added: u64,
) -> DeltaFitReport {
    DeltaFitReport {
        params_patched,
        params_rebuilt,
        params_untouched,
        obs_added,
        ..DeltaFitReport::default()
    }
}

/// Pins every report of the tiny stream, for the whole-fleet model and
/// each market's model, so a rewrite of how `apply_delta` reads a batch
/// cannot move a single decision or count.
#[test]
fn tiny_stream_reports_are_pinned() {
    let reports = stream_reports(NetScale::tiny());
    let hashes: Vec<u64> = reports.iter().map(|r| report_hash(r)).collect();
    let sums: Vec<DeltaFitReport> = reports.iter().map(|r| summed(r)).collect();
    assert_eq!(
        sums,
        vec![
            report(52, 139, 3904, 2935),
            report(44, 79, 3972, 1282),
            report(39, 80, 3976, 1722),
        ]
    );
    assert_eq!(
        hashes,
        vec![
            0x8d82_d4e7_34e2_d1b8,
            0x3ea6_859e_f7d2_e0eb,
            0x2919_f331_54d9_40f7,
        ]
    );
}

/// Pins the reports of fixed structural batches rolled into the fitted
/// two-market fleet's whole-fleet and per-market models: tail removal
/// with X2 edges, add-then-remove inside one batch, an edge added to the
/// tail before it leaves, and an edge inserted in market 0 that shifts
/// market 1's pairs.
#[test]
fn removal_batch_reports_are_pinned() {
    let fitted = two_market_fleet();
    let base = &fitted.snapshot;
    let n = base.n_carriers() as u32;
    let tail = CarrierId(n - 1);
    let born = CarrierId(n);
    let add = || {
        let mut carrier = base.carrier(CarrierId(0)).clone();
        carrier.id = born;
        let values = base
            .catalog
            .singular_ids()
            .map(|p| base.config.value(p, CarrierId(1)))
            .collect();
        FleetDelta::AddCarrier {
            carrier,
            base: values,
        }
    };
    let edge = |a: CarrierId, b: CarrierId| {
        let values: Vec<_> = base
            .catalog
            .pairwise_ids()
            .map(|p| base.config.pair_value(p, 1))
            .collect();
        FleetDelta::AddX2Edge {
            a,
            b,
            base_ab: values.clone(),
            base_ba: values,
        }
    };
    let stranger = (0..n - 1)
        .map(CarrierId)
        .find(|c| !base.x2.neighbors(tail).contains(c))
        .expect("the tail is not adjacent to everything");
    let (a0, b0) = absent_edge_in(base, MarketId(0));
    let batches = [
        vec![FleetDelta::RemoveCarrier { id: tail }],
        vec![
            add(),
            edge(born, CarrierId(0)),
            FleetDelta::RemoveCarrier { id: born },
            FleetDelta::RemoveCarrier { id: tail },
        ],
        vec![edge(tail, stranger), FleetDelta::RemoveCarrier { id: tail }],
        vec![edge(a0, b0)],
    ];
    let befores = scopes(base);
    let mut got = Vec::new();
    for batch in &batches {
        let mut snapshot = base.clone();
        let digest = apply_fleet_deltas(&mut snapshot, batch).expect("consistent batch");
        let mut arena = fitted.arena.clone();
        arena.append(&snapshot);
        let afters = scopes(&snapshot);
        for (si, model) in fitted.models.iter().enumerate() {
            let mut model = model.clone();
            let r = model.apply_delta(&DeltaApply {
                snapshot: &snapshot,
                arena: &arena,
                scope_before: &befores[si],
                scope_after: &afters[si],
                batch: &digest,
                key_cache: None,
            });
            got.push((
                r.params_patched,
                r.params_rebuilt,
                r.params_untouched,
                r.obs_added,
                r.obs_removed,
                r.count_saturated,
            ));
        }
    }
    // Per batch: the whole-fleet model, market 0's, market 1's. The three
    // removals leave the same fleet, so they report the same.
    let removal = [
        (49, 16, 0, 0, 175, 0),
        (0, 0, 65, 0, 0, 0),
        (56, 9, 0, 0, 218, 0),
    ];
    let edge_in_market_0 = [
        (18, 8, 39, 36, 0, 0),
        (21, 5, 39, 42, 0, 0),
        (0, 0, 65, 0, 0, 0),
    ];
    let want: Vec<_> = [removal, removal, removal, edge_in_market_0].concat();
    assert_eq!(got, want);
}

/// Streams the medium fleet through a whole-fleet model and the 28
/// per-market models and pins the summed reports. The whole-fleet sums
/// are the stand-up benchmark's patched / rebuilt / untouched counts.
#[test]
#[ignore = "medium scale: run with --release -- --ignored"]
fn medium_standup_reports_are_pinned() {
    let reports = stream_reports(NetScale::medium());
    let whole = summed(&reports[0]);
    let markets = summed(&reports[1..].iter().map(|r| summed(r)).collect::<Vec<_>>());
    assert_eq!(whole, report(812, 1_073, 4_160, 313_879));
    assert_eq!(markets, report(1_141, 2_443, 165_676, 129_011));
}
