//! Differential tests for the arena-backed fit: the key columns a fitted
//! model carries must cover exactly its scope's index window and be
//! bit-identical there to a per-target recompute through
//! `packed_for_carrier` / `packed_for_pair` (which read the original
//! carrier structs, not the arena); the `carrier_key` / `pair_key`
//! accessors must agree with that recompute on every target of the fleet,
//! inside the window or not; and parameters that select the same
//! `(kind, dependent)` layout must share one physical column.

use auric_core::perf::{recommend_local_weighted, MapKpi};
use auric_core::{CfConfig, CfModel, Scope};
use auric_model::{apply_fleet_deltas, empty_snapshot, CarrierId, NetworkSnapshot, ParamKind};
use auric_netgen::{generate, stream, NetScale, TuningKnobs};
use std::collections::HashMap;
use std::sync::Arc;

/// Compares every parameter's fitted key column against fresh per-target
/// packs over `scope`'s window, and both accessors against fresh packs
/// over the whole fleet, at the given strides (1 = exhaustive).
fn assert_columns_match(
    snap: &NetworkSnapshot,
    scope: &Scope,
    model: &CfModel,
    carrier_stride: usize,
    pair_stride: usize,
) {
    for def in snap.catalog.defs() {
        let pc = model.param(def.id);
        match def.kind {
            ParamKind::Singular => {
                let keys = pc
                    .carrier_keys()
                    .unwrap_or_else(|| panic!("{}: default fit must pack a column", def.name));
                let window = scope.carrier_window();
                assert_eq!(keys.len(), window.len(), "{}: column length", def.name);
                for c in window.clone().step_by(carrier_stride) {
                    assert_eq!(
                        keys[c - window.start],
                        pc.packed_for_carrier(&snap.carriers[c].attrs),
                        "{}: carrier {c} key diverges",
                        def.name,
                    );
                }
                for c in (0..snap.n_carriers()).step_by(carrier_stride) {
                    let id = CarrierId::from_index(c);
                    assert_eq!(
                        pc.carrier_key(snap, id),
                        pc.packed_for_carrier(&snap.carrier(id).attrs),
                        "{}: carrier_key({c}) diverges",
                        def.name,
                    );
                }
            }
            ParamKind::Pairwise => {
                let keys = pc
                    .pair_keys()
                    .unwrap_or_else(|| panic!("{}: default fit must pack a column", def.name));
                let window = scope.pair_window();
                assert_eq!(keys.len(), window.len(), "{}: column length", def.name);
                for q in (0..snap.x2.n_pairs() as u32).step_by(pair_stride) {
                    let (j, k) = snap.x2.pair(q);
                    let fresh = pc.packed_for_pair(&snap.carrier(j).attrs, &snap.carrier(k).attrs);
                    if window.contains(&(q as usize)) {
                        assert_eq!(
                            keys[q as usize - window.start],
                            fresh,
                            "{}: pair {q} key diverges",
                            def.name
                        );
                    }
                    assert_eq!(
                        pc.pair_key(snap, q),
                        fresh,
                        "{}: pair_key({q}) diverges",
                        def.name
                    );
                }
            }
        }
    }
}

/// Fits the whole fleet and every market, checking each model's columns.
fn assert_all_scopes_match(snap: &NetworkSnapshot, carrier_stride: usize, pair_stride: usize) {
    let whole = Scope::whole(snap);
    let model = CfModel::fit(snap, &whole, CfConfig::default());
    assert_columns_match(snap, &whole, &model, carrier_stride, pair_stride);
    for m in &snap.markets {
        let scope = Scope::market(snap, m.id);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        assert!(
            scope.carrier_window().len() < snap.n_carriers(),
            "a market's window is narrower than the fleet"
        );
        assert_columns_match(snap, &scope, &model, carrier_stride, pair_stride);
    }
}

#[test]
fn arena_fit_columns_match_fresh_packs_exhaustively_on_tiny() {
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    assert_all_scopes_match(&net.snapshot, 1, 1);
}

#[test]
fn arena_fit_columns_match_fresh_packs_on_a_strided_medium_network() {
    let net = generate(&NetScale::medium(), &TuningKnobs::default());
    assert_all_scopes_match(&net.snapshot, 23, 101);
}

#[test]
fn equal_dependent_sets_share_one_physical_column() {
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let snap = &net.snapshot;
    let model = CfModel::fit(snap, &Scope::whole(snap), CfConfig::default());

    // Group fitted parameters by (kind, dependent); within a group every
    // column must be the same allocation, across groups never.
    let mut groups: HashMap<(ParamKind, Vec<_>), Vec<Arc<[u128]>>> = HashMap::new();
    for def in snap.catalog.defs() {
        let pc = model.param(def.id);
        let col = pc.key_column_arc().expect("default fit packs a column");
        groups
            .entry((def.kind, pc.dependent.clone()))
            .or_default()
            .push(col);
    }
    assert!(
        groups.len() < snap.catalog.len(),
        "expected at least two parameters to agree on a dependent set \
         ({} layouts over {} parameters)",
        groups.len(),
        snap.catalog.len()
    );
    let mut representatives: Vec<Arc<[u128]>> = Vec::new();
    for ((kind, dependent), cols) in &groups {
        for col in cols {
            assert!(
                Arc::ptr_eq(col, &cols[0]),
                "{kind:?} {dependent:?}: same layout must share one column"
            );
        }
        for other in &representatives {
            assert!(
                !Arc::ptr_eq(&cols[0], other),
                "distinct layouts must not alias"
            );
        }
        representatives.push(Arc::clone(&cols[0]));
    }
}

#[test]
fn a_model_fitted_on_a_smaller_fleet_answers_newer_carriers() {
    // Fit on the first streamed market, then query the last market's
    // carriers on the grown fleet: their ids lie past the model's key
    // column, so every entry point must pack them from the snapshot
    // (indexing the column panicked here) and answer exactly as the
    // column-less, JSON-reloaded model does.
    let scale = NetScale::tiny();
    let mut s = stream(&scale, &TuningKnobs::default());
    let mut snap = empty_snapshot(s.schema().clone(), s.catalog().clone());
    let first = s.next_batch().expect("first market batch");
    apply_fleet_deltas(&mut snap, &first).expect("consistent batch");
    let model = CfModel::fit(&snap, &Scope::whole(&snap), CfConfig::default());
    let json = serde_json::to_string(&model).expect("model serializes");
    let reloaded = CfModel::from_json_bytes(json.as_bytes()).expect("model reloads");
    for _ in 1..scale.n_markets {
        let batch = s.next_batch().expect("market batch");
        apply_fleet_deltas(&mut snap, &batch).expect("consistent batch");
    }
    let last = snap.markets.last().expect("markets").id;
    let carriers = snap.carriers_in_market(last);
    assert!(
        carriers[0].index() >= model.params()[0].carrier_keys().unwrap().len(),
        "the last market lies past the fitted column"
    );
    let kpi = MapKpi::default();
    // The model never saw these carriers, so nothing is left out.
    for p in snap.catalog.singular_ids() {
        for &c in carriers {
            assert_eq!(
                model.recommend_local_singular(&snap, p, c, false),
                reloaded.recommend_local_singular(&snap, p, c, false)
            );
            assert_eq!(
                model.recommend_global_for_carrier(&snap, p, c, None),
                reloaded.recommend_global_for_carrier(&snap, p, c, None)
            );
            assert_eq!(
                recommend_local_weighted(&snap, &model, &kpi, p, c),
                recommend_local_weighted(&snap, &reloaded, &kpi, p, c)
            );
        }
    }
    // Pair indices of the grown fleet need not name the pairs the model
    // was fitted on, so only the absence of a panic is pinned here.
    for p in snap.catalog.pairwise_ids() {
        for q in snap.pairs_in_market(last) {
            model.recommend_local_pair(&snap, p, q, false);
            model.recommend_global_for_pair(&snap, p, q, None);
        }
    }
}
