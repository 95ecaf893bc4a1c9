//! Pins the key-column sharing story behind `cf.fit.keycol.shared`.
//!
//! A key column covers its fitting scope's index window (see
//! `Scope::carrier_window` / `Scope::pair_window`), so a column is
//! determined by `(kind, ordered dependent set, window)`. Within one fit
//! the shared gauge honestly reads ~0: dependency selection orders each
//! parameter's dependent attributes by its *own* marginal association, so
//! Table-1 layouts almost never collide inside one model. Repeat fits of
//! one market through a [`SharedKeyColumns`] (hot refits) share every
//! column; fits of two markets never share one, even where their layouts
//! agree, because their windows differ.

use auric_core::{CfConfig, CfModel, FitOptions, Scope, SharedKeyColumns};
use auric_netgen::{generate, NetScale, TuningKnobs};
use std::sync::Arc;

fn fit_market(
    net: &auric_netgen::GeneratedNetwork,
    market_idx: usize,
    cache: &SharedKeyColumns,
) -> CfModel {
    let snap = &net.snapshot;
    let scope = Scope::market(snap, snap.markets[market_idx].id);
    CfModel::fit_with(
        snap,
        &scope,
        CfConfig::default(),
        FitOptions {
            key_cache: Some(cache.clone()),
            ..FitOptions::default()
        },
    )
}

#[test]
fn equal_layouts_within_one_market_share_physical_columns() {
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let cache = SharedKeyColumns::new();
    let first = fit_market(&net, 0, &cache);
    let built = cache.built();
    assert!(built > 0, "first fit must build columns");
    let shared_before = cache.shared();
    let again = fit_market(&net, 0, &cache);

    // A refit of the same market lands on the same layouts and windows:
    // every parameter hands out the *same physical allocation*.
    for (a, b) in first.params().iter().zip(again.params()) {
        assert_eq!(a.dependent, b.dependent);
        let ca = a
            .key_column_arc()
            .expect("fitted parameters carry a column");
        let cb = b
            .key_column_arc()
            .expect("fitted parameters carry a column");
        assert!(
            Arc::ptr_eq(&ca, &cb),
            "param {:?}: equal layouts in one market must share one column",
            a.param
        );
    }
    assert_eq!(cache.built(), built, "the refit built no column");
    assert_eq!(
        cache.shared() - shared_before,
        first.params().len() as u64,
        "every column of the refit is a cache hit"
    );
}

#[test]
fn columns_of_two_markets_never_alias() {
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let cache = SharedKeyColumns::new();
    let m0 = fit_market(&net, 0, &cache);
    let m1 = fit_market(&net, 1, &cache);
    let cols = |m: &CfModel| -> Vec<Arc<[u128]>> {
        m.params()
            .iter()
            .map(|pc| {
                pc.key_column_arc()
                    .expect("fitted parameters carry a column")
            })
            .collect()
    };
    let (c0, c1) = (cols(&m0), cols(&m1));
    for a in &c0 {
        for b in &c1 {
            assert!(!Arc::ptr_eq(a, b), "two markets' columns alias");
        }
    }
    // The check has teeth: some parameter lands on the same ordered
    // layout in both markets, which a fleet-wide column would share.
    let overlap = m0
        .params()
        .iter()
        .zip(m1.params())
        .filter(|(a, b)| a.dependent == b.dependent)
        .count();
    assert!(
        overlap > 0,
        "tiny network produced no cross-market layout overlap; \
         the aliasing test needs a scale with at least one"
    );
}

#[test]
fn shared_columns_do_not_change_the_model() {
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let snap = &net.snapshot;
    let cache = SharedKeyColumns::new();
    let shared0 = fit_market(&net, 0, &cache);
    let shared1 = fit_market(&net, 1, &cache);
    let solo0 = CfModel::fit(
        snap,
        &Scope::market(snap, snap.markets[0].id),
        CfConfig::default(),
    );
    let solo1 = CfModel::fit(
        snap,
        &Scope::market(snap, snap.markets[1].id),
        CfConfig::default(),
    );
    for (a, b) in [(&shared0, &solo0), (&shared1, &solo1)] {
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.dependent, pb.dependent);
            assert_eq!(
                pa.key_column_arc().as_deref(),
                pb.key_column_arc().as_deref()
            );
        }
    }
}

#[test]
#[should_panic(expected = "SharedKeyColumns reused across different snapshots")]
fn fleet_guard_rejects_a_different_snapshot() {
    let a = generate(&NetScale::tiny(), &TuningKnobs::default());
    let b = generate(&NetScale::tiny(), &TuningKnobs::default());
    let cache = SharedKeyColumns::new();
    fit_market(&a, 0, &cache);
    // Same shape, different snapshot object: cached columns would alias
    // the wrong fleet's attribute values. Must panic, not mis-serve.
    fit_market(&b, 0, &cache);
}
