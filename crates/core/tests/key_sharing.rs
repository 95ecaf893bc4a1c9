//! Pins the key-column sharing story behind `cf.fit.keycol.shared`.
//!
//! Within a single fit the gauge honestly reads ~0: dependency selection
//! orders each parameter's dependent attributes by its *own* marginal
//! association, so Table-1 layouts almost never collide inside one model
//! (at small scale, 64 of 65 ordered layouts are distinct). The real
//! reuse opportunity is **across fits of the same snapshot** — per-market
//! models and hot refits — where key columns span the whole fleet and are
//! byte-identical whenever two fits land on the same ordered layout.
//! [`SharedKeyColumns`] captures that; these tests pin it.

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
fn cross_fit_layout_overlap_shares_physical_columns() {
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let cache = SharedKeyColumns::new();
    let m0 = fit_market(&net, 0, &cache);
    let first_built = cache.built();
    assert!(first_built > 0, "first fit must build columns");
    let m1 = fit_market(&net, 1, &cache);

    // Parameters whose ordered dependent layout matches across the two
    // market fits must hand out the *same physical allocation*, not a
    // rebuilt copy: columns cover the whole snapshot, not the fit scope.
    let mut overlap = 0;
    for (a, b) in m0.params().iter().zip(m1.params()) {
        if a.dependent != b.dependent {
            continue;
        }
        let ca = a
            .key_column_arc()
            .expect("fitted parameters carry a key column");
        let cb = b
            .key_column_arc()
            .expect("fitted parameters carry a key column");
        assert!(
            Arc::ptr_eq(&ca, &cb),
            "param {:?}: equal layouts must share one column",
            a.param
        );
        overlap += 1;
    }
    assert!(
        overlap > 0,
        "tiny network produced no cross-market layout overlap; \
         the sharing test needs a scale with at least one"
    );
    assert!(
        cache.shared() >= overlap as u64,
        "every overlapping layout is a cache hit: shared {} < overlap {overlap}",
        cache.shared(),
    );
    // The second fit built only the layouts the first one didn't have.
    assert!(
        cache.built() < 2 * first_built,
        "second fit rebuilt everything: built {} after first {first_built}",
        cache.built(),
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
