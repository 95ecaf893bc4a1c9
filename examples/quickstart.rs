//! Quickstart: generate a synthetic LTE network, fit Auric, and
//! recommend a full configuration for a newly added carrier.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use auric_core::{recommend_pairwise, recommend_singular, CfConfig, CfModel, NewCarrier, Scope};
use auric_model::CarrierId;
use auric_netgen::{generate, NetScale, TuningKnobs};

fn main() {
    // 1. An operational network to learn from. In production this would
    //    be the live configuration snapshot; here the generator plays
    //    that role (deterministic in the seed).
    let net = generate(&NetScale::small(), &TuningKnobs::default());
    let snapshot = &net.snapshot;
    println!(
        "network: {} markets, {} eNodeBs, {} carriers, {} X2 pairs, {} parameter values",
        snapshot.markets.len(),
        snapshot.enodebs.len(),
        snapshot.n_carriers(),
        snapshot.x2.n_pairs(),
        snapshot.config.total_values(),
    );

    // 2. Fit the recommender: chi-square dependency selection + vote
    //    tables per parameter (paper defaults: p = 0.01, 75% support,
    //    1-hop locality).
    let scope = Scope::whole(snapshot);
    let model = CfModel::fit(snapshot, &scope, CfConfig::default());

    // 3. A new carrier about to launch: we know its static attributes and
    //    its planned X2 neighbors, nothing else (it carries no traffic
    //    yet). Here we borrow an existing carrier's identity as the
    //    template for the new one.
    let template = CarrierId(42);
    let new_carrier = NewCarrier {
        attrs: snapshot.carrier(template).attrs.clone(),
        neighbors: snapshot.x2.neighbors(template).to_vec(),
    };

    // 4. Recommend all 39 singular parameters…
    let recs = recommend_singular(snapshot, &model, &new_carrier);
    println!("\nsingular recommendations (first 10 of {}):", recs.len());
    for r in recs.iter().take(10) {
        println!(
            "  {:<24} = {:>10}   [{:?}, support {}/{}]",
            r.render(snapshot).name,
            r.concrete,
            r.basis,
            r.support,
            r.voters
        );
    }

    // 5. …and the 26 pair-wise (handover/mobility) parameters toward one
    //    planned neighbor.
    let neighbor = new_carrier.neighbors[0];
    let pair_recs = recommend_pairwise(snapshot, &model, &new_carrier, neighbor);
    println!(
        "\npair-wise recommendations toward {neighbor} (first 5 of {}):",
        pair_recs.len()
    );
    for r in pair_recs.iter().take(5) {
        println!(
            "  {:<24} = {:>10}   [{:?}, support {}/{}]",
            r.render(snapshot).name,
            r.concrete,
            r.basis,
            r.support,
            r.voters
        );
    }

    // 6. Every recommendation explains itself: which attributes the
    //    parameter depends on and which levels were matched.
    let example = &recs[0];
    let why = example.render(snapshot);
    println!("\nwhy {} = {}:", why.name, example.concrete);
    for (attr, level) in &why.matched_on {
        println!("  matched existing carriers with {attr} = {level}");
    }
}
