//! Explainability: the paper's §5 "lessons learned" stresses that
//! engineers adopted Auric because its recommendations explain
//! themselves. This example shows both explanation styles:
//!
//! - the decision-tree path (Fig. 8) for a classic learner, and
//! - the dependent-attribute/vote evidence of the CF recommender.
//!
//! ```text
//! cargo run --release --example explainability
//! ```

use auric_core::datasets::dataset_for_param;
use auric_core::{recommend_singular, CfConfig, CfModel, NewCarrier, Scope};
use auric_learners::DecisionTree;
use auric_model::CarrierId;
use auric_netgen::{generate, NetScale, TuningKnobs};

fn main() {
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let snapshot = &net.snapshot;
    let scope = Scope::whole(snapshot);

    // --- Decision-tree explanation (Fig. 8 style) ---------------------
    let param = snapshot.catalog.by_name("cellReselectionPriority").unwrap();
    let data = dataset_for_param(snapshot, &scope, param);
    let tree = DecisionTree::paper().fit_tree(&data);
    let probe = CarrierId(5);
    let row = snapshot.carrier(probe).attrs.as_slice();
    let predicted = {
        use auric_learners::Model;
        tree.predict(row)
    };
    println!(
        "decision tree for {} ({} nodes, depth {}):",
        snapshot.catalog.def(param).name,
        tree.n_nodes(),
        tree.depth()
    );
    println!("  explaining carrier {probe}:");
    for step in tree.decision_path(row) {
        let attr = auric_model::AttrId(step.col as u8);
        println!(
            "    {} {}= {}",
            snapshot.schema.def(attr).name,
            if step.matched { "=" } else { "!" },
            snapshot.schema.level_name(attr, step.level),
        );
    }
    let range = snapshot.catalog.def(param).range;
    println!(
        "    → {} = {}",
        snapshot.catalog.def(param).name,
        range.value(predicted)
    );

    // --- Collaborative-filtering explanation ---------------------------
    let model = CfModel::fit(snapshot, &scope, CfConfig::default());
    let new_carrier = NewCarrier {
        attrs: snapshot.carrier(probe).attrs.clone(),
        neighbors: snapshot.x2.neighbors(probe).to_vec(),
    };
    let recs = recommend_singular(snapshot, &model, &new_carrier);
    let rec = recs
        .iter()
        .find(|r| r.param == param)
        .expect("parameter recommended");
    let why = rec.render(snapshot);
    println!("\ncollaborative filtering for the same carrier:");
    println!(
        "  {} = {}  [{:?}, {}/{} voters agreed]",
        why.name, rec.concrete, rec.basis, rec.support, rec.voters
    );
    if why.matched_on.is_empty() {
        println!("  (no dependent attributes: the network-wide majority value)");
    } else {
        println!("  because existing carriers matched on:");
        for (attr, level) in &why.matched_on {
            println!("    {attr} = {level}");
        }
    }

    // The dependent attributes the chi-square tests discovered for a few
    // parameters — the learned "rule-book structure".
    println!("\ndiscovered dependency structure (first 8 parameters):");
    for pc in model.params().iter().take(8) {
        let names: Vec<String> = pc
            .dependent
            .iter()
            .map(|pa| {
                let prefix = match pa.side {
                    auric_core::Side::Src => "",
                    auric_core::Side::Dst => "neighbor.",
                };
                format!("{prefix}{}", snapshot.schema.def(pa.attr).name)
            })
            .collect();
        println!(
            "  {:<24} ← {}",
            snapshot.catalog.def(pc.param).name,
            if names.is_empty() {
                "(none)".to_string()
            } else {
                names.join(", ")
            }
        );
    }
}
