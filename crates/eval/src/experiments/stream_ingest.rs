//! `stream-ingest` — streaming fleet ingestion + incremental fit (ours;
//! the paper fits on a finished dataset, long-running deployments don't
//! get one).
//!
//! Replays the generator as an ordered delta stream from the empty
//! fleet: Phase A batches stand markets up carrier by carrier, Phase B
//! batches retune live parameters (pockets, stale trials, noise). A
//! single CF model rides the stream through [`CfModel::apply_delta`],
//! and on a fixed stride the experiment refits the post-batch snapshot
//! from scratch and asserts the incremental model serializes
//! **byte-identically** — the differential check from the test suite,
//! promoted to a pinned artifact.
//!
//! Everything is seeded, so the `cf.delta.*` counters land
//! deterministically on `opts.obs` — CI pins them with an obs-baseline
//! diff and a double-run byte comparison.

use crate::render::TextTable;
use crate::{ExpOutput, RunOptions};
use auric_core::{CfConfig, CfModel, DeltaApply, FitOptions, Scope, SharedKeyColumns};
use auric_model::{apply_fleet_deltas, empty_snapshot, AttrArena};
use auric_netgen::{stream, NetScale};
use serde_json::json;

/// Full-refit comparison stride: every `STRIDE`-th batch plus the final
/// one gets the byte-equality check (a full refit per check keeps the
/// experiment honest without quadratic cost).
const STRIDE: usize = 8;

/// Per-phase accounting row.
#[derive(Default)]
struct PhaseTally {
    batches: u64,
    events: u64,
    patched: u64,
    rebuilt: u64,
    untouched: u64,
}

/// The streaming-ingestion scenario.
pub fn stream_ingest(opts: &RunOptions) -> ExpOutput {
    let scale = opts.scale.unwrap_or(NetScale::tiny()).with_seed(opts.seed);
    let mut s = stream(&scale, &opts.knobs);
    let mut snapshot = empty_snapshot(s.schema().clone(), s.catalog().clone());
    let mut arena = AttrArena::from_snapshot(&snapshot);
    let mut scope = Scope::whole(&snapshot);
    let mut model = CfModel::fit_with(
        &snapshot,
        &scope,
        CfConfig::default(),
        FitOptions {
            obs: opts.obs.clone(),
            threads: None,
            key_cache: None,
        },
    );

    let mut structural = PhaseTally::default();
    let mut retune = PhaseTally::default();
    let mut carriers_added = 0u64;
    let mut carriers_removed = 0u64;
    let mut obs_added = 0u64;
    let mut obs_removed = 0u64;
    let mut saturated = 0u64;
    let mut checked = 0u64;
    let batches: Vec<_> = std::iter::from_fn(|| s.next_batch()).collect();
    let n_batches = batches.len();
    for (i, batch) in batches.iter().enumerate() {
        let carriers_before = snapshot.n_carriers() as u64;
        let digest = apply_fleet_deltas(&mut snapshot, batch).expect("stream batch is consistent");
        arena.append(&snapshot);
        let before = std::mem::replace(&mut scope, Scope::whole(&snapshot));
        // A fresh per-batch cache: every param sharing a key layout
        // splices its column once, the rest borrow it.
        let cache = SharedKeyColumns::new();
        let report = model.apply_delta(&DeltaApply {
            snapshot: &snapshot,
            arena: &arena,
            scope_before: &before,
            scope_after: &scope,
            batch: &digest,
            key_cache: Some(cache),
        });
        let tally = if digest.structural() {
            &mut structural
        } else {
            &mut retune
        };
        tally.batches += 1;
        tally.events += digest.events as u64;
        tally.patched += report.params_patched as u64;
        tally.rebuilt += report.params_rebuilt as u64;
        tally.untouched += report.params_untouched as u64;
        // No batch adds after a remove, and removes pop the tail: a rise
        // in the carrier count is the carriers the batch added and kept,
        // a fall the pre-batch carriers it removed.
        let carriers_after = snapshot.n_carriers() as u64;
        carriers_added += carriers_after.saturating_sub(carriers_before);
        carriers_removed += carriers_before.saturating_sub(carriers_after);
        obs_added += report.obs_added;
        obs_removed += report.obs_removed;
        saturated += report.count_saturated;
        if i % STRIDE == 0 || i + 1 == n_batches {
            let full = CfModel::fit(&snapshot, &scope, CfConfig::default());
            let ours = serde_json::to_string(&model).expect("model serializes");
            let refit = serde_json::to_string(&full).expect("model serializes");
            assert_eq!(
                ours, refit,
                "batch {i}: incremental model diverged from full refit"
            );
            checked += 1;
        }
    }

    let mut table = TextTable::new(vec![
        "phase",
        "batches",
        "events",
        "patched",
        "rebuilt",
        "untouched",
    ]);
    for (name, t) in [("structural", &structural), ("retune", &retune)] {
        table.row(vec![
            name.to_string(),
            format!("{}", t.batches),
            format!("{}", t.events),
            format!("{}", t.patched),
            format!("{}", t.rebuilt),
            format!("{}", t.untouched),
        ]);
    }
    let text = format!(
        "stream-ingest — streaming fleet ingestion, incremental refit per batch\n\
         replayed the generator as a delta stream from the empty fleet\n\n{}\n\
         final fleet: {} carriers, {} directed pairs \
         ({carriers_added} added, {carriers_removed} removed in-stream)\n\
         table churn: {obs_added} obs added, {obs_removed} removed, {saturated} saturated\n\
         {checked} full-refit byte-equality checks passed (stride {STRIDE})\n",
        table.render(),
        snapshot.n_carriers(),
        snapshot.x2.n_pairs(),
    );
    let json = json!({
        "batches": structural.batches + retune.batches,
        "structural_batches": structural.batches,
        "retune_batches": retune.batches,
        "events": structural.events + retune.events,
        "carriers": snapshot.n_carriers(),
        "pairs": snapshot.x2.n_pairs(),
        "carriers_added": carriers_added,
        "carriers_removed": carriers_removed,
        "params_patched": structural.patched + retune.patched,
        "params_rebuilt": structural.rebuilt + retune.rebuilt,
        "params_untouched": structural.untouched + retune.untouched,
        "obs_added": obs_added,
        "obs_removed": obs_removed,
        "count_saturated": saturated,
        "refit_checks": checked,
    });
    ExpOutput {
        id: "stream-ingest".into(),
        title: "Streaming ingestion: incremental fit == full refit".into(),
        text,
        json,
    }
}
