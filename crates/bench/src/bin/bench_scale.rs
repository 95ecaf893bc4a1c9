//! Emits `BENCH_scale.json`: the paper-scale engine run — generation,
//! the fit thread curve, a singular leave-one-out accuracy sweep, and
//! the streaming-ingestion row (carriers/s absorbed via `apply_delta`,
//! plus a steady-state retune delta timed against a full refit with a
//! self-enforced >= 10x transient-RSS budget; nonzero exit on a miss or
//! on incremental/full divergence; the ratio reads `unmeasured` where
//! `VmHWM` cannot be reset).
//!
//! Every `fit_thread_curve` row records the worker count the pool
//! *actually* used (the request is clamped to the parameter count — the
//! same fix `bench_cf` applies via `fit_worker_threads`) and the peak RSS
//! of that row alone: `VmHWM` is reset through `/proc/self/clear_refs`
//! before each fit and read back from `/proc/self/status` after it, so a
//! hungry row cannot hide behind an earlier one's high-water mark.
//!
//! Run with `cargo run --release -p auric-bench --bin bench_scale --
//! [tiny|medium|paper]` (default `paper`); debug builds are rejected.

use std::time::Instant;

use auric_core::accuracy::evaluate_param;
use auric_core::{
    parallel_map, AccuracyReport, CfConfig, CfModel, DeltaApply, FitOptions, Scope,
    SharedKeyColumns,
};
use auric_model::{
    apply_fleet_deltas, empty_snapshot, AttrArena, DeltaSlot, FleetDelta, NetworkSnapshot, ParamId,
    Provenance,
};
use auric_netgen::{generate, stream, NetScale, TuningKnobs};
use auric_obs::Recorder;
use serde_json::json;

/// Resets the process's RSS high-water mark (`VmHWM`) and returns whether
/// the reset took effect. Needs write access to `/proc/self/clear_refs`;
/// where that is denied nothing is reset, and the next reading reports
/// the run-wide peak — still a valid upper bound for a row's own peak,
/// but no measure of how far one step pushed it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The retune row's transient-RSS budget: the incremental absorb must
/// raise the high-water mark at least 10x less than a full refit does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RssBudget {
    /// `VmHWM` could not be reset before both steps, so their transients
    /// are deltas of a run-wide peak: no ratio is measured and the budget
    /// is neither met nor missed.
    Unmeasured,
    /// Full-refit transient over incremental transient, and whether that
    /// meets the budget.
    Measured { ratio: f64, met: bool },
}

/// Judges the budget from the two transients (MB). The budget only binds
/// when the full refit's transient is big enough to measure (>= 16 MB —
/// medium scale and up; tiny is page noise), and a page-size floor keeps
/// the ratio honest when the incremental transient is too small for
/// `VmHWM` (kB granularity) to see at all.
fn rss_budget(reset_took_effect: bool, inc_transient_mb: f64, full_transient_mb: f64) -> RssBudget {
    if !reset_took_effect {
        return RssBudget::Unmeasured;
    }
    let ratio = full_transient_mb / inc_transient_mb.max(1.0);
    RssBudget::Measured {
        ratio,
        met: full_transient_mb < 16.0 || ratio >= 10.0,
    }
}

/// Current RSS high-water mark in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Leave-one-out accuracy over every singular parameter at every carrier
/// of `scope`, on the global (key-column) path: `evaluate_param(..,
/// local = false)` per parameter, spread over `parallel_map`'s
/// `fit_worker_threads` threads. Returns the per-parameter accuracies,
/// micro and macro.
fn singular_global_loo(
    snap: &NetworkSnapshot,
    scope: &Scope,
    model: &CfModel,
) -> (AccuracyReport, f64, f64) {
    let params: Vec<ParamId> = snap.catalog.singular_ids().collect();
    let per_param = parallel_map(params.len(), |i| {
        evaluate_param(snap, scope, model, params[i], false)
    });
    let report = AccuracyReport { per_param };
    let (micro, macro_) = (report.micro_accuracy(), report.macro_accuracy());
    (report, micro, macro_)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("bench_scale: refusing to time a debug build; use --release");
        std::process::exit(2);
    }

    let scale_name = std::env::args().nth(1).unwrap_or_else(|| "paper".into());
    let scale = match scale_name.as_str() {
        "tiny" => NetScale::tiny(),
        "medium" => NetScale::medium(),
        // The paper's shape: 28 markets, ~400K carriers (Table 3).
        "paper" => NetScale {
            n_markets: 28,
            enbs_per_market: 1750,
            seed: 7,
        },
        other => {
            eprintln!("bench_scale: unknown scale {other:?} (tiny|medium|paper)");
            std::process::exit(2);
        }
    };

    eprintln!(
        "bench_scale: generating {scale_name} network ({} markets x {} eNBs)...",
        scale.n_markets, scale.enbs_per_market
    );
    reset_peak_rss();
    let t0 = Instant::now();
    let net = generate(&scale, &TuningKnobs::default());
    let netgen_s = t0.elapsed().as_secs_f64();
    let netgen_rss_mb = peak_rss_mb();
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let config = CfConfig::default();
    let n_params = snap.catalog.len();
    eprintln!(
        "bench_scale: {} carriers, {} pairs, netgen {netgen_s:.1}s (peak {netgen_rss_mb:.0} MB)",
        snap.n_carriers(),
        snap.x2.n_pairs()
    );

    let mut curve = Vec::new();
    let mut peak_mb = netgen_rss_mb;
    let mut model = None;
    for threads in [1usize, 2, 4, 8] {
        // What the pool will actually run with: the request clamped to the
        // job count (there is never more than one worker per parameter).
        let workers = threads.clamp(1, n_params);
        eprintln!("bench_scale: fit with {threads} requested threads ({workers} workers)...");
        // Drop the previous row's model before fitting the next one: two
        // paper-scale models resident at once would dominate the row's
        // high-water mark and measure the bench, not the fit.
        drop(model.take());
        reset_peak_rss();
        let obs = Recorder::wall();
        let t0 = Instant::now();
        let fitted = CfModel::fit_with(
            snap,
            &scope,
            config,
            FitOptions {
                obs: obs.clone(),
                threads: Some(threads),
                key_cache: None,
            },
        );
        let fit_s = t0.elapsed().as_secs_f64();
        let row_rss_mb = peak_rss_mb();
        peak_mb = peak_mb.max(row_rss_mb);
        eprintln!(
            "bench_scale:   {fit_s:.1}s, peak RSS {row_rss_mb:.0} MB, arena {} MB, \
             key columns built {} / shared {}",
            obs.gauge("cf.fit.arena.bytes") / (1 << 20),
            obs.gauge("cf.fit.keycol.built"),
            obs.gauge("cf.fit.keycol.shared"),
        );
        curve.push(json!({
            "threads": threads,
            "workers": workers,
            "fit_s": fit_s,
            "peak_rss_mb": row_rss_mb,
            "arena_bytes": obs.gauge("cf.fit.arena.bytes"),
            "keycol_built": obs.gauge("cf.fit.keycol.built"),
            "keycol_shared": obs.gauge("cf.fit.keycol.shared"),
            "keycol_bytes": obs.gauge("cf.fit.keycol.bytes"),
        }));
        model = Some(fitted);
    }
    let model = model.expect("at least one fit ran");

    let loo_workers = auric_core::fit_worker_threads(snap.catalog.singular_ids().count());
    eprintln!("bench_scale: singular LoO sweep ({loo_workers} workers)...");
    reset_peak_rss();
    let t0 = Instant::now();
    let (loo, micro, macro_) = singular_global_loo(snap, &scope, &model);
    let loo_s = t0.elapsed().as_secs_f64();
    let loo_rss_mb = peak_rss_mb();
    peak_mb = peak_mb.max(loo_rss_mb);

    // ---- Streaming ingestion: absorb the fleet as a delta stream ----
    // Replays the generator batch-by-batch from the empty fleet through
    // `apply_delta`, then lands one steady-state retune batch twice —
    // incrementally and as a full refit — comparing wall time and
    // transient RSS (VmHWM delta over the current RSS after a reset).
    // The budget below holds the incremental path to a >= 10x transient-
    // RSS advantage whenever the full refit is big enough to measure
    // (>= 16 MB transient — medium scale and up; tiny is page noise).
    eprintln!("bench_scale: streaming ingestion replay...");
    let mut sstream = stream(&scale, &TuningKnobs::default());
    let mut snap2 = empty_snapshot(sstream.schema().clone(), sstream.catalog().clone());
    let mut arena = AttrArena::from_snapshot(&snap2);
    let mut scope2 = Scope::whole(&snap2);
    let mut inc = CfModel::fit(&snap2, &scope2, config);
    let mut absorb_batches = 0u64;
    let mut absorb_events = 0u64;
    let t0 = Instant::now();
    while let Some(batch) = sstream.next_batch() {
        let digest = apply_fleet_deltas(&mut snap2, &batch).expect("stream batch is consistent");
        arena.append(&snap2);
        let before = std::mem::replace(&mut scope2, Scope::whole(&snap2));
        inc.apply_delta(&DeltaApply {
            snapshot: &snap2,
            arena: &arena,
            scope_before: &before,
            scope_after: &scope2,
            batch: &digest,
            key_cache: Some(SharedKeyColumns::new()),
        });
        absorb_batches += 1;
        absorb_events += digest.events as u64;
    }
    let absorb_s = t0.elapsed().as_secs_f64();
    let carriers_per_s = snap2.n_carriers() as f64 / absorb_s.max(1e-9);
    eprintln!(
        "bench_scale:   absorbed {} carriers over {absorb_batches} batches in {absorb_s:.1}s \
         ({carriers_per_s:.0} carriers/s)",
        snap2.n_carriers()
    );

    // The steady-state delta a long-running service sees: a spread of
    // singular retunes, no fleet-shape change.
    let sing_params: Vec<ParamId> = snap2.catalog.singular_ids().collect();
    let retunes: Vec<FleetDelta> = snap2
        .carriers
        .iter()
        .take(64)
        .enumerate()
        .map(|(k, c)| {
            let p = sing_params[k % sing_params.len()];
            let card = snap2.catalog.def(p).range.n_values() as u16;
            FleetDelta::Retune {
                param: p,
                slot: DeltaSlot::Carrier(c.id),
                value: (snap2.config.value(p, c.id) + 1) % card,
                why: Provenance::Noise,
            }
        })
        .collect();
    let digest = apply_fleet_deltas(&mut snap2, &retunes).expect("retune batch is consistent");
    arena.append(&snap2);
    let before = std::mem::replace(&mut scope2, Scope::whole(&snap2));

    let inc_reset = reset_peak_rss();
    let inc_base_mb = peak_rss_mb();
    let t0 = Instant::now();
    inc.apply_delta(&DeltaApply {
        snapshot: &snap2,
        arena: &arena,
        scope_before: &before,
        scope_after: &scope2,
        batch: &digest,
        key_cache: Some(SharedKeyColumns::new()),
    });
    let inc_s = t0.elapsed().as_secs_f64();
    let inc_transient_mb = (peak_rss_mb() - inc_base_mb).max(0.0);

    let full_reset = reset_peak_rss();
    let full_base_mb = peak_rss_mb();
    let t0 = Instant::now();
    let refit = CfModel::fit(&snap2, &scope2, config);
    let full_s = t0.elapsed().as_secs_f64();
    let full_transient_mb = (peak_rss_mb() - full_base_mb).max(0.0);
    peak_mb = peak_mb.max(peak_rss_mb());

    let inc_json = serde_json::to_string(&inc).expect("model serializes");
    let refit_json = serde_json::to_string(&refit).expect("model serializes");
    if inc_json != refit_json {
        eprintln!("bench_scale: FAIL — incremental model diverged from full refit");
        std::process::exit(1);
    }
    drop(refit);
    let budget = rss_budget(inc_reset && full_reset, inc_transient_mb, full_transient_mb);
    let (rss_ratio_text, rss_ratio_json) = match budget {
        RssBudget::Unmeasured => ("unmeasured".to_string(), json!("unmeasured")),
        RssBudget::Measured { ratio, .. } => (format!("{ratio:.1}x"), json!(ratio)),
    };
    let refit_speedup = full_s / inc_s.max(1e-9);
    eprintln!(
        "bench_scale:   retune delta absorbed in {inc_s:.3}s / {inc_transient_mb:.0} MB transient \
         vs full refit {full_s:.3}s / {full_transient_mb:.0} MB ({rss_ratio_text} RSS, \
         {refit_speedup:.1}x wall); models byte-identical"
    );
    let budget_ok = match budget {
        RssBudget::Unmeasured => {
            eprintln!(
                "bench_scale:   transient RSS budget unmeasured: VmHWM could not be reset \
                 (/proc/self/clear_refs not writable)"
            );
            true
        }
        RssBudget::Measured { met: true, .. } => true,
        RssBudget::Measured { ratio, met: false } => {
            eprintln!(
                "bench_scale: FAIL — incremental absorb transient RSS budget: \
                 {ratio:.1}x < 10x advantage over a full refit"
            );
            false
        }
    };

    let report = json!({
        "bench": "paper_scale_engine",
        "scale": scale_name,
        "n_markets": scale.n_markets,
        "enbs_per_market": scale.enbs_per_market,
        "n_carriers": snap.n_carriers(),
        "n_pairs": snap.x2.n_pairs(),
        "n_params": n_params,
        "n_segments": snap.markets.len(),
        "available_parallelism": std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1),
        "netgen_s": netgen_s,
        "netgen_peak_rss_mb": netgen_rss_mb,
        "fit_thread_curve": curve,
        "singular_loo": json!({
            "threads": loo_workers,
            "wall_s": loo_s,
            "peak_rss_mb": loo_rss_mb,
            "n_params": loo.per_param.len(),
            "evaluated_values": loo.total_values(),
            "micro_accuracy": micro,
            "macro_accuracy": macro_,
        }),
        "stream_ingest": json!({
            "absorb_batches": absorb_batches,
            "absorb_events": absorb_events,
            "absorb_s": absorb_s,
            "carriers_per_s": carriers_per_s,
            "retune_delta": json!({
                "events": digest.events,
                "incremental_s": inc_s,
                "incremental_transient_mb": inc_transient_mb,
                "full_refit_s": full_s,
                "full_refit_transient_mb": full_transient_mb,
                "transient_rss_ratio": rss_ratio_json,
                "refit_speedup": refit_speedup,
            }),
        }),
        "peak_rss_mb": peak_mb,
    });
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_scale.json", &text).expect("write BENCH_scale.json");
    println!("{text}");
    eprintln!(
        "bench_scale: done — run peak RSS {peak_mb:.0} MB, singular LoO micro {micro:.4} \
         (wrote BENCH_scale.json)"
    );
    if !budget_ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_model::ParamKind;

    #[test]
    fn singular_loo_matches_the_singular_rows_of_evaluate_cf() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        let (loo, micro, macro_) = singular_global_loo(snap, &scope, &model);
        let singular = AccuracyReport {
            per_param: auric_core::evaluate_cf(snap, &scope, &model, false)
                .per_param
                .into_iter()
                .filter(|a| snap.catalog.def(a.param).kind == ParamKind::Singular)
                .collect(),
        };
        assert_eq!(loo, singular);
        assert_eq!(loo.total_values(), 39 * snap.n_carriers());
        assert_eq!(micro, singular.micro_accuracy());
        assert_eq!(macro_, singular.macro_accuracy());
    }

    #[test]
    fn a_failed_reset_leaves_the_budget_unmeasured() {
        // Run-wide peak deltas that would read as a 46x pass.
        assert_eq!(rss_budget(false, 0.0, 46.7), RssBudget::Unmeasured);
        assert_eq!(rss_budget(false, 30.0, 46.7), RssBudget::Unmeasured);
    }

    #[test]
    fn a_reset_run_enforces_the_budget_as_before() {
        let measured = |inc, full| match rss_budget(true, inc, full) {
            RssBudget::Measured { ratio, met } => (ratio, met),
            RssBudget::Unmeasured => panic!("a reset run is measured"),
        };
        assert_eq!(measured(2.0, 40.0), (20.0, true));
        assert_eq!(measured(5.0, 40.0), (8.0, false));
        // The page-size floor on the incremental transient.
        assert_eq!(measured(0.0, 46.7), (46.7, true));
        // A full refit under 16 MB is page noise: the budget does not bind.
        assert_eq!(measured(3.0, 12.0), (4.0, true));
    }
}
