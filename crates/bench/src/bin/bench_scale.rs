//! Emits `BENCH_scale.json`: the paper-scale engine run — generation,
//! the fit thread curve, a singular leave-one-out accuracy sweep, and
//! the streaming-ingestion row (carriers/s absorbed via `apply_delta`,
//! plus a steady-state retune delta timed against a full refit with a
//! self-enforced >= 10x peak-RSS budget; nonzero exit on a miss or on
//! incremental/full divergence).
//!
//! Every row runs in a fresh child process — this binary re-run as
//! `bench_scale <scale> --row <row>` — that builds its own input, runs
//! the row, and prints it as JSON with its own peak RSS (`VmHWM` from
//! `/proc/self/status`), so a hungry row cannot hide behind an earlier
//! one's high-water mark. A row's peak includes building its input: the
//! generated network for every row, and the fit the LoO sweep reads.
//! Every `fit_thread_curve` row records the worker count the pool
//! *actually* used (the request is clamped to the parameter count — the
//! same fix `bench_cf` applies via `fit_worker_threads`).
//!
//! Run with `cargo run --release -p auric-bench --bin bench_scale --
//! [tiny|medium|paper]` (default `paper`); debug builds are rejected.

use std::process::{Command, Stdio};
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
use serde_json::{json, Value};

/// The rows, in report order; each runs in its own child process.
const ROWS: [&str; 7] = [
    "netgen", "fit:1", "fit:2", "fit:4", "fit:8", "loo", "stream",
];

/// The retune row's budget: the incremental absorb must raise the
/// process's high-water mark at least 10x less than a full refit does.
/// Both steps run in one child, after the same stand-up. The budget only
/// binds when the full refit raises the mark by >= 16 MB (medium scale
/// and up; tiny is page noise), and a page-size floor keeps the ratio
/// honest when the incremental rise is too small for `VmHWM` (kB
/// granularity) to see at all. Returns `(ratio, met)`.
fn rss_budget(inc_rise_mb: f64, full_rise_mb: f64) -> (f64, bool) {
    let ratio = full_rise_mb / inc_rise_mb.max(1.0);
    (ratio, full_rise_mb < 16.0 || ratio >= 10.0)
}

/// A `/proc/self/status` reading in MB (`VmHWM`, `VmRSS`).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field).and_then(|r| r.strip_prefix(':')) {
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

/// This process's RSS high-water mark in MB.
fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
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

/// The scale named on the command line.
fn parse_scale(name: &str) -> Option<NetScale> {
    match name {
        "tiny" => Some(NetScale::tiny()),
        "medium" => Some(NetScale::medium()),
        // The paper's shape: 28 markets, ~400K carriers (Table 3).
        "paper" => Some(NetScale {
            n_markets: 28,
            enbs_per_market: 1750,
            seed: 7,
        }),
        _ => None,
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("bench_scale: refusing to time a debug build; use --release");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale_name = args.first().map_or("paper", String::as_str);
    let Some(scale) = parse_scale(scale_name) else {
        eprintln!("bench_scale: unknown scale {scale_name:?} (tiny|medium|paper)");
        std::process::exit(2);
    };
    match &args[1.min(args.len())..] {
        [] => report(scale_name, &scale),
        [flag, row] if flag == "--row" && ROWS.contains(&row.as_str()) => {
            let row = run_row(&scale, row);
            println!("{}", serde_json::to_string(&row).expect("row serializes"));
        }
        other => {
            eprintln!("bench_scale: unexpected arguments {other:?} (--row <row>)");
            std::process::exit(2);
        }
    }
}

/// Runs every row in a child process and writes `BENCH_scale.json`.
fn report(scale_name: &str, scale: &NetScale) {
    let exe = std::env::current_exe().expect("the bench knows its own path");
    let mut rows = ROWS.iter().map(|row| {
        let out = Command::new(&exe)
            .args([scale_name, "--row", row])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn a row");
        if !out.status.success() {
            eprintln!("bench_scale: FAIL — row {row} exited with {}", out.status);
            std::process::exit(1);
        }
        let text = String::from_utf8(out.stdout).expect("a row prints UTF-8");
        serde_json::from_str::<Value>(&text).expect("a row prints JSON")
    });
    let netgen = rows.next().expect("the netgen row");
    let curve: Vec<Value> = rows.by_ref().take(4).collect();
    let loo = rows.next().expect("the LoO row");
    let ingest = rows.next().expect("the stream row");
    let peak_mb = std::iter::once(&netgen)
        .chain(&curve)
        .chain([&loo, &ingest])
        .filter_map(|row| row["peak_rss_mb"].as_f64())
        .fold(0.0, f64::max);
    let budget_met = ingest["retune_delta"]["budget_met"] == json!(true);

    let report = json!({
        "bench": "paper_scale_engine",
        "scale": scale_name,
        "n_markets": scale.n_markets,
        "enbs_per_market": scale.enbs_per_market,
        "n_carriers": netgen["n_carriers"],
        "n_pairs": netgen["n_pairs"],
        "n_params": netgen["n_params"],
        "n_segments": netgen["n_segments"],
        "available_parallelism": std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1),
        "netgen_s": netgen["netgen_s"],
        "netgen_peak_rss_mb": netgen["peak_rss_mb"],
        "fit_thread_curve": curve,
        "singular_loo": loo,
        "stream_ingest": ingest,
        "peak_rss_mb": peak_mb,
    });
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_scale.json", &text).expect("write BENCH_scale.json");
    println!("{text}");
    eprintln!("bench_scale: done — peak RSS of the hungriest row {peak_mb:.0} MB (wrote BENCH_scale.json)");
    if !budget_met {
        std::process::exit(1);
    }
}

/// Runs one row in this process and returns it, its peak RSS included.
fn run_row(scale: &NetScale, row: &str) -> Value {
    let config = CfConfig::default();
    if row == "stream" {
        return stream_row(scale, config);
    }
    let t0 = Instant::now();
    let snap = generate(scale, &TuningKnobs::default()).snapshot;
    let netgen_s = t0.elapsed().as_secs_f64();
    let scope = Scope::whole(&snap);
    let n_params = snap.catalog.len();
    if row == "netgen" {
        let peak = peak_rss_mb();
        eprintln!(
            "bench_scale: {} carriers, {} pairs, netgen {netgen_s:.1}s (peak {peak:.0} MB)",
            snap.n_carriers(),
            snap.x2.n_pairs()
        );
        return json!({
            "netgen_s": netgen_s,
            "peak_rss_mb": peak,
            "n_carriers": snap.n_carriers(),
            "n_pairs": snap.x2.n_pairs(),
            "n_params": n_params,
            "n_segments": snap.markets.len(),
        });
    }
    if row == "loo" {
        let model = CfModel::fit(&snap, &scope, config);
        let loo_workers = auric_core::fit_worker_threads(snap.catalog.singular_ids().count());
        eprintln!("bench_scale: singular LoO sweep ({loo_workers} workers)...");
        let t0 = Instant::now();
        let (loo, micro, macro_) = singular_global_loo(&snap, &scope, &model);
        let loo_s = t0.elapsed().as_secs_f64();
        return json!({
            "threads": loo_workers,
            "wall_s": loo_s,
            "peak_rss_mb": peak_rss_mb(),
            "n_params": loo.per_param.len(),
            "evaluated_values": loo.total_values(),
            "micro_accuracy": micro,
            "macro_accuracy": macro_,
        });
    }
    let threads: usize = row
        .strip_prefix("fit:")
        .and_then(|t| t.parse().ok())
        .expect("a fit row names its thread count");
    // What the pool will actually run with: the request clamped to the
    // job count (there is never more than one worker per parameter).
    let workers = threads.clamp(1, n_params);
    eprintln!("bench_scale: fit with {threads} requested threads ({workers} workers)...");
    let obs = Recorder::wall();
    let t0 = Instant::now();
    let fitted = CfModel::fit_with(
        &snap,
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
    drop(fitted);
    eprintln!(
        "bench_scale:   {fit_s:.1}s, peak RSS {row_rss_mb:.0} MB, arena {} MB, \
         key columns built {} / shared {}",
        obs.gauge("cf.fit.arena.bytes") / (1 << 20),
        obs.gauge("cf.fit.keycol.built"),
        obs.gauge("cf.fit.keycol.shared"),
    );
    json!({
        "threads": threads,
        "workers": workers,
        "fit_s": fit_s,
        "peak_rss_mb": row_rss_mb,
        "arena_bytes": obs.gauge("cf.fit.arena.bytes"),
        "keycol_built": obs.gauge("cf.fit.keycol.built"),
        "keycol_shared": obs.gauge("cf.fit.keycol.shared"),
        "keycol_bytes": obs.gauge("cf.fit.keycol.bytes"),
    })
}

/// Streaming ingestion: replays the generator batch by batch from the
/// empty fleet through `apply_delta`, then lands one steady-state retune
/// batch twice — incrementally and as a full refit — comparing wall time
/// and how far each raises the high-water mark (see [`rss_budget`]).
/// Exits nonzero when the two models differ.
fn stream_row(scale: &NetScale, config: CfConfig) -> Value {
    eprintln!("bench_scale: streaming ingestion replay...");
    let mut sstream = stream(scale, &TuningKnobs::default());
    let mut snap = empty_snapshot(sstream.schema().clone(), sstream.catalog().clone());
    let mut arena = AttrArena::from_snapshot(&snap);
    let mut scope = Scope::whole(&snap);
    let mut inc = CfModel::fit(&snap, &scope, config);
    let mut absorb_batches = 0u64;
    let mut absorb_events = 0u64;
    let t0 = Instant::now();
    while let Some(batch) = sstream.next_batch() {
        let digest = apply_fleet_deltas(&mut snap, &batch).expect("stream batch is consistent");
        arena.append(&snap);
        let before = std::mem::replace(&mut scope, Scope::whole(&snap));
        inc.apply_delta(&DeltaApply {
            snapshot: &snap,
            arena: &arena,
            scope_before: &before,
            scope_after: &scope,
            batch: &digest,
            key_cache: Some(SharedKeyColumns::new()),
        });
        absorb_batches += 1;
        absorb_events += digest.events as u64;
    }
    let absorb_s = t0.elapsed().as_secs_f64();
    let carriers_per_s = snap.n_carriers() as f64 / absorb_s.max(1e-9);
    eprintln!(
        "bench_scale:   absorbed {} carriers over {absorb_batches} batches in {absorb_s:.1}s \
         ({carriers_per_s:.0} carriers/s)",
        snap.n_carriers()
    );

    // The steady-state delta a long-running service sees: a spread of
    // singular retunes, no fleet-shape change.
    let sing_params: Vec<ParamId> = snap.catalog.singular_ids().collect();
    let retunes: Vec<FleetDelta> = snap
        .carriers
        .iter()
        .take(64)
        .enumerate()
        .map(|(k, c)| {
            let p = sing_params[k % sing_params.len()];
            let card = snap.catalog.def(p).range.n_values() as u16;
            FleetDelta::Retune {
                param: p,
                slot: DeltaSlot::Carrier(c.id),
                value: (snap.config.value(p, c.id) + 1) % card,
                why: Provenance::Noise,
            }
        })
        .collect();
    let digest = apply_fleet_deltas(&mut snap, &retunes).expect("retune batch is consistent");
    arena.append(&snap);
    let before = std::mem::replace(&mut scope, Scope::whole(&snap));

    let rss_before_mb = status_mb("VmRSS");
    let standup_peak_mb = peak_rss_mb();
    let t0 = Instant::now();
    inc.apply_delta(&DeltaApply {
        snapshot: &snap,
        arena: &arena,
        scope_before: &before,
        scope_after: &scope,
        batch: &digest,
        key_cache: Some(SharedKeyColumns::new()),
    });
    let inc_s = t0.elapsed().as_secs_f64();
    let inc_peak_mb = peak_rss_mb();
    let t0 = Instant::now();
    let refit = CfModel::fit(&snap, &scope, config);
    let full_s = t0.elapsed().as_secs_f64();
    let full_peak_mb = peak_rss_mb();
    let (inc_rise_mb, full_rise_mb) = (inc_peak_mb - standup_peak_mb, full_peak_mb - inc_peak_mb);

    let inc_json = serde_json::to_string(&inc).expect("model serializes");
    let refit_json = serde_json::to_string(&refit).expect("model serializes");
    if inc_json != refit_json {
        eprintln!("bench_scale: FAIL — incremental model diverged from full refit");
        std::process::exit(1);
    }
    drop(refit);
    let (ratio, met) = rss_budget(inc_rise_mb, full_rise_mb);
    let refit_speedup = full_s / inc_s.max(1e-9);
    eprintln!(
        "bench_scale:   retune delta absorbed in {inc_s:.3}s / +{inc_rise_mb:.0} MB peak \
         vs full refit {full_s:.3}s / +{full_rise_mb:.0} MB ({ratio:.1}x RSS, \
         {refit_speedup:.1}x wall); models byte-identical"
    );
    if !met {
        eprintln!(
            "bench_scale: FAIL — incremental absorb peak-RSS budget: \
             {ratio:.1}x < 10x advantage over a full refit"
        );
    }
    json!({
        "absorb_batches": absorb_batches,
        "absorb_events": absorb_events,
        "absorb_s": absorb_s,
        "carriers_per_s": carriers_per_s,
        "peak_rss_mb": full_peak_mb,
        "retune_delta": json!({
            "events": digest.events,
            "rss_before_mb": rss_before_mb,
            "standup_peak_rss_mb": standup_peak_mb,
            "incremental_s": inc_s,
            "incremental_peak_rise_mb": inc_rise_mb,
            "full_refit_s": full_s,
            "full_refit_peak_rise_mb": full_rise_mb,
            "peak_rise_ratio": ratio,
            "budget_met": met,
            "refit_speedup": refit_speedup,
        }),
    })
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
    fn the_budget_binds_on_a_measurable_refit() {
        assert_eq!(rss_budget(2.0, 40.0), (20.0, true));
        assert_eq!(rss_budget(5.0, 40.0), (8.0, false));
        // The page-size floor on the incremental rise.
        assert_eq!(rss_budget(0.0, 46.7), (46.7, true));
        // A full refit under 16 MB is page noise: the budget does not bind.
        assert_eq!(rss_budget(3.0, 12.0), (4.0, true));
    }

    #[test]
    fn status_fields_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(status_mb("VmRSS") > 0.0);
        assert!(status_mb("VmRSS") <= peak_rss_mb());
        assert_eq!(status_mb("NoSuchField"), 0.0);
    }

    #[test]
    fn the_netgen_row_reports_its_network() {
        let row = run_row(&NetScale::tiny(), "netgen");
        assert!(row["peak_rss_mb"].as_f64().unwrap() > 0.0);
        assert_eq!(row["n_params"], json!(65));
    }
}
