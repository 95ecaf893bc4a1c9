//! The observability reports of the eval driver must be deterministic:
//! two runs of the same experiment at the same scale and seed, each with
//! a fresh deterministic recorder, produce byte-identical obs JSON.
//!
//! A fast subset covers the instrumented layers — `table5` (CF fit plus
//! the SmartLaunch/EMS campaign), `ops-chaos` (fault injection and
//! retries), `global-vs-local` (per-market fits), `kpi_loop` (the KPI
//! post-check, rollback and quarantine counters), `serve-batch` (the
//! batched serving counters). The full 17-experiment sweep is exercised
//! by `auric-eval all --obs` (see EXPERIMENTS.md); running it twice
//! here would dominate the test suite.

use auric_eval::{RunOptions, Runner};
use auric_netgen::NetScale;
use auric_obs::Recorder;

fn obs_report(name: &str) -> String {
    let opts = RunOptions {
        scale: Some(NetScale::tiny()),
        seed: 7,
        obs: Recorder::deterministic(),
        ..Default::default()
    };
    Runner::default().run(name, &opts).expect("experiment runs");
    opts.obs.report_json()
}

#[test]
fn obs_reports_are_byte_identical_across_runs() {
    for name in [
        "table5",
        "ops-chaos",
        "global-vs-local",
        "kpi_loop",
        "serve-batch",
    ] {
        let a = obs_report(name);
        let b = obs_report(name);
        assert_eq!(a, b, "{name}: obs reports differ between identical runs");

        // Non-trivial: the per-experiment span and the CF fit counters
        // must be present — an empty report would mean the layer was
        // silently left uninstrumented.
        assert!(
            a.contains(&format!("\"exp.{name}\"")),
            "{name}: missing experiment span in {a}"
        );
        assert!(
            a.contains("\"cf.fit.params\""),
            "{name}: missing CF fit counters in {a}"
        );

        // The feedback-loop experiment must surface its verdict,
        // rollback and quarantine counters.
        if name == "kpi_loop" {
            for counter in [
                "\"ems.postcheck.degraded\"",
                "\"ems.postcheck.pass\"",
                "\"ems.quarantine.suppressed\"",
                "\"ems.quarantine.added\"",
                "\"ems.quarantine.released\"",
                "\"ems.rollback.total\"",
            ] {
                assert!(a.contains(counter), "{name}: missing {counter}");
            }
        }

        // The batched-serving experiment must surface its coalescing
        // and epoch-validated-cache counters.
        if name == "serve-batch" {
            for counter in [
                "\"serve.batch.size\"",
                "\"serve.batch.groups\"",
                "\"serve.batch.coalesced\"",
                "\"serve.cache.hit\"",
                "\"serve.cache.miss\"",
                "\"serve.cache.insert\"",
                "\"serve.cache.invalidated\"",
            ] {
                assert!(a.contains(counter), "{name}: missing {counter}");
            }
        }
    }
}

#[test]
fn disabled_recorder_reports_nothing() {
    let opts = RunOptions {
        scale: Some(NetScale::tiny()),
        seed: 7,
        ..Default::default()
    };
    Runner::default()
        .run("global-vs-local", &opts)
        .expect("experiment runs");
    assert_eq!(
        opts.obs.report_json(),
        "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {},\n  \"spans\": {}\n}"
    );
}
