//! `auric-eval` — regenerate the paper's tables and figures.
//!
//! ```text
//! auric-eval <experiment>... [--scale tiny|small|medium|full]
//!            [--seed N] [--json DIR] [--obs] [--list]
//! auric-eval all [--scale ...]
//! ```
//!
//! Each experiment prints its report to stdout; with `--json DIR` the
//! machine-readable result is written to `DIR/<id>.json` as well. With
//! `--obs` each experiment runs under a fresh deterministic recorder and
//! its metrics report is written to `DIR/<id>.obs.json` (or printed when
//! no `--json` directory is given); two runs at the same scale and seed
//! produce byte-identical obs reports.

use auric_eval::{RunOptions, Runner, EXPERIMENTS};
use auric_netgen::NetScale;
use auric_obs::Recorder;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: auric-eval <experiment>... [--scale tiny|small|medium|full] [--seed N] [--json DIR]\n\
         experiments: all, {}",
        EXPERIMENTS.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<String> = Vec::new();
    let mut opts = RunOptions::default();
    let mut json_dir: Option<String> = None;
    let mut with_obs = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                println!("{}", EXPERIMENTS.join("\n"));
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--scale" => {
                let Some(v) = it.next() else {
                    eprintln!("--scale needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                opts.scale = Some(match v.as_str() {
                    "tiny" => NetScale::tiny(),
                    "small" => NetScale::small(),
                    "medium" => NetScale::medium(),
                    "full" => NetScale::full(),
                    other => {
                        eprintln!("unknown scale {other:?}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                });
            }
            "--seed" => {
                let Some(v) = it.next() else {
                    eprintln!("--seed needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match v.parse() {
                    Ok(s) => opts.seed = s,
                    Err(e) => {
                        eprintln!("bad seed {v:?}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => {
                let Some(v) = it.next() else {
                    eprintln!("--json needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                };
                json_dir = Some(v.clone());
            }
            "--obs" => with_obs = true,
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if names.iter().any(|n| n == "all") {
        names = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut runner = Runner::default();
    for name in &names {
        let started = std::time::Instant::now();
        // A fresh recorder per experiment keeps each obs report
        // self-contained; the manual clock makes it deterministic.
        if with_obs {
            opts.obs = Recorder::deterministic();
        }
        match runner.run(name, &opts) {
            Ok(out) => {
                println!(
                    "==> {} ({:.1}s)\n",
                    out.title,
                    started.elapsed().as_secs_f64()
                );
                println!("{}", out.text);
                if let Some(dir) = &json_dir {
                    let path = format!("{dir}/{}.json", out.id);
                    match serde_json::to_string_pretty(&out.json) {
                        Ok(body) => {
                            if let Err(e) = std::fs::write(&path, body) {
                                eprintln!("cannot write {path}: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                        Err(e) => {
                            eprintln!("cannot serialize {name}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if with_obs {
                    let report = opts.obs.report_json();
                    if let Some(dir) = &json_dir {
                        let path = format!("{dir}/{}.obs.json", out.id);
                        if let Err(e) = std::fs::write(&path, report) {
                            eprintln!("cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    } else {
                        println!("--- obs: {} ---\n{report}", out.id);
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
