//! Hot-path kernel benchmark and perf-regression tripwire.
//!
//! Times the blocked GEMM, conv and routing kernels against their twins
//! (mostly the naive references) in alternating pairs, an
//! artifact-store restore against one training epoch, and one full
//! seeded pipeline run, then writes the results to
//! `BENCH_perf.json` (and echoes the JSON line to stdout). Usage:
//!
//! ```text
//! perf [--quick] [--out PATH] [--budget-s SECONDS] [--threads N]
//!      [--artifacts DIR] [--no-cache] [--profile PATH]
//!      [--profile-counters PATH] [--profile-folded PATH]
//! ```
//!
//! With `--budget-s`, the binary exits non-zero if the seeded pipeline
//! exceeds the given wall-clock budget — CI uses this as a generous
//! regression tripwire. The embedded pipeline run goes through the
//! trained-artifact store (default `.redcane-artifacts`, or
//! `REDCANE_ARTIFACTS`); `--no-cache` forces it to train.

use std::process::ExitCode;

use redcane_artifacts::ArtifactStore;
use redcane_bench::cli::{next_parsed, next_value};
use redcane_bench::perf::{perf_to_json, run_perf};
use redcane_bench::profile::ProfileArgs;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_path = "BENCH_perf.json".to_string();
    let mut budget_s: Option<f64> = None;
    let mut artifacts_flag: Option<String> = None;
    let mut no_cache = false;
    let mut profile = ProfileArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let parsed: Result<(), String> = match flag.as_str() {
            "--quick" => {
                quick = true;
                Ok(())
            }
            "--out" => next_value(&mut args, "--out").map(|v| out_path = v),
            "--budget-s" => next_parsed(&mut args, "--budget-s").map(|v| budget_s = Some(v)),
            "--artifacts" => next_value(&mut args, "--artifacts").map(|v| artifacts_flag = Some(v)),
            "--no-cache" => {
                no_cache = true;
                Ok(())
            }
            "--threads" => next_parsed(&mut args, "--threads")
                .map(|v: usize| redcane_tensor::par::set_threads(v)),
            "--help" | "-h" => {
                eprintln!(
                    "perf: hot-path kernel benchmark\n\
                     flags: --quick, --out PATH, --budget-s SECONDS, --threads N, \
                     --artifacts DIR, --no-cache, --profile PATH, \
                     --profile-counters PATH, --profile-folded PATH"
                );
                return ExitCode::SUCCESS;
            }
            other => profile
                .match_flag(other, &mut args)
                .unwrap_or_else(|| Err(format!("unknown flag '{other}'"))),
        };
        if let Err(msg) = parsed {
            eprintln!("perf: {msg}");
            return ExitCode::FAILURE;
        }
    }
    profile.enable_if_requested();
    let report = run_perf(
        quick,
        ArtifactStore::resolve_dir(artifacts_flag.as_deref(), no_cache),
    );
    for probe in &report.probes {
        match probe.speedup_vs_naive() {
            Some(speedup) => eprintln!(
                "[perf] {:<32} {:>12.0} ns/op  ({speedup:.2}x vs naive)",
                probe.name, probe.ns_per_op
            ),
            None => eprintln!("[perf] {:<32} {:>12.0} ns/op", probe.name, probe.ns_per_op),
        }
    }
    eprintln!(
        "[perf] pipeline total {:.2}s (train {:.2}s) on {} thread(s)",
        report.pipeline_total_s, report.pipeline_train_s, report.threads
    );
    let line = perf_to_json(&report).dump();
    if let Err(e) = std::fs::write(&out_path, format!("{line}\n")) {
        eprintln!("perf: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if let Err(msg) = profile.write("perf", Vec::new()) {
        eprintln!("perf: {msg}");
        return ExitCode::FAILURE;
    }
    if let Some(budget) = budget_s {
        if report.pipeline_total_s > budget {
            eprintln!(
                "perf: pipeline took {:.2}s, exceeding the {budget:.2}s budget",
                report.pipeline_total_s
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
