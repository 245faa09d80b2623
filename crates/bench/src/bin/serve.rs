//! Open-loop serving benchmark over `redcane-serve`'s dynamic
//! batcher, for both of the paper's architectures.
//!
//! Trains (or restores — the trained-artifact key is shared with the
//! `qdp`/`faults` benches) the small CapsNet and DeepCaps, builds one
//! serving engine per architecture over up to three datapath
//! assignments (exact / cheapest library component / Step-6
//! heterogeneous design), then drives it with a seeded open-loop
//! client load and reports p50/p99/max latency, throughput, batch
//! statistics and queue depth per (arch × assignment). One JSON line
//! per assignment, to stdout (progress goes to stderr). Usage:
//!
//! ```text
//! serve [--quick] [--benchmark mnist|fashion|svhn|cifar] [--seed N]
//!       [--arch capsnet|deepcaps|both] [--requests N] [--clients N]
//!       [--workers N] [--max-batch N] [--max-wait-us N] [--rate RPS]
//!       [--step6|--no-step6] [--out PATH] [--stable-out PATH]
//!       [--budget-s S] [--threads N] [--artifacts DIR] [--no-cache]
//!       [--profile PATH] [--profile-counters PATH]
//!       [--profile-folded PATH]
//! ```
//!
//! `--stable-out` writes only the timing-free fields (request counts,
//! correctness, prediction checksums) — byte-identical at every
//! `REDCANE_THREADS` setting, which is what CI `cmp`s. `--budget-s`
//! fails the run when the serving sessions (training excluded) exceed
//! the budget: the latency-regression tripwire.

use std::process::ExitCode;

use redcane::report::json::Value;
use redcane_bench::cli::{next_parsed, next_value, parse_session, write_lines};
use redcane_bench::profile::provenance_meta;
use redcane_bench::serve::{
    run_serve, serve_to_json_lines, serve_to_json_lines_stable, ServeBenchConfig,
};

const USAGE: &str = "serve: open-loop dynamic-batching serving benchmark over the \
quantized datapath
flags: --quick, --benchmark mnist|fashion|svhn|cifar, --seed N, \
--arch capsnet|deepcaps|both, --requests N, --clients N, \
--workers N, --max-batch N, --max-wait-us N, --rate RPS, \
--step6, --no-step6, --out PATH, --stable-out PATH, \
--budget-s S, --threads N, --artifacts DIR, --no-cache, \
--profile PATH, --profile-counters PATH, --profile-folded PATH";

fn main() -> ExitCode {
    run().unwrap_or_else(|msg| {
        eprintln!("serve: {msg}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let mut stable_out: Option<String> = None;
    let mut budget_s: Option<f64> = None;
    let argv = std::env::args().skip(1).collect();
    let parsed = parse_session(argv, ServeBenchConfig::smoke(), |flag, args| match flag {
        "--stable-out" => Some(next_value(args, flag).map(|v| stable_out = Some(v))),
        "--budget-s" => Some(next_parsed(args, flag).map(|v: f64| budget_s = Some(v))),
        _ => None,
    })?;
    let Some(args) = parsed else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    args.profile.enable_if_requested();
    let outcome = run_serve(&args.config);
    let dump = |lines: Vec<Value>| -> Vec<String> { lines.iter().map(Value::dump).collect() };
    let lines = dump(serve_to_json_lines(&outcome));
    for line in &lines {
        println!("{line}");
    }
    for arch in &outcome.archs {
        eprintln!(
            "[serve] {}: {} ({} assignment(s), {} request(s), {:.2}s serving)",
            arch.arch.label(),
            arch.provenance.label(),
            arch.assignments.len(),
            arch.assignments.iter().map(|a| a.requests).sum::<usize>(),
            arch.serve_s
        );
    }
    eprintln!(
        "[serve] total {:.2}s ({:.2}s serving)",
        outcome.total_s, outcome.serve_s
    );
    if let Some(path) = &args.out {
        write_lines(path, &lines)?;
    }
    if let Some(path) = &stable_out {
        write_lines(path, &dump(serve_to_json_lines_stable(&outcome)))?;
    }
    let meta = provenance_meta(outcome.archs.iter().map(|a| (a.arch, a.provenance)));
    args.profile.write("serve", meta, true)?;
    // The regression tripwire: serving time only, so cold (train) and
    // warm (restore) CI runs trip identically.
    match budget_s {
        Some(budget) if outcome.serve_s > budget => Err(format!(
            "serving sessions took {:.2}s, over the --budget-s {budget:.2}s tripwire",
            outcome.serve_s
        )),
        _ => Ok(ExitCode::SUCCESS),
    }
}
