//! Seeded fault-injection resilience sweep across the quantized
//! datapath, for both of the paper's architectures.
//!
//! Trains (or restores) the small CapsNet and DeepCaps, lowers each
//! onto the exact 8-bit datapath, then injects one discrete fault at a
//! time — weight-code stuck bits, multiplier bit flips, accumulator
//! stuck lanes, activation flips, dead multiplier arrays — at every
//! swept `(layer, op, in-routing)` site and measures the faulted
//! accuracy. One JSON line per trial plus one `site_criticality`
//! summary line per site, to stdout (progress goes to stderr). Usage:
//!
//! ```text
//! faults [--quick] [--benchmark mnist|fashion|svhn|cifar] [--seed N]
//!        [--arch capsnet|deepcaps|both] [--fail-soft] [--max-sites N]
//!        [--out PATH] [--threads N] [--artifacts DIR] [--no-cache]
//!        [--profile PATH] [--profile-counters PATH]
//!        [--profile-folded PATH]
//! ```
//!
//! `--fail-soft` downgrades sites a plan leaves dead to the exact
//! multiplier (the row reports the downgrade); without it, dead-site
//! trials record the backend's refusal. The trained-artifact store is
//! shared with the `qdp` bench: a warm run restores the same weights,
//! ranges and characterization tables instead of training.

use std::process::ExitCode;

use redcane_bench::cli::{parse_session, write_lines};
use redcane_bench::faults::{faults_to_json_lines, run_faults, FaultsConfig};
use redcane_bench::profile::provenance_meta;

const USAGE: &str = "faults: per-site bit-flip / stuck-at / dead-output resilience \
analysis across the quantized datapath
flags: --quick, --benchmark mnist|fashion|svhn|cifar, --seed N, \
--arch capsnet|deepcaps|both, --fail-soft, --max-sites N, \
--out PATH, --threads N, --artifacts DIR, --no-cache, \
--profile PATH, --profile-counters PATH, \
--profile-folded PATH";

fn main() -> ExitCode {
    run().unwrap_or_else(|msg| {
        eprintln!("faults: {msg}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let argv = std::env::args().skip(1).collect();
    let Some(args) = parse_session(argv, FaultsConfig::smoke(), |_, _| None)? else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    args.profile.enable_if_requested();
    let outcome = run_faults(&args.config);
    let lines: Vec<String> = faults_to_json_lines(&outcome)
        .iter()
        .map(|v| v.dump())
        .collect();
    for line in &lines {
        println!("{line}");
    }
    for arch in &outcome.archs {
        eprintln!(
            "[faults] {}: {} ({} trial(s) over {} site(s), baseline {:.3})",
            arch.arch.label(),
            arch.provenance.label(),
            arch.trials.len(),
            arch.sites.len(),
            arch.baseline_accuracy
        );
    }
    eprintln!("[faults] total {:.2}s", outcome.total_s);
    if let Some(path) = &args.out {
        write_lines(path, &lines)?;
    }
    let meta = provenance_meta(outcome.archs.iter().map(|a| (a.arch, a.provenance)));
    args.profile.write("faults", meta, true)?;
    Ok(ExitCode::SUCCESS)
}
