//! Seeded measured-vs-predicted comparison over the multiplier library,
//! for both of the paper's architectures.
//!
//! Trains the small CapsNet and DeepCaps, calibrates and lowers each
//! through the architecture-generic quantized pipeline, then for every
//! selected approximate multiplier scores the same uniform assignment
//! on the measured backend (the real component model inside every MAC)
//! and the noise-predicted backend (the paper's Gaussian injection) —
//! and, in heterogeneous mode (default; `--heterogeneous` forces it
//! on), re-scores each architecture's Step-6 per-layer design on both
//! backends. One JSON line per `(architecture, component-or-design)`
//! to stdout (progress goes to stderr). Usage:
//!
//! ```text
//! qdp [--quick] [--benchmark mnist|fashion|svhn|cifar] [--seed N]
//!     [--arch capsnet|deepcaps|both] [--components name,name,...]
//!     [--heterogeneous | --no-heterogeneous] [--out PATH] [--threads N]
//!     [--artifacts DIR] [--no-cache] [--profile PATH]
//!     [--profile-counters PATH] [--profile-folded PATH]
//! ```
//!
//! Trained weights, calibrated ranges and the characterized `(NA, NM)`
//! table go through the trained-artifact store (default
//! `.redcane-artifacts`, or `REDCANE_ARTIFACTS`): warm runs restore
//! instead of training. `--no-cache` forces a cold run.

use std::process::ExitCode;

use redcane_bench::cli::{parse_session, write_lines};
use redcane_bench::profile::provenance_meta;
use redcane_bench::qdp::{qdp_to_json_lines, run_qdp, QdpConfig};

const USAGE: &str = "qdp: measured vs noise-predicted accuracy drop per multiplier \
and for the heterogeneous Step-6 design
flags: --quick, --benchmark mnist|fashion|svhn|cifar, --seed N, \
--arch capsnet|deepcaps|both, --components a,b,..., \
--heterogeneous, --no-heterogeneous, --out PATH, --threads N, \
--artifacts DIR, --no-cache, --profile PATH, \
--profile-counters PATH, --profile-folded PATH";

fn main() -> ExitCode {
    run().unwrap_or_else(|msg| {
        eprintln!("qdp: {msg}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let argv = std::env::args().skip(1).collect();
    let Some(args) = parse_session(argv, QdpConfig::smoke(), |_, _| None)? else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    args.profile.enable_if_requested();
    let outcome = run_qdp(&args.config);
    let lines: Vec<String> = qdp_to_json_lines(&outcome)
        .iter()
        .map(|v| v.dump())
        .collect();
    for line in &lines {
        println!("{line}");
    }
    for arch in &outcome.archs {
        eprintln!(
            "[qdp] {}: {} ({} component(s), float baseline {:.3})",
            arch.arch.label(),
            arch.provenance.label(),
            arch.rows.len(),
            arch.float_accuracy
        );
    }
    eprintln!("[qdp] total {:.2}s", outcome.total_s);
    if let Some(path) = &args.out {
        write_lines(path, &lines)?;
    }
    let meta = provenance_meta(outcome.archs.iter().map(|a| (a.arch, a.provenance)));
    args.profile.write("qdp", meta, true)?;
    Ok(ExitCode::SUCCESS)
}
