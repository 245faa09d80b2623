//! Seeded end-to-end ReD-CaNe pipeline smoke benchmark.
//!
//! Runs dataset generation → tiny CapsNet training → group extraction →
//! noise sweep → component selection and prints exactly one JSON line
//! to stdout (human-readable progress goes to stderr). Usage:
//!
//! ```text
//! pipeline [--benchmark mnist|fashion|svhn|cifar] [--seed N]
//!          [--train N] [--test N] [--epochs N] [--threads N]
//!          [--artifacts DIR] [--no-cache] [--no-timings]
//!          [--profile PATH] [--profile-counters PATH]
//!          [--profile-folded PATH]
//! ```
//!
//! The model comes from the shared bench session, through the
//! trained-artifact store (default `.redcane-artifacts`, or
//! `REDCANE_ARTIFACTS`): warm runs restore instead of training, also
//! from an entry `qdp`, `faults` or `serve` wrote at the same spec.
//! `--no-cache` forces a cold run; `--no-timings` drops the wall-clock
//! `timings_s` field so cold and warm outputs can be byte-compared —
//! and, with `--profile`, the profile's `timings` section with it.
//! The `--profile*` flags record the run through `redcane-trace`:
//! deterministic work counters plus the hierarchical span tree.

use std::process::ExitCode;

use redcane_artifacts::ArtifactStore;
use redcane_bench::cli::{next_benchmark, next_parsed, next_value, require_nonzero};
use redcane_bench::pipeline::{outcome_to_json, outcome_to_json_stable, run_pipeline, spec};
use redcane_bench::profile::{provenance_meta, ProfileArgs};
use redcane_bench::session::BenchSpec;

fn parse_args(mut cfg: BenchSpec) -> Result<(BenchSpec, bool, ProfileArgs), String> {
    let mut artifacts_flag: Option<String> = None;
    let mut no_cache = false;
    let mut no_timings = false;
    let mut profile = ProfileArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--benchmark" => cfg.benchmark = next_benchmark(&mut args)?,
            "--seed" => cfg.seed = next_parsed(&mut args, "--seed")?,
            "--train" => cfg.train = next_parsed(&mut args, "--train")?,
            "--test" => cfg.test = next_parsed(&mut args, "--test")?,
            "--epochs" => cfg.epochs = next_parsed(&mut args, "--epochs")?,
            "--threads" => redcane_tensor::par::set_threads(next_parsed(&mut args, "--threads")?),
            "--artifacts" => artifacts_flag = Some(next_value(&mut args, "--artifacts")?),
            "--no-cache" => no_cache = true,
            "--no-timings" => no_timings = true,
            "--help" | "-h" => {
                eprintln!(
                    "pipeline: seeded end-to-end ReD-CaNe smoke benchmark\n\
                     flags: --benchmark mnist|fashion|svhn|cifar, --seed N, \
                     --train N, --test N, --epochs N, --threads N, \
                     --artifacts DIR, --no-cache, --no-timings, \
                     --profile PATH, --profile-counters PATH, \
                     --profile-folded PATH"
                );
                std::process::exit(0);
            }
            other => match profile.match_flag(other, &mut args) {
                Some(res) => res?,
                None => return Err(format!("unknown flag '{other}'")),
            },
        }
    }
    // Fail with a clean CLI error rather than tripping run_pipeline's
    // asserts.
    require_nonzero(cfg.train, "--train")?;
    require_nonzero(cfg.test, "--test")?;
    cfg.artifacts = ArtifactStore::resolve_dir(artifacts_flag.as_deref(), no_cache);
    Ok((cfg, no_timings, profile))
}

fn main() -> ExitCode {
    let (cfg, no_timings, profile) = match parse_args(spec()) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("pipeline: {msg}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[pipeline] benchmark={} seed={} train={} test={} epochs={}",
        cfg.benchmark, cfg.seed, cfg.train, cfg.test, cfg.epochs
    );
    profile.enable_if_requested();
    let outcome = run_pipeline(&cfg);
    eprintln!(
        "[pipeline] baseline {:.3}, design predicted {:.3} (drop {:.2} pp), \
         measured {:.3} (drop {:.2} pp) in {:.2}s (train {:.2}s, methodology {:.2}s)",
        outcome.report.group_sweep.baseline_accuracy,
        outcome.report.design.predicted_accuracy,
        outcome.report.design.predicted_drop_pp(),
        outcome.report.design.measured_accuracy.unwrap_or(f64::NAN),
        outcome.report.design.measured_drop_pp().unwrap_or(f64::NAN),
        outcome.timings.total_s(),
        outcome.timings.train_s,
        outcome.timings.methodology_s,
    );
    let json = if no_timings {
        outcome_to_json_stable(&outcome)
    } else {
        outcome_to_json(&outcome)
    };
    println!("{}", json.dump());
    let meta = provenance_meta([(outcome.arch, outcome.provenance)]);
    if let Err(msg) = profile.write("pipeline", meta, !no_timings) {
        eprintln!("pipeline: {msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
