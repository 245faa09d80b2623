//! Seeded end-to-end ReD-CaNe pipeline benchmark.
//!
//! Runs dataset generation → tiny CapsNet training → group extraction →
//! noise sweep → component selection → measured re-score of the Step-6
//! design, and prints one JSON line per architecture to stdout
//! (human-readable progress goes to stderr). Usage:
//!
//! ```text
//! pipeline [--quick] [--benchmark mnist|fashion|svhn|cifar] [--seed N]
//!          [--arch capsnet|deepcaps|both] [--out PATH] [--threads N]
//!          [--artifacts DIR] [--no-cache] [--profile PATH]
//!          [--profile-counters PATH] [--profile-folded PATH]
//! ```
//!
//! The default runs CapsNet only. The model comes from the shared bench
//! session, through the trained-artifact store (default
//! `.redcane-artifacts`, or `REDCANE_ARTIFACTS`): warm runs restore
//! instead of training, also from an entry `qdp`, `faults` or `serve`
//! wrote at the same spec (`--quick` trains under `qdp --quick`'s key).
//! `--no-cache` forces a cold run. `--out` writes the stable lines —
//! the lines without the wall-clock `timings_s` field — so cold and
//! warm outputs can be byte-compared. The `--profile*` flags record the
//! run through `redcane-trace`: deterministic work counters plus the
//! hierarchical span tree.

fn main() -> std::process::ExitCode {
    redcane_bench::cli::main(redcane_bench::pipeline::spec())
}
