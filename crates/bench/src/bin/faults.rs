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

fn main() -> std::process::ExitCode {
    redcane_bench::cli::main(redcane_bench::faults::FaultsConfig::smoke())
}
