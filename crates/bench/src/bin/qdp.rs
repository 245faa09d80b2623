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

fn main() -> std::process::ExitCode {
    redcane_bench::cli::main(redcane_bench::qdp::QdpConfig::smoke())
}
