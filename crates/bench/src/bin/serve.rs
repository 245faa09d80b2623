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
//!       [--step6|--no-step6] [--out PATH] [--budget-s S]
//!       [--threads N] [--artifacts DIR] [--no-cache]
//!       [--profile PATH] [--profile-counters PATH]
//!       [--profile-folded PATH]
//! ```
//!
//! `--out` writes the stable lines: only the timing-free fields
//! (request counts, correctness, prediction checksums) —
//! byte-identical at every `REDCANE_THREADS` setting, which is what CI
//! `cmp`s. `--rate` must be a positive, finite rate. `--budget-s`
//! fails the run when the serving sessions (training excluded) exceed
//! the budget: the latency-regression tripwire.

fn main() -> std::process::ExitCode {
    redcane_bench::cli::main(redcane_bench::serve::ServeBenchConfig::smoke())
}
