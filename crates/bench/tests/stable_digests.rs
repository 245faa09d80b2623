//! The behavioural oracle as a test: the stable lines every session
//! bench writes with `--out`, and one profiled run's
//! `--profile-counters` document, pinned by their FNV-1a 64 digests.
//!
//! Each bench runs through its [`Bench`] impl at a debug-sized spec, at
//! 1 and 3 worker threads (which must agree), and the digest of the
//! exact `--out` bytes is compared with the pinned value. A refactor
//! that must not change any output keeps every digest; a deliberate
//! change updates the pinned value it moves, and the failure message
//! prints the new one.
//!
//! The outputs carry floats computed through libm (`exp`, `sqrt` in
//! squash, softmax and Adam), so the test is gated on x86-64 Linux,
//! where the digests were recorded — as `train_golden.rs` is. It is
//! one test in its own process, so the process-wide thread count and
//! the trace planes are not shared with any other test.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use redcane_artifacts::fingerprint;
use redcane_bench::cli::{stable_lines, Bench};
use redcane_bench::faults::FaultsConfig;
use redcane_bench::profile::{profile_to_json, stable_counters};
use redcane_bench::qdp::QdpConfig;
use redcane_bench::serve::ServeBenchConfig;
use redcane_bench::session::{Arch, BenchSpec};
use redcane_tensor::par;
use redcane_trace as trace;

/// The pinned digests, one per output, in the order the test runs them.
const PINNED: [(&str, u64); 5] = [
    ("qdp", 0x4925_6554_2cf9_537b),
    ("faults", 0xcf92_9d62_68c0_a059),
    ("serve", 0x6dd1_f949_10c4_799e),
    ("pipeline", 0x0ae9_d3a5_6b69_57b2),
    ("qdp profile counters", 0x7ddd_e552_903d_b408),
];

/// One epoch on a few dozen samples: enough to run every step of both
/// lowered programs, small enough for a debug build.
fn spec(archs: Vec<Arch>) -> BenchSpec {
    BenchSpec {
        archs,
        train: 40,
        test: 16,
        epochs: 1,
        calib_samples: 6,
        characterization_samples: 200,
        eval_samples: 8,
        ..BenchSpec::smoke()
    }
}

fn both() -> Vec<Arch> {
    vec![Arch::CapsNet, Arch::DeepCaps]
}

/// The exact component and one approximate one, plus the Step-6
/// heterogeneous design, on both architectures.
fn qdp() -> QdpConfig {
    QdpConfig {
        spec: spec(both()),
        components: Some(vec!["mul8u_1JFF".to_string(), "mul8u_QKX".to_string()]),
        heterogeneous: true,
    }
}

/// A thin fault grid over the first two sites of both architectures,
/// fail-soft.
fn faults() -> FaultsConfig {
    FaultsConfig {
        spec: spec(both()),
        stuck_bits: vec![3, 7],
        bers: vec![5e-2],
        acc_bits: vec![30],
        act_bers: vec![1e-2],
        dead: true,
        max_sites: Some(2),
        fail_soft: true,
    }
}

/// A short fill-only burst; the worker count follows the thread count.
fn serve() -> ServeBenchConfig {
    ServeBenchConfig {
        spec: spec(vec![Arch::CapsNet]),
        requests: 14,
        clients: 2,
        workers: None,
        max_batch: 3,
        max_wait_us: None,
        arrival_rate_rps: 1e6,
        step6: false,
        budget_s: None,
    }
}

/// The exact bytes `--out` writes for one run of `bench`.
fn out_file<B: Bench>(bench: &B) -> String {
    stable_lines::<B>(&B::lines(&bench.run())).join("\n") + "\n"
}

/// The `--profile-counters` document of one profiled run of `bench`.
fn counters_file<B: Bench>(bench: &B) -> String {
    trace::reset();
    trace::set_enabled(true);
    let _ = bench.run();
    let snap = trace::snapshot();
    trace::set_enabled(false);
    format!(
        "{}\n",
        stable_counters(&profile_to_json(B::NAME, Vec::new(), snap)).dump()
    )
}

/// `output` at 1 and 3 worker threads, asserted equal.
fn thread_invariant(name: &str, output: impl Fn() -> String) -> String {
    let at = |threads: usize| {
        par::set_threads(threads);
        let out = output();
        par::set_threads(0);
        out
    };
    let serial = at(1);
    assert_eq!(serial, at(3), "{name}: the thread count changed the output");
    serial
}

#[test]
fn stable_outputs_match_their_pinned_digests() {
    let outputs = [
        thread_invariant("qdp", || out_file(&qdp())),
        thread_invariant("faults", || out_file(&faults())),
        thread_invariant("serve", || out_file(&serve())),
        thread_invariant("pipeline", || out_file(&spec(vec![Arch::CapsNet]))),
        thread_invariant("qdp profile counters", || counters_file(&qdp())),
    ];
    let moved: Vec<String> = PINNED
        .iter()
        .zip(&outputs)
        .filter_map(|(&(name, pinned), output)| {
            let now = fingerprint(output);
            (now != pinned).then(|| format!("{name}: pinned {pinned:#018x}, now {now:#018x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "stable outputs moved:\n{}",
        moved.join("\n")
    );
}
