//! Property test for the profile's headline guarantee: the stable
//! counter document (`--profile-counters`) is **byte-identical** across
//! worker-thread counts, for both of the paper's architectures. The
//! volatile sections (`meta`, `store`, `train_counters`, `timings`) are
//! redacted through the same `Value::without_keys` mechanism the
//! session benches' stable `--out` lines use; everything that remains
//! must not move by a single byte when the thread count changes.

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;
use redcane_bench::profile::{profile_to_json, stable_counters};
use redcane_bench::qdp::{run_qdp, QdpConfig};
use redcane_bench::session::{Arch, BenchSpec};
use redcane_tensor::par;
use redcane_trace as trace;

/// Memoized stable-counter dumps keyed by `(arch index, threads)`. The
/// proptest's sample space is tiny (2 archs × 3 thread counts), so the
/// cache bounds the number of real `run_qdp` calls at six while the
/// cases still exercise every combination; the lock also serializes
/// the process-global thread override and trace planes.
static DUMPS: Mutex<BTreeMap<(usize, usize), String>> = Mutex::new(BTreeMap::new());

const ARCHS: [Arch; 2] = [Arch::CapsNet, Arch::DeepCaps];

/// A deliberately small sweep — one component, one epoch — so the six
/// distinct `(arch, threads)` runs stay cheap.
fn tiny(arch: Arch) -> QdpConfig {
    QdpConfig {
        spec: BenchSpec {
            archs: vec![arch],
            train: 40,
            test: 16,
            epochs: 1,
            calib_samples: 6,
            eval_samples: 8,
            characterization_samples: 200,
            ..BenchSpec::smoke()
        },
        components: Some(vec!["mul8u_1JFF".to_string()]),
        heterogeneous: false,
    }
}

/// The `--profile-counters` document a profiled run at `threads`
/// workers would write, as its exact byte string.
fn stable_dump(arch_idx: usize, threads: usize) -> String {
    let mut cache = DUMPS.lock().unwrap();
    if let Some(hit) = cache.get(&(arch_idx, threads)) {
        return hit.clone();
    }
    par::set_threads(threads);
    trace::reset();
    trace::set_enabled(true);
    let outcome = run_qdp(&tiny(ARCHS[arch_idx]));
    let snap = trace::snapshot();
    trace::set_enabled(false);
    par::set_threads(0);
    assert_eq!(outcome.archs.len(), 1);
    let doc = stable_counters(&profile_to_json("qdp", Vec::new(), snap));
    let dump = format!("{}\n", doc.dump());
    cache.insert((arch_idx, threads), dump.clone());
    dump
}

proptest! {
    /// Any worker count produces the serial run's counter bytes, for
    /// either architecture — the CI `cmp` gate, as a property.
    #[test]
    fn stable_counters_are_byte_identical_across_thread_counts(
        arch_idx in 0usize..2,
        threads in 2usize..5,
    ) {
        let serial = stable_dump(arch_idx, 1);
        let parallel = stable_dump(arch_idx, threads);
        prop_assert_eq!(&serial, &parallel, "arch {} at {} threads", arch_idx, threads);
        // Sanity: the document actually carries work, not just zeros.
        prop_assert!(serial.contains("\"qgemm_macs\":"));
        prop_assert!(!serial.contains("\"timings\""));
    }
}
