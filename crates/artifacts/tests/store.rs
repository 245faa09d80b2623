//! End-to-end store tests against real models: round trips for both
//! architectures, loud rejection of damaged entries, and the retrain
//! fallback of `load_or_train`.

use std::fs;
use std::path::PathBuf;

use redcane_artifacts::{
    fingerprint, load_or_train, ArtifactError, ArtifactKey, ArtifactPayload, ArtifactStore,
    ComponentNoise, Provenance, RangeEntry, STORE_SCHEMA_VERSION,
};
use redcane_capsnet::{
    CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, NoInjection, OpKind,
};
use redcane_fxp::QuantParams;
use redcane_tensor::TensorRng;

/// Fresh per-test store directory under the system temp dir.
fn scratch_store(tag: &str) -> ArtifactStore {
    let dir = std::env::temp_dir().join(format!(
        "redcane-artifacts-test-{}-{}",
        tag,
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    ArtifactStore::new(dir)
}

fn sample_payload() -> ArtifactPayload {
    ArtifactPayload {
        epoch_losses: vec![0.8, 0.35, 0.21],
        train_accuracy: 0.9125,
        ranges: vec![
            RangeEntry {
                layer: "Conv1".into(),
                kind: OpKind::MacOutput,
                in_routing: false,
                params: QuantParams::from_range(-2.0, 3.0, 8).unwrap(),
            },
            RangeEntry {
                layer: "ClassCaps".into(),
                kind: OpKind::LogitsUpdate,
                in_routing: true,
                params: QuantParams::from_range(-0.5, 0.5, 8).unwrap(),
            },
        ],
        noise_table: vec![
            ComponentNoise {
                component: "mul8u_1JFF".into(),
                samples: 2000,
                na: 0.0,
                nm: 0.0,
            },
            ComponentNoise {
                component: "mul8u_NGR".into(),
                samples: 2000,
                na: -2.5e-4,
                nm: 1.5e-3,
            },
        ],
        activation_codes: (0..=255).collect(),
    }
}

fn capsnet_pair() -> (CapsNet, CapsNet) {
    let cfg = CapsNetConfig::small(1, 16);
    (
        CapsNet::new(&cfg, &mut TensorRng::from_seed(271)),
        CapsNet::new(&cfg, &mut TensorRng::from_seed(999)),
    )
}

fn deepcaps_pair() -> (DeepCaps, DeepCaps) {
    let cfg = DeepCapsConfig::small(1, 16);
    (
        DeepCaps::new(&cfg, &mut TensorRng::from_seed(272)),
        DeepCaps::new(&cfg, &mut TensorRng::from_seed(998)),
    )
}

fn assert_same_behavior(a: &mut dyn CapsModel, b: &mut dyn CapsModel, seed: u64) {
    let x = TensorRng::from_seed(seed).uniform(&[1, 16, 16], 0.0, 1.0);
    assert_eq!(
        a.forward(&x, &mut NoInjection),
        b.forward(&x, &mut NoInjection)
    );
}

#[test]
fn round_trips_capsnet_weights_ranges_and_tables() {
    let store = scratch_store("rt-capsnet");
    let key = ArtifactKey::new("capsnet", "mnist-like", 7, 4, fingerprint("rt"));
    let (mut trained, mut restored) = capsnet_pair();
    let payload = sample_payload();
    store.save(&key, &mut trained, &payload).unwrap();
    let loaded = store.load(&key, &mut restored).unwrap();
    assert_eq!(loaded, payload);
    assert_same_behavior(&mut trained, &mut restored, 31);
}

#[test]
fn round_trips_deepcaps_weights_ranges_and_tables() {
    let store = scratch_store("rt-deepcaps");
    let key = ArtifactKey::new("deepcaps", "cifar10-like", 7, 4, fingerprint("rt"));
    let (mut trained, mut restored) = deepcaps_pair();
    let payload = sample_payload();
    store.save(&key, &mut trained, &payload).unwrap();
    let loaded = store.load(&key, &mut restored).unwrap();
    assert_eq!(loaded, payload);
    assert_same_behavior(&mut trained, &mut restored, 32);
}

#[test]
fn missing_entry_is_a_plain_io_miss() {
    let store = scratch_store("miss");
    let key = ArtifactKey::new("capsnet", "mnist-like", 1, 1, fingerprint("miss"));
    let (mut model, _) = capsnet_pair();
    match store.load(&key, &mut model) {
        Err(ArtifactError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected NotFound, got {other:?}"),
    }
}

#[test]
fn truncated_entry_is_rejected_with_named_error() {
    let store = scratch_store("trunc");
    let key = ArtifactKey::new("capsnet", "mnist-like", 2, 3, fingerprint("trunc"));
    let (mut trained, mut restored) = capsnet_pair();
    let path = store.save(&key, &mut trained, &sample_payload()).unwrap();
    let full = fs::read(&path).unwrap();
    fs::write(&path, &full[..full.len() / 2]).unwrap();
    let err = store.load(&key, &mut restored).unwrap_err();
    assert!(
        matches!(
            err,
            ArtifactError::Truncated { .. } | ArtifactError::ChecksumMismatch { .. }
        ),
        "{err}"
    );
}

#[test]
fn bit_flipped_weights_are_rejected_with_named_error() {
    let store = scratch_store("flip");
    let key = ArtifactKey::new("capsnet", "mnist-like", 3, 3, fingerprint("flip"));
    let (mut trained, mut restored) = capsnet_pair();
    let path = store.save(&key, &mut trained, &sample_payload()).unwrap();
    let mut data = fs::read(&path).unwrap();
    // Flip one bit in the middle of the (large) weight section.
    let mid = data.len() / 2;
    data[mid] ^= 0x01;
    fs::write(&path, &data).unwrap();
    let err = store.load(&key, &mut restored).unwrap_err();
    assert!(
        matches!(err, ArtifactError::ChecksumMismatch { .. }),
        "{err}"
    );
}

#[test]
fn wrong_schema_version_is_rejected_with_named_error() {
    let store = scratch_store("schema");
    let key = ArtifactKey::new("capsnet", "mnist-like", 4, 3, fingerprint("schema"));
    let (mut trained, mut restored) = capsnet_pair();
    let path = store.save(&key, &mut trained, &sample_payload()).unwrap();
    let mut data = fs::read(&path).unwrap();
    // Schema version sits right after the 4-byte magic.
    data[4..8].copy_from_slice(&(STORE_SCHEMA_VERSION + 9).to_le_bytes());
    fs::write(&path, &data).unwrap();
    let err = store.load(&key, &mut restored).unwrap_err();
    assert!(
        matches!(err, ArtifactError::SchemaVersionMismatch { found, .. }
            if found == STORE_SCHEMA_VERSION + 9),
        "{err}"
    );
}

#[test]
fn entry_under_wrong_key_is_rejected() {
    let store = scratch_store("wrong-key");
    let key = ArtifactKey::new("capsnet", "mnist-like", 5, 3, fingerprint("a"));
    let (mut trained, mut restored) = capsnet_pair();
    let path = store.save(&key, &mut trained, &sample_payload()).unwrap();
    // Simulate a file renamed under a different key's name.
    let mut other = key.clone();
    other.fingerprint = fingerprint("b");
    fs::copy(&path, store.path_for(&other)).unwrap();
    let err = store.load(&other, &mut restored).unwrap_err();
    assert!(
        matches!(
            err,
            ArtifactError::KeyMismatch {
                field: "fingerprint",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn wrong_architecture_weights_are_rejected() {
    let store = scratch_store("wrong-arch");
    let key = ArtifactKey::new("deepcaps", "mnist-like", 6, 3, fingerprint("arch"));
    // Save a CapsNet under a key a DeepCaps consumer will look up: the
    // header matches but the weight codec must refuse the shapes.
    let (mut capsnet, _) = capsnet_pair();
    store.save(&key, &mut capsnet, &sample_payload()).unwrap();
    let (mut deepcaps, _) = deepcaps_pair();
    let err = store.load(&key, &mut deepcaps).unwrap_err();
    assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");
}

#[test]
fn load_or_train_trains_once_then_restores() {
    let store = scratch_store("lot");
    let key = ArtifactKey::new("capsnet", "mnist-like", 8, 2, fingerprint("lot"));
    let (mut first, mut second) = capsnet_pair();

    let mut produced = 0;
    let (payload, prov) = load_or_train(Some(&store), &key, &mut first, |_m| {
        produced += 1;
        sample_payload()
    });
    assert_eq!((produced, prov), (1, Provenance::Trained));
    assert_eq!(payload, sample_payload());

    let (payload2, prov2) = load_or_train(Some(&store), &key, &mut second, |_m| {
        panic!("cache hit must not retrain")
    });
    assert_eq!(prov2, Provenance::Restored);
    assert_eq!(payload2, payload);
    assert_same_behavior(&mut first, &mut second, 33);
}

#[test]
fn load_or_train_retrains_and_heals_a_corrupt_entry() {
    let store = scratch_store("heal");
    let key = ArtifactKey::new("capsnet", "mnist-like", 9, 2, fingerprint("heal"));
    let (mut first, mut second) = capsnet_pair();
    let path = store.save(&key, &mut first, &sample_payload()).unwrap();
    let mut data = fs::read(&path).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x80;
    fs::write(&path, &data).unwrap();

    // The corrupt entry must fall back to the producer…
    let (_, prov) = load_or_train(Some(&store), &key, &mut first, |_m| sample_payload());
    assert_eq!(prov, Provenance::Trained);
    // …and overwrite the store with a valid entry.
    let (_, prov2) = load_or_train(Some(&store), &key, &mut second, |_m| {
        panic!("healed entry must restore")
    });
    assert_eq!(prov2, Provenance::Restored);
}

#[test]
fn no_store_always_trains_and_writes_nothing() {
    let dir: PathBuf = std::env::temp_dir().join("redcane-artifacts-test-never-created");
    let _ = fs::remove_dir_all(&dir);
    let key = ArtifactKey::new("capsnet", "mnist-like", 10, 2, fingerprint("none"));
    let (mut model, _) = capsnet_pair();
    let mut produced = 0;
    for _ in 0..2 {
        let (_, prov) = load_or_train(None, &key, &mut model, |_m| {
            produced += 1;
            ArtifactPayload::default()
        });
        assert_eq!(prov, Provenance::Trained);
    }
    assert_eq!(produced, 2);
    assert!(!dir.exists());
}

#[test]
fn resolve_dir_precedence() {
    assert_eq!(ArtifactStore::resolve_dir(Some("x"), true), None);
    assert_eq!(ArtifactStore::resolve_dir(None, true), None);
    assert_eq!(
        ArtifactStore::resolve_dir(Some("/tmp/explicit"), false),
        Some(PathBuf::from("/tmp/explicit"))
    );
    // Env handling is covered implicitly; without the env var set the
    // default directory is used.
    if std::env::var("REDCANE_ARTIFACTS").is_err() {
        assert_eq!(
            ArtifactStore::resolve_dir(None, false),
            Some(PathBuf::from(".redcane-artifacts"))
        );
    }
}
