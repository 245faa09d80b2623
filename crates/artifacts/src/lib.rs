//! # redcane-artifacts
//!
//! Train once, verify everywhere: a content-addressed, versioned store
//! for the expensive, seed-determined products of a training run —
//! trained weights (via the `capsnet::io` codec), calibrated
//! quantization ranges and characterized per-component `(NA, NM)`
//! tables — so every consumer (the bench session, `perf`, tests, CI)
//! can restore a pinned artifact instead of retraining.
//!
//! ## Keying
//!
//! An artifact is addressed by an [`ArtifactKey`]:
//! `(architecture, dataset, master seed, epochs)` plus a consumer
//! [`fingerprint`] hashing every remaining knob that shapes the
//! artifact's content (sample counts, batch size, learning rate,
//! calibration settings, …). The store schema version
//! ([`STORE_SCHEMA_VERSION`]) is part of both the file name and the
//! header, so a format change can never be silently misread.
//!
//! ## Integrity
//!
//! Every section of the on-disk format carries a length prefix and an
//! FNV-1a checksum; truncated, bit-flipped or wrong-schema entries are
//! rejected with a named [`ArtifactError`] — and [`load_or_train`]
//! falls back to retraining (and rewrites the entry) instead of
//! propagating garbage. Because training is bitwise deterministic at
//! every `REDCANE_THREADS` setting, a restored artifact reproduces the
//! training path bit for bit: downstream JSON artifacts are
//! byte-identical whether the model was trained or restored.
//!
//! ## Invalidation
//!
//! Any change that alters training or calibration numerics must bump
//! [`STORE_SCHEMA_VERSION`]; CI keys its artifact-store cache on it.
//! Stale same-version entries whose configuration changed are already
//! unreachable (the fingerprint is part of the file name), and entries
//! whose tensor shapes no longer match the model are rejected by the
//! weight codec.
#![forbid(unsafe_code)]

mod format;
mod store;

pub use format::{
    fingerprint, ArtifactError, ArtifactKey, ArtifactPayload, ComponentNoise, FaultChar,
    RangeEntry, STORE_SCHEMA_VERSION,
};
pub use store::{load_or_train, ArtifactStore, Provenance, DEFAULT_STORE_DIR, STORE_ENV_VAR};
