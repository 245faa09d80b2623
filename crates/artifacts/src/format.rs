//! The on-disk artifact format: a keyed header followed by
//! length-prefixed, individually checksummed sections.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "RCAS" | u32 schema | u64 seed | u32 epochs | u64 fingerprint
//! | str arch | str dataset | u32 section count
//! | sections…: tag[4] | u64 len | payload | u64 fnv1a(payload)
//! ```
//!
//! Sections appear in a fixed order: trained weights (the raw
//! `capsnet::io` codec bytes), training metadata, quantization ranges,
//! the `(NA, NM)` component table, the empirical activation-code
//! pool, and the fault-characterization table. Every decode failure is
//! a named [`ArtifactError`]; nothing is ever guessed past.

use std::io;

use bytes::{Buf, BufMut, BytesMut};
use redcane_capsnet::inject::OpKind;
use redcane_fxp::QuantParams;

/// Version of the on-disk store format **and** of the trained content
/// it caches. Bump on any change to this codec *or* to training /
/// calibration numerics — restored artifacts must always reproduce
/// what retraining would produce, bit for bit.
pub const STORE_SCHEMA_VERSION: u32 = 2;

const MAGIC: &[u8; 4] = b"RCAS";
const SECTION_TAGS: [&[u8; 4]; 6] = [b"WGHT", b"TMET", b"RNGS", b"NANM", b"APOL", b"FCHR"];

/// Addresses one artifact: the seed-determined identity of a training
/// run plus a fingerprint of every remaining configuration knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactKey {
    /// Architecture family tag (`capsnet`, `deepcaps`, …).
    pub arch: String,
    /// Dataset / benchmark name (`mnist-like`, …).
    pub dataset: String,
    /// Master seed the run derives everything from.
    pub seed: u64,
    /// Training epochs.
    pub epochs: usize,
    /// [`fingerprint`] of the consumer's full remaining configuration
    /// (sample counts, batch size, learning rate, calibration knobs…).
    pub fingerprint: u64,
}

impl ArtifactKey {
    /// Builds a key; `arch` and `dataset` should be short stable tags.
    pub fn new(arch: &str, dataset: &str, seed: u64, epochs: usize, fingerprint: u64) -> Self {
        ArtifactKey {
            arch: arch.to_string(),
            dataset: dataset.to_string(),
            seed,
            epochs,
            fingerprint,
        }
    }

    /// The store-relative file name this key addresses. Contains every
    /// key field (fingerprint and schema version included), so distinct
    /// configurations coexist instead of overwriting each other.
    pub fn file_name(&self) -> String {
        let sanitize = |s: &str| {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect::<String>()
        };
        format!(
            "{}_{}_s{}_e{}_f{:016x}.v{}.rca",
            sanitize(&self.arch),
            sanitize(&self.dataset),
            self.seed,
            self.epochs,
            self.fingerprint,
            STORE_SCHEMA_VERSION
        )
    }
}

/// FNV-1a 64-bit hash of a canonical configuration string — the
/// fingerprint half of an [`ArtifactKey`]. Consumers concatenate every
/// knob that shapes the artifact (in a fixed order, with exact float
/// bits) so any config change addresses a different artifact.
pub fn fingerprint(canonical: &str) -> u64 {
    fnv1a(canonical.as_bytes())
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One calibrated quantization range, keyed like the calibration
/// observer tracks it: `(layer, operation kind, in-routing?)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeEntry {
    /// Layer the site belongs to.
    pub layer: String,
    /// Operation kind at the site.
    pub kind: OpKind,
    /// Whether the site lies inside dynamic routing.
    pub in_routing: bool,
    /// The fixed quantization parameters.
    pub params: QuantParams,
}

/// One component's characterized noise statistics over the empirical
/// operand distribution of the run that produced the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentNoise {
    /// Library component name (`mul8u_…`).
    pub component: String,
    /// Characterization sample count the statistics were measured with.
    pub samples: u64,
    /// Noise average `NA`.
    pub na: f64,
    /// Noise magnitude `NM`.
    pub nm: f64,
}

/// One fault specification's characterized product-error statistics
/// over the empirical operand distribution of the run that produced
/// the artifact — the discrete-fault analogue of [`ComponentNoise`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultChar {
    /// Compact fault spec (`target:model`, e.g.
    /// `multiplier:stuck1(0x08)`), as `SiteFault::spec` prints it.
    pub spec: String,
    /// Characterization sample count the statistics were measured with.
    pub samples: u64,
    /// Mean product error, normalized by the full 16-bit product range.
    pub mean_err: f64,
    /// RMS product error, normalized the same way.
    pub rms_err: f64,
}

/// Everything an artifact persists besides the weights themselves
/// (which are applied straight into the model on load).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArtifactPayload {
    /// Mean margin loss per training epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy after the final epoch.
    pub train_accuracy: f64,
    /// Calibrated quantization ranges (empty when the consumer does not
    /// calibrate).
    pub ranges: Vec<RangeEntry>,
    /// Characterized `(NA, NM)` per library component (empty when the
    /// consumer does not characterize).
    pub noise_table: Vec<ComponentNoise>,
    /// Empirical activation-code pool for operand characterization
    /// (empty when the consumer does not sample operands).
    pub activation_codes: Vec<u8>,
    /// Characterized error statistics per fault specification (empty
    /// when the consumer does not run fault characterization).
    pub fault_table: Vec<FaultChar>,
}

/// Why loading (or saving) an artifact failed. Every variant names
/// what was wrong; [`crate::load_or_train`] treats all of them as a
/// cache miss and retrains.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem error (missing entry, unreadable store, …).
    Io(io::Error),
    /// The file does not start with the artifact magic.
    BadMagic,
    /// The file was written by a different store schema version.
    SchemaVersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// A header key field disagrees with the requested key (a file
    /// placed under the wrong name).
    KeyMismatch {
        /// Which key field disagreed.
        field: &'static str,
        /// Value found in the file header.
        found: String,
        /// Value the requested key expects.
        expected: String,
    },
    /// A section's checksum does not match its payload (bit rot or a
    /// torn write).
    ChecksumMismatch {
        /// The section whose checksum failed.
        section: &'static str,
    },
    /// The file ends before a section it promises.
    Truncated {
        /// The section (or header part) that was cut short.
        section: &'static str,
    },
    /// A section decoded to structurally invalid content (bad UTF-8,
    /// unknown op-kind code, invalid quantization range, wrong tag, or
    /// weights the model rejected).
    Corrupt {
        /// Description of what failed to decode.
        what: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact store I/O error: {e}"),
            ArtifactError::BadMagic => write!(f, "not an artifact file (bad magic)"),
            ArtifactError::SchemaVersionMismatch { found, expected } => write!(
                f,
                "artifact store schema v{found}, this build reads v{expected}"
            ),
            ArtifactError::KeyMismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "artifact key mismatch: {field} is {found}, expected {expected}"
            ),
            ArtifactError::ChecksumMismatch { section } => {
                write!(f, "artifact section {section} failed its checksum")
            }
            ArtifactError::Truncated { section } => {
                write!(f, "artifact truncated in section {section}")
            }
            ArtifactError::Corrupt { what } => write!(f, "artifact corrupt: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// `true` when the error is a plain missing-file miss rather than a
/// rejected (corrupt / stale / mismatched) entry worth warning about.
pub(crate) fn is_not_found(err: &ArtifactError) -> bool {
    matches!(err, ArtifactError::Io(e) if e.kind() == io::ErrorKind::NotFound)
}

fn kind_code(kind: OpKind) -> u8 {
    match kind {
        OpKind::MacOutput => 0,
        OpKind::Activation => 1,
        OpKind::Softmax => 2,
        OpKind::LogitsUpdate => 3,
        OpKind::MacInput => 4,
    }
}

fn kind_from_code(code: u8) -> Result<OpKind, ArtifactError> {
    Ok(match code {
        0 => OpKind::MacOutput,
        1 => OpKind::Activation,
        2 => OpKind::Softmax,
        3 => OpKind::LogitsUpdate,
        4 => OpKind::MacInput,
        other => {
            return Err(ArtifactError::Corrupt {
                what: format!("unknown op-kind code {other}"),
            })
        }
    })
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn take_str(buf: &mut &[u8], section: &'static str) -> Result<String, ArtifactError> {
    if buf.remaining() < 4 {
        return Err(ArtifactError::Truncated { section });
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(ArtifactError::Truncated { section });
    }
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| ArtifactError::Corrupt {
        what: format!("non-UTF-8 string in section {section}"),
    })
}

fn encode_meta(payload: &ArtifactPayload) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32_le(payload.epoch_losses.len() as u32);
    for &loss in &payload.epoch_losses {
        buf.put_f32_le(loss);
    }
    buf.put_f64_le(payload.train_accuracy);
    buf
}

fn encode_ranges(entries: &[RangeEntry]) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        put_str(&mut buf, &e.layer);
        buf.put_u8(kind_code(e.kind));
        buf.put_u8(u8::from(e.in_routing));
        buf.put_u8(e.params.bits());
        buf.put_f32_le(e.params.min());
        buf.put_f32_le(e.params.max());
    }
    buf
}

fn encode_noise(entries: &[ComponentNoise]) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        put_str(&mut buf, &e.component);
        buf.put_u64_le(e.samples);
        buf.put_f64_le(e.na);
        buf.put_f64_le(e.nm);
    }
    buf
}

fn encode_faults(entries: &[FaultChar]) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        put_str(&mut buf, &e.spec);
        buf.put_u64_le(e.samples);
        buf.put_f64_le(e.mean_err);
        buf.put_f64_le(e.rms_err);
    }
    buf
}

fn decode_faults(mut buf: &[u8]) -> Result<Vec<FaultChar>, ArtifactError> {
    const S: &str = "FCHR";
    if buf.remaining() < 4 {
        return Err(ArtifactError::Truncated { section: S });
    }
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let spec = take_str(&mut buf, S)?;
        if buf.remaining() < 24 {
            return Err(ArtifactError::Truncated { section: S });
        }
        out.push(FaultChar {
            spec,
            samples: buf.get_u64_le(),
            mean_err: buf.get_f64_le(),
            rms_err: buf.get_f64_le(),
        });
    }
    Ok(out)
}

fn decode_meta(mut buf: &[u8]) -> Result<(Vec<f32>, f64), ArtifactError> {
    const S: &str = "TMET";
    if buf.remaining() < 4 {
        return Err(ArtifactError::Truncated { section: S });
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 4 + 8 {
        return Err(ArtifactError::Truncated { section: S });
    }
    let losses = (0..n).map(|_| buf.get_f32_le()).collect();
    Ok((losses, buf.get_f64_le()))
}

fn decode_ranges(mut buf: &[u8]) -> Result<Vec<RangeEntry>, ArtifactError> {
    const S: &str = "RNGS";
    if buf.remaining() < 4 {
        return Err(ArtifactError::Truncated { section: S });
    }
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let layer = take_str(&mut buf, S)?;
        if buf.remaining() < 3 + 8 {
            return Err(ArtifactError::Truncated { section: S });
        }
        let kind = kind_from_code(buf.get_u8())?;
        let in_routing = match buf.get_u8() {
            0 => false,
            1 => true,
            other => {
                return Err(ArtifactError::Corrupt {
                    what: format!("bad in-routing flag {other}"),
                })
            }
        };
        let bits = buf.get_u8();
        let (min, max) = (buf.get_f32_le(), buf.get_f32_le());
        let params =
            QuantParams::from_range(min, max, bits).map_err(|e| ArtifactError::Corrupt {
                what: format!("invalid quantization range for site ({layer}): {e}"),
            })?;
        out.push(RangeEntry {
            layer,
            kind,
            in_routing,
            params,
        });
    }
    Ok(out)
}

fn decode_noise(mut buf: &[u8]) -> Result<Vec<ComponentNoise>, ArtifactError> {
    const S: &str = "NANM";
    if buf.remaining() < 4 {
        return Err(ArtifactError::Truncated { section: S });
    }
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let component = take_str(&mut buf, S)?;
        if buf.remaining() < 24 {
            return Err(ArtifactError::Truncated { section: S });
        }
        out.push(ComponentNoise {
            component,
            samples: buf.get_u64_le(),
            na: buf.get_f64_le(),
            nm: buf.get_f64_le(),
        });
    }
    Ok(out)
}

/// Serializes a complete artifact file: header + the six checksummed
/// sections. `weights` is the raw `capsnet::io` weight-codec buffer.
pub(crate) fn encode_artifact(
    key: &ArtifactKey,
    weights: &[u8],
    payload: &ArtifactPayload,
) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(weights.len() + 4096);
    buf.put_slice(MAGIC);
    buf.put_u32_le(STORE_SCHEMA_VERSION);
    buf.put_u64_le(key.seed);
    buf.put_u32_le(key.epochs as u32);
    buf.put_u64_le(key.fingerprint);
    put_str(&mut buf, &key.arch);
    put_str(&mut buf, &key.dataset);
    buf.put_u32_le(SECTION_TAGS.len() as u32);
    let sections: [&[u8]; 6] = [
        weights,
        &encode_meta(payload),
        &encode_ranges(&payload.ranges),
        &encode_noise(&payload.noise_table),
        &payload.activation_codes,
        &encode_faults(&payload.fault_table),
    ];
    for (tag, body) in SECTION_TAGS.iter().zip(sections) {
        buf.put_slice(*tag);
        buf.put_u64_le(body.len() as u64);
        buf.put_slice(body);
        buf.put_u64_le(fnv1a(body));
    }
    buf.freeze().to_vec()
}

/// Parses and integrity-checks an artifact file against `key`,
/// returning the raw weight-codec bytes and the decoded payload.
pub(crate) fn decode_artifact(
    key: &ArtifactKey,
    data: &[u8],
) -> Result<(Vec<u8>, ArtifactPayload), ArtifactError> {
    let mut buf = data;
    if buf.remaining() < 8 {
        return Err(ArtifactError::Truncated { section: "header" });
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let found = buf.get_u32_le();
    if found != STORE_SCHEMA_VERSION {
        return Err(ArtifactError::SchemaVersionMismatch {
            found,
            expected: STORE_SCHEMA_VERSION,
        });
    }
    if buf.remaining() < 20 {
        return Err(ArtifactError::Truncated { section: "header" });
    }
    let mismatch = |field, found: String, expected: String| {
        Err(ArtifactError::KeyMismatch {
            field,
            found,
            expected,
        })
    };
    let seed = buf.get_u64_le();
    if seed != key.seed {
        return mismatch("seed", seed.to_string(), key.seed.to_string());
    }
    let epochs = buf.get_u32_le() as usize;
    if epochs != key.epochs {
        return mismatch("epochs", epochs.to_string(), key.epochs.to_string());
    }
    let fp = buf.get_u64_le();
    if fp != key.fingerprint {
        return mismatch(
            "fingerprint",
            format!("{fp:016x}"),
            format!("{:016x}", key.fingerprint),
        );
    }
    let arch = take_str(&mut buf, "header")?;
    if arch != key.arch {
        return mismatch("arch", arch, key.arch.clone());
    }
    let dataset = take_str(&mut buf, "header")?;
    if dataset != key.dataset {
        return mismatch("dataset", dataset, key.dataset.clone());
    }
    if buf.remaining() < 4 {
        return Err(ArtifactError::Truncated { section: "header" });
    }
    let count = buf.get_u32_le() as usize;
    if count != SECTION_TAGS.len() {
        return Err(ArtifactError::Corrupt {
            what: format!("{count} sections, expected {}", SECTION_TAGS.len()),
        });
    }

    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(SECTION_TAGS.len());
    for expected_tag in SECTION_TAGS {
        // lint: allow(panic) — the section tag constants are 4-byte ASCII literals
        let section: &'static str = std::str::from_utf8(expected_tag).expect("tags are ASCII");
        if buf.remaining() < 12 {
            return Err(ArtifactError::Truncated { section });
        }
        let mut tag = [0u8; 4];
        buf.copy_to_slice(&mut tag);
        if &tag != expected_tag {
            return Err(ArtifactError::Corrupt {
                what: format!(
                    "section tag {:?}, expected {section}",
                    String::from_utf8_lossy(&tag)
                ),
            });
        }
        // The length is untrusted: bound it by the bytes left after the
        // checksum instead of forming `len + 8`, which can overflow.
        let len = buf.get_u64_le();
        let room = buf.remaining().checked_sub(8);
        if room.is_none_or(|room| len > room as u64) {
            return Err(ArtifactError::Truncated { section });
        }
        let mut body = vec![0u8; len as usize];
        buf.copy_to_slice(&mut body);
        if buf.get_u64_le() != fnv1a(&body) {
            return Err(ArtifactError::ChecksumMismatch { section });
        }
        bodies.push(body);
    }
    // lint: allow(panic) — section count was validated against the header immediately above
    let fault_table = decode_faults(&bodies.pop().expect("six sections"))?;
    // lint: allow(panic) — section count was validated against the header immediately above
    let activation_codes = bodies.pop().expect("six sections");
    // lint: allow(panic) — section count was validated against the header immediately above
    let noise_table = decode_noise(&bodies.pop().expect("six sections"))?;
    // lint: allow(panic) — section count was validated against the header immediately above
    let ranges = decode_ranges(&bodies.pop().expect("six sections"))?;
    // lint: allow(panic) — section count was validated against the header immediately above
    let (epoch_losses, train_accuracy) = decode_meta(&bodies.pop().expect("six sections"))?;
    // lint: allow(panic) — section count was validated against the header immediately above
    let weights = bodies.pop().expect("six sections");
    Ok((
        weights,
        ArtifactPayload {
            epoch_losses,
            train_accuracy,
            ranges,
            noise_table,
            activation_codes,
            fault_table,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key() -> ArtifactKey {
        ArtifactKey::new("capsnet", "mnist-like", 42, 6, fingerprint("cfg"))
    }

    fn sample_payload() -> ArtifactPayload {
        ArtifactPayload {
            epoch_losses: vec![0.9, 0.4, 0.2],
            train_accuracy: 0.875,
            ranges: vec![
                RangeEntry {
                    layer: "Conv1".into(),
                    kind: OpKind::MacOutput,
                    in_routing: false,
                    params: QuantParams::from_range(-1.5, 2.5, 8).unwrap(),
                },
                RangeEntry {
                    layer: "ClassCaps".into(),
                    kind: OpKind::Softmax,
                    in_routing: true,
                    params: QuantParams::from_range(0.0, 1.0, 8).unwrap(),
                },
            ],
            noise_table: vec![ComponentNoise {
                component: "mul8u_NGR".into(),
                samples: 4000,
                na: -1.25e-4,
                nm: 3.5e-3,
            }],
            activation_codes: vec![0, 7, 255, 128],
            fault_table: vec![
                FaultChar {
                    spec: "multiplier:stuck1(0x08)".into(),
                    samples: 2000,
                    mean_err: 2.4e-3,
                    rms_err: 7.1e-3,
                },
                FaultChar {
                    spec: "weight_codes:bitflip(0.001)".into(),
                    samples: 2000,
                    mean_err: -4.0e-5,
                    rms_err: 1.9e-3,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let key = sample_key();
        let payload = sample_payload();
        let weights = b"RCW1-not-really-weights".to_vec();
        let file = encode_artifact(&key, &weights, &payload);
        let (w, p) = decode_artifact(&key, &file).unwrap();
        assert_eq!(w, weights);
        assert_eq!(p, payload);
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let key = sample_key();
        let file = encode_artifact(&key, b"weights", &sample_payload());
        for len in 0..file.len() {
            let err = decode_artifact(&key, &file[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. } | ArtifactError::ChecksumMismatch { .. }
                ),
                "prefix of {len} bytes gave {err}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let key = sample_key();
        let payload = sample_payload();
        let file = encode_artifact(&key, b"weights", &payload);
        // Flip one bit in every byte; decode must either fail or (for
        // flips inside a section payload whose checksum would then also
        // have to collide) never silently return different content.
        for i in 0..file.len() {
            let mut bad = file.clone();
            bad[i] ^= 0x10;
            match decode_artifact(&key, &bad) {
                Err(_) => {}
                Ok((w, p)) => {
                    assert_eq!(w, b"weights");
                    assert_eq!(p, payload);
                }
            }
        }
    }

    #[test]
    fn fault_section_round_trips_and_rejects_corruption() {
        let key = sample_key();
        let payload = sample_payload();
        let file = encode_artifact(&key, b"weights", &payload);
        let (_, p) = decode_artifact(&key, &file).unwrap();
        assert_eq!(p.fault_table, payload.fault_table);
        assert_eq!(p.fault_table.len(), 2);
        assert_eq!(p.fault_table[0].spec, "multiplier:stuck1(0x08)");

        // The FCHR body is the last section; flipping a bit inside it
        // must fail its checksum, and truncating mid-section must be
        // named as FCHR.
        let mut bad = file.clone();
        let last = bad.len() - 12; // inside the FCHR payload, before its checksum
        bad[last] ^= 0x01;
        assert!(matches!(
            decode_artifact(&key, &bad).unwrap_err(),
            ArtifactError::ChecksumMismatch { .. } | ArtifactError::Corrupt { .. }
        ));
        let err = decode_artifact(&key, &file[..file.len() - 4]).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Truncated { section: "FCHR" }),
            "{err}"
        );

        // An empty fault table still round-trips (older consumers).
        let bare = ArtifactPayload {
            fault_table: Vec::new(),
            ..payload
        };
        let file = encode_artifact(&key, b"weights", &bare);
        let (_, p) = decode_artifact(&key, &file).unwrap();
        assert!(p.fault_table.is_empty());
    }

    /// A hostile section length must be reported as truncation, not
    /// overflow the `length + checksum` bound or reach a huge
    /// allocation.
    #[test]
    fn maximal_section_length_is_truncation() {
        let key = sample_key();
        let mut file = encode_artifact(&key, b"weights", &sample_payload());
        let tag = file.windows(4).position(|w| w == b"WGHT").unwrap();
        file[tag + 4..tag + 12].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_artifact(&key, &file).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Truncated { section: "WGHT" }),
            "{err}"
        );
    }

    #[test]
    fn wrong_schema_version_is_named() {
        let key = sample_key();
        let mut file = encode_artifact(&key, b"weights", &sample_payload());
        // The schema version lives right after the 4-byte magic.
        file[4..8].copy_from_slice(&(STORE_SCHEMA_VERSION + 1).to_le_bytes());
        let err = decode_artifact(&key, &file).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::SchemaVersionMismatch { found, expected }
                    if found == STORE_SCHEMA_VERSION + 1 && expected == STORE_SCHEMA_VERSION
            ),
            "{err}"
        );
    }

    #[test]
    fn key_mismatch_is_named() {
        let key = sample_key();
        let file = encode_artifact(&key, b"weights", &sample_payload());
        let mut other = key.clone();
        other.fingerprint ^= 1;
        let err = decode_artifact(&other, &file).unwrap_err();
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
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint("a"), fingerprint("a"));
        assert_ne!(fingerprint("a"), fingerprint("b"));
        // FNV-1a reference value for the empty string.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn file_names_separate_distinct_keys() {
        let a = sample_key();
        let mut b = a.clone();
        b.fingerprint ^= 1;
        let mut c = a.clone();
        c.dataset = "svhn-like".into();
        assert_ne!(a.file_name(), b.file_name());
        assert_ne!(a.file_name(), c.file_name());
        assert!(a
            .file_name()
            .ends_with(&format!(".v{STORE_SCHEMA_VERSION}.rca")));
    }

    #[test]
    fn op_kind_codes_round_trip() {
        for kind in [
            OpKind::MacOutput,
            OpKind::Activation,
            OpKind::Softmax,
            OpKind::LogitsUpdate,
            OpKind::MacInput,
        ] {
            assert_eq!(kind_from_code(kind_code(kind)).unwrap(), kind);
        }
        assert!(kind_from_code(5).is_err());
    }
}
