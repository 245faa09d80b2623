//! Compact binary (de)serialization of model weights.
//!
//! Trained models are cached between experiment runs so the expensive
//! training step happens once per (architecture, dataset, seed) triple.
//! The format is deliberately tiny: a magic header, then each parameter
//! tensor as `ndim, dims…, f32-LE data`, in the model's canonical
//! parameter order.

use std::io;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use redcane_tensor::Tensor;

use crate::model::CapsModel;

const MAGIC: &[u8; 4] = b"RCW1";

/// Serializes the model's parameters into the weight format.
pub fn weights_to_bytes(model: &mut dyn CapsModel) -> Bytes {
    let params = model.params_mut();
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(params.len() as u32);
    for p in params {
        let t = &p.value;
        buf.put_u32_le(t.ndim() as u32);
        for &d in t.shape() {
            buf.put_u32_le(d as u32);
        }
        for &v in t.data() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Restores parameters serialized by [`weights_to_bytes`] into `model`.
/// On error the model is left untouched.
///
/// # Errors
///
/// Returns an error if the header is wrong, the parameter count or any
/// tensor shape disagrees with the model, or the buffer is truncated.
pub fn weights_from_bytes(model: &mut dyn CapsModel, data: &[u8]) -> io::Result<()> {
    let mut buf = data;
    let fail = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if buf.remaining() < 8 {
        return Err(fail("weight buffer truncated"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(fail("bad weight file magic"));
    }
    let count = buf.get_u32_le() as usize;
    let params = model.params_mut();
    if count != params.len() {
        return Err(fail(&format!(
            "weight file holds {count} tensors, model has {}",
            params.len()
        )));
    }
    // Decode and check every tensor before assigning any, so a buffer
    // rejected part-way leaves the model exactly as it was.
    let mut staged = Vec::with_capacity(count);
    for p in &params {
        if buf.remaining() < 4 {
            return Err(fail("weight buffer truncated"));
        }
        let ndim = buf.get_u32_le() as usize;
        if buf.remaining() < ndim * 4 {
            return Err(fail("weight buffer truncated"));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(buf.get_u32_le() as usize);
        }
        if shape != p.value.shape() {
            return Err(fail(&format!(
                "tensor shape mismatch: file {shape:?}, model {:?}",
                p.value.shape()
            )));
        }
        let n: usize = shape.iter().product();
        if buf.remaining() < n * 4 {
            return Err(fail("weight buffer truncated"));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(buf.get_f32_le());
        }
        staged.push(
            Tensor::from_vec(data, &shape)
                .map_err(|e| fail(&format!("weight tensor rejected by shape check: {e}")))?,
        );
    }
    for (p, value) in params.into_iter().zip(staged) {
        p.value = value;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CapsNetConfig;
    use crate::inject::NoInjection;
    use crate::model::{CapsModel, CapsNet};
    use redcane_tensor::TensorRng;

    #[test]
    fn round_trip_restores_behavior() {
        let cfg = CapsNetConfig::small(1, 16);
        let mut rng = TensorRng::from_seed(180);
        let mut a = CapsNet::new(&cfg, &mut rng);
        let mut b = CapsNet::new(&cfg, &mut TensorRng::from_seed(999));
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let before = a.forward(&x, &mut NoInjection);
        assert_ne!(before, b.forward(&x, &mut NoInjection));
        let bytes = weights_to_bytes(&mut a);
        weights_from_bytes(&mut b, &bytes).unwrap();
        assert_eq!(before, b.forward(&x, &mut NoInjection));
    }

    #[test]
    fn rejects_corrupt_and_mismatched_buffers() {
        let cfg = CapsNetConfig::small(1, 16);
        let mut rng = TensorRng::from_seed(181);
        let mut model = CapsNet::new(&cfg, &mut rng);
        assert!(weights_from_bytes(&mut model, b"nope").is_err());
        let mut bytes = weights_to_bytes(&mut model).to_vec();
        bytes.truncate(bytes.len() / 2);
        // A rejected load leaves every parameter as it was, including the
        // tensors decoded before the truncation is detected.
        let mut other_seed = CapsNet::new(&cfg, &mut TensorRng::from_seed(182));
        let before = weights_to_bytes(&mut other_seed);
        assert!(weights_from_bytes(&mut other_seed, &bytes).is_err());
        assert!(
            weights_to_bytes(&mut other_seed) == before,
            "a rejected load changed the model"
        );
        // Different architecture.
        let mut other = CapsNet::new(&CapsNetConfig::small(3, 16), &mut rng);
        let good = weights_to_bytes(&mut model);
        assert!(weights_from_bytes(&mut other, &good).is_err());
    }
}
