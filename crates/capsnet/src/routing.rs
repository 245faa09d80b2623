//! Dynamic routing-by-agreement (Sabour et al., Procedure 1), shared by
//! the fully-connected `ClassCaps` and the convolutional `Caps3D` layers.
//!
//! The routing state is expressed over a **vote tensor** `[I, J, D, P]`:
//! input capsule `i` casts a `D`-dimensional vote for output capsule type
//! `j` at position `p`. Per iteration:
//!
//! 1. coupling `k = softmax_J(b)` — **Softmax tap** (group #3);
//! 2. `s_j = Σ_i k_ij · û_{j|i}` — **MAC-output tap** (group #1);
//! 3. `v_j = squash(s_j)` — **Activation tap** (group #2);
//! 4. `b_ij += û_{j|i} · v_j` — **LogitsUpdate tap** (group #4).
//!
//! The backward pass is **exact**: gradients flow through every routing
//! iteration — the coupling softmax, the agreement (logits) updates, the
//! weighted sums and the squashes — not just through the final iteration
//! with detached coefficients.
//!
//! # Performance
//!
//! The inner loops are GEMM-shaped slice kernels: row offsets are hoisted
//! once per `(i, j)` pair and the innermost dimension runs over
//! contiguous slices (an axpy over `D` when `P == 1`, an elementwise
//! product over `P` otherwise), so the compiler vectorizes them without
//! per-element index arithmetic or bounds checks. Each call allocates
//! its own logits and gradient temporaries; the per-iteration `k`/`s`/`v`
//! buffers become the [`RoutingCache`] history the backward pass reads.
//! Accumulation order is everywhere identical to the original nested
//! loops, keeping seeded runs bit-for-bit stable.

use redcane_tensor::Tensor;

use crate::inject::{Injector, OpKind, OpSite};
use crate::squash::{squash_backward_slices, squash_slices};

/// Per-iteration state recorded by the forward pass (post any injection
/// by the caller, i.e. exactly the values downstream computation saw).
#[derive(Debug, Clone)]
pub struct RoutingIterState {
    /// Coupling coefficients `[I, J, P]` of this iteration.
    pub k: Tensor,
    /// Pre-squash weighted sum `[J, D, P]` of this iteration.
    pub s: Tensor,
    /// Squashed output capsules `[J, D, P]` of this iteration.
    pub v: Tensor,
}

/// Everything the forward pass produces and the backward pass needs.
#[derive(Debug, Clone)]
pub struct RoutingCache {
    /// The votes actually used (post any injection by the caller).
    pub votes: Tensor,
    /// Per-iteration routing state, first iteration first.
    pub history: Vec<RoutingIterState>,
    /// Final output capsules `[J, D, P]`.
    pub v: Tensor,
}

/// Softmax over `J` of a `[I, J, P]` slice, written into `out` —
/// arithmetic identical to `Tensor::softmax_axis(1)`.
///
/// Public because the quantized datapath's special-function unit must
/// compute exactly the float routing's coupling softmax.
pub fn softmax_over_j(src: &[f32], out: &mut [f32], i_caps: usize, j_caps: usize, p: usize) {
    for o in 0..i_caps {
        for i in 0..p {
            let mut max = f32::NEG_INFINITY;
            for a in 0..j_caps {
                max = max.max(src[(o * j_caps + a) * p + i]);
            }
            let mut denom = 0.0f32;
            for a in 0..j_caps {
                let e = (src[(o * j_caps + a) * p + i] - max).exp();
                out[(o * j_caps + a) * p + i] = e;
                denom += e;
            }
            if denom > 0.0 {
                for a in 0..j_caps {
                    out[(o * j_caps + a) * p + i] /= denom;
                }
            }
        }
    }
}

/// Runs `iterations` rounds of routing-by-agreement over `votes`
/// (`[I, J, D, P]`), calling `injector` at every tagged operation.
///
/// # Panics
///
/// Panics unless `votes` is rank 4 and `iterations >= 1`.
pub fn dynamic_routing(
    votes: Tensor,
    iterations: usize,
    layer_index: usize,
    layer_name: &str,
    injector: &mut dyn Injector,
) -> RoutingCache {
    assert_eq!(votes.ndim(), 4, "votes must be [I, J, D, P]");
    assert!(iterations >= 1, "routing needs at least one iteration");
    let (i_caps, j_caps, d, p) = (
        votes.shape()[0],
        votes.shape()[1],
        votes.shape()[2],
        votes.shape()[3],
    );
    let mut b = Tensor::zeros(&[i_caps, j_caps, p]);
    let mut history: Vec<RoutingIterState> = Vec::with_capacity(iterations);
    let vd = votes.data();
    for r in 0..iterations {
        let iter = r as u8;
        // 1. Coupling coefficients. Iteration 0 always sees b == 0, for
        // which the softmax is exactly uniform: exp(0 − 0) = 1.0 and the
        // denominator is the exact integer J, so filling 1/J reproduces
        // the computed softmax bit for bit without J·I·P exp calls.
        let mut kbuf = vec![1.0 / j_caps as f32; i_caps * j_caps * p];
        if r > 0 {
            softmax_over_j(b.data(), &mut kbuf, i_caps, j_caps, p);
        }
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let mut k = Tensor::from_vec(kbuf, &[i_caps, j_caps, p]).expect("sized");
        injector.inject(
            &OpSite::routing(layer_index, layer_name, OpKind::Softmax, iter),
            &mut k,
        );
        // 2. Weighted vote sum s_j = sum_i k_ij * votes_ij.
        let mut sbuf = vec![0.0f32; j_caps * d * p];
        weighted_vote_sum(vd, k.data(), &mut sbuf, i_caps, j_caps, d, p);
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let mut s = Tensor::from_vec(sbuf, &[j_caps, d, p]).expect("sized");
        injector.inject(
            &OpSite::routing(layer_index, layer_name, OpKind::MacOutput, iter),
            &mut s,
        );
        // 3. Squash.
        let mut vbuf = vec![0.0f32; j_caps * d * p];
        squash_slices(s.data(), &mut vbuf, j_caps, d, p);
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let mut v = Tensor::from_vec(vbuf, &[j_caps, d, p]).expect("sized");
        injector.inject(
            &OpSite::routing(layer_index, layer_name, OpKind::Activation, iter),
            &mut v,
        );
        // 4. Agreement update (skipped after the last iteration).
        if r + 1 < iterations {
            agreement_update(vd, v.data(), b.data_mut(), i_caps, j_caps, d, p);
            injector.inject(
                &OpSite::routing(layer_index, layer_name, OpKind::LogitsUpdate, iter),
                &mut b,
            );
        }
        history.push(RoutingIterState { k, s, v });
    }
    // lint: allow(panic) — RoutingConfig guarantees at least one iteration, so history is non-empty
    let v = history.last().expect("iterations >= 1").v.clone();
    RoutingCache { votes, history, v }
}

/// `s[j,d,p] += Σ_i k[i,j,p] · votes[i,j,d,p]`, `i` ascending.
fn weighted_vote_sum(
    votes: &[f32],
    k: &[f32],
    s: &mut [f32],
    i_caps: usize,
    j_caps: usize,
    d: usize,
    p: usize,
) {
    if p == 1 {
        // One coupling scalar per (i, j); the D-vector is contiguous.
        for i in 0..i_caps {
            let krow = &k[i * j_caps..(i + 1) * j_caps];
            let vbase = i * j_caps * d;
            for (j, &kv) in krow.iter().enumerate() {
                let vrow = &votes[vbase + j * d..vbase + (j + 1) * d];
                let srow = &mut s[j * d..(j + 1) * d];
                for (o, &vv) in srow.iter_mut().zip(vrow) {
                    *o += kv * vv;
                }
            }
        }
        return;
    }
    for i in 0..i_caps {
        for j in 0..j_caps {
            let krow = &k[(i * j_caps + j) * p..(i * j_caps + j + 1) * p];
            for di in 0..d {
                let vrow =
                    &votes[((i * j_caps + j) * d + di) * p..((i * j_caps + j) * d + di + 1) * p];
                let srow = &mut s[(j * d + di) * p..(j * d + di + 1) * p];
                for ((o, &kv), &vv) in srow.iter_mut().zip(krow).zip(vrow) {
                    *o += kv * vv;
                }
            }
        }
    }
}

/// `b[i,j,p] += Σ_d votes[i,j,d,p] · v[j,d,p]`, `d` ascending.
fn agreement_update(
    votes: &[f32],
    v: &[f32],
    b: &mut [f32],
    i_caps: usize,
    j_caps: usize,
    d: usize,
    p: usize,
) {
    if p == 1 {
        for i in 0..i_caps {
            let brow = &mut b[i * j_caps..(i + 1) * j_caps];
            let vbase = i * j_caps * d;
            for (j, o) in brow.iter_mut().enumerate() {
                let vrow = &votes[vbase + j * d..vbase + (j + 1) * d];
                let urow = &v[j * d..(j + 1) * d];
                let mut dot = 0.0f32;
                for (&a, &u) in vrow.iter().zip(urow) {
                    dot += a * u;
                }
                *o += dot;
            }
        }
        return;
    }
    // The D-dot folds locally before touching `b`, matching the
    // reference accumulation order exactly.
    for i in 0..i_caps {
        for j in 0..j_caps {
            let brow = &mut b[(i * j_caps + j) * p..(i * j_caps + j + 1) * p];
            let vbase = (i * j_caps + j) * d * p;
            let ubase = j * d * p;
            for (pi, o) in brow.iter_mut().enumerate() {
                let mut dot = 0.0f32;
                for di in 0..d {
                    dot += votes[vbase + di * p + pi] * v[ubase + di * p + pi];
                }
                *o += dot;
            }
        }
    }
}

/// Exact backward pass through the whole routing procedure: given `dv`
/// on the routing output, returns `d_votes` (`[I, J, D, P]`).
///
/// Walks the recorded iterations in reverse, propagating through each
/// squash, weighted sum, coupling softmax and agreement update, so the
/// returned gradient is the true derivative of the routing output with
/// respect to the votes.
///
/// # Panics
///
/// Panics if `dv`'s shape differs from the cached output.
pub fn dynamic_routing_backward(cache: &RoutingCache, dv: &Tensor) -> Tensor {
    assert_eq!(dv.shape(), cache.v.shape(), "dv must match routing output");
    let (i_caps, j_caps, d, p) = (
        cache.votes.shape()[0],
        cache.votes.shape()[1],
        cache.votes.shape()[2],
        cache.votes.shape()[3],
    );
    let vd = cache.votes.data();
    let iters = cache.history.len();
    let mut dvotes = vec![0.0f32; i_caps * j_caps * d * p];
    let mut dv_r = vec![0.0f32; j_caps * d * p];
    let mut ds = vec![0.0f32; j_caps * d * p];
    let mut dk = vec![0.0f32; i_caps * j_caps * p];
    let mut db = vec![0.0f32; i_caps * j_caps * p];
    let mut db_next = vec![0.0f32; i_caps * j_caps * p];
    // Whether `db_next` currently carries the gradient w.r.t. b_{r+1}.
    let mut have_db = false;
    for r in (0..iters).rev() {
        let it = &cache.history[r];
        // Gradient reaching v_r: the caller's dv on the last iteration;
        // for earlier iterations, v_r only feeds the agreement update
        // b_{r+1}[i,j,p] += Σ_d votes[i,j,d,p] · v_r[j,d,p].
        if r + 1 == iters {
            dv_r.copy_from_slice(dv.data());
        } else {
            dv_r.fill(0.0);
        }
        if have_db {
            agreement_backward(
                vd,
                it.v.data(),
                &db_next,
                &mut dv_r,
                &mut dvotes,
                i_caps,
                j_caps,
                d,
                p,
            );
        }
        // Through the squash: ds_r.
        squash_backward_slices(it.s.data(), &dv_r, &mut ds, j_caps, d, p);
        // Through the weighted sum s_r = Σ_i k_r · votes: contributions to
        // both the votes and the coupling coefficients.
        // b_0 is the zero constant, so the softmax/logits gradient of the
        // first iteration would only be discarded — skip computing it.
        let need_db = r > 0;
        weighted_sum_backward(
            vd,
            it.k.data(),
            &ds,
            &mut dvotes,
            if need_db { Some(&mut dk) } else { None },
            i_caps,
            j_caps,
            d,
            p,
        );
        if !need_db {
            break;
        }
        // Through the coupling softmax over J:
        // db[i,j,p] = k[i,j,p] · (dk[i,j,p] − Σ_j' k[i,j',p] · dk[i,j',p]).
        softmax_backward(it.k.data(), &dk, &mut db, i_caps, j_caps, p);
        // Identity path of the additive update b_{r+1} = b_r + agreement.
        if have_db {
            for (o, &g) in db.iter_mut().zip(&db_next) {
                *o += g;
            }
        }
        std::mem::swap(&mut db, &mut db_next);
        have_db = true;
    }
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(dvotes, cache.votes.shape()).expect("sized")
}

/// Backward of [`agreement_update`]: given `db` on `b_{r+1}`, adds
/// `db·votes` into `dv_r` and `db·v_r` into `dvotes`.
#[allow(clippy::too_many_arguments)]
fn agreement_backward(
    votes: &[f32],
    v_r: &[f32],
    db: &[f32],
    dv_r: &mut [f32],
    dvotes: &mut [f32],
    i_caps: usize,
    j_caps: usize,
    d: usize,
    p: usize,
) {
    if p == 1 {
        for i in 0..i_caps {
            let dbrow = &db[i * j_caps..(i + 1) * j_caps];
            let vbase = i * j_caps * d;
            for (j, &g) in dbrow.iter().enumerate() {
                let vrow = &votes[vbase + j * d..vbase + (j + 1) * d];
                let wrow = &mut dvotes[vbase + j * d..vbase + (j + 1) * d];
                let urow = &v_r[j * d..(j + 1) * d];
                let orow = &mut dv_r[j * d..(j + 1) * d];
                for ((o, &vv), (w, &u)) in orow.iter_mut().zip(vrow).zip(wrow.iter_mut().zip(urow))
                {
                    *o += g * vv;
                    *w += g * u;
                }
            }
        }
        return;
    }
    for i in 0..i_caps {
        for j in 0..j_caps {
            let dbrow = &db[(i * j_caps + j) * p..(i * j_caps + j + 1) * p];
            for di in 0..d {
                let voff = ((i * j_caps + j) * d + di) * p;
                let ooff = (j * d + di) * p;
                for pi in 0..p {
                    dv_r[ooff + pi] += dbrow[pi] * votes[voff + pi];
                    dvotes[voff + pi] += dbrow[pi] * v_r[ooff + pi];
                }
            }
        }
    }
}

/// Backward of [`weighted_vote_sum`]: `dvotes += k·ds` and (when wanted)
/// `dk = votes·ds` with `d` ascending.
#[allow(clippy::too_many_arguments)]
fn weighted_sum_backward(
    votes: &[f32],
    k: &[f32],
    ds: &[f32],
    dvotes: &mut [f32],
    dk: Option<&mut Vec<f32>>,
    i_caps: usize,
    j_caps: usize,
    d: usize,
    p: usize,
) {
    match dk {
        Some(dk) => {
            dk.fill(0.0);
            if p == 1 {
                for i in 0..i_caps {
                    let krow = &k[i * j_caps..(i + 1) * j_caps];
                    let dkrow = &mut dk[i * j_caps..(i + 1) * j_caps];
                    let vbase = i * j_caps * d;
                    for j in 0..j_caps {
                        let vrow = &votes[vbase + j * d..vbase + (j + 1) * d];
                        let wrow = &mut dvotes[vbase + j * d..vbase + (j + 1) * d];
                        let srow = &ds[j * d..(j + 1) * d];
                        let kv = krow[j];
                        let mut dot = 0.0f32;
                        for ((w, &sv), &vv) in wrow.iter_mut().zip(srow).zip(vrow) {
                            *w += kv * sv;
                            dot += vv * sv;
                        }
                        dkrow[j] += dot;
                    }
                }
            } else {
                for i in 0..i_caps {
                    for j in 0..j_caps {
                        let koff = (i * j_caps + j) * p;
                        for di in 0..d {
                            let voff = ((i * j_caps + j) * d + di) * p;
                            let soff = (j * d + di) * p;
                            for pi in 0..p {
                                dvotes[voff + pi] += k[koff + pi] * ds[soff + pi];
                                dk[koff + pi] += votes[voff + pi] * ds[soff + pi];
                            }
                        }
                    }
                }
            }
        }
        None => {
            if p == 1 {
                for i in 0..i_caps {
                    let krow = &k[i * j_caps..(i + 1) * j_caps];
                    let vbase = i * j_caps * d;
                    for (j, &kv) in krow.iter().enumerate() {
                        let wrow = &mut dvotes[vbase + j * d..vbase + (j + 1) * d];
                        let srow = &ds[j * d..(j + 1) * d];
                        for (w, &sv) in wrow.iter_mut().zip(srow) {
                            *w += kv * sv;
                        }
                    }
                }
            } else {
                for i in 0..i_caps {
                    for j in 0..j_caps {
                        let koff = (i * j_caps + j) * p;
                        for di in 0..d {
                            let voff = ((i * j_caps + j) * d + di) * p;
                            let soff = (j * d + di) * p;
                            for pi in 0..p {
                                dvotes[voff + pi] += k[koff + pi] * ds[soff + pi];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Softmax-over-`J` backward: `db = k · (dk − Σ_j k·dk)` per `(i, p)`.
fn softmax_backward(k: &[f32], dk: &[f32], db: &mut [f32], i_caps: usize, j_caps: usize, p: usize) {
    for i in 0..i_caps {
        for pi in 0..p {
            let mut weighted = 0.0f32;
            for j in 0..j_caps {
                let off = (i * j_caps + j) * p + pi;
                weighted += k[off] * dk[off];
            }
            for j in 0..j_caps {
                let off = (i * j_caps + j) * p + pi;
                db[off] = k[off] * (dk[off] - weighted);
            }
        }
    }
}

/// The original nested-loop routing kernels, kept as the correctness
/// oracle for the slice-based hot path (tests assert bitwise equality;
/// the `perf` benchmark reports speedups against them). Never used on a
/// hot path.
pub mod reference {
    use super::{RoutingCache, RoutingIterState};
    use crate::inject::{Injector, OpKind, OpSite};
    use crate::squash::{squash_caps, squash_caps_backward};
    use redcane_tensor::Tensor;

    /// Naive-loop twin of [`super::dynamic_routing`].
    ///
    /// # Panics
    ///
    /// Panics unless `votes` is rank 4 and `iterations >= 1`.
    pub fn dynamic_routing(
        votes: Tensor,
        iterations: usize,
        layer_index: usize,
        layer_name: &str,
        injector: &mut dyn Injector,
    ) -> RoutingCache {
        assert_eq!(votes.ndim(), 4, "votes must be [I, J, D, P]");
        assert!(iterations >= 1, "routing needs at least one iteration");
        let (i_caps, j_caps, d, p) = (
            votes.shape()[0],
            votes.shape()[1],
            votes.shape()[2],
            votes.shape()[3],
        );
        let mut b = Tensor::zeros(&[i_caps, j_caps, p]);
        let mut history: Vec<RoutingIterState> = Vec::with_capacity(iterations);
        let mut v = Tensor::zeros(&[j_caps, d, p]);
        let vd = votes.data();
        for r in 0..iterations {
            let iter = r as u8;
            // lint: allow(panic) — rank was checked by the caller/construction path
            let mut k = b.softmax_axis(1).expect("rank-3 softmax over J");
            injector.inject(
                &OpSite::routing(layer_index, layer_name, OpKind::Softmax, iter),
                &mut k,
            );
            let kd = k.data();
            let mut s = Tensor::zeros(&[j_caps, d, p]);
            {
                let sd = s.data_mut();
                for i in 0..i_caps {
                    for j in 0..j_caps {
                        for di in 0..d {
                            let vrow = ((i * j_caps + j) * d + di) * p;
                            let krow = (i * j_caps + j) * p;
                            let srow = (j * d + di) * p;
                            for pi in 0..p {
                                sd[srow + pi] += kd[krow + pi] * vd[vrow + pi];
                            }
                        }
                    }
                }
            }
            injector.inject(
                &OpSite::routing(layer_index, layer_name, OpKind::MacOutput, iter),
                &mut s,
            );
            v = squash_caps(&s);
            injector.inject(
                &OpSite::routing(layer_index, layer_name, OpKind::Activation, iter),
                &mut v,
            );
            history.push(RoutingIterState { k, s, v: v.clone() });
            if r + 1 < iterations {
                let vd2 = v.data();
                {
                    let bd = b.data_mut();
                    for i in 0..i_caps {
                        for j in 0..j_caps {
                            for pi in 0..p {
                                let mut dot = 0.0f32;
                                for di in 0..d {
                                    dot += vd[((i * j_caps + j) * d + di) * p + pi]
                                        * vd2[(j * d + di) * p + pi];
                                }
                                bd[(i * j_caps + j) * p + pi] += dot;
                            }
                        }
                    }
                }
                injector.inject(
                    &OpSite::routing(layer_index, layer_name, OpKind::LogitsUpdate, iter),
                    &mut b,
                );
            }
        }
        RoutingCache { votes, history, v }
    }

    /// Naive-loop twin of [`super::dynamic_routing_backward`].
    ///
    /// # Panics
    ///
    /// Panics if `dv`'s shape differs from the cached output.
    pub fn dynamic_routing_backward(cache: &RoutingCache, dv: &Tensor) -> Tensor {
        assert_eq!(dv.shape(), cache.v.shape(), "dv must match routing output");
        let (i_caps, j_caps, d, p) = (
            cache.votes.shape()[0],
            cache.votes.shape()[1],
            cache.votes.shape()[2],
            cache.votes.shape()[3],
        );
        let vd = cache.votes.data();
        let iters = cache.history.len();
        let mut dvotes = vec![0.0f32; i_caps * j_caps * d * p];
        let mut db_next: Option<Tensor> = None;
        for r in (0..iters).rev() {
            let it = &cache.history[r];
            let mut dv_r = if r + 1 == iters {
                dv.clone()
            } else {
                Tensor::zeros(&[j_caps, d, p])
            };
            if let Some(db) = &db_next {
                let dbd = db.data();
                let vrd = it.v.data();
                let dvd = dv_r.data_mut();
                for i in 0..i_caps {
                    for j in 0..j_caps {
                        for di in 0..d {
                            let vrow = ((i * j_caps + j) * d + di) * p;
                            let brow = (i * j_caps + j) * p;
                            let orow = (j * d + di) * p;
                            for pi in 0..p {
                                dvd[orow + pi] += dbd[brow + pi] * vd[vrow + pi];
                                dvotes[vrow + pi] += dbd[brow + pi] * vrd[orow + pi];
                            }
                        }
                    }
                }
            }
            let ds = squash_caps_backward(&it.s, &dv_r);
            let dsd = ds.data();
            let kd = it.k.data();
            let need_db = r > 0;
            let mut dk = vec![0.0f32; if need_db { i_caps * j_caps * p } else { 0 }];
            for i in 0..i_caps {
                for j in 0..j_caps {
                    for di in 0..d {
                        let vrow = ((i * j_caps + j) * d + di) * p;
                        let krow = (i * j_caps + j) * p;
                        let srow = (j * d + di) * p;
                        for pi in 0..p {
                            dvotes[vrow + pi] += kd[krow + pi] * dsd[srow + pi];
                            if need_db {
                                dk[krow + pi] += vd[vrow + pi] * dsd[srow + pi];
                            }
                        }
                    }
                }
            }
            if !need_db {
                break;
            }
            let mut db_r = Tensor::zeros(&[i_caps, j_caps, p]);
            {
                let dbd = db_r.data_mut();
                for i in 0..i_caps {
                    for pi in 0..p {
                        let mut weighted = 0.0f32;
                        for j in 0..j_caps {
                            let off = (i * j_caps + j) * p + pi;
                            weighted += kd[off] * dk[off];
                        }
                        for j in 0..j_caps {
                            let off = (i * j_caps + j) * p + pi;
                            dbd[off] = kd[off] * (dk[off] - weighted);
                        }
                    }
                }
            }
            if let Some(db) = &db_next {
                let dbd = db_r.data_mut();
                for (o, g) in dbd.iter_mut().zip(db.data()) {
                    *o += g;
                }
            }
            db_next = Some(db_r);
        }
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        Tensor::from_vec(dvotes, cache.votes.shape()).expect("sized")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{NoInjection, RecordingInjector};
    use redcane_tensor::TensorRng;

    /// The slice-kernel hot path must be bit-identical to the original
    /// nested loops (the reference oracle) — forward and backward.
    #[test]
    fn hot_path_bitwise_matches_reference() {
        let mut rng = TensorRng::from_seed(127);
        for &(i, j, d, p) in &[(6, 3, 4, 2), (72, 10, 8, 1), (4, 2, 3, 5), (1, 1, 1, 1)] {
            let votes = rng.uniform(&[i, j, d, p], -1.0, 1.0);
            let coeffs = rng.uniform(&[j, d, p], -1.0, 1.0);
            let fast = dynamic_routing(votes.clone(), 3, 0, "T", &mut NoInjection);
            let naive = reference::dynamic_routing(votes, 3, 0, "T", &mut NoInjection);
            assert_eq!(fast.v, naive.v, "forward {i}x{j}x{d}x{p}");
            for (a, b) in fast.history.iter().zip(&naive.history) {
                assert_eq!(a.k, b.k);
                assert_eq!(a.s, b.s);
                assert_eq!(a.v, b.v);
            }
            let dfast = dynamic_routing_backward(&fast, &coeffs);
            let dnaive = reference::dynamic_routing_backward(&naive, &coeffs);
            assert_eq!(dfast, dnaive, "backward {i}x{j}x{d}x{p}");
        }
    }

    #[test]
    fn output_shape_and_length_bounds() {
        let mut rng = TensorRng::from_seed(120);
        let votes = rng.uniform(&[6, 3, 4, 2], -1.0, 1.0);
        let cache = dynamic_routing(votes, 3, 7, "TestCaps", &mut NoInjection);
        assert_eq!(cache.v.shape(), &[3, 4, 2]);
        let lengths = crate::squash::caps_lengths(&cache.v);
        assert!(lengths.data().iter().all(|&l| (0.0..1.0).contains(&l)));
    }

    #[test]
    fn coupling_coefficients_are_probabilities_over_j() {
        let mut rng = TensorRng::from_seed(121);
        let votes = rng.uniform(&[5, 4, 3, 2], -1.0, 1.0);
        let cache = dynamic_routing(votes, 3, 0, "TestCaps", &mut NoInjection);
        let sums = cache.history.last().unwrap().k.sum_axis(1).unwrap();
        for &s in sums.data() {
            assert!((s - 1.0).abs() < 1e-4, "k must sum to 1 over J: {s}");
        }
    }

    #[test]
    fn one_iteration_is_uniform_coupling() {
        let mut rng = TensorRng::from_seed(122);
        let votes = rng.uniform(&[4, 2, 3, 1], -1.0, 1.0);
        let cache = dynamic_routing(votes, 1, 0, "TestCaps", &mut NoInjection);
        for &k in cache.history.last().unwrap().k.data() {
            assert!((k - 0.5).abs() < 1e-5, "uniform over 2 types: {k}");
        }
    }

    #[test]
    fn routing_sharpens_agreement() {
        // Construct votes where inputs agree strongly with output type 0
        // and are random for type 1: routing must shift coupling toward 0.
        let mut rng = TensorRng::from_seed(123);
        let (i_caps, j_caps, d, p) = (8, 2, 4, 1);
        let shared = rng.uniform(&[d], 0.5, 1.0);
        let mut votes = Tensor::zeros(&[i_caps, j_caps, d, p]);
        for i in 0..i_caps {
            for di in 0..d {
                votes
                    .set(
                        &[i, 0, di, 0],
                        shared.data()[di] + rng.next_uniform(-0.05, 0.05),
                    )
                    .unwrap();
                votes
                    .set(&[i, 1, di, 0], rng.next_uniform(-1.0, 1.0))
                    .unwrap();
            }
        }
        let cache = dynamic_routing(votes, 3, 0, "TestCaps", &mut NoInjection);
        // Flat-slice read of k[i, 0, 0] over the [I, J, P] layout.
        let kd = cache.history.last().unwrap().k.data();
        let k_to_0: f32 = (0..i_caps).map(|i| kd[i * j_caps * p]).sum::<f32>() / i_caps as f32;
        assert!(
            k_to_0 > 0.55,
            "agreed type should attract coupling: {k_to_0}"
        );
    }

    #[test]
    fn taps_fire_in_expected_pattern() {
        let mut rng = TensorRng::from_seed(124);
        let votes = rng.uniform(&[3, 2, 2, 1], -1.0, 1.0);
        let mut rec = RecordingInjector::sites_only();
        let _ = dynamic_routing(votes, 3, 5, "Caps3D", &mut rec);
        let softmax = rec
            .visits
            .iter()
            .filter(|s| s.kind == OpKind::Softmax)
            .count();
        let mac = rec
            .visits
            .iter()
            .filter(|s| s.kind == OpKind::MacOutput)
            .count();
        let act = rec
            .visits
            .iter()
            .filter(|s| s.kind == OpKind::Activation)
            .count();
        let upd = rec
            .visits
            .iter()
            .filter(|s| s.kind == OpKind::LogitsUpdate)
            .count();
        assert_eq!(softmax, 3);
        assert_eq!(mac, 3);
        assert_eq!(act, 3);
        assert_eq!(upd, 2, "updates happen between iterations");
        assert!(rec.visits.iter().all(|s| s.layer_index == 5));
        assert!(rec.visits.iter().all(|s| s.routing_iter.is_some()));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = TensorRng::from_seed(125);
        let votes = rng.uniform(&[4, 3, 3, 2], -1.0, 1.0);
        let coeffs = rng.uniform(&[3, 3, 2], -1.0, 1.0);
        // The backward pass is exact, so the analytic gradient must match
        // central differences of the FULL routing loss — coupling
        // coefficient dependence on the votes included.
        let base = dynamic_routing(votes.clone(), 3, 0, "T", &mut NoInjection);
        let dvotes = dynamic_routing_backward(&base, &coeffs);
        let loss = |votes: &Tensor| -> f32 {
            dynamic_routing(votes.clone(), 3, 0, "T", &mut NoInjection)
                .v
                .mul(&coeffs)
                .unwrap()
                .sum()
        };
        let eps = 1e-2f32;
        for idx in 0..votes.len() {
            let mut vp = votes.clone();
            vp.data_mut()[idx] += eps;
            let mut vm = votes.clone();
            vm.data_mut()[idx] -= eps;
            let num = (loss(&vp) - loss(&vm)) / (2.0 * eps);
            let ana = dvotes.data()[idx];
            assert!(
                (num - ana).abs() < 5e-3 * (1.0 + num.abs()),
                "dvotes[{idx}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn rejects_zero_iterations() {
        let votes = Tensor::zeros(&[2, 2, 2, 1]);
        let _ = dynamic_routing(votes, 0, 0, "T", &mut NoInjection);
    }
}
