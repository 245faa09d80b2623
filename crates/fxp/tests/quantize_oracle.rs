//! Bit oracle for `QuantParams::quantize`: it must equal the textbook
//! Eq. 1 formula `scaled.round().clamp(0.0, top) as u16` (round half
//! away from zero, NaN to code 0) for every input.
//!
//! The tier-1 test covers a structured set — ±8 ULP around every
//! half-code boundary at every word length, the special values and a
//! strided sweep of bit patterns. The ignored test sweeps all 2³²
//! `f32` bit patterns at 8 bits:
//!
//! ```sh
//! cargo test --release -p redcane-fxp --test quantize_oracle -- --ignored
//! ```

use redcane_fxp::QuantParams;

/// Eq. 1 with `f32::round`, the definition `quantize` must reproduce.
fn formula(q: &QuantParams, x: f32) -> u16 {
    let top = q.max_code() as f32;
    let scaled = (x - q.min()) / (q.max() - q.min()) * top;
    scaled.round().clamp(0.0, top) as u16
}

fn check(q: &QuantParams, x: f32) {
    assert_eq!(
        q.quantize(x),
        formula(q, x),
        "x = {x:e} ({:#010x}) over [{}, {}] at {} bits",
        x.to_bits(),
        q.min(),
        q.max(),
        q.bits()
    );
}

/// Checks the 17 `f32`s from 8 ULP below `x` to 8 ULP above it.
fn check_ulps_around(q: &QuantParams, x: f32) {
    let mut v = (0..8).fold(x, |v, _| v.next_down());
    for _ in 0..17 {
        check(q, v);
        v = v.next_up();
    }
}

/// Ranges with inexact scales, an offset range, a tiny one and a huge
/// one, so the division and scaling round in every direction.
fn ranges() -> [(f32, f32); 5] {
    [
        (-1.0, 1.0),
        (-0.37, 1.91),
        (3.0, 3.0001),
        (-1.0e-3, 2.5e-4),
        (-3.0e8, 1.0e9),
    ]
}

#[test]
fn quantize_matches_round_formula_on_structured_inputs() {
    let specials = [
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x007f_ffff),
        f32::MAX,
        f32::MIN,
        0.5,
        -0.5,
    ];
    for bits in 1..=16u8 {
        for (min, max) in ranges() {
            let q = QuantParams::from_range(min, max, bits).unwrap();
            for &x in &specials {
                check(&q, x);
            }
            // Every half-code boundary `c − ½`, c = 0..=top + 1, ±8 ULP;
            // the two outermost ones straddle the saturation edges.
            let (lo, hi) = (f64::from(min), f64::from(max));
            let top = f64::from(q.max_code());
            for c in 0..=u32::from(q.max_code()) + 1 {
                let at = lo + (f64::from(c) - 0.5) / top * (hi - lo);
                check_ulps_around(&q, at as f32);
            }
            check_ulps_around(&q, min);
            check_ulps_around(&q, max);
        }
    }
    // A strided sweep over all bit patterns, at 8 bits.
    for (min, max) in ranges() {
        let q = QuantParams::from_range(min, max, 8).unwrap();
        for pattern in (0..=u32::MAX).step_by(65_521) {
            check(&q, f32::from_bits(pattern));
        }
    }
}

/// All 2³² inputs at 8 bits over a range with an inexact scale.
#[test]
#[ignore = "sweeps all 2^32 f32 inputs; ~1 min in release"]
fn quantize_matches_round_formula_on_every_f32() {
    let q = QuantParams::from_range(-0.37, 1.91, 8).unwrap();
    let mismatches = (0..=u32::MAX)
        .filter(|&bits| {
            let x = f32::from_bits(bits);
            q.quantize(x) != formula(&q, x)
        })
        .count();
    assert_eq!(mismatches, 0);
}
