//! Quantization helpers shared by the algorithm and simulator layers.
//!
//! The heavy lifting lives on [`Fixed16Tensor`] and
//! [`Int4Tensor`]; this module adds the error metrics and
//! fake-quantization ("quantize-dequantize") utilities the evaluation
//! harness uses to study precision trade-offs (Fig. 13(b)).

use crate::fixed::{Fixed16Tensor, Int4Tensor};
use crate::tensor::Tensor;

/// Quantizes to the Speculator's INT4 (via the hardware 16→4 truncation
/// path) and dequantizes, in one pass.
pub use crate::fixed::fake_quantize_int4_truncated;

/// Quantizes to INT16-with-scale and immediately dequantizes, returning the
/// value the Executor datapath would actually see.
pub fn fake_quantize_int16(t: &Tensor) -> Tensor {
    Fixed16Tensor::quantize(t).dequantize()
}

/// Quantizes to a `bits`-wide integer grid (round-to-nearest) and
/// dequantizes. Used in the Fig. 13(b) precision sweep.
///
/// # Panics
///
/// Panics if `bits` is outside [2, 8].
pub fn fake_quantize_bits(t: &Tensor, bits: u32) -> Tensor {
    Int4Tensor::quantize_with_bits(t, bits).dequantize()
}

/// Signal-to-quantization-noise ratio in dB between a reference and its
/// quantized reconstruction. Higher is better; `f32::INFINITY` when the
/// reconstruction is exact.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn sqnr_db(reference: &Tensor, reconstructed: &Tensor) -> f32 {
    assert_eq!(
        reference.shape(),
        reconstructed.shape(),
        "sqnr shape mismatch"
    );
    let signal = reference.norm_sq();
    let noise = crate::ops::sub(reference, reconstructed).norm_sq();
    if noise == 0.0 {
        f32::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

/// Maximum absolute quantization error.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn max_error(reference: &Tensor, reconstructed: &Tensor) -> f32 {
    crate::ops::sub(reference, reconstructed).max_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Tensor {
        Tensor::from_fn(&[n], |i| (i as f32 / n as f32) * 2.0 - 1.0)
    }

    #[test]
    fn int16_sqnr_much_higher_than_int4() {
        let t = ramp(256);
        let s16 = sqnr_db(&t, &fake_quantize_int16(&t));
        let s4 = sqnr_db(&t, &fake_quantize_int4_truncated(&t));
        assert!(s16 > 80.0, "int16 sqnr {s16}");
        assert!(s4 < 40.0, "int4 sqnr {s4}");
        assert!(s16 > s4 + 40.0);
    }

    #[test]
    fn sqnr_monotone_in_bits() {
        let t = ramp(512);
        let mut prev = f32::NEG_INFINITY;
        for bits in 2..=8 {
            let s = sqnr_db(&t, &fake_quantize_bits(&t, bits));
            assert!(s >= prev, "sqnr not monotone at {bits} bits: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn exact_reconstruction_is_infinite_sqnr() {
        let t = ramp(8);
        assert_eq!(sqnr_db(&t, &t), f32::INFINITY);
    }

    #[test]
    fn max_error_bounded_by_step() {
        let t = ramp(100);
        let e = max_error(&t, &fake_quantize_bits(&t, 4));
        // half a step of round-to-nearest at qmax=7: step = 1/7
        assert!(e <= 0.5 / 7.0 + 1e-4, "error {e}");
    }
}
