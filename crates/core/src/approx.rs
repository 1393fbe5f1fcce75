//! The approximate module: quantized, dimension-reduced linear layer.
//!
//! Mirrors the Speculator pipeline of §III-B: (1) quantize the input to
//! INT4 by truncation, (2) dimension-reduce through the ternary projection
//! (adds only), (3) INT4 GEMV against the QDR weights, (4) dequantize.
//!
//! The INT weights are the module's state; their dequantized `f32` matrix
//! is derived from them once, when the module is built, and every forward
//! pass reuses it. All constructors — and so [`ApproxLinear::requantized`]
//! and the fault-injection reassembly through
//! [`ApproxLinear::from_quantized`] — build the matrix from the weights
//! they store, so it cannot go stale, and a forward pass gives the same
//! bits as dequantizing on every call did.

use std::borrow::Cow;

use crate::projection::TernaryProjection;
use duet_tensor::fixed::{fake_quantize_int4_truncated, Int4Tensor};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Precision / size configuration of an approximate module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ApproxConfig {
    /// Reduced input dimension `k`.
    pub reduced_dim: usize,
    /// Weight precision in bits (paper default: 4).
    pub weight_bits: u32,
    /// Activation precision in bits after the Quantizer (paper default: 4).
    pub activation_bits: u32,
}

impl ApproxConfig {
    /// The paper's configuration: INT4 weights, INT4 activations.
    pub fn paper_default(reduced_dim: usize) -> Self {
        Self {
            reduced_dim,
            weight_bits: 4,
            activation_bits: 4,
        }
    }
}

/// An approximate module for a linear (FF / gate) layer:
/// `y' = W' (P x_q) + b'` with `W'` quantized to `weight_bits`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ApproxLinear {
    projection: TernaryProjection,
    /// Quantized weights `[n, k]`.
    weights: Int4Tensor,
    /// `weights.dequantize()`, computed once at construction.
    dequantized: Tensor,
    bias: Tensor,
    config: ApproxConfig,
}

impl ApproxLinear {
    /// Builds an approximate module from already-fitted float weights
    /// `w_prime [n, k]` (quantizing them to `config.weight_bits`) and a
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the projection (checked by
    /// [`ApproxLinear::from_quantized`], which this delegates to).
    pub fn from_parts(
        projection: TernaryProjection,
        w_prime: &Tensor,
        bias: Tensor,
        config: ApproxConfig,
    ) -> Self {
        let weights = Int4Tensor::quantize_with_bits(w_prime, config.weight_bits);
        Self::from_quantized(projection, weights, bias, config)
    }

    /// Builds an approximate module directly from already-quantized
    /// weights, bypassing the float→INT quantization of
    /// [`ApproxLinear::from_parts`]. This is the reassembly path for fault
    /// injection (`duet-sim`): flip bits in an existing module's
    /// [`weights`](ApproxLinear::weights) payload and rebuild the module
    /// around the corrupted tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the projection.
    pub fn from_quantized(
        projection: TernaryProjection,
        weights: Int4Tensor,
        bias: Tensor,
        config: ApproxConfig,
    ) -> Self {
        assert_eq!(weights.shape().rank(), 2, "weights must be [n, k]");
        assert_eq!(
            weights.shape().dim(1),
            projection.reduced_dim(),
            "weight columns must equal reduced dim"
        );
        assert_eq!(
            weights.shape().dim(0),
            bias.len(),
            "bias must match output count"
        );
        assert_eq!(
            config.reduced_dim,
            projection.reduced_dim(),
            "config reduced_dim disagrees with projection"
        );
        let dequantized = weights.dequantize();
        Self {
            projection,
            weights,
            dequantized,
            bias,
            config,
        }
    }

    /// The ternary projection.
    pub fn projection(&self) -> &TernaryProjection {
        &self.projection
    }

    /// The quantized weight tensor `[n, k]`.
    pub fn weights(&self) -> &Int4Tensor {
        &self.weights
    }

    /// The bias vector `[n]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The configuration this module was built with.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// Output dimension `n`.
    pub fn output_dim(&self) -> usize {
        self.bias.len()
    }

    /// Input dimension `d` (before reduction).
    pub fn input_dim(&self) -> usize {
        self.projection.input_dim()
    }

    /// Step 1 (Quantizer): emulate the INT16→INT4 truncation by
    /// re-quantizing the float input at `activation_bits` with one scale
    /// for the whole tensor; 16 bits and above pass the input through.
    fn quantize_activations<'a>(&self, x: &'a Tensor) -> Cow<'a, Tensor> {
        match self.config.activation_bits {
            bits if bits >= 16 => Cow::Borrowed(x),
            4 => Cow::Owned(fake_quantize_int4_truncated(x)),
            bits => Cow::Owned(Int4Tensor::quantize_with_bits(x, bits).dequantize()),
        }
    }

    /// Full hardware-faithful forward pass: quantize → project → INT-GEMV
    /// → dequantize → add bias. The GEMV runs against the weight matrix
    /// dequantized once at construction.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let xq = self.quantize_activations(x);
        // Step 2 (Alignment Units + Adder Trees): ternary projection.
        let projected = self.projection.project(&xq);
        // Step 3 (Systolic Array): low-precision GEMV.
        let mut y = ops::gemv(&self.dequantized, &projected);
        // Step 4: bias.
        ops::axpy(1.0, &self.bias, &mut y);
        y
    }

    /// Forward for every column of a `[d, cols]` matrix; returns
    /// `[n, cols]`. Used by the CONV path where the im2col patch matrix
    /// replaces the input vector.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not `[d, cols]`.
    pub fn forward_columns(&self, m: &Tensor) -> Tensor {
        assert_eq!(m.shape().dim(0), self.input_dim(), "row count mismatch");
        let mq = self.quantize_activations(m);
        let projected = self.projection.project_columns(&mq);
        let mut y = ops::matmul(&self.dequantized, &projected);
        let cols = y.shape().dim(1);
        for i in 0..self.output_dim() {
            let b = self.bias.data()[i];
            for v in &mut y.data_mut()[i * cols..(i + 1) * cols] {
                *v += b;
            }
        }
        y
    }

    /// Parameter count of the approximate module (weights only; the
    /// projection is ternary metadata).
    pub fn param_count(&self) -> usize {
        self.weights.len()
    }

    /// Approximate-module weight storage in bytes (packed nibbles for
    /// ≤4-bit, one byte otherwise) — what the Speculator's QDR Weight
    /// Buffer holds. Delegates to the tensor's own width-aware accounting.
    pub fn weight_bytes(&self) -> usize {
        self.weights.payload_bytes()
    }

    /// Re-quantizes the module's weights at `weight_bits`, keeping the
    /// projection, bias and activation precision — the θ-controller's
    /// graduated-degradation actuator (a saturated controller trades
    /// speculator precision for throughput one bit at a time instead of
    /// falling back dense). Pure and deterministic: requantizing back at
    /// the original width after a round trip through the float domain
    /// reproduces the quantizer's output for that width.
    pub fn requantized(&self, weight_bits: u32) -> Self {
        let config = ApproxConfig {
            weight_bits,
            ..self.config
        };
        Self::from_parts(
            self.projection.clone(),
            &self.dequantized,
            self.bias.clone(),
            config,
        )
    }

    /// Builds a *random* (undistilled) approximate module — only useful as
    /// a baseline to show distillation matters.
    pub fn random(d: usize, n: usize, config: ApproxConfig, rng: &mut Rng) -> Self {
        let projection = TernaryProjection::sample(d, config.reduced_dim, rng);
        let w = duet_tensor::rng::normal(rng, &[n, config.reduced_dim], 0.0, 0.1);
        Self::from_parts(projection, &w, Tensor::zeros(&[n]), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    #[test]
    fn forward_shapes() {
        let mut r = seeded(1);
        let m = ApproxLinear::random(32, 8, ApproxConfig::paper_default(16), &mut r);
        let x = rng::normal(&mut r, &[32], 0.0, 1.0);
        let y = m.forward(&x);
        assert_eq!(y.len(), 8);
        assert_eq!(m.input_dim(), 32);
        assert_eq!(m.output_dim(), 8);
        assert_eq!(m.param_count(), 8 * 16);
    }

    #[test]
    fn forward_columns_matches_vector_path() {
        let mut r = seeded(2);
        let m = ApproxLinear::random(12, 5, ApproxConfig::paper_default(6), &mut r);
        let cols = rng::normal(&mut r, &[12, 4], 0.0, 1.0);
        let batch = m.forward_columns(&cols);
        for c in 0..4 {
            let x = Tensor::from_vec((0..12).map(|j| cols.at(&[j, c])).collect(), &[12]);
            let y = m.forward(&x);
            for i in 0..5 {
                // The two paths quantize at different granularity (whole
                // matrix vs single column), so allow a loose tolerance.
                assert!(
                    (batch.at(&[i, c]) - y.data()[i]).abs() < 0.5,
                    "col {c} row {i}: {} vs {}",
                    batch.at(&[i, c]),
                    y.data()[i]
                );
            }
        }
    }

    #[test]
    fn weight_bytes_packing() {
        let mut r = seeded(3);
        let m4 = ApproxLinear::random(16, 3, ApproxConfig::paper_default(8), &mut r);
        assert_eq!(m4.weight_bytes(), 12); // 24 nibbles → 12 bytes
        let cfg8 = ApproxConfig {
            reduced_dim: 8,
            weight_bits: 8,
            activation_bits: 8,
        };
        let m8 = ApproxLinear::random(16, 3, cfg8, &mut r);
        assert_eq!(m8.weight_bytes(), 24);
    }

    #[test]
    fn bias_flows_through() {
        let mut r = seeded(4);
        let proj = TernaryProjection::sample(8, 4, &mut r);
        let m = ApproxLinear::from_parts(
            proj,
            &Tensor::zeros(&[2, 4]),
            Tensor::from_vec(vec![1.5, -2.5], &[2]),
            ApproxConfig::paper_default(4),
        );
        let y = m.forward(&Tensor::zeros(&[8]));
        assert_eq!(y.data(), &[1.5, -2.5]);
    }

    #[test]
    fn requantized_narrows_storage_and_round_trips() {
        let mut r = seeded(6);
        let m4 = ApproxLinear::random(24, 8, ApproxConfig::paper_default(12), &mut r);
        let m2 = m4.requantized(2);
        assert_eq!(m2.config().weight_bits, 2);
        assert_eq!(m2.config().reduced_dim, m4.config().reduced_dim);
        // storage never grows (sub-nibble widths still pack as nibbles)
        assert!(m2.weight_bytes() <= m4.weight_bytes());
        // 2-bit weights are a strictly coarser grid: outputs still finite
        // and shaped right.
        let x = rng::normal(&mut r, &[24], 0.0, 1.0);
        let y = m2.forward(&x);
        assert_eq!(y.len(), 8);
        assert!(y.data().iter().all(|v| v.is_finite()));
        // Requantizing back at the original width is the identity on the
        // already-quantized grid.
        let back = m2.requantized(2);
        assert_eq!(back.weights().data(), m2.weights().data());
    }

    use crate::projection::tests::branchy_project;
    use duet_tensor::fixed::Fixed16Tensor;

    /// Oracle: the pre-fusion quantizer (three passes for INT4).
    fn three_pass_quantize(m: &ApproxLinear, x: &Tensor) -> Tensor {
        match m.config().activation_bits {
            b if b >= 16 => x.clone(),
            4 => Fixed16Tensor::quantize(x).truncate_to_int4().dequantize(),
            b => Int4Tensor::quantize_with_bits(x, b).dequantize(),
        }
    }

    /// Oracle: the pre-cache forward pass — three-pass quantizer, branchy
    /// projection, and the weights dequantized again on every call.
    fn per_call_forward(m: &ApproxLinear, x: &Tensor) -> Tensor {
        let xq = three_pass_quantize(m, x);
        let projected = branchy_project(m.projection(), &xq);
        let mut y = ops::gemv(&m.weights().dequantize(), &projected);
        ops::axpy(1.0, m.bias(), &mut y);
        y
    }

    /// Oracle: the pre-cache `forward_columns`, column-wise quantizer
    /// scale included (one scale for the whole matrix).
    fn per_call_forward_columns(m: &ApproxLinear, x: &Tensor) -> Tensor {
        let xq = three_pass_quantize(m, x);
        let (d, cols) = (m.input_dim(), x.shape().dim(1));
        let projected: Vec<Tensor> = (0..cols)
            .map(|c| {
                let col = (0..d).map(|j| xq.data()[j * cols + c]).collect();
                branchy_project(m.projection(), &Tensor::from_vec(col, &[d]))
            })
            .collect();
        let k = m.config().reduced_dim;
        let p = Tensor::from_fn(&[k, cols], |i| projected[i % cols].data()[i / cols]);
        let mut y = ops::matmul(&m.weights().dequantize(), &p);
        for (i, row) in y.data_mut().chunks_exact_mut(cols).enumerate() {
            for v in row {
                *v += m.bias().data()[i];
            }
        }
        y
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_is_bitwise_the_per_call_dequantize_path() {
        let mut r = seeded(31);
        for activation_bits in [4u32, 8, 16] {
            for weight_bits in 2..=8u32 {
                let config = ApproxConfig {
                    reduced_dim: 9,
                    weight_bits,
                    activation_bits,
                };
                let mut m = ApproxLinear::random(37, 11, config, &mut r);
                let bias = rng::normal(&mut r, &[11], 0.0, 0.5);
                m = ApproxLinear::from_quantized(
                    m.projection().clone(),
                    m.weights().clone(),
                    bias,
                    config,
                );
                let x = rng::normal(&mut r, &[37], 0.0, 2.0);
                assert_eq!(
                    bits(&m.forward(&x)),
                    bits(&per_call_forward(&m, &x)),
                    "a{activation_bits} w{weight_bits}"
                );
                let cols = rng::normal(&mut r, &[37, 5], 0.0, 2.0);
                assert_eq!(
                    bits(&m.forward_columns(&cols)),
                    bits(&per_call_forward_columns(&m, &cols)),
                    "columns a{activation_bits} w{weight_bits}"
                );
            }
        }
    }

    #[test]
    fn cached_weights_track_every_construction_path() {
        let mut r = seeded(32);
        let base = ApproxLinear::random(40, 12, ApproxConfig::paper_default(10), &mut r);
        // Fault injection: flip one bit of every third INT4 word (sign
        // extended back into [-8, 7]) and reassemble.
        let w = base.weights();
        let flipped: Vec<i8> = w
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i % 3 == 0 {
                    ((v ^ (1 << (i % 4))) << 4) >> 4
                } else {
                    v
                }
            })
            .collect();
        assert_ne!(flipped, w.data());
        let corrupted = ApproxLinear::from_quantized(
            base.projection().clone(),
            Int4Tensor::from_raw(flipped, w.scale(), w.shape().dims()),
            base.bias().clone(),
            *base.config(),
        );
        let laddered = base.requantized(2).requantized(4);
        let x = rng::normal(&mut r, &[40], 0.0, 1.0);
        for m in [
            &base,
            &corrupted,
            &base.requantized(2),
            &laddered,
            &base.clone(),
        ] {
            let xq = fake_quantize_int4_truncated(&x);
            let mut fresh = ops::gemv(&m.weights().dequantize(), &m.projection().project(&xq));
            ops::axpy(1.0, m.bias(), &mut fresh);
            assert_eq!(bits(&m.forward(&x)), bits(&fresh));
        }
        assert_ne!(bits(&corrupted.forward(&x)), bits(&base.forward(&x)));
        assert_ne!(laddered.weights(), base.weights());
    }

    #[test]
    #[should_panic(expected = "columns must equal reduced dim")]
    fn mismatched_weight_width_panics() {
        let mut r = seeded(5);
        let proj = TernaryProjection::sample(8, 4, &mut r);
        ApproxLinear::from_parts(
            proj,
            &Tensor::zeros(&[2, 5]),
            Tensor::zeros(&[2]),
            ApproxConfig::paper_default(4),
        );
    }
}
