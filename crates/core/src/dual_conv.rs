//! Dual-module execution of a convolutional layer (§II-B, §III-C).
//!
//! The CONV layer is lowered with im2col so the approximate module works
//! on the patch matrix exactly as on an FF input. The switching map is
//! per output *element* (channel × position); after ReLU it doubles as the
//! next layer's input-sparsity map (IMap) including the §III-C correction
//! step.
//!
//! The executor does not walk the im2col matrix. Once per call it
//! compacts each output position's non-zero patch operands into a list
//! of `(j, v)` in ascending patch index `j`
//! ([`duet_tensor::im2col::PatchOperands`], built straight from the
//! `[C, H, W]` input), and a sensitive output `(k, p)` reduces
//! `bias[k] + Σ w[k, j] · v` over position `p`'s list — contiguous reads
//! and no per-element branch, the compacted-operand form SparseNN-style
//! accelerators rely on. The add order is unchanged from a zero-skipping
//! walk down im2col column `p`: the list keeps exactly the elements that
//! walk adds (`v != 0.0`, so `±0.0` and padding taps are dropped and NaN
//! kept), in the same ascending `j`. ReLU and the correction step then
//! run one 64-output map word at a time.

use crate::approx::{ApproxConfig, ApproxLinear};
use crate::distill;
use crate::engine::{EngineCosts, ExecutorWeightBytes, Gather, MacMode, SpeculationEngine};
use crate::guard::SpeculationGuard;
use crate::metrics::SavingsReport;
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_tensor::im2col::{im2col, ConvGeometry, PatchOperands};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Result of one dual-module convolution.
#[derive(Debug, Clone)]
pub struct DualConvOutput {
    /// Post-ReLU output feature map `[K, oh, ow]`.
    pub output: Tensor,
    /// Per-element output switching map (length `K · oh · ow`), after the
    /// post-ReLU correction step — ready to serve as the next layer's
    /// IMap.
    pub omap: SwitchingMap,
    /// Per-channel sensitive-output counts — what the Reorder Unit's
    /// adder trees compute for adaptive mapping (§IV-A).
    pub channel_workloads: Vec<usize>,
    /// Operation / byte accounting.
    pub report: SavingsReport,
}

/// A convolutional layer paired with its distilled approximate module.
#[derive(Debug, Clone)]
pub struct DualConvLayer {
    geom: ConvGeometry,
    filters: Tensor, // [K, C·R·S]
    bias: Tensor,    // [K]
    approx: ApproxLinear,
}

impl DualConvLayer {
    /// Wraps an accurate conv layer (`filters [K, C, R, S]`) and a
    /// pre-distilled approximate module over the patch dimension.
    ///
    /// # Panics
    ///
    /// Panics on shape inconsistencies.
    pub fn new(geom: ConvGeometry, filters: &Tensor, bias: Tensor, approx: ApproxLinear) -> Self {
        assert_eq!(filters.shape().rank(), 4, "filters must be [K,C,R,S]");
        let k = filters.shape().dim(0);
        assert_eq!(bias.len(), k, "bias length mismatch");
        assert_eq!(
            approx.input_dim(),
            geom.patch_len(),
            "approximate module must take the patch vector"
        );
        assert_eq!(approx.output_dim(), k, "approximate module output mismatch");
        Self {
            geom,
            filters: filters.reshaped(&[k, geom.patch_len()]),
            bias,
            approx,
        }
    }

    /// Distills the approximate module from the filter bank using
    /// standard-normal patch samples.
    pub fn learn(
        geom: ConvGeometry,
        filters: &Tensor,
        bias: &Tensor,
        reduced_dim: usize,
        samples: usize,
        rng: &mut Rng,
    ) -> Self {
        let k = filters.shape().dim(0);
        let fmat = filters.reshaped(&[k, geom.patch_len()]);
        let cfg = ApproxConfig::paper_default(reduced_dim);
        let approx = distill::distill_linear(&fmat, bias, cfg, samples, rng);
        Self::new(geom, filters, bias.clone(), approx)
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geom
    }

    /// Output channel count `K`.
    pub fn out_channels(&self) -> usize {
        self.filters.shape().dim(0)
    }

    /// The approximate module.
    pub fn approx(&self) -> &ApproxLinear {
        &self.approx
    }

    /// Replaces the approximate module (fault injection / corrupted-
    /// speculator studies); the accurate filter bank is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the replacement's dimensions disagree with the layer.
    pub fn set_approx(&mut self, approx: ApproxLinear) {
        assert_eq!(
            approx.input_dim(),
            self.geom.patch_len(),
            "input dim mismatch"
        );
        assert_eq!(
            approx.output_dim(),
            self.out_channels(),
            "output dim mismatch"
        );
        self.approx = approx;
    }

    /// The filter matrix in GEMM form `[K, C·R·S]`.
    pub fn filter_matrix(&self) -> &Tensor {
        &self.filters
    }

    /// Dense reference execution (with ReLU).
    pub fn forward_dense(&self, input: &Tensor) -> Tensor {
        let cols = im2col(input, &self.geom);
        let mut y = ops::matmul(&self.filters, &cols);
        let cols_n = y.shape().dim(1);
        for kk in 0..self.out_channels() {
            let b = self.bias.data()[kk];
            for v in &mut y.data_mut()[kk * cols_n..(kk + 1) * cols_n] {
                *v = (*v + b).max(0.0);
            }
        }
        y.reshaped(&[self.out_channels(), self.geom.out_h(), self.geom.out_w()])
    }

    /// Dual-module forward pass.
    ///
    /// `imap`, when given, is the previous layer's corrected OMap reused as
    /// the input-sparsity map, mirroring the per-PE tag-bit logic of
    /// Fig. 6. Only its presence is consulted: with an IMap, MACs on zero
    /// inputs are left out of the issued count (`executor_macs`); without
    /// one they are counted as issued. Its bits are not read — the
    /// executor skips exact zero inputs in the arithmetic either way, and
    /// the corrected OMap marks exactly the non-zero outputs. It must have
    /// length `C·H·W` of this layer's input.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `[C, H, W]` matching the geometry, or the
    /// imap length disagrees.
    pub fn forward(
        &self,
        input: &Tensor,
        policy: &SwitchingPolicy,
        imap: Option<&SwitchingMap>,
    ) -> DualConvOutput {
        self.forward_impl(input, policy, imap, None)
    }

    /// [`DualConvLayer::forward`] watched by a [`SpeculationGuard`]: a
    /// tripped guard under `FallbackDense` reroutes the layer through the
    /// bitwise-dense path (see [`crate::guard`]).
    pub fn forward_guarded(
        &self,
        input: &Tensor,
        policy: &SwitchingPolicy,
        imap: Option<&SwitchingMap>,
        guard: &mut SpeculationGuard,
    ) -> DualConvOutput {
        self.forward_impl(input, policy, imap, Some(guard))
    }

    fn forward_impl(
        &self,
        input: &Tensor,
        policy: &SwitchingPolicy,
        imap: Option<&SwitchingMap>,
        guard: Option<&mut SpeculationGuard>,
    ) -> DualConvOutput {
        let k = self.out_channels();
        let d = self.geom.patch_len();
        let (oh, ow) = (self.geom.out_h(), self.geom.out_w());
        let positions = oh * ow;
        if let Some(m) = imap {
            assert_eq!(
                m.len(),
                input.len(),
                "imap length must equal input element count"
            );
        }

        let mut engine = SpeculationEngine::new();

        // Speculator: approximate the whole output map, then flatten it
        // in place for the switching map over all output elements.
        let mut y = self.approx.forward_columns(&im2col(input, &self.geom)); // [K, positions]
        y.reshape_inplace(&[k * positions]);
        let map = match guard {
            Some(g) => engine.speculate_guarded(policy, &y, g),
            None => engine.speculate(policy, &y),
        };

        // Executor + Eq. (2) mix: recompute sensitive elements exactly,
        // in place over the approximate map, each over its position's
        // compacted non-zero operands (same operands and add order as
        // the zero-skipping im2col column walk, see the module docs).
        // Zero inputs are skipped in the MAC accounting only when an IMap
        // is present (input-sparsity skipping costs nothing extra because
        // ineffectual values are exact zeros — without an IMap the PE
        // still issues them).
        let operands = PatchOperands::new(input, &self.geom);
        let fd = self.filters.data();
        let bd = self.bias.data();
        let count_skipped = imap.is_none();
        engine.execute_into(&map, y.data_mut(), |idx, kernel| {
            let (kk, p) = (idx / positions, idx % positions);
            kernel.dot(
                bd[kk],
                &fd[kk * d..(kk + 1) * d],
                Gather::Compact(operands.position(p)),
                MacMode::SkipZeroInputs { count_skipped },
            )
        });

        // ReLU + §III-C correction step, one 64-output map word at a
        // time: a predicted-effectual neuron that dies in ReLU flips to
        // insensitive in the stored OMap, and insensitive CONV outputs
        // are set to zero ("the ineffectual neurons are set to zero,
        // making the OMap become the input sparsity maps for the next
        // layer", §III-C).
        let mut omap_words = Vec::with_capacity(map.words().len());
        for (chunk, &word) in y.data_mut().chunks_mut(64).zip(map.words()) {
            let mut corrected = 0u64;
            for (bit, v) in chunk.iter_mut().enumerate() {
                let r = v.max(0.0);
                let sensitive = (word >> bit & 1 == 1) & (r != 0.0);
                *v = if sensitive { r } else { 0.0 };
                corrected |= (sensitive as u64) << bit;
            }
            omap_words.push(corrected);
        }
        let omap = SwitchingMap::from_words(omap_words, map.len());

        let channel_workloads: Vec<usize> = (0..k)
            .map(|kk| map.sensitive_count_in(kk * positions, (kk + 1) * positions))
            .collect();

        let kcfg = self.approx.config().reduced_dim;
        let report = engine.finish(EngineCosts {
            dense_macs: (k * positions * d) as u64,
            dense_weight_bytes: (k * d * 2) as u64,
            speculator_macs: (k * kcfg * positions) as u64,
            speculator_adds: (self.approx.projection().additions_per_projection() * positions)
                as u64,
            speculator_weight_bytes: self.approx.weight_bytes() as u64,
            // CONV weights are reused across positions; a compute-bound
            // layer always loads the full (small) filter bank once.
            executor_weight_bytes: ExecutorWeightBytes::Fixed((k * d * 2) as u64),
        });

        y.reshape_inplace(&[k, oh, ow]);
        DualConvOutput {
            output: y,
            omap,
            channel_workloads,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    fn geom() -> ConvGeometry {
        ConvGeometry {
            in_channels: 3,
            in_h: 8,
            in_w: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        }
    }

    fn make_layer(seed: u64) -> (DualConvLayer, Rng) {
        let mut r = seeded(seed);
        let g = geom();
        let filters = rng::normal(&mut r, &[8, 3, 3, 3], 0.0, 0.25);
        let bias = rng::normal(&mut r, &[8], 0.0, 0.05);
        let layer = DualConvLayer::learn(g, &filters, &bias, 16, 500, &mut r);
        (layer, r)
    }

    #[test]
    fn never_switch_matches_dense() {
        let (layer, mut r) = make_layer(1);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::never_switch(), None);
        let dense = layer.forward_dense(&x);
        for (a, b) in out.output.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn switching_saves_macs_with_bounded_error() {
        let (layer, mut r) = make_layer(2);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        let dense = layer.forward_dense(&x);
        let rel = ops::sub(&out.output, &dense).norm_sq() / dense.norm_sq();
        assert!(
            out.report.mac_skip_fraction() > 0.2,
            "skip {}",
            out.report.mac_skip_fraction()
        );
        assert!(rel < 0.2, "error {rel}");
    }

    #[test]
    fn corrected_omap_matches_output_zeros() {
        let (layer, mut r) = make_layer(3);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        for (i, &v) in out.output.data().iter().enumerate() {
            if out.omap.is_sensitive(i) {
                assert!(v > 0.0, "sensitive output {i} is zero");
            } else {
                assert_eq!(v, 0.0, "insensitive output {i} non-zero");
            }
        }
    }

    #[test]
    fn imap_reduces_counted_macs() {
        let (layer, mut r) = make_layer(4);
        let mut x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        // zero out half the input (as a previous ReLU would)
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let imap = SwitchingMap::from_flags(x.data().iter().map(|&v| v != 0.0).collect());
        let with = layer.forward(&x, &SwitchingPolicy::relu(0.0), Some(&imap));
        let without = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        assert!(with.report.executor_macs < without.report.executor_macs);
        // results identical — skipping zeros is exact
        for (a, b) in with.output.data().iter().zip(without.output.data()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn channel_workloads_sum_to_sensitive_count() {
        let (layer, mut r) = make_layer(5);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        let total: usize = out.channel_workloads.iter().sum();
        assert_eq!(total as u64, out.report.outputs_exact);
        assert_eq!(out.channel_workloads.len(), 8);
    }

    #[test]
    fn output_shape() {
        let (layer, mut r) = make_layer(6);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        assert_eq!(out.output.shape().dims(), &[8, 8, 8]);
        assert_eq!(out.omap.len(), 8 * 8 * 8);
    }
}
