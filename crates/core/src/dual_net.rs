//! Multi-layer dual-module CNN execution with OMap → IMap chaining.
//!
//! §III-C: "we pay the overhead of dynamic switching once, but the
//! switching map is used twice for the current layer's OMap and the next
//! layer's IMap." This module chains [`DualConvLayer`]s so each layer's
//! corrected output map feeds the next layer's input-sparsity skipping,
//! with optional pooling stages between them.

use crate::dual_conv::DualConvLayer;
use crate::metrics::SavingsReport;
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_tensor::Tensor;

/// A stage in a dual-module CNN. The conv variant is boxed so the enum
/// stays small (a `DualConvLayer` carries its weights).
#[derive(Debug, Clone)]
enum Stage {
    Conv(Box<DualConvLayer>),
    Pool(usize),
}

/// Per-layer record from a chained forward pass.
#[derive(Debug, Clone)]
pub struct ChainLayerRecord {
    /// Layer index among conv stages.
    pub layer: usize,
    /// Whether an IMap from the previous layer was available.
    pub had_imap: bool,
    /// This layer's savings.
    pub report: SavingsReport,
}

/// Result of a chained forward pass.
#[derive(Debug, Clone)]
pub struct ChainOutput {
    /// Final feature map.
    pub output: Tensor,
    /// Per-conv-layer records.
    pub layers: Vec<ChainLayerRecord>,
}

impl ChainOutput {
    /// Aggregate savings over all conv layers.
    pub fn total_report(&self) -> SavingsReport {
        self.layers.iter().map(|l| l.report).sum()
    }
}

/// A stack of dual-module conv layers (+ pooling) executed with
/// map chaining.
#[derive(Debug, Clone, Default)]
pub struct DualConvNet {
    stages: Vec<Stage>,
}

impl DualConvNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { stages: Vec::new() }
    }

    /// Appends a dual conv layer.
    pub fn push_conv(&mut self, layer: DualConvLayer) -> &mut Self {
        self.stages.push(Stage::Conv(Box::new(layer)));
        self
    }

    /// Appends a max-pool stage with the given square window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn push_pool(&mut self, window: usize) -> &mut Self {
        assert!(window > 0, "pool window must be positive");
        self.stages.push(Stage::Pool(window));
        self
    }

    /// Number of conv stages.
    pub fn conv_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s, Stage::Conv(_)))
            .count()
    }

    /// Runs the stack on a `[C, H, W]` input. Each conv layer receives
    /// the previous conv's corrected OMap as its IMap — transformed
    /// through any pooling in between (a pooled position is effectual if
    /// *any* element of its window was).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between stages.
    pub fn forward(&self, input: &Tensor, policy: &SwitchingPolicy) -> ChainOutput {
        let mut cur = input.clone();
        let mut imap: Option<SwitchingMap> = None;
        let mut layers = Vec::new();
        let mut conv_idx = 0usize;
        for stage in &self.stages {
            match stage {
                Stage::Conv(layer) => {
                    let _layer_span =
                        duet_obs::span_lazy("core.dual.conv_layer", || format!("conv{conv_idx}"));
                    let out = layer.forward(&cur, policy, imap.as_ref());
                    layers.push(ChainLayerRecord {
                        layer: conv_idx,
                        had_imap: imap.is_some(),
                        report: out.report,
                    });
                    conv_idx += 1;
                    cur = out.output;
                    imap = Some(out.omap);
                }
                Stage::Pool(win) => {
                    let (pooled, pooled_map) = pool_with_map(&cur, imap.as_ref(), *win);
                    cur = pooled;
                    imap = pooled_map;
                }
            }
        }
        ChainOutput {
            output: cur,
            layers,
        }
    }
}

/// Max-pools a `[C, H, W]` tensor and (if given) its effectuality map.
/// The pooled map marks a position effectual when any element of its
/// window was effectual — conservative, so input skipping stays exact.
///
/// Windows are read as flat row slices (one offset per window row) and
/// reduced with `best.max(v)` in row-major window order, so NaN handling
/// is that of the sequential max. Odd trailing rows/columns are dropped
/// (floor). Pooled positions are produced in flat index order, so the
/// packed map's bits are set in place with no intermediate flag buffer.
fn pool_with_map(
    x: &Tensor,
    map: Option<&SwitchingMap>,
    win: usize,
) -> (Tensor, Option<SwitchingMap>) {
    assert_eq!(x.shape().rank(), 3, "pooling expects [C, H, W]");
    let (c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    assert!(h >= win && w >= win, "input smaller than pool window");
    let (oh, ow) = (h / win, w / win);
    let n = c * oh * ow;
    let xd = x.data();
    let mut out = Vec::with_capacity(n);
    let mut words = map.map(|_| vec![0u64; n.div_ceil(64)]);
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut any = false;
                for dy in 0..win {
                    let start = (ci * h + oy * win + dy) * w + ox * win;
                    for (i, &v) in (start..).zip(&xd[start..start + win]) {
                        best = best.max(v);
                        if let Some(m) = map {
                            any |= m.is_sensitive(i);
                        }
                    }
                }
                if let Some(words) = words.as_mut() {
                    let i = out.len();
                    words[i / 64] |= (any as u64) << (i % 64);
                }
                out.push(best);
            }
        }
    }
    (
        Tensor::from_vec(out, &[c, oh, ow]),
        words.map(|words| SwitchingMap::from_words(words, n)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::im2col::ConvGeometry;
    use duet_tensor::rng::{self, seeded};

    fn geom(c: usize, s: usize) -> ConvGeometry {
        ConvGeometry {
            in_channels: c,
            in_h: s,
            in_w: s,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        }
    }

    fn net(seed: u64) -> (DualConvNet, duet_tensor::rng::Rng) {
        let mut r = seeded(seed);
        let f1 = rng::normal(&mut r, &[6, 2, 3, 3], 0.0, 0.3);
        let f2 = rng::normal(&mut r, &[4, 6, 3, 3], 0.0, 0.2);
        let l1 = DualConvLayer::learn(geom(2, 8), &f1, &Tensor::zeros(&[6]), 12, 300, &mut r);
        let l2 = DualConvLayer::learn(geom(6, 4), &f2, &Tensor::zeros(&[4]), 24, 300, &mut r);
        let mut n = DualConvNet::new();
        n.push_conv(l1);
        n.push_pool(2);
        n.push_conv(l2);
        (n, r)
    }

    #[test]
    fn chaining_provides_imap_to_second_layer() {
        let (n, mut r) = net(1);
        let x = rng::normal(&mut r, &[2, 8, 8], 0.0, 1.0);
        let out = n.forward(&x, &SwitchingPolicy::relu(0.0));
        assert_eq!(out.layers.len(), 2);
        assert!(!out.layers[0].had_imap, "first layer has no IMap");
        assert!(
            out.layers[1].had_imap,
            "second layer must get the chained IMap"
        );
        assert_eq!(n.conv_count(), 2);
    }

    #[test]
    fn imap_chaining_reduces_second_layer_macs() {
        let (n, mut r) = net(2);
        let x = rng::normal(&mut r, &[2, 8, 8], 0.0, 1.0);
        let chained = n.forward(&x, &SwitchingPolicy::relu(0.0));

        // rebuild the same net but break the chain by rebuilding stages
        // and forwarding layer by layer without maps
        let (n2, _) = net(2);
        let mut cur = x.clone();
        let mut unchained_macs = 0u64;
        let mut idx = 0;
        for stage in &n2.stages {
            match stage {
                Stage::Conv(l) => {
                    let o = l.forward(&cur, &SwitchingPolicy::relu(0.0), None);
                    unchained_macs += o.report.executor_macs;
                    cur = o.output;
                    idx += 1;
                }
                Stage::Pool(w) => {
                    let (p, _) = pool_with_map(&cur, None, *w);
                    cur = p;
                }
            }
        }
        let _ = idx;
        let chained_macs: u64 = chained.layers.iter().map(|l| l.report.executor_macs).sum();
        assert!(
            chained_macs <= unchained_macs,
            "chained {chained_macs} vs unchained {unchained_macs}"
        );
    }

    #[test]
    fn chained_output_matches_unchained_values() {
        // IMap skipping only skips exact zeros, so outputs are identical.
        let (n, mut r) = net(3);
        let x = rng::normal(&mut r, &[2, 8, 8], 0.0, 1.0);
        let chained = n.forward(&x, &SwitchingPolicy::relu(0.0));

        let (n2, _) = net(3);
        let mut cur = x;
        for stage in &n2.stages {
            match stage {
                Stage::Conv(l) => {
                    cur = l.forward(&cur, &SwitchingPolicy::relu(0.0), None).output;
                }
                Stage::Pool(w) => {
                    cur = pool_with_map(&cur, None, *w).0;
                }
            }
        }
        for (a, b) in chained.output.data().iter().zip(cur.data()) {
            assert_eq!(a, b, "chaining changed a value");
        }
    }

    #[test]
    fn pool_map_is_conservative() {
        let x = Tensor::from_fn(&[1, 4, 4], |i| i as f32);
        let flags: Vec<bool> = (0..16).map(|i| i == 5).collect(); // one effectual element
        let m = SwitchingMap::from_flags(flags);
        let (_, pooled) = pool_with_map(&x, Some(&m), 2);
        let pm = pooled.unwrap();
        // element 5 = (1,1) lands in pooled window (0,0)
        assert!(pm.is_sensitive(0));
        assert!(!pm.is_sensitive(1));
        assert!(!pm.is_sensitive(2));
        assert!(!pm.is_sensitive(3));
    }

    #[test]
    fn pool_matches_elementwise_reference_bitwise() {
        // odd sizes (floor), NaN / ±inf / ±0.0 values, windows 1–3,
        // multi-word maps with a 64-bit boundary inside a window
        for (c, h, w, win) in [(2, 7, 5, 2), (3, 9, 11, 3), (1, 4, 4, 1), (5, 6, 13, 2)] {
            let x = Tensor::from_fn(&[c, h, w], |i| match i % 9 {
                0 => f32::NAN,
                1 => -0.0,
                2 => 0.0,
                3 => f32::INFINITY,
                4 => f32::NEG_INFINITY,
                _ => ((i * 37 % 23) as f32 - 11.0) * 0.25,
            });
            let m = SwitchingMap::from_flags((0..x.len()).map(|i| i % 7 == 2).collect());
            let (oh, ow) = (h / win, w / win);
            let mut want = Vec::new();
            let mut flags = Vec::new();
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut any = false;
                        for dy in 0..win {
                            for dx in 0..win {
                                let (iy, ix) = (oy * win + dy, ox * win + dx);
                                best = best.max(x.at(&[ci, iy, ix]));
                                any |= m.is_sensitive((ci * h + iy) * w + ix);
                            }
                        }
                        want.push(best.to_bits());
                        flags.push(any);
                    }
                }
            }
            let (got, got_map) = pool_with_map(&x, Some(&m), win);
            assert_eq!(got.shape().dims(), &[c, oh, ow]);
            let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want, "{c}x{h}x{w} win {win}");
            assert_eq!(got_map, Some(SwitchingMap::from_flags(flags)));
            let (plain, none) = pool_with_map(&x, None, win);
            assert_eq!(plain.data().len(), got.data().len());
            assert!(plain
                .data()
                .iter()
                .zip(got.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(none.is_none());
        }
    }

    #[test]
    fn total_report_sums_layers() {
        let (n, mut r) = net(4);
        let x = rng::normal(&mut r, &[2, 8, 8], 0.0, 1.0);
        let out = n.forward(&x, &SwitchingPolicy::relu(0.0));
        let total = out.total_report();
        let manual: u64 = out.layers.iter().map(|l| l.report.dense_macs).sum();
        assert_eq!(total.dense_macs, manual);
    }
}
