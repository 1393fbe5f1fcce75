//! The dual CNN path against literal copies of its previous
//! implementation, bit for bit.
//!
//! `DualConvLayer::forward` reduces each sensitive output over a
//! compacted list of its position's non-zero patch operands and corrects
//! ReLU + OMap one map word at a time; `DualConvNet` pools with flat
//! slice indexing. The oracles below are the code those replaced: the
//! strided walk down one im2col column per output (skipping `v == 0.0`),
//! the per-bit ReLU / §III-C correction loops, and the `Tensor::at`-based
//! max-pool. Every observable result — output bits, OMap, channel
//! workloads and every `SavingsReport` field — must agree across strides,
//! paddings, odd and non-square sizes, patch lengths 9 and 144, inputs
//! with `±0.0` and NaN at densities 0 / ~0.5 / 1, three policies, and
//! with and without an IMap.

use duet_core::dual_net::DualConvNet;
use duet_core::{DualConvLayer, DualConvOutput, SavingsReport, SwitchingMap, SwitchingPolicy};
use duet_tensor::im2col::{im2col, ConvGeometry};
use duet_tensor::rng::{self, seeded, Rng};
use duet_tensor::Tensor;

/// The previous `DualConvLayer::forward`, in full.
fn reference_forward(
    layer: &DualConvLayer,
    bias: &Tensor,
    input: &Tensor,
    policy: &SwitchingPolicy,
    imap: Option<&SwitchingMap>,
) -> DualConvOutput {
    let geom = layer.geometry();
    let k = layer.out_channels();
    let d = geom.patch_len();
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let positions = oh * ow;

    let cols = im2col(input, geom);
    let y = layer.approx().forward_columns(&cols);
    let map = SwitchingMap::from_flags(y.data().iter().map(|&v| policy.is_sensitive(v)).collect());

    // strided column walk, skipping zero inputs
    let (cd, fd, bd) = (cols.data(), layer.filter_matrix().data(), bias.data());
    let count_skipped = imap.is_none();
    let mut executor_macs = 0u64;
    let mut out = y.data().to_vec();
    for idx in map.sensitive_indices() {
        let (kk, p) = (idx / positions, idx % positions);
        let mut acc = bd[kk];
        for (j, &w) in fd[kk * d..(kk + 1) * d].iter().enumerate() {
            let v = cd[j * positions + p];
            if v != 0.0 {
                acc += w * v;
                executor_macs += 1;
            } else if count_skipped {
                executor_macs += 1;
            }
        }
        out[idx] = acc;
    }

    // per-bit ReLU + §III-C correction, then zero the insensitive outputs
    let mut omap = map.clone();
    for (i, v) in out.iter_mut().enumerate() {
        *v = v.max(0.0);
        if *v == 0.0 && omap.is_sensitive(i) {
            omap.correct_to_insensitive(i);
        }
    }
    for (i, v) in out.iter_mut().enumerate() {
        if !omap.is_sensitive(i) {
            *v = 0.0;
        }
    }

    let approx = layer.approx();
    DualConvOutput {
        output: Tensor::from_vec(out, &[k, oh, ow]),
        omap,
        channel_workloads: (0..k)
            .map(|kk| map.sensitive_count_in(kk * positions, (kk + 1) * positions))
            .collect(),
        report: SavingsReport {
            dense_macs: (k * positions * d) as u64,
            executor_macs,
            speculator_macs: (k * approx.config().reduced_dim * positions) as u64,
            speculator_adds: (approx.projection().additions_per_projection() * positions) as u64,
            dense_weight_bytes: (k * d * 2) as u64,
            executor_weight_bytes: (k * d * 2) as u64,
            speculator_weight_bytes: approx.weight_bytes() as u64,
            outputs_total: (k * positions) as u64,
            outputs_exact: map.sensitive_count() as u64,
        },
    }
}

/// The previous `pool_with_map`: `Tensor::at`/`set` per element, map
/// built bit by bit.
fn reference_pool(
    x: &Tensor,
    map: Option<&SwitchingMap>,
    win: usize,
) -> (Tensor, Option<SwitchingMap>) {
    let (c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    let (oh, ow) = (h / win, w / win);
    let mut out = Tensor::zeros(&[c, oh, ow]);
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
                        if let Some(m) = map {
                            any |= m.is_sensitive((ci * h + iy) * w + ix);
                        }
                    }
                }
                out.set(&[ci, oy, ox], best);
                flags.push(any);
            }
        }
    }
    (out, map.map(|_| SwitchingMap::from_flags(flags)))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_same(got: &DualConvOutput, want: &DualConvOutput, what: &str) {
    assert_eq!(got.output.shape(), want.output.shape(), "{what}: shape");
    assert_eq!(bits(&got.output), bits(&want.output), "{what}: output bits");
    assert_eq!(got.omap, want.omap, "{what}: omap");
    assert_eq!(
        got.channel_workloads, want.channel_workloads,
        "{what}: channel workloads"
    );
    assert_eq!(got.report, want.report, "{what}: report");
}

/// `[c, h, w]` input with roughly `density` non-zeros; the zeros
/// alternate `+0.0` / `-0.0`, and a few non-zeros are NaN when asked.
fn input(r: &mut Rng, dims: [usize; 3], density: f32, nan: bool) -> Tensor {
    let base = rng::normal(r, &dims, 0.0, 1.0);
    let gate = rng::uniform(r, &dims, 0.0, 1.0);
    let mut x = base.clone();
    for (i, (v, &g)) in x.data_mut().iter_mut().zip(gate.data()).enumerate() {
        if g >= density {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        } else if nan && i % 11 == 3 {
            *v = f32::NAN;
        }
    }
    x
}

fn layer(r: &mut Rng, geom: ConvGeometry, k: usize) -> (DualConvLayer, Tensor) {
    let d = geom.patch_len();
    let filters = rng::normal(
        r,
        &[k, geom.in_channels, geom.kernel_h, geom.kernel_w],
        0.0,
        (2.0 / d as f32).sqrt(),
    );
    let bias = rng::normal(r, &[k], 0.0, 0.1);
    let l = DualConvLayer::learn(geom, &filters, &bias, (d / 4).max(4), 200, r);
    (l, bias)
}

fn geom(c: usize, h: usize, w: usize, stride: usize, padding: usize) -> ConvGeometry {
    ConvGeometry {
        in_channels: c,
        in_h: h,
        in_w: w,
        kernel_h: 3,
        kernel_w: 3,
        stride,
        padding,
    }
}

#[test]
fn conv_forward_matches_previous_executor_bitwise() {
    // (C, H, W, stride, padding): d = 9 (C = 1) and d = 144 (C = 16)
    let shapes = [
        (1, 8, 8, 1, 1),
        (1, 7, 10, 2, 0),
        (1, 9, 5, 1, 0),
        (3, 6, 9, 2, 1),
        (16, 6, 6, 1, 1),
        (16, 7, 5, 2, 1),
        (16, 5, 8, 1, 0),
    ];
    let mut r = seeded(0xC0_4E0);
    for (c, h, w, stride, padding) in shapes {
        let g = geom(c, h, w, stride, padding);
        let (layer, bias) = layer(&mut r, g, 8);
        // θ at the approximate outputs' median gives a mixed map
        let probe = rng::normal(&mut r, &[c, h, w], 0.0, 1.0);
        let mut y = layer
            .approx()
            .forward_columns(&im2col(&probe, &g))
            .into_vec();
        y.sort_by(f32::total_cmp);
        let policies = [
            SwitchingPolicy::never_switch(),
            SwitchingPolicy::relu(y[y.len() / 2]),
            SwitchingPolicy::relu(f32::INFINITY),
        ];
        for density in [0.0, 0.5, 1.0] {
            for nan in [false, true] {
                let x = input(&mut r, [c, h, w], density, nan);
                let imap = SwitchingMap::from_flags(x.data().iter().map(|&v| v != 0.0).collect());
                for policy in &policies {
                    for m in [None, Some(&imap)] {
                        let what = format!(
                            "{g:?} density {density} nan {nan} {policy:?} imap {}",
                            m.is_some()
                        );
                        let got = layer.forward(&x, policy, m);
                        let want = reference_forward(&layer, &bias, &x, policy, m);
                        assert_same(&got, &want, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn conv_net_chain_matches_previous_path_bitwise() {
    let mut r = seeded(0xC4A1);
    // with pooling: 9×7 → pool 2 (floor) → 4×3; without: straight chain
    for pool in [None, Some(2usize)] {
        let (h, w) = (9, 7);
        let (l1, b1) = layer(&mut r, geom(2, h, w, 1, 1), 16);
        let (ph, pw) = pool.map_or((h, w), |p| (h / p, w / p));
        let (l2, b2) = layer(&mut r, geom(16, ph, pw, 1, 1), 4);
        let mut net = DualConvNet::new();
        net.push_conv(l1.clone());
        if let Some(p) = pool {
            net.push_pool(p);
        }
        net.push_conv(l2.clone());
        for policy in [
            SwitchingPolicy::never_switch(),
            SwitchingPolicy::relu(0.1),
            SwitchingPolicy::relu(f32::INFINITY),
        ] {
            for density in [0.0, 0.5, 1.0] {
                let x = input(&mut r, [2, h, w], density, true);
                let got = net.forward(&x, &policy);

                let o1 = reference_forward(&l1, &b1, &x, &policy, None);
                let (x2, m2) = match pool {
                    Some(p) => reference_pool(&o1.output, Some(&o1.omap), p),
                    None => (o1.output.clone(), Some(o1.omap.clone())),
                };
                let o2 = reference_forward(&l2, &b2, &x2, &policy, m2.as_ref());

                let what = format!("pool {pool:?} {policy:?} density {density}");
                assert_eq!(bits(&got.output), bits(&o2.output), "{what}: output");
                assert_eq!(got.layers.len(), 2, "{what}");
                assert!(!got.layers[0].had_imap && got.layers[1].had_imap, "{what}");
                assert_eq!(got.layers[0].report, o1.report, "{what}: conv0 report");
                assert_eq!(got.layers[1].report, o2.report, "{what}: conv1 report");
            }
        }
    }
}

#[test]
fn pooled_tail_chain_matches_previous_path_bitwise() {
    // a trailing pool is the net's output, so the pooled values
    // (window 3 over a 9×7 map: floor drops a row and a column) are
    // compared directly
    let mut r = seeded(0x9001);
    let (l1, b1) = layer(&mut r, geom(1, 11, 9, 1, 0), 6);
    let mut net = DualConvNet::new();
    net.push_conv(l1.clone()).push_pool(3);
    for density in [0.0, 0.5, 1.0] {
        let x = input(&mut r, [1, 11, 9], density, true);
        let policy = SwitchingPolicy::relu(-0.2);
        let got = net.forward(&x, &policy);
        let o1 = reference_forward(&l1, &b1, &x, &policy, None);
        let (want, _) = reference_pool(&o1.output, Some(&o1.omap), 3);
        assert_eq!(got.output.shape().dims(), &[6, 3, 2]);
        assert_eq!(bits(&got.output), bits(&want), "density {density}");
    }
}
