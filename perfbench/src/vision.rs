//! `vision_batch`: closed-loop batches of seeded shape images through a
//! dual CNN (two `DualConvLayer`s with ReLU and max-pooling in a
//! `DualConvNet`) and a dual FF head through `batch::forward_batch`.

use crate::reference;
use crate::report::{time_ns, EndToEnd, Measured, PerLayer};
use crate::stats::{all_finite, median, quantile, Agreement, Tally};
use crate::{alloc, setup, Run};
use duet_core::batch::{forward_batch, forward_batch_dense};
use duet_core::dual_net::DualConvNet;
use duet_core::{DualConvLayer, DualModuleLayer, SwitchingPolicy};
use duet_nn::{Activation, Layer, MaxPool2d};
use duet_tensor::im2col::{im2col, ConvGeometry};
use duet_tensor::rng::{self, seeded};
use duet_tensor::{ops, parallel, Tensor};
use duet_workloads::datasets;
use std::time::Instant;

/// Seed of the model weights and θ calibration (fixed: `--seed` varies
/// the images only).
const MODEL_SEED: u64 = 0x5649_5349;
const SIZE: usize = 24;
const BATCH: usize = 4;
/// Images per run, all checked against the dense path.
const IMAGES: usize = 2048;
/// Distinct batches timed, taken in turn from the first images: each is
/// visited every ~0.8 s on the reference machine.
const TIMED_BATCHES: usize = 96;
const CHANNELS: [usize; 3] = [1, 16, 32];
const HEAD: usize = 128;
const CLASSES: usize = 3;
const POOL: usize = 2;
/// Share of conv (and head) outputs the fixed θ leaves insensitive —
/// close to the paper's CNN ReLU sparsity.
const INSENSITIVE_TARGET: f64 = 0.8;
const DISTILL_SAMPLES: usize = 256;
const CALIBRATION_IMAGES: usize = 32;

struct Model {
    net: DualConvNet,
    convs: Vec<(DualConvLayer, Tensor)>,
    head: DualModuleLayer,
    cls_w: Tensor,
    cls_b: Tensor,
    conv_policy: SwitchingPolicy,
    head_policy: SwitchingPolicy,
    images: Vec<Tensor>,
}

fn geometry(c: usize, s: usize) -> ConvGeometry {
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

fn pool(x: &Tensor) -> Tensor {
    let dims = x.shape().dims().to_vec();
    let pooled = MaxPool2d::new(POOL).forward(&x.reshaped(&[1, dims[0], dims[1], dims[2]]));
    let d = pooled.shape().dims().to_vec();
    pooled.reshaped(&[d[1], d[2], d[3]])
}

fn feature_len() -> usize {
    CHANNELS[2] * (SIZE / POOL / POOL) * (SIZE / POOL / POOL)
}

/// Dense reference chain: conv → pool → conv → pool → flatten.
fn dense_features(convs: &[(DualConvLayer, Tensor)], image: &Tensor) -> Tensor {
    let mut cur = image.clone();
    for (layer, _) in convs {
        cur = pool(&layer.forward_dense(&cur));
    }
    let n = cur.len();
    cur.reshaped(&[n])
}

fn build(seed: u64) -> Model {
    let mut r = seeded(MODEL_SEED);
    let mut convs = Vec::new();
    let mut net = DualConvNet::new();
    let mut s = SIZE;
    for w in CHANNELS.windows(2) {
        let (c, k) = (w[0], w[1]);
        let geom = geometry(c, s);
        let d = geom.patch_len();
        let filters = rng::normal(&mut r, &[k, c, 3, 3], 0.0, (2.0 / d as f32).sqrt());
        let bias = rng::normal(&mut r, &[k], 0.0, 0.05);
        let layer = DualConvLayer::learn(
            geom,
            &filters,
            &bias,
            (d / 4).max(4),
            DISTILL_SAMPLES,
            &mut r,
        );
        net.push_conv(layer.clone()).push_pool(POOL);
        convs.push((layer, bias));
        s /= POOL;
    }
    let f = feature_len();
    let w = rng::normal(&mut r, &[HEAD, f], 0.0, (2.0 / f as f32).sqrt());
    let b = rng::normal(&mut r, &[HEAD], 0.0, 0.05);
    let head = DualModuleLayer::learn(&w, &b, Activation::Relu, f / 16, DISTILL_SAMPLES, &mut r);
    let cls_w = rng::normal(&mut r, &[CLASSES, HEAD], 0.0, (1.0 / HEAD as f32).sqrt());
    let cls_b = Tensor::zeros(&[CLASSES]);

    // θ: the speculator outputs of the calibration images' dense
    // activations, cut at the target insensitive share.
    let calib = datasets::shape_images(CALIBRATION_IMAGES, SIZE, 0.3, &mut r);
    let (mut conv_vals, mut head_vals) = (Vec::new(), Vec::new());
    for i in 0..CALIBRATION_IMAGES {
        let mut cur = image(&calib.inputs, i);
        for (layer, _) in &convs {
            let y = layer
                .approx()
                .forward_columns(&im2col(&cur, layer.geometry()));
            conv_vals.extend(y.data().iter().map(|&v| f64::from(v)));
            cur = pool(&layer.forward_dense(&cur));
        }
        let feat = dense_features(&convs, &image(&calib.inputs, i));
        head_vals.extend(
            head.approx()
                .forward(&feat)
                .data()
                .iter()
                .map(|&v| f64::from(v)),
        );
    }
    let conv_policy = SwitchingPolicy::relu(quantile(&conv_vals, INSENSITIVE_TARGET) as f32);
    let head_policy = SwitchingPolicy::relu(quantile(&head_vals, INSENSITIVE_TARGET) as f32);

    let data = datasets::shape_images(IMAGES, SIZE, 0.3, &mut seeded(seed));
    Model {
        net,
        convs,
        head,
        cls_w,
        cls_b,
        conv_policy,
        head_policy,
        images: (0..IMAGES).map(|i| image(&data.inputs, i)).collect(),
    }
}

fn image(inputs: &Tensor, i: usize) -> Tensor {
    let len = SIZE * SIZE;
    Tensor::from_vec(
        inputs.data()[i * len..(i + 1) * len].to_vec(),
        &[1, SIZE, SIZE],
    )
}

fn classify(m: &Model, head_out: &Tensor) -> Vec<usize> {
    (0..head_out.shape().dim(0))
        .map(|bi| {
            let row = Tensor::from_vec(head_out.row(bi).to_vec(), &[HEAD]);
            ops::argmax(&ops::affine(&m.cls_w, &row, &m.cls_b))
        })
        .collect()
}

/// One dual batch: conv net per image, batched FF head, class argmax.
fn dual_batch(m: &Model, batch: &[&Tensor]) -> (Tensor, Vec<usize>) {
    let f = feature_len();
    let mut x = Tensor::zeros(&[batch.len(), f]);
    for (bi, img) in batch.iter().enumerate() {
        let out = m.net.forward(img, &m.conv_policy);
        x.row_mut(bi).copy_from_slice(out.output.data());
    }
    let head = forward_batch(&m.head, &x, &m.head_policy);
    let classes = classify(m, &head.output);
    (head.output, classes)
}

fn dense_batch(m: &Model, batch: &[&Tensor]) -> Vec<usize> {
    let f = feature_len();
    let mut x = Tensor::zeros(&[batch.len(), f]);
    for (bi, img) in batch.iter().enumerate() {
        x.row_mut(bi)
            .copy_from_slice(dense_features(&m.convs, img).data());
    }
    classify(m, &forward_batch_dense(&m.head, &x))
}

fn batch_at(m: &Model, k: usize) -> Vec<&Tensor> {
    (0..BATCH)
        .map(|i| &m.images[(k * BATCH + i) % IMAGES])
        .collect()
}

/// Counts each row of a head output, failed unless finite.
fn check_finite(out: &Tensor, tally: &mut Tally) {
    let rows = out.shape().dim(0);
    let bad = (0..rows).filter(|&bi| !all_finite(out.row(bi))).count();
    tally.add(rows as u64, bad as u64);
}

/// θ = −∞ checks of both layer types on a few of the run's images.
fn check_exact(m: &Model, tally: &mut Tally) {
    for img in m.images.iter().take(2) {
        let mut cur = (*img).clone();
        for (layer, bias) in &m.convs {
            tally.check(reference::conv_exact(layer, bias, &cur));
            cur = pool(&layer.forward(&cur, &m.conv_policy, None).output);
        }
        let feat = dense_features(&m.convs, img);
        let out = m.head.forward(&feat, &SwitchingPolicy::never_switch());
        tally.check(reference::tensors_equal(
            &out.pre_activation,
            &m.head.projection().forward_reference(&feat),
        ));
    }
}

pub fn run(run: &Run) -> (Tally, Measured) {
    let (m, setup_s) = setup(|| build(run.seed));
    let mut tally = Tally::default();
    let measured = if run.trace {
        Measured::PerLayer(probe(&m, run))
    } else {
        // agreement over every image, before timing
        let mut agree = Agreement::default();
        for k in 0..IMAGES / BATCH {
            let batch = batch_at(&m, k);
            let (out, classes) = dual_batch(&m, &batch);
            check_finite(&out, &mut tally);
            for (dual, dense) in classes.into_iter().zip(dense_batch(&m, &batch)) {
                agree.record(dual, dense);
            }
        }
        let mut e = EndToEnd::start(setup_s, run.seconds, TIMED_BATCHES);
        e.agree = agree;
        let mut k = 0;
        while e.running() {
            let input = k % TIMED_BATCHES;
            let batch = batch_at(&m, input);
            let ((out, _), ns) = time_ns(|| dual_batch(&m, &batch));
            e.record(input, batch.len() as u64, ns);
            check_finite(&out, &mut tally);
            k += 1;
        }
        Measured::EndToEnd(e)
    };
    check_exact(&m, &mut tally);
    (tally, measured)
}

/// Per-layer breakdown on the run's own images: both conv layers per
/// image (`conv`), the head per feature row (`ff`), and the head's batch
/// fan-out (`core.batch.parallel_eff`).
fn probe(m: &Model, run: &Run) -> PerLayer {
    let mut out = PerLayer::default();
    let never = SwitchingPolicy::never_switch();
    let start = Instant::now();
    let mut k = 0;
    let mut eff = Vec::new();
    while start.elapsed().as_secs_f64() < run.seconds {
        let batch = batch_at(m, k);
        let f = feature_len();
        let mut feats = Tensor::zeros(&[BATCH, f]);
        for (bi, img) in batch.iter().enumerate() {
            let p = out.probe("conv");
            let mut cur = (*img).clone();
            let (mut spec, mut map, mut total, mut allocs, mut dense, mut nev) =
                (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
            let mut maps = Vec::new();
            for (layer, _) in &m.convs {
                let (y, ns) = time_ns(|| {
                    layer
                        .approx()
                        .forward_columns(&im2col(&cur, layer.geometry()))
                });
                spec += ns;
                let flat = y.reshaped(&[y.len()]);
                let (mp, ns) = time_ns(|| m.conv_policy.map(&flat));
                map += ns;
                maps.push(mp);
                let before = alloc::allocations();
                let (o, ns) = time_ns(|| layer.forward(&cur, &m.conv_policy, None));
                total += ns;
                allocs += (alloc::allocations() - before) as f64;
                dense += time_ns(|| layer.forward_dense(&cur)).1;
                nev += time_ns(|| layer.forward(&cur, &never, None)).1;
                cur = pool(&o.output);
            }
            p.spec.push(spec);
            p.map.push(map);
            p.total.push(total);
            p.allocs.push(allocs);
            p.dense.push(dense);
            p.never.push(nev);
            p.count_maps(&maps);
            let feat = m.net.forward(img, &m.conv_policy).output;
            feats.row_mut(bi).copy_from_slice(feat.data());
        }

        let p = out.probe("ff");
        let mut serial = 0.0;
        for bi in 0..BATCH {
            let x = Tensor::from_vec(feats.row(bi).to_vec(), &[f]);
            let (y, ns) = time_ns(|| m.head.approx().forward(&x));
            p.spec.push(ns);
            p.map.push(time_ns(|| m.head_policy.map(&y)).1);
            let o = p.time_total(|| m.head.forward(&x, &m.head_policy));
            serial += p.total.last().copied().unwrap_or(0.0);
            p.count_maps([&o.map]);
            p.dense.push(time_ns(|| m.head.forward_dense(&x)).1);
            p.never.push(time_ns(|| m.head.forward(&x, &never)).1);
        }
        let threads = parallel::num_threads().min(BATCH) as f64;
        let par = time_ns(|| forward_batch(&m.head, &feats, &m.head_policy)).1;
        eff.push(serial / (threads * par));
        k += 1;
    }
    out.set("core.batch.parallel_eff", median(&eff));
    out
}
