//! θ = −∞ correctness checks: with every output sensitive, a dual layer
//! must equal its dense reference bit for bit.
//!
//! FF, attention, FFN and the transformer block expose that reference
//! (`DualProjection::forward_reference`, `forward_reference`,
//! `forward_dense`). The CONV, LSTM and GRU dense paths
//! (`forward_dense`, `step_dense`) run the blocked GEMM/GEMV kernels,
//! which add the bias in another order, so they agree only to rounding;
//! their bitwise reference is the per-lane loop below, in the engine's
//! accumulation order (bias first, then each weight row), which the
//! library's own never-switch tests pin as well.

use duet_core::dual_rnn::RnnThresholds;
use duet_core::{DualConvLayer, DualGruCell, DualLstmCell, SwitchingPolicy};
use duet_nn::lstm::LstmState;
use duet_nn::{Activation, GruCell, LstmCell};
use duet_tensor::im2col::im2col;
use duet_tensor::Tensor;

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn lane(init: f32, w: &[f32], x: &[f32]) -> f32 {
    let mut acc = init;
    for (&wv, &xv) in w.iter().zip(x) {
        acc += wv * xv;
    }
    acc
}

fn sigmoid(v: f32) -> f32 {
    Activation::Sigmoid.apply_scalar(v)
}

/// CONV at θ = −∞ (no IMap) equals `relu(bias + Σ w·x)` over the im2col
/// patch, skipping zero inputs, bit for bit. `bias` is the layer's bias.
pub fn conv_exact(layer: &DualConvLayer, bias: &Tensor, input: &Tensor) -> bool {
    let out = layer.forward(input, &SwitchingPolicy::never_switch(), None);
    let geom = layer.geometry();
    let cols = im2col(input, geom);
    let positions = geom.out_h() * geom.out_w();
    let d = geom.patch_len();
    let (cd, fd) = (cols.data(), layer.filter_matrix().data());
    let mut want = Vec::with_capacity(layer.out_channels() * positions);
    for kk in 0..layer.out_channels() {
        for p in 0..positions {
            let mut acc = bias.data()[kk];
            for (j, &w) in fd[kk * d..(kk + 1) * d].iter().enumerate() {
                let v = cd[j * positions + p];
                if v != 0.0 {
                    acc += w * v;
                }
            }
            want.push(acc.max(0.0));
        }
    }
    bits_equal(out.output.data(), &want)
}

/// LSTM at θ = −∞ equals the per-lane reference
/// `bias + W_ih·x + W_hh·h` followed by the cell combine, bit for bit.
pub fn lstm_exact(dual: &DualLstmCell, cell: &LstmCell, x: &Tensor, state: &LstmState) -> bool {
    let out = dual.step(x, state, &RnnThresholds::never_switch());
    let h = state.h.len();
    let d = x.len();
    let (wih, whh, bias) = (
        cell.w_ih.value.data(),
        cell.w_hh.value.data(),
        cell.bias.value.data(),
    );
    let a: Vec<f32> = (0..4 * h)
        .map(|row| {
            let acc = lane(bias[row], &wih[row * d..(row + 1) * d], x.data());
            lane(acc, &whh[row * h..(row + 1) * h], state.h.data())
        })
        .collect();
    let mut want_h = Vec::with_capacity(h);
    let mut want_c = Vec::with_capacity(h);
    for i in 0..h {
        let (ig, fg, gg, og) = (
            sigmoid(a[i]),
            sigmoid(a[h + i]),
            a[2 * h + i].tanh(),
            sigmoid(a[3 * h + i]),
        );
        let c = fg * state.c.data()[i] + ig * gg;
        want_c.push(c);
        want_h.push(og * c.tanh());
    }
    bits_equal(out.h.data(), &want_h) && bits_equal(out.c.data(), &want_c)
}

/// GRU at θ = −∞ equals the per-lane reference of both projections
/// followed by the cell combine, bit for bit.
pub fn gru_exact(dual: &DualGruCell, cell: &GruCell, x: &Tensor, h_prev: &Tensor) -> bool {
    let out = dual.step(x, h_prev, &RnnThresholds::never_switch());
    let h = h_prev.len();
    let d = x.len();
    let (wih, whh) = (cell.w_ih.value.data(), cell.w_hh.value.data());
    let (bih, bhh) = (cell.b_ih.value.data(), cell.b_hh.value.data());
    let ax = |row: usize| lane(bih[row], &wih[row * d..(row + 1) * d], x.data());
    let ah = |row: usize| lane(bhh[row], &whh[row * h..(row + 1) * h], h_prev.data());
    let want: Vec<f32> = (0..h)
        .map(|i| {
            let r = sigmoid(ax(i) + ah(i));
            let z = sigmoid(ax(h + i) + ah(h + i));
            let n = (ax(2 * h + i) + r * ah(2 * h + i)).tanh();
            (1.0 - z) * n + z * h_prev.data()[i]
        })
        .collect();
    bits_equal(out.h.data(), &want)
}

/// Bitwise equality of two tensors.
pub fn tensors_equal(a: &Tensor, b: &Tensor) -> bool {
    bits_equal(a.data(), b.data())
}
