//! `lm_decode`: token-at-a-time next-token decoding of one seeded
//! `MarkovText` stream through a dual LSTM LM, a dual GRU LM and a dual
//! transformer LM (batch 1).

use crate::reference;
use crate::report::{time_ns, EndToEnd, LayerProbe, Measured, PerLayer};
use crate::stats::{all_finite, quantile, Agreement, Tally};
use crate::{setup, Run};
use duet_core::dual_rnn::RnnThresholds;
use duet_core::{
    DualGruCell, DualLstmCell, DualTransformerBlock, SpeculationEngine, SwitchingPolicy,
    TransformerThresholds,
};
use duet_nn::attention::attend;
use duet_nn::lstm::LstmState;
use duet_nn::Activation;
use duet_tensor::rng::seeded;
use duet_tensor::{ops, Tensor};
use duet_workloads::datasets::MarkovText;
use duet_workloads::trainer::CharLm;
use duet_workloads::transformer::{DualTransformerLm, TransformerLm};
use std::time::Instant;

/// Seed of the weights, the text source and θ calibration (fixed:
/// `--seed` varies the decoded stream only).
const MODEL_SEED: u64 = 0x4c4d_4445;
const VOCAB: usize = 64;
const BAND: usize = 4;
/// LSTM/GRU embedding and hidden width: a dense LSTM step takes about
/// 100 µs, and the weights of both LMs fit one core's 2 MiB L2 cache on
/// the reference machine, away from other tenants' traffic in the shared
/// L3.
const WIDTH: usize = 128;
const REDUCED: usize = 32;
const DISTILL_SAMPLES: usize = 256;
const MODEL_DIM: usize = 64;
const FFN_DIM: usize = 256;
const CONTEXT: usize = 8;
const CALIB_WINDOWS: usize = 16;
const CALIB_STEPS: usize = 64;
/// Tokens of the decoded stream, all checked against the dense path.
const STREAM: usize = 4096;
/// Positions timed: the first of the stream, decoded in turn from a
/// fresh state, so every visit of a position is the same step. Each is
/// visited every ~0.1 s on the reference machine.
const TIMED: usize = 96;
/// Insensitive share the fixed sigmoid/tanh/GELU/magnitude θs aim for.
const INSENSITIVE_TARGET: f64 = 0.375;

struct Rnn<C> {
    lm: CharLm,
    dual: C,
    th: RnnThresholds,
}

struct Model {
    lstm: Rnn<DualLstmCell>,
    gru: Rnn<DualGruCell>,
    tf: TransformerLm,
    block: DualTransformerBlock,
    tf_th: TransformerThresholds,
    tokens: Vec<usize>,
}

fn embed(lm: &CharLm, tok: usize) -> Tensor {
    let emb = lm.embed.value.shape().dim(0);
    let d = lm.embed.value.data();
    Tensor::from_vec((0..emb).map(|i| d[i * VOCAB + tok]).collect(), &[emb])
}

fn rnn_argmax(lm: &CharLm, h: &Tensor) -> usize {
    ops::argmax(&ops::affine(&lm.w_out.value, h, &lm.b_out.value))
}

/// Transformer inputs for the window ending at stream position `t`.
fn window(tf: &TransformerLm, tokens: &[usize], t: usize) -> Tensor {
    let start = (t + 1).saturating_sub(CONTEXT);
    let toks = &tokens[start..=t];
    let (e, p) = (tf.embed.value.data(), tf.pos.value.data());
    let mut xs = Tensor::zeros(&[toks.len(), MODEL_DIM]);
    for (pos, &tok) in toks.iter().enumerate() {
        for (i, v) in xs.row_mut(pos).iter_mut().enumerate() {
            *v = e[i * VOCAB + tok] + p[pos * MODEL_DIM + i];
        }
    }
    xs
}

fn last_row_argmax(tf: &TransformerLm, ys: &Tensor) -> usize {
    let l = ys.shape().dim(0);
    let y = Tensor::from_vec(ys.row(l - 1).to_vec(), &[MODEL_DIM]);
    ops::argmax(&ops::affine(&tf.w_out.value, &y, &tf.b_out.value))
}

fn rows(xs: &Tensor) -> Vec<Tensor> {
    let (l, m) = (xs.shape().dim(0), xs.shape().dim(1));
    (0..l)
        .map(|t| Tensor::from_vec(xs.row(t).to_vec(), &[m]))
        .collect()
}

fn abs_vals(t: &Tensor) -> impl Iterator<Item = f64> + '_ {
    t.data().iter().map(|v| f64::from(v.abs()))
}

/// θ for a two-sided (sigmoid/tanh) band: `|y'| > θ` is insensitive.
fn outer_theta(vals: &[f64]) -> f32 {
    quantile(vals, 1.0 - INSENSITIVE_TARGET) as f32
}

/// θ for a lower band (GELU) or magnitude band: below θ is insensitive.
fn inner_theta(vals: &[f64]) -> f32 {
    quantile(vals, INSENSITIVE_TARGET) as f32
}

/// The attention inputs of the FFN: `xs + attention(xs)`.
fn ffn_inputs(block: &DualTransformerBlock, xs: &Tensor) -> Vec<Tensor> {
    let mut a = xs.clone();
    let attn = block.attention().forward_reference(xs);
    for (av, &bv) in a.data_mut().iter_mut().zip(attn.data()) {
        *av += bv;
    }
    rows(&a)
}

fn gelu_hidden(block: &DualTransformerBlock, a_t: &Tensor) -> Tensor {
    Activation::Gelu.apply(&block.ffn().expand().forward_reference(a_t))
}

fn build(seed: u64) -> Model {
    let mut r = seeded(MODEL_SEED);
    let source = MarkovText::new(VOCAB, BAND, &mut r);
    let calib = source.sample(CALIB_STEPS + 1, &mut r);

    let lm = CharLm::new(VOCAB, WIDTH, WIDTH, true, &mut r);
    let cell = lm.lstm_cell().expect("lstm lm");
    let dual = DualLstmCell::learn(cell, REDUCED, DISTILL_SAMPLES, &mut r);
    let (mut sig, mut tanh) = (Vec::new(), Vec::new());
    let mut st = LstmState::zeros(WIDTH);
    for &tok in &calib {
        let x = embed(&lm, tok);
        let a = dual.approx_preactivations(&x, &st.h);
        for (g, v) in a.data().chunks(WIDTH).enumerate() {
            let dst = if g == 2 { &mut tanh } else { &mut sig };
            dst.extend(v.iter().map(|v| f64::from(v.abs())));
        }
        st = dual.step_dense(&x, &st);
    }
    let th = RnnThresholds {
        theta_sigmoid: outer_theta(&sig),
        theta_tanh: outer_theta(&tanh),
    };
    let lstm = Rnn { lm, dual, th };

    let lm = CharLm::new(VOCAB, WIDTH, WIDTH, false, &mut r);
    let cell = lm.gru_cell().expect("gru lm");
    let dual = DualGruCell::learn(cell, REDUCED, DISTILL_SAMPLES, &mut r);
    let (mut sig, mut tanh) = (Vec::new(), Vec::new());
    let mut h = Tensor::zeros(&[WIDTH]);
    for &tok in &calib {
        let x = embed(&lm, tok);
        let (ax, ah) = (dual.approx_ih().forward(&x), dual.approx_hh().forward(&h));
        let (ax, ah) = (ax.data(), ah.data());
        for i in 0..WIDTH {
            sig.push(f64::from((ax[i] + ah[i]).abs()));
            sig.push(f64::from((ax[WIDTH + i] + ah[WIDTH + i]).abs()));
            let rg = Activation::Sigmoid.apply_scalar(ax[i] + ah[i]);
            tanh.push(f64::from(
                (ax[2 * WIDTH + i] + rg * ah[2 * WIDTH + i]).abs(),
            ));
        }
        h = dual.step_dense(&x, &h);
    }
    let th = RnnThresholds {
        theta_sigmoid: outer_theta(&sig),
        theta_tanh: outer_theta(&tanh),
    };
    let gru = Rnn { lm, dual, th };

    let tf = TransformerLm::new(VOCAB, MODEL_DIM, FFN_DIM, CONTEXT, &mut r);
    let block = DualTransformerLm::from_lm(&tf, &source, 0.25, CALIB_WINDOWS, &mut r)
        .block()
        .clone();
    let (mut attn, mut gelu, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for t in (CONTEXT - 1..calib.len()).step_by(CONTEXT) {
        let xs = window(&tf, &calib, t);
        let a = block.attention();
        for x_t in rows(&xs) {
            for p in [a.wq(), a.wk(), a.wv()] {
                attn.extend(abs_vals(&p.speculate(&x_t)));
            }
        }
        for a_t in ffn_inputs(&block, &xs) {
            let f = block.ffn();
            gelu.extend(
                f.expand()
                    .speculate(&a_t)
                    .data()
                    .iter()
                    .map(|&v| f64::from(v)),
            );
            out.extend(abs_vals(
                &f.contract().speculate(&gelu_hidden(&block, &a_t)),
            ));
        }
    }
    let tf_th = TransformerThresholds {
        theta_attn: inner_theta(&attn),
        theta_gelu: inner_theta(&gelu),
        theta_ffn_out: inner_theta(&out),
    };

    Model {
        lstm,
        gru,
        tf,
        block,
        tf_th,
        tokens: source.sample(STREAM, &mut seeded(seed)),
    }
}

/// Decoding state of the three LMs, dual or dense.
struct State {
    lstm: LstmState,
    gru: Tensor,
}

impl State {
    fn new() -> Self {
        Self {
            lstm: LstmState::zeros(WIDTH),
            gru: Tensor::zeros(&[WIDTH]),
        }
    }
}

/// One dual decode step of all three LMs; returns their argmaxes and
/// whether every output was finite.
fn dual_step(m: &Model, s: &mut State, t: usize) -> ([usize; 3], bool) {
    let tok = m.tokens[t];
    let o = m
        .lstm
        .dual
        .step(&embed(&m.lstm.lm, tok), &s.lstm, &m.lstm.th);
    s.lstm = LstmState { h: o.h, c: o.c };
    let o = m.gru.dual.step(&embed(&m.gru.lm, tok), &s.gru, &m.gru.th);
    s.gru = o.h;
    let ys = m
        .block
        .forward(&window(&m.tf, &m.tokens, t), &m.tf_th)
        .output;
    let finite = all_finite(s.lstm.h.data()) && all_finite(s.gru.data()) && all_finite(ys.data());
    (
        [
            rnn_argmax(&m.lstm.lm, &s.lstm.h),
            rnn_argmax(&m.gru.lm, &s.gru),
            last_row_argmax(&m.tf, &ys),
        ],
        finite,
    )
}

fn dense_step(m: &Model, s: &mut State, t: usize) -> [usize; 3] {
    let tok = m.tokens[t];
    s.lstm = m.lstm.dual.step_dense(&embed(&m.lstm.lm, tok), &s.lstm);
    s.gru = m.gru.dual.step_dense(&embed(&m.gru.lm, tok), &s.gru);
    let ys = m.block.forward_dense(&window(&m.tf, &m.tokens, t));
    [
        rnn_argmax(&m.lstm.lm, &s.lstm.h),
        rnn_argmax(&m.gru.lm, &s.gru),
        last_row_argmax(&m.tf, &ys),
    ]
}

/// θ = −∞ checks of every layer type on a few decoding states.
fn check_exact(m: &Model, tally: &mut Tally) {
    let mut s = State::new();
    for t in 0..3 {
        let tok = m.tokens[t];
        let cell = m.lstm.lm.lstm_cell().expect("lstm lm");
        let x = embed(&m.lstm.lm, tok);
        tally.check(reference::lstm_exact(&m.lstm.dual, cell, &x, &s.lstm));
        let cell = m.gru.lm.gru_cell().expect("gru lm");
        let x = embed(&m.gru.lm, tok);
        tally.check(reference::gru_exact(&m.gru.dual, cell, &x, &s.gru));
        let xs = window(&m.tf, &m.tokens, t);
        let never = TransformerThresholds::never_switch();
        let (attn, _) = m.block.attention().forward_with(
            &mut SpeculationEngine::new(),
            &xs,
            never.theta_attn,
            None,
        );
        tally.check(reference::tensors_equal(
            &attn,
            &m.block.attention().forward_reference(&xs),
        ));
        for a_t in ffn_inputs(&m.block, &xs) {
            let (y, _) = m.block.ffn().forward_with(
                &mut SpeculationEngine::new(),
                &a_t,
                never.theta_gelu,
                never.theta_ffn_out,
                None,
            );
            tally.check(reference::tensors_equal(
                &y,
                &m.block.ffn().forward_reference(&a_t),
            ));
        }
        tally.check(reference::tensors_equal(
            &m.block.forward(&xs, &never).output,
            &m.block.forward_dense(&xs),
        ));
        dual_step(m, &mut s, t);
    }
}

pub fn run(run: &Run) -> (Tally, Measured) {
    let (m, setup_s) = setup(|| build(run.seed));
    let mut tally = Tally::default();
    let measured = if run.trace {
        Measured::PerLayer(probe(&m, run))
    } else {
        // agreement over the whole stream, before timing
        let mut agree = Agreement::default();
        let (mut dual, mut dense) = (State::new(), State::new());
        for t in 0..m.tokens.len() {
            let (pred, finite) = dual_step(&m, &mut dual, t);
            tally.check(finite);
            for (p, q) in pred.into_iter().zip(dense_step(&m, &mut dense, t)) {
                agree.record(p, q);
            }
        }
        let mut e = EndToEnd::start(setup_s, run.seconds, TIMED);
        e.agree = agree;
        let mut k = 0usize;
        while e.running() {
            let t = k % TIMED;
            if t == 0 {
                dual = State::new();
            }
            let ((_, finite), ns) = time_ns(|| dual_step(&m, &mut dual, t));
            e.record(t, 1, ns);
            tally.check(finite);
            k += 1;
        }
        Measured::EndToEnd(e)
    };
    check_exact(&m, &mut tally);
    (tally, measured)
}

fn probe_lstm(m: &Model, p: &mut LayerProbe, x: &Tensor, s: &LstmState) {
    let d = &m.lstm.dual;
    let th = &m.lstm.th;
    let (a, ns) = time_ns(|| d.approx_preactivations(x, &s.h));
    p.spec.push(ns);
    let policies = [
        SwitchingPolicy::sigmoid(th.theta_sigmoid),
        SwitchingPolicy::sigmoid(th.theta_sigmoid),
        SwitchingPolicy::tanh(th.theta_tanh),
        SwitchingPolicy::sigmoid(th.theta_sigmoid),
    ];
    let mut map = 0.0;
    for (g, pol) in policies.iter().enumerate() {
        let slice = Tensor::from_vec(a.data()[g * WIDTH..(g + 1) * WIDTH].to_vec(), &[WIDTH]);
        map += time_ns(|| pol.map(&slice)).1;
    }
    p.map.push(map);
    let o = p.time_total(|| d.step(x, s, th));
    p.count_maps(&o.gate_maps);
    p.dense.push(time_ns(|| d.step_dense(x, s)).1);
    p.never
        .push(time_ns(|| d.step(x, s, &RnnThresholds::never_switch())).1);
}

fn probe_gru(m: &Model, p: &mut LayerProbe, x: &Tensor, h: &Tensor) {
    let d = &m.gru.dual;
    let th = &m.gru.th;
    let (ax, ns_ih) = time_ns(|| d.approx_ih().forward(x));
    let (ah, ns_hh) = time_ns(|| d.approx_hh().forward(h));
    p.spec.push(ns_ih + ns_hh);
    let (axd, ahd) = (ax.data(), ah.data());
    let sig = SwitchingPolicy::sigmoid(th.theta_sigmoid);
    let mut map = 0.0;
    for g in 0..2 {
        let slice = Tensor::from_vec(
            (0..WIDTH)
                .map(|i| axd[g * WIDTH + i] + ahd[g * WIDTH + i])
                .collect(),
            &[WIDTH],
        );
        map += time_ns(|| sig.map(&slice)).1;
    }
    let n_pre = Tensor::from_vec(
        (0..WIDTH)
            .map(|i| {
                let rg = Activation::Sigmoid.apply_scalar(axd[i] + ahd[i]);
                axd[2 * WIDTH + i] + rg * ahd[2 * WIDTH + i]
            })
            .collect(),
        &[WIDTH],
    );
    map += time_ns(|| SwitchingPolicy::tanh(th.theta_tanh).map(&n_pre)).1;
    p.map.push(map);
    let o = p.time_total(|| d.step(x, h, th));
    p.count_maps(&o.gate_maps);
    p.dense.push(time_ns(|| d.step_dense(x, h)).1);
    p.never
        .push(time_ns(|| d.step(x, h, &RnnThresholds::never_switch())).1);
}

/// Attention (`attn`, with the dense mixer as `nn.attention.mix_ns`)
/// and FFN (`ffn`) breakdowns of one transformer block over one window
/// `xs`, at thresholds `th`.
pub fn probe_block(
    block: &DualTransformerBlock,
    th: &TransformerThresholds,
    xs: &Tensor,
    out: &mut PerLayer,
) {
    probe_attn(block, th, out.probe("attn"), xs);
    probe_ffn(block, th, out.probe("ffn"), xs);
}

fn probe_attn(
    block: &DualTransformerBlock,
    th: &TransformerThresholds,
    p: &mut LayerProbe,
    xs: &Tensor,
) {
    let a = block.attention();
    let m = xs.shape().dim(1);
    let policy = SwitchingPolicy::magnitude(th.theta_attn);
    let (mut spec, mut map, mut mix) = (0.0, 0.0, 0.0);
    let xrows = rows(xs);
    // The output projection speculates on the mixer's context; an input
    // row of the same width stands in for it (same cost).
    for x_t in &xrows {
        for proj in [a.wq(), a.wk(), a.wv(), a.wo()] {
            let (y, ns) = time_ns(|| proj.speculate(x_t));
            spec += ns;
            map += time_ns(|| policy.map(&y)).1;
        }
    }
    let refs = |proj: &duet_core::DualProjection| -> Vec<f32> {
        xrows
            .iter()
            .flat_map(|x| proj.forward_reference(x).data().to_vec())
            .collect()
    };
    let (q, k, v) = (refs(a.wq()), refs(a.wk()), refs(a.wv()));
    for t in 0..xrows.len() {
        let q_t = Tensor::from_vec(q[t * m..(t + 1) * m].to_vec(), &[m]);
        let keys = Tensor::from_vec(k[..(t + 1) * m].to_vec(), &[t + 1, m]);
        let values = Tensor::from_vec(v[..(t + 1) * m].to_vec(), &[t + 1, m]);
        mix += time_ns(|| attend(&q_t, &keys, &values)).1;
    }
    p.spec.push(spec);
    p.map.push(map);
    p.mix.push(mix);
    let (_, maps) =
        p.time_total(|| a.forward_with(&mut SpeculationEngine::new(), xs, th.theta_attn, None));
    p.count_maps(&maps);
    p.dense.push(time_ns(|| a.forward_reference(xs)).1);
    let never = TransformerThresholds::never_switch().theta_attn;
    p.never
        .push(time_ns(|| a.forward_with(&mut SpeculationEngine::new(), xs, never, None)).1);
}

fn probe_ffn(
    block: &DualTransformerBlock,
    th: &TransformerThresholds,
    p: &mut LayerProbe,
    xs: &Tensor,
) {
    let f = block.ffn();
    let never = TransformerThresholds::never_switch();
    let inputs = ffn_inputs(block, xs);
    let (mut spec, mut map, mut dense, mut nev) = (0.0, 0.0, 0.0, 0.0);
    for a_t in &inputs {
        let (y1, ns) = time_ns(|| f.expand().speculate(a_t));
        spec += ns;
        map += time_ns(|| SwitchingPolicy::gelu(th.theta_gelu).map(&y1)).1;
        let h = gelu_hidden(block, a_t);
        let (y2, ns) = time_ns(|| f.contract().speculate(&h));
        spec += ns;
        map += time_ns(|| SwitchingPolicy::magnitude(th.theta_ffn_out).map(&y2)).1;
        dense += time_ns(|| f.forward_reference(a_t)).1;
        nev += time_ns(|| {
            f.forward_with(
                &mut SpeculationEngine::new(),
                a_t,
                never.theta_gelu,
                never.theta_ffn_out,
                None,
            )
        })
        .1;
    }
    p.spec.push(spec);
    p.map.push(map);
    p.dense.push(dense);
    p.never.push(nev);
    let maps = p.time_total(|| {
        inputs
            .iter()
            .map(|a_t| {
                f.forward_with(
                    &mut SpeculationEngine::new(),
                    a_t,
                    th.theta_gelu,
                    th.theta_ffn_out,
                    None,
                )
                .1
            })
            .collect::<Vec<_>>()
    });
    p.count_maps(maps.iter().flatten());
}

/// Per-layer breakdown along the decoded stream: one LSTM step, one GRU
/// step, and the transformer's attention and FFN over one window per
/// sample.
fn probe(m: &Model, run: &Run) -> PerLayer {
    let mut out = PerLayer::default();
    let mut s = State::new();
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < run.seconds {
        let t = k % m.tokens.len();
        if t == 0 {
            s = State::new();
        }
        let tok = m.tokens[t];
        probe_lstm(m, out.probe("lstm"), &embed(&m.lstm.lm, tok), &s.lstm);
        probe_gru(m, out.probe("gru"), &embed(&m.gru.lm, tok), &s.gru);
        probe_block(&m.block, &m.tf_th, &window(&m.tf, &m.tokens, t), &mut out);
        dual_step(m, &mut s, t);
        k += 1;
    }
    out
}
