//! `serve_mix`: open-loop, virtual-time replays of a seeded three-tenant
//! Pareto + diurnal trace through `DuetServer::run_trace` with the
//! θ-controller on. The host replays the trace as fast as it can; the
//! arrival ticks are fixed by the trace, so the generator is never late.

use crate::report::{time_ns, EndToEnd, Measured, PerLayer};
use crate::stats::{self, all_finite, median, Tally};
use crate::{lm, reference};
use crate::{setup, Run};
use duet_core::batch::forward_batch;
use duet_core::calibration::Calibration;
use duet_core::dual_layer::DualModuleLayer;
use duet_core::dual_proj::DualProjection;
use duet_core::engine::MacMode;
use duet_core::guard::SwitchRateBand;
use duet_core::metrics::SavingsReport;
use duet_core::{
    DualAttention, DualFfn, DualTransformerBlock, SwitchingPolicy, TransformerThresholds,
};
use duet_nn::Activation;
use duet_obs::event::{self, Event, EventKind, BATCH_SCOPE};
use duet_serve::{
    report, trace, DuetServer, InferenceRequest, InferenceResponse, ModelVariant, OverloadPolicy,
    ServeConfig, ServeControl, ServeReport, ServedModel, TenantProfile, TraceConfig,
};
use duet_tensor::rng::{self, seeded};
use duet_tensor::{ops, parallel, Tensor};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seed of the model weights and band calibration (fixed: `--seed`
/// varies the trace only).
const MODEL_SEED: u64 = 0x5345_5256;
/// Traces per run, replayed in turn: a run's figures cover all of them,
/// so they move little from seed to seed, and each is replayed every
/// ~1.3 s on the reference machine.
const TRACES: usize = 96;
/// Horizon of each trace in virtual ticks.
const HORIZON: u64 = 800;
/// Requests per replay: the first arrivals of each trace, so every trace
/// of every seed is the same amount of work.
const REQUESTS: usize = 150;
/// Capacity below the offered load, so admission degrades θ.
const MACS_PER_TICK: u64 = 2_048;
/// Guard-band half-width around the calibrated insensitive fraction.
const BAND_MARGIN: f64 = 0.12;
/// Transformer block magnitude-band θs and base GELU θ.
const THETA_ATTN: f32 = 0.05;
const THETA_FFN_OUT: f32 = 0.05;
const THETA_GELU: f32 = -0.5;
const SEQ_LEN: usize = 8;

fn tenants() -> Vec<String> {
    ["alpha", "beta", "gamma"].map(String::from).to_vec()
}

/// The serving models: a wide "chat" and a narrower "embed" FC layer and
/// a transformer block "lm".
fn models(bands: &[Option<SwitchRateBand>]) -> Vec<ServedModel> {
    let band = |i: usize| bands.get(i).copied().flatten();
    let mut out: Vec<ServedModel> = [("chat", 128, 256), ("embed", 64, 96)]
        .iter()
        .enumerate()
        .map(|(i, &(name, n, d))| {
            let mut r = seeded(MODEL_SEED ^ (i as u64 + 1));
            let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
            let b = Tensor::zeros(&[n]);
            ServedModel {
                name: name.into(),
                model: ModelVariant::Layer(DualModuleLayer::learn(
                    &w,
                    &b,
                    Activation::Relu,
                    n,
                    300,
                    &mut r,
                )),
                overload: OverloadPolicy {
                    base: SwitchingPolicy::relu(0.0),
                    theta_step: 0.5,
                },
                band: band(i),
            }
        })
        .collect();
    let (m, f) = (16, 32);
    let mut r = seeded(MODEL_SEED ^ 0x4c4d);
    let mut proj = |n: usize, d: usize| {
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
        let b = rng::normal(&mut r, &[n], 0.0, 0.05);
        DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, m / 2, 300, &mut r)
    };
    let block = DualTransformerBlock::new(
        DualAttention::new(proj(m, m), proj(m, m), proj(m, m), proj(m, m)),
        DualFfn::new(proj(f, m), proj(m, f)),
    );
    out.push(ServedModel {
        name: "lm".into(),
        model: ModelVariant::Transformer {
            block: Box::new(block),
            seq_len: SEQ_LEN,
            theta_attn: THETA_ATTN,
            theta_ffn_out: THETA_FFN_OUT,
        },
        overload: OverloadPolicy {
            base: SwitchingPolicy::gelu(THETA_GELU),
            theta_step: 0.5,
        },
        band: band(2),
    });
    out
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::balanced();
    cfg.macs_per_tick = MACS_PER_TICK;
    cfg.workers = 0; // DUET_NUM_THREADS
    cfg.control = Some(ServeControl::balanced());
    cfg
}

/// Each model's healthy band from its guard EWMA under light load, as
/// the control exhibit calibrates it.
fn calibrate_bands() -> Vec<Option<SwitchRateBand>> {
    let mut cfg = config();
    cfg.control = None;
    cfg.macs_per_tick = MACS_PER_TICK * 8;
    let models = models(&[]);
    let n_models = models.len();
    let mut server = DuetServer::new(models, &tenants(), cfg);
    let warmup = TraceConfig {
        seed: MODEL_SEED ^ 0xCA11,
        horizon_ticks: 600,
        tenants: vec![
            TenantProfile::uniform("alpha", 6),
            TenantProfile::uniform("beta", 9),
            TenantProfile::uniform("gamma", 12),
        ],
        diurnal: None,
    };
    let requests = trace::generate(&warmup, &server.model_dims());
    server.run_trace(&requests);
    (0..n_models)
        .map(|m| {
            let ewmas: Vec<f64> = (0..server.replica_count())
                .map(|ri| server.replica(ri))
                .filter(|r| r.model == m)
                .filter_map(|r| r.guard.ewma())
                .collect();
            if ewmas.is_empty() {
                return None;
            }
            let center = ewmas.iter().sum::<f64>() / ewmas.len() as f64;
            let total = 1_000_000u64;
            let cal = Calibration {
                thetas: vec![0.0],
                quality: 1.0,
                report: SavingsReport {
                    outputs_total: total,
                    outputs_exact: total - (center * total as f64).round() as u64,
                    ..SavingsReport::new()
                },
            };
            Some(cal.insensitive_band(BAND_MARGIN))
        })
        .collect()
}

struct Setup {
    models: Vec<ServedModel>,
    traces: Vec<Vec<InferenceRequest>>,
}

/// A fresh copy of the served models for one server.
fn copies(models: &[ServedModel]) -> Vec<ServedModel> {
    models
        .iter()
        .map(|m| ServedModel {
            name: m.name.clone(),
            model: m.model.clone(),
            overload: m.overload,
            band: m.band,
        })
        .collect()
}

fn build(seed: u64) -> Setup {
    let models = models(&calibrate_bands());
    let dims = DuetServer::new(copies(&models), &tenants(), config()).model_dims();
    let mut r = seeded(seed);
    let traces = (0..TRACES)
        .map(|_| {
            let cfg = TraceConfig {
                seed: r.next_u64(),
                horizon_ticks: HORIZON,
                tenants: vec![
                    TenantProfile::pareto("alpha", 3, 1.5),
                    TenantProfile::pareto("beta", 6, 2.0),
                    TenantProfile::pareto("gamma", 12, 2.5),
                ],
                diurnal: Some(trace::Diurnal {
                    period_ticks: HORIZON / 2,
                    amplitude: 0.4,
                }),
            };
            let mut requests = trace::generate(&cfg, &dims);
            requests.truncate(REQUESTS);
            requests
        })
        .collect();
    Setup { models, traces }
}

/// Order-sensitive bit-level fold over every response.
fn checksum(responses: &[InferenceResponse]) -> u64 {
    let mut acc = 0u64;
    let mut fold = |v: u64| acc = acc.rotate_left(7) ^ v;
    for r in responses {
        fold(r.id.0);
        fold(r.completion_tick);
        fold(u64::from(r.degradation_level));
        for v in r.output.data() {
            fold(u64::from(v.to_bits()));
        }
    }
    acc
}

struct Replay {
    responses: Vec<InferenceResponse>,
    report: ServeReport,
    server: DuetServer,
    ns: f64,
}

fn replay(s: &Setup, trace: usize) -> Replay {
    let mut server = DuetServer::new(copies(&s.models), &tenants(), config());
    let ((responses, report), ns) = time_ns(|| server.run_trace(&s.traces[trace]));
    Replay {
        responses,
        report,
        server,
        ns,
    }
}

/// Checks completion, zero drops, finite outputs and, against the
/// trace's first replay, an unchanged response checksum.
fn check_replay(s: &Setup, trace: usize, r: &Replay, sums: &mut [Option<u64>], tally: &mut Tally) {
    let n = s.traces[trace].len() as u64;
    let bad = r
        .responses
        .iter()
        .filter(|x| !all_finite(x.output.data()))
        .count() as u64;
    let missing = n.saturating_sub(r.report.completed);
    tally.add(n, bad + missing + r.report.dropped);
    tally.check(r.report.submitted == n && r.report.completed == r.report.submitted);
    tally.check(r.report.dropped == 0);
    let sum = checksum(&r.responses);
    match sums[trace] {
        Some(want) => {
            tally.check(sum == want);
        }
        None => sums[trace] = Some(sum),
    }
}

/// The dense output for a request.
fn dense_output(model: &ModelVariant, input: &Tensor) -> Tensor {
    match model {
        ModelVariant::Layer(layer) => layer.forward_dense(input),
        ModelVariant::Transformer { block, seq_len, .. } => {
            let m = block.model_dim();
            let xs = Tensor::from_vec(input.data().to_vec(), &[*seq_len, m]);
            block.forward_dense(&xs)
        }
    }
}

fn agreement(
    s: &Setup,
    trace: usize,
    responses: &[InferenceResponse],
    agree: &mut stats::Agreement,
) {
    let inputs: BTreeMap<u64, &InferenceRequest> =
        s.traces[trace].iter().map(|r| (r.id.0, r)).collect();
    for resp in responses {
        if let Some(req) = inputs.get(&resp.id.0) {
            let dense = dense_output(&s.models[req.model.0 as usize].model, &req.input);
            agree.record(ops::argmax(&resp.output), ops::argmax(&dense));
        }
    }
}

/// θ = −∞ checks: FC layers against their projection reference and the
/// transformer block against its dense pass, on request inputs.
fn check_exact(s: &Setup, tally: &mut Tally) {
    for req in s.traces[0].iter().take(12) {
        match &s.models[req.model.0 as usize].model {
            ModelVariant::Layer(layer) => {
                let out = layer.forward(&req.input, &SwitchingPolicy::never_switch());
                tally.check(reference::tensors_equal(
                    &out.pre_activation,
                    &layer.projection().forward_reference(&req.input),
                ));
            }
            ModelVariant::Transformer { block, seq_len, .. } => {
                let xs =
                    Tensor::from_vec(req.input.data().to_vec(), &[*seq_len, block.model_dim()]);
                tally.check(reference::tensors_equal(
                    &block
                        .forward(&xs, &TransformerThresholds::never_switch())
                        .output,
                    &block.forward_dense(&xs),
                ));
            }
        }
    }
}

pub fn run(run: &Run) -> (Tally, Measured) {
    let (s, setup_s) = setup(|| build(run.seed));
    let mut tally = Tally::default();
    let measured = if run.trace {
        Measured::PerLayer(traced(&s, run, &mut tally))
    } else {
        let mut e = EndToEnd::start(setup_s, run.seconds, TRACES);
        let mut sums = [None; TRACES];
        let mut k = 0;
        while e.running() {
            let i = k % TRACES;
            let r = replay(&s, i);
            e.record(i, r.report.completed, r.ns);
            if sums[i].is_none() {
                agreement(&s, i, &r.responses, &mut e.agree);
            }
            check_replay(&s, i, &r, &mut sums, &mut tally);
            k += 1;
        }
        Measured::EndToEnd(e)
    };
    check_exact(&s, &mut tally);
    (tally, measured)
}

fn set_sinks(on: bool) {
    duet_obs::set_recorder_enabled(on);
    duet_obs::set_metrics_enabled(on);
}

/// Replays every trace with the recorder and metrics sinks off and on,
/// alternately, for half the run; derives the serving metrics from the
/// first recorded replay of each trace, then probes the served layers
/// for the other half.
fn traced(s: &Setup, run: &Run, tally: &mut Tally) -> PerLayer {
    let mut out = PerLayer::default();
    let start = Instant::now();
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    let mut first = Vec::new();
    let mut sums = [None; TRACES];
    let (mut events_total, mut overflow) = (0u64, 0u64);
    while first.len() < TRACES || start.elapsed().as_secs_f64() < run.seconds / 2.0 {
        for i in 0..TRACES {
            let r = replay(s, i);
            check_replay(s, i, &r, &mut sums, tally);
            plain.push(r.ns);
            let _ = event::take_global();
            set_sinks(true);
            let r = replay(s, i);
            set_sinks(false);
            overflow = overflow.max(event::overflow());
            let events = event::take_global();
            events_total += events.len() as u64;
            check_replay(s, i, &r, &mut sums, tally);
            recorded.push(r.ns);
            if first.len() < TRACES {
                first.push((r, events));
            }
        }
    }
    let rounds = (recorded.len() / TRACES) as f64;
    out.set(
        "obs.recorder.overhead_frac",
        median(&recorded) / median(&plain) - 1.0,
    );
    out.set("obs.recorder.events", events_total as f64 / rounds);
    out.set("obs.recorder.overflow", overflow as f64);
    serving_metrics(&first, &mut out, tally);
    probe(s, run, start, &mut out);
    out
}

/// Batch execution intervals of one recorded replay: first ExecStart to
/// BatchExec per batch, in the recorder's monotonic nanoseconds.
fn batch_intervals(events: &[Event]) -> Vec<(u64, u64)> {
    let mut spans: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::ExecStart => {
                let s = spans.entry(e.b).or_insert((u64::MAX, 0));
                s.0 = s.0.min(e.mono_ns);
            }
            EventKind::BatchExec if e.request & BATCH_SCOPE != 0 => {
                spans
                    .entry(e.request & !BATCH_SCOPE)
                    .or_insert((u64::MAX, 0))
                    .1 = e.mono_ns;
            }
            _ => {}
        }
    }
    spans.into_values().filter(|&(a, b)| a <= b).collect()
}

/// Wall time covered by the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            total += b - a;
        }
        reach = reach.max(b);
    }
    total
}

fn serving_metrics(replays: &[(Replay, Vec<Event>)], out: &mut PerLayer, tally: &mut Tally) {
    let (mut exec_ns, mut wall_ns, mut durations) = (0u64, 0.0, Vec::new());
    let (mut queue, mut batch, mut compute) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latencies, mut degraded) = (Vec::new(), 0usize);
    let (mut batches, mut occupancy_milli, mut dense, mut trips) = (0u64, 0u64, 0u64, 0u64);
    let (mut updates, mut errors, mut steps) = (0usize, Vec::new(), 0u64);
    for (r, events) in replays {
        let intervals = batch_intervals(events);
        durations.extend(intervals.iter().map(|&(a, b)| (b - a) as f64));
        exec_ns += covered(intervals);
        wall_ns += r.ns;
        match report::join(events) {
            Ok(view) => {
                tally.check(true);
                for j in &view.journeys {
                    let st = j.stages();
                    queue.push(st.queue_wait as f64);
                    batch.push(st.batch_wait as f64);
                    compute.push((st.compute + st.degraded_compute) as f64);
                }
            }
            Err(e) => {
                eprintln!("recorder stream does not join: {e}");
                tally.check(false);
            }
        }
        latencies.extend(r.responses.iter().map(|x| x.latency_ticks() as f64));
        degraded += r
            .responses
            .iter()
            .filter(|x| x.degradation_level > 0)
            .count();
        batches += r.report.batches;
        occupancy_milli += r.report.mean_occupancy_milli * r.report.batches;
        dense += r.report.dense_fallback_batches;
        trips += r.report.guard_trips;
        let samples = r.server.control_samples();
        updates += samples.len();
        errors.extend(samples.iter().filter_map(|c| c.error).map(f64::abs));
        let mut bits: BTreeMap<usize, u32> = BTreeMap::new();
        for c in samples {
            if let Some(prev) = bits.insert(c.replica, c.bits) {
                steps += u64::from(prev != c.bits);
            }
        }
    }
    out.set("serve.exec_share", exec_ns as f64 / wall_ns);
    out.set("serve.batch_exec_ns_p50", median(&durations));
    out.set(
        "serve.batch_occupancy_mean",
        occupancy_milli as f64 / 1000.0 / batches.max(1) as f64,
    );
    out.set("serve.queue_wait_ticks_p99", stats::quantile(&queue, 0.99));
    out.set("serve.batch_wait_ticks_p99", stats::quantile(&batch, 0.99));
    out.set("serve.compute_ticks_p99", stats::quantile(&compute, 0.99));
    out.set("serve.dense_fallback_batches", dense as f64);
    out.set("serve.ticks_p99", stats::quantile(&latencies, 0.99));
    out.set(
        "serve.degraded_frac",
        degraded as f64 / latencies.len().max(1) as f64,
    );
    out.set("core.guard.trips", trips as f64);
    out.set("core.control.updates", updates as f64);
    out.set(
        "core.control.abs_err_mean",
        errors.iter().sum::<f64>() / errors.len().max(1) as f64,
    );
    out.set("core.control.ladder_steps", steps as f64);
}

/// Per-layer breakdown on request inputs until the run's time is up:
/// the FC models per request (`ff`), their batch fan-out at B = 8
/// (`core.batch.parallel_eff`), and the transformer block's attention
/// and FFN per request window (`attn`, `ffn`).
fn probe(s: &Setup, run: &Run, start: Instant, out: &mut PerLayer) {
    let never = SwitchingPolicy::never_switch();
    let mut eff = Vec::new();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < run.seconds || k == 0 {
        let batch: Vec<&InferenceRequest> = s.traces[k % TRACES].iter().take(64).collect();
        for (mi, served) in s.models.iter().enumerate() {
            let reqs: Vec<&InferenceRequest> = batch
                .iter()
                .copied()
                .filter(|r| r.model.0 as usize == mi)
                .take(8)
                .collect();
            if reqs.is_empty() {
                continue;
            }
            match &served.model {
                ModelVariant::Layer(layer) => {
                    let policy = served.overload.base;
                    let p = out.probe("ff");
                    let mut serial = 0.0;
                    for r in &reqs {
                        let (y, ns) = time_ns(|| layer.approx().forward(&r.input));
                        p.spec.push(ns);
                        p.map.push(time_ns(|| policy.map(&y)).1);
                        let o = p.time_total(|| layer.forward(&r.input, &policy));
                        serial += p.total.last().copied().unwrap_or(0.0);
                        p.count_maps([&o.map]);
                        p.dense.push(time_ns(|| layer.forward_dense(&r.input)).1);
                        p.never.push(time_ns(|| layer.forward(&r.input, &never)).1);
                    }
                    let d = layer.input_dim();
                    let mut data = Vec::with_capacity(reqs.len() * d);
                    for r in &reqs {
                        data.extend_from_slice(r.input.data());
                    }
                    let x = Tensor::from_vec(data, &[reqs.len(), d]);
                    let threads = parallel::num_threads().min(reqs.len()) as f64;
                    let par = time_ns(|| forward_batch(layer, &x, &policy)).1;
                    eff.push(serial / (threads * par));
                }
                ModelVariant::Transformer {
                    block,
                    seq_len,
                    theta_attn,
                    theta_ffn_out,
                } => {
                    let th = TransformerThresholds {
                        theta_attn: *theta_attn,
                        theta_gelu: THETA_GELU,
                        theta_ffn_out: *theta_ffn_out,
                    };
                    for r in &reqs {
                        let m = block.model_dim();
                        let xs = Tensor::from_vec(r.input.data().to_vec(), &[*seq_len, m]);
                        lm::probe_block(block, &th, &xs, out);
                    }
                }
            }
        }
        k += 1;
    }
    out.set("core.batch.parallel_eff", median(&eff));
}
