//! Metric names, the per-layer breakdown and the result line.

use crate::stats::{self, Agreement, Tail, Tally};
use crate::{alloc, host};
use duet_core::switching::SwitchingMap;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Dual layer types with a per-layer breakdown.
pub const LAYER_TYPES: [&str; 6] = ["conv", "ff", "lstm", "gru", "attn", "ffn"];

/// Fields of each `core.<layer>.*` breakdown, with units.
pub const LAYER_FIELDS: [(&str, &str); 8] = [
    ("spec_ns", "ns"),
    ("map_ns", "ns"),
    ("exec_ns", "ns"),
    ("total_ns", "ns"),
    ("dense_ns", "ns"),
    ("insensitive_frac", "frac"),
    ("breakeven_frac", "frac"),
    ("allocs_per_call", "count"),
];

/// Per-layer metrics outside the `core.<layer>.*` breakdowns, with units.
pub const OTHER_LAYER_METRICS: [(&str, &str); 24] = [
    ("nn.attention.mix_ns", "ns"),
    ("core.batch.parallel_eff", "frac"),
    ("serve.exec_share", "frac"),
    ("serve.batch_exec_ns_p50", "ns"),
    ("serve.batch_occupancy_mean", "count"),
    ("serve.queue_wait_ticks_p99", "ticks"),
    ("serve.batch_wait_ticks_p99", "ticks"),
    ("serve.compute_ticks_p99", "ticks"),
    ("serve.dense_fallback_batches", "count"),
    ("serve.ticks_p99", "ticks"),
    ("serve.degraded_frac", "frac"),
    ("core.control.updates", "count"),
    ("core.control.abs_err_mean", "frac"),
    ("core.control.ladder_steps", "count"),
    ("core.guard.trips", "count"),
    ("obs.recorder.overhead_frac", "frac"),
    ("obs.recorder.events", "count"),
    ("obs.recorder.overflow", "count"),
    ("sim.cnn.host_ms_per_cell", "ms"),
    ("sim.rnn.host_ms_per_cell", "ms"),
    ("sim.sweep.parallel_eff", "frac"),
    ("sim.host_ns_per_kcycle", "ns"),
    ("sim.cycles_total", "cycles"),
    ("sim.duet_speedup_geomean", "x"),
];

/// End-to-end metrics, with units, in reporting order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("agree_frac", "frac"),
    ("ok_frac", "frac"),
    ("mem_peak_mb", "MiB"),
];

/// Every per-layer metric name with its unit, in reporting order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in LAYER_TYPES {
        for (field, unit) in LAYER_FIELDS {
            out.push((format!("core.{layer}.{field}"), unit));
        }
    }
    out.extend(
        OTHER_LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit)),
    );
    out
}

/// Runs `f` and returns its result and wall time in nanoseconds.
pub fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = black_box(f());
    (r, start.elapsed().as_nanos() as f64)
}

/// One layer type's samples from the traced run. Each sample is one
/// call of the workload's layers of that type on one of its own inputs,
/// timed from outside through the layer's public functions:
///
/// * `spec` — the speculator (`ApproxLinear::forward[_columns]`,
///   `DualProjection::speculate`, `approx_preactivations`),
/// * `map` — `SwitchingPolicy::map` on the speculator's output,
/// * `mix` — the dense attention mixer (`nn::attention::attend`),
/// * `total` — the dual call at the workload's θ,
/// * `dense` — the dense reference call,
/// * `never` — the dual call at θ = −∞ (every output executed).
///
/// `exec` is derived: `total − spec − map − mix`, the executor plus the
/// layer's dense glue.
#[derive(Debug, Default)]
pub struct LayerProbe {
    pub spec: Vec<f64>,
    pub map: Vec<f64>,
    pub mix: Vec<f64>,
    pub total: Vec<f64>,
    pub dense: Vec<f64>,
    pub never: Vec<f64>,
    pub allocs: Vec<f64>,
    sensitive: u64,
    outputs: u64,
}

impl LayerProbe {
    /// Times the dual call at the workload's θ and counts its
    /// allocations.
    pub fn time_total<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = alloc::allocations();
        let (r, ns) = time_ns(f);
        self.allocs.push((alloc::allocations() - before) as f64);
        self.total.push(ns);
        r
    }

    /// Counts the sensitive and total outputs of executed maps.
    pub fn count_maps<'a>(&mut self, maps: impl IntoIterator<Item = &'a SwitchingMap>) {
        for m in maps {
            self.sensitive += m.sensitive_count() as u64;
            self.outputs += m.len() as u64;
        }
    }

    fn emit(&self, layer: &str, out: &mut PerLayer) {
        let med = stats::median;
        let (spec, map, mix) = (med(&self.spec), med(&self.map), med(&self.mix));
        let (total, dense, never) = (med(&self.total), med(&self.dense), med(&self.never));
        let overhead = spec + map + mix;
        // dual(f) ≈ overhead + (1 − f)·exec_full, exec_full measured at
        // θ = −∞; dual(f*) = dense gives f*. ≥ 1: never breaks even.
        let exec_full = never - overhead;
        let breakeven = if self.total.is_empty() {
            0.0
        } else if exec_full > 0.0 {
            1.0 - (dense - overhead) / exec_full
        } else {
            1.0
        };
        let insensitive = if self.outputs == 0 {
            0.0
        } else {
            1.0 - self.sensitive as f64 / self.outputs as f64
        };
        let p = |f: &str| format!("core.{layer}.{f}");
        out.set(&p("spec_ns"), spec);
        out.set(&p("map_ns"), map);
        out.set(&p("exec_ns"), (total - overhead).max(0.0));
        out.set(&p("total_ns"), total);
        out.set(&p("dense_ns"), dense);
        out.set(&p("insensitive_frac"), insensitive);
        out.set(&p("breakeven_frac"), breakeven);
        out.set(&p("allocs_per_call"), med(&self.allocs));
        if layer == "attn" {
            out.set("nn.attention.mix_ns", mix);
        }
    }
}

/// The traced run's per-layer metrics. Every name starts at 0, the value
/// of a layer the workload does not run.
#[derive(Debug)]
pub struct PerLayer {
    values: BTreeMap<String, f64>,
    probes: BTreeMap<&'static str, LayerProbe>,
}

impl Default for PerLayer {
    fn default() -> Self {
        Self {
            values: per_layer_names()
                .into_iter()
                .map(|(n, _)| (n, 0.0))
                .collect(),
            probes: LAYER_TYPES
                .iter()
                .map(|&l| (l, LayerProbe::default()))
                .collect(),
        }
    }
}

impl PerLayer {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not a per-layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}")) = value;
    }

    /// The probe of one layer type.
    pub fn probe(&mut self, layer: &'static str) -> &mut LayerProbe {
        self.probes.get_mut(layer).expect("known layer type")
    }

    fn into_metrics(mut self) -> Vec<(String, f64, &'static str)> {
        let probes = std::mem::take(&mut self.probes);
        for (layer, probe) in &probes {
            if !probe.total.is_empty() {
                probe.emit(layer, &mut self);
            }
        }
        per_layer_names()
            .into_iter()
            .map(|(n, unit)| {
                let v = self.values[&n];
                (n, v, unit)
            })
            .collect()
    }
}

/// Least time between two timings of the host's reference computations:
/// every visit of the workloads but `lm_decode` takes longer.
const HOST_EVERY_S: f64 = 0.002;

/// What an untraced run measures.
///
/// Each workload cycles through a fixed set of inputs (a batch, a decode
/// position, a serving trace, a sweep row) and visits every one of them
/// many times in a run. An input's latency is the fastest of its visits.
/// On the shared reference host, interference from other tenants slows
/// the processor by up to ~40% in streaks of seconds, for a share of the
/// run that differs from run to run; the fastest visit of each input
/// skips most of it, and a change to the code moves every visit alike.
/// A slowdown of the host that lasts the whole run still shows.
/// Throughput, median and tail are taken over the inputs' fastest
/// visits, so the tail is the spread of cost across inputs, not across
/// moments of the host. Every timing, set-up included, is then scaled to
/// the nominal host speed ([`host`]).
#[derive(Debug)]
pub struct EndToEnd {
    setup_s: Vec<f64>,
    start: Instant,
    seconds: f64,
    /// Per input: items and the fastest timing seen, once visited.
    best: Vec<Option<(u64, f64)>>,
    visits: usize,
    /// The host's reference timings, after visits at least
    /// [`HOST_EVERY_S`] apart.
    host: Vec<host::Sample>,
    /// When the last reference timing was taken, in seconds of the run.
    host_at: f64,
    /// Dual-versus-reference agreement.
    pub agree: Agreement,
}

impl EndToEnd {
    /// Starts measuring `inputs` inputs for `seconds`, with peak-heap
    /// tracking restarted from the bytes live now.
    pub fn start(setup_s: Vec<f64>, seconds: f64, inputs: usize) -> Self {
        alloc::reset_peak();
        // reserved up front, so the reference timings add a fixed amount
        // to `mem_peak_mb`, whatever the host's speed
        let host_samples = ((seconds / HOST_EVERY_S) as usize).min(1 << 20) + 64;
        Self {
            setup_s,
            start: Instant::now(),
            seconds,
            best: vec![None; inputs],
            visits: 0,
            host: Vec::with_capacity(host_samples),
            host_at: f64::NEG_INFINITY,
            agree: Agreement::default(),
        }
    }

    /// Whether the measuring time is not yet up.
    pub fn running(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Records one visit of `input`: `items` completed in `ns` of timed
    /// work (a batch, a decode step, a replay or a sweep row), and times
    /// the host's reference computations unless the last timing was
    /// under [`HOST_EVERY_S`] ago.
    pub fn record(&mut self, input: usize, items: u64, ns: f64) {
        let now = self.start.elapsed().as_secs_f64();
        if now - self.host_at >= HOST_EVERY_S {
            self.host.push(host::sample());
            self.host_at = now;
        }
        self.visits += 1;
        let best = &mut self.best[input];
        // a NaN timing replaces anything and stays, so it is reported
        if best.is_none_or(|(_, b)| ns < b || ns.is_nan()) {
            *best = Some((items, ns));
        }
    }

    fn into_metrics(self, tally: &Tally) -> Vec<(String, f64, &'static str)> {
        let factor = host::factor(&self.host);
        let (raw, tail) = self.metrics(tally, 1.0);
        println!(
            "latency: {} visits of {} inputs, each input's fastest; tail = p{:.1} of {} (rank n-{}); \
             host references p10 {:.0} and {:.0} ns over {} samples, timings scaled by {factor:.4}; unscaled: {}",
            self.visits,
            tail.samples,
            tail.percentile,
            tail.samples,
            stats::TAIL_BEYOND,
            stats::quantile(&self.host.iter().map(|h| h.matvec_ns).collect::<Vec<_>>(), 0.1),
            stats::quantile(&self.host.iter().map(|h| h.walk_ns).collect::<Vec<_>>(), 0.1),
            self.host.len(),
            raw.iter()
                .take(4)
                .map(|(n, v, u)| format!("{n} {v:.6} {u}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        self.metrics(tally, factor).0
    }

    /// The end-to-end metrics with every timing multiplied by `factor`,
    /// and the tail they were taken at.
    fn metrics(&self, tally: &Tally, factor: f64) -> (Vec<(String, f64, &'static str)>, Tail) {
        let best: Vec<(u64, f64)> = self.best.iter().flatten().copied().collect();
        let items: u64 = best.iter().map(|b| b.0).sum();
        let busy_s: f64 = best.iter().map(|b| b.1).sum::<f64>() * 1e-9 * factor;
        let ms: Vec<f64> = best.iter().map(|b| b.1 * 1e-6 * factor).collect();
        // too few inputs for ten beyond any percentile: the slowest
        let tail = stats::tail(&ms).unwrap_or(Tail {
            value: ms.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0),
            percentile: 100.0,
            samples: ms.len(),
        });
        let values = [
            stats::median(&self.setup_s) * factor,
            items as f64 / busy_s.max(f64::MIN_POSITIVE),
            stats::median(&ms),
            tail.value,
            self.agree.frac(),
            1.0 - tally.failed_frac(),
            alloc::peak_bytes() as f64 / (1024.0 * 1024.0),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, unit), v)| (n.to_string(), v, unit))
            .collect();
        (metrics, tail)
    }
}

/// A run's measurements: end-to-end without tracing, per-layer with.
#[derive(Debug)]
pub enum Measured {
    EndToEnd(EndToEnd),
    PerLayer(PerLayer),
}

/// Formats the result line: `{"correct", "attempted", "failed",
/// "metrics"}`. A non-finite metric counts as one more failure and is
/// reported as 0.
pub fn result_line(mut tally: Tally, measured: Measured) -> String {
    let metrics = match measured {
        Measured::EndToEnd(e) => e.into_metrics(&tally),
        Measured::PerLayer(p) => p.into_metrics(),
    };
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        let value = if tally.check(value.is_finite()) {
            value
        } else {
            eprintln!("metric {name} is not finite");
            0.0
        };
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = duet_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn non_finite_metric_counts_as_failure() {
        let mut e = EndToEnd::start(vec![1.0], 60.0, 1);
        e.record(0, 10, 1e6);
        e.record(0, 10, f64::NAN);
        let line = result_line(Tally::default(), Measured::EndToEnd(e));
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        // items_per_s, latency_p50_ms and latency_tail_ms
        assert!(line.contains("\"failed\": 3"), "{line}");
    }

    fn metric(m: &[(String, f64, &str)], name: &str) -> f64 {
        m.iter().find(|x| x.0 == name).expect(name).1
    }

    #[test]
    fn few_inputs_report_the_slowest_as_tail() {
        let mut e = EndToEnd::start(vec![0.5], 60.0, 20);
        // 20 inputs of 1..=20 ms, 2 items each
        for ms in 1..=20 {
            e.record(ms - 1, 2, f64::from(ms as u32) * 1e6);
        }
        let m = e.metrics(&Tally::default(), 1.0).0;
        assert_eq!(metric(&m, "setup_s"), 0.5);
        assert!((metric(&m, "items_per_s") - 40.0 / 0.210).abs() < 1e-9);
        assert_eq!(metric(&m, "latency_p50_ms"), 10.5);
        // rank n - 10 = 10: ten inputs beyond it
        assert_eq!(metric(&m, "latency_tail_ms"), 10.0);
        assert_eq!(metric(&m, "ok_frac"), 1.0);

        let mut e = EndToEnd::start(vec![0.5], 60.0, 3);
        for (i, ms) in [2.0, 7.0, 3.0].into_iter().enumerate() {
            e.record(i, 1, ms * 1e6);
        }
        let m = e.metrics(&Tally::default(), 1.0).0;
        assert_eq!(metric(&m, "latency_tail_ms"), 7.0);
    }

    #[test]
    fn every_timing_is_scaled_to_the_nominal_host() {
        let mut e = EndToEnd::start(vec![0.5], 60.0, 2);
        e.record(0, 4, 2e6);
        e.record(1, 4, 6e6);
        let at = |factor| e.metrics(&Tally::default(), factor).0;
        let (m1, m2) = (at(1.0), at(0.5));
        for (name, scale) in [
            ("setup_s", 0.5),
            ("items_per_s", 2.0),
            ("latency_p50_ms", 0.5),
            ("latency_tail_ms", 0.5),
            ("agree_frac", 1.0),
            ("ok_frac", 1.0),
        ] {
            assert!(
                (metric(&m2, name) - scale * metric(&m1, name)).abs() < 1e-9,
                "{name}"
            );
        }
        assert_eq!(metric(&m1, "latency_p50_ms"), 4.0);
    }

    #[test]
    fn metrics_come_from_each_inputs_fastest_visit() {
        let n = 96;
        let mut e = EndToEnd::start(vec![1.0], 60.0, n + 4);
        // input i costs 1 + i/100 ms; three passes, the first slowed by
        // 50%, the third by 20% only for the upper half; four inputs are
        // never visited
        for pass in 0..3 {
            for i in 0..n {
                let cost = 1.0 + i as f64 * 0.01;
                let slow = match pass {
                    0 => 1.5,
                    2 if i >= n / 2 => 1.2,
                    _ => 1.0,
                };
                e.record(i, 2, cost * slow * 1e6);
            }
        }
        let m = e.metrics(&Tally::default(), 1.0).0;
        let nf = n as f64;
        // rank n - 10 of the inputs' costs
        let tail = 1.0 + (nf - 11.0) * 0.01;
        assert!((metric(&m, "latency_tail_ms") - tail).abs() < 1e-9);
        let mean = 1.0 + (nf - 1.0) / 2.0 * 0.01;
        assert!((metric(&m, "items_per_s") - 2e3 / mean).abs() < 1e-6);
        assert!((metric(&m, "latency_p50_ms") - mean).abs() < 1e-9);
    }

    #[test]
    fn unexercised_layers_report_zero() {
        let line = result_line(Tally::default(), Measured::PerLayer(PerLayer::default()));
        assert!(line.contains("\"core.conv.spec_ns\": {\"value\": 0.0, \"unit\": \"ns\"}"));
        assert_eq!(line.matches("\"value\"").count(), per_layer_names().len());
    }
}
