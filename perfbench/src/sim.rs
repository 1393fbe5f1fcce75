//! `sim_dse`: repeated replays of the design-space sweep grid — BASE plus
//! five Speculator sizes, each over AlexNet, ResNet18 and LSTM-PTB traces
//! — through the cycle-level simulator (`duet-sim`).

use crate::report::{time_ns, EndToEnd, Measured, PerLayer};
use crate::stats::{median, Tally};
use crate::{setup, Run};
use duet_bench::Suite;
use duet_sim::config::ExecutorFeatures;
use duet_sim::rnn::RnnOptions;
use duet_sim::sweep::{latency_checksum, SweepCell, SweepGrid, SweepPoint, SweepWorkload};
use duet_tensor::parallel;
use duet_tensor::rng::seeded;
use duet_workloads::models::ModelZoo;
use duet_workloads::sparsity;
use std::time::Instant;

/// Threads of the parallel sweep `sim.sweep.parallel_eff` is measured at.
const PARALLEL: usize = 2;

/// The Speculator systolic-array sizes of the sweep.
const LADDER: [(usize, usize); 5] = [(8, 8), (8, 16), (16, 16), (16, 32), (32, 32)];

/// Seeded trace sets per run. Every set is swept at every architecture
/// point: 6 × 16 = 96 timed rows, each visited every ~1.5 s on the
/// reference machine.
const TRACE_SETS: usize = 16;

/// One full sweep grid per trace set and, for timing, one single-point
/// grid per set and architecture point (a row: every workload of the set
/// at that point), so each latency sample is short.
struct Sweep {
    sets: Vec<SweepGrid>,
    /// Set `i / points`, point `i % points`.
    rows: Vec<SweepGrid>,
}

/// AlexNet, ResNet18 and LSTM-PTB traces drawn from `seed`.
fn workloads(seed: u64) -> Vec<SweepWorkload> {
    let mut workloads = Vec::new();
    for (i, model) in [ModelZoo::AlexNet, ModelZoo::ResNet18]
        .into_iter()
        .enumerate()
    {
        workloads.push(SweepWorkload::Cnn {
            name: model.name().to_string(),
            traces: sparsity::cnn_traces(model, &mut seeded(seed ^ (i as u64 + 1))),
        });
    }
    workloads.push(SweepWorkload::Rnn {
        name: ModelZoo::LstmPtb.name().to_string(),
        traces: sparsity::rnn_traces(ModelZoo::LstmPtb, &mut seeded(seed ^ 0x52)),
        options: RnnOptions::duet(),
    });
    workloads
}

fn build(suite: &Suite, seed: u64) -> Sweep {
    let mut points = vec![SweepPoint::new(
        "base",
        suite.config.with_features(ExecutorFeatures::base()),
    )];
    for (rows, cols) in LADDER {
        let mut cfg = suite.config;
        cfg.speculator.systolic_rows = rows;
        cfg.speculator.systolic_cols = cols;
        points.push(SweepPoint::new(format!("{rows}x{cols}"), cfg));
    }
    let mut r = seeded(seed);
    let sets: Vec<SweepGrid> = (0..TRACE_SETS)
        .map(|_| SweepGrid::new(points.clone(), workloads(r.next_u64())))
        .collect();
    let rows = sets
        .iter()
        .flat_map(|set| {
            set.points
                .iter()
                .map(|p| SweepGrid::new(vec![p.clone()], set.workloads.clone()))
        })
        .collect();
    Sweep { sets, rows }
}

fn cycles(cells: &[SweepCell]) -> Vec<u64> {
    cells.iter().map(|c| c.perf.total_latency_cycles).collect()
}

pub fn run(run: &Run) -> (Tally, Measured) {
    let suite = Suite::paper();
    let (sweep, setup_s) = setup(|| build(&suite, run.seed));
    let grid = &sweep.sets[0];
    let mut tally = Tally::default();
    let threads = parallel::num_threads();
    // The serial sweep of each set is the reference every timed row must
    // equal cell for cell.
    let (serial, serial_ns) = time_ns(|| grid.run_with_threads(&suite.energy, 1));
    let measured = if run.trace {
        Measured::PerLayer(probe(&suite, grid, run, &serial, serial_ns))
    } else {
        let reference: Vec<Vec<u64>> = sweep
            .sets
            .iter()
            .map(|set| cycles(&set.run_with_threads(&suite.energy, 1)))
            .collect();
        let mut e = EndToEnd::start(setup_s, run.seconds, sweep.rows.len());
        let width = grid.workloads.len();
        let points = grid.points.len();
        let mut k = 0;
        while e.running() {
            let i = k % sweep.rows.len();
            let (cells, ns) = time_ns(|| sweep.rows[i].run_with_threads(&suite.energy, threads));
            e.record(i, cells.len() as u64, ns);
            let p = i % points;
            let want = &reference[i / points][p * width..(p + 1) * width];
            let got = cycles(&cells);
            let mismatched = got.iter().zip(want).filter(|(a, b)| a != b).count()
                + want.len().abs_diff(got.len());
            tally.add(want.len() as u64, mismatched as u64);
            if k < sweep.rows.len() {
                for (a, b) in got.iter().zip(want) {
                    e.agree.record(usize::from(a == b), 1);
                }
            }
            k += 1;
        }
        Measured::EndToEnd(e)
    };
    // The checksum at 1 and at 2 threads agree.
    let parallel_sum = latency_checksum(&grid.run_with_threads(&suite.energy, PARALLEL));
    tally.check(latency_checksum(&serial) == parallel_sum);
    (tally, measured)
}

/// Host cost per cell (one-cell grids, one thread), sweep parallel
/// efficiency and the simulated totals.
fn probe(
    suite: &Suite,
    grid: &SweepGrid,
    run: &Run,
    serial: &[SweepCell],
    serial_ns: f64,
) -> PerLayer {
    let mut out = PerLayer::default();
    let (mut cnn, mut rnn, mut eff) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds || eff.is_empty() {
        for point in &grid.points {
            for w in &grid.workloads {
                let one = SweepGrid::new(vec![point.clone()], vec![w.clone()]);
                let ms = time_ns(|| one.run_with_threads(&suite.energy, 1)).1 * 1e-6;
                match w {
                    SweepWorkload::Cnn { .. } => cnn.push(ms),
                    SweepWorkload::Rnn { .. } => rnn.push(ms),
                }
            }
        }
        let par_ns = time_ns(|| grid.run_with_threads(&suite.energy, PARALLEL)).1;
        let serial_now = time_ns(|| grid.run_with_threads(&suite.energy, 1)).1;
        eff.push(serial_now / (PARALLEL as f64 * par_ns));
    }
    let total: u64 = cycles(serial).iter().sum();
    out.set("sim.cnn.host_ms_per_cell", median(&cnn));
    out.set("sim.rnn.host_ms_per_cell", median(&rnn));
    out.set("sim.sweep.parallel_eff", median(&eff));
    out.set(
        "sim.host_ns_per_kcycle",
        serial_ns / (total as f64 / 1000.0),
    );
    out.set("sim.cycles_total", total as f64);
    let speedups: Vec<f64> = grid
        .workloads
        .iter()
        .flat_map(|w| {
            let base = grid
                .cell(serial, "base", w.name())
                .map_or(0, |c| c.perf.total_latency_cycles);
            grid.points[1..].iter().filter_map(move |p| {
                grid.cell(serial, &p.label, w.name())
                    .map(|c| base as f64 / c.perf.total_latency_cycles as f64)
            })
        })
        .collect();
    out.set(
        "sim.duet_speedup_geomean",
        duet_tensor::stats::geometric_mean(&speedups),
    );
    out
}
