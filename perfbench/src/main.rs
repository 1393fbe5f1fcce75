//! Wall-clock benchmark of DUET inference, serving and simulation.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <vision_batch|lm_decode|serve_mix|sim_dse> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that times each layer from outside and reports the per-layer
//! metrics. Every run checks the outputs it produced and prints, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod host;
mod lm;
mod reference;
mod report;
mod serve;
mod sim;
mod stats;
mod vision;

use report::Measured;
use stats::Tally;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, by the names `BENCHMARK.json` and later claims use.
const WORKLOADS: [&str; 4] = ["vision_batch", "lm_decode", "serve_mix", "sim_dse"];

/// A second seed that a claimed gain must also hold on; never used while
/// writing a change.
const HELD_OUT_SEED: u64 = 20_201_017;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Default `DUET_NUM_THREADS`. The reference machine is a 2-vCPU VM on a
/// shared host; there, fanning work out to the second vCPU made the
/// run-to-run spread of the timings 20–45%, against about 5% on one
/// thread. `sim.sweep.parallel_eff` measures two-thread scaling in the
/// traced run regardless.
const WORKER_THREADS: usize = 1;

/// One run's parameters.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Runs `build` [`SETUP_REPS`] times; returns the last result and the
/// wall seconds of each repetition.
pub fn setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((
        workload,
        Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

/// The commit of the checkout, from `.git` when the benchmark runs in a
/// repository; `unknown` otherwise.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if std::env::var_os("DUET_NUM_THREADS").is_none() {
        // Read once, on the first parallel call, which has not happened.
        std::env::set_var("DUET_NUM_THREADS", WORKER_THREADS.to_string());
    }
    println!(
        "{{\"env\": {{\"workload\": \"{workload}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"DUET_NUM_THREADS\": \"{}\", \
         \"threads\": {}, \"simd_active\": {}, \"git_commit\": \"{}\"}}}}",
        run.seed,
        run.seconds,
        run.trace,
        std::env::var("DUET_NUM_THREADS").unwrap_or_default(),
        duet_tensor::parallel::num_threads(),
        duet_tensor::ops::simd_active(),
        git_commit()
    );
    let (tally, measured): (Tally, Measured) = match workload.as_str() {
        "vision_batch" => vision::run(&run),
        "lm_decode" => lm::run(&run),
        "serve_mix" => serve::run(&run),
        _ => sim::run(&run),
    };
    println!("{}", report::result_line(tally, measured));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, r) = parse(&args(
            "--workload lm_decode --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(w, "lm_decode");
        assert_eq!((r.seed, r.seconds, r.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim_dse --seed x --seconds 1 --trace 0",
            "--workload sim_dse --seed 1 --seconds 0 --trace 0",
            "--workload sim_dse --seed 1 --seconds 1 --trace 2",
            "--workload sim_dse --seed 1 --seconds 1",
            "--workload sim_dse --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
