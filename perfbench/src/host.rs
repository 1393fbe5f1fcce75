//! Host-speed correction of the end-to-end timings.
//!
//! The reference machine is a VM on a shared host. Other tenants slow
//! its processor by 20–50% for stretches of seconds to many minutes, and
//! a run cannot choose a calm stretch. So every untraced run also times
//! two fixed reference computations, defined here and never changed,
//! right after visits of the workload: a floating-point
//! matrix-vector product and an integer table walk with data-dependent
//! branches, both in L2 cache. Interference slows them unequally, as it
//! slows the workloads' vector kernels and the simulator's branchy
//! integer code unequally. The tenth percentile of each one's timings
//! over the run, against its nominal value at the reference machine's
//! calm speed, gives a speed factor; every end-to-end timing is scaled by
//! the geometric mean of the two, so it reads as it would at the calm
//! speed. On the reference machine, in 9–10 runs per workload during a
//! noisy stretch, this cut the spread of the median latency from 14–28%
//! to 3–7% of the median. The unscaled values are printed with each run.

use crate::stats::quantile;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Rows and columns of the reference matrix: 512 KiB of `f32`.
const ROWS: usize = 256;
const COLS: usize = 512;
/// Entries of the walked table: 512 KiB of `u32`.
const TABLE: usize = 1 << 17;
/// Steps of one table walk.
const STEPS: usize = 4096;

/// Timed passes per sample; the sample is the fastest, so a first pass
/// that reloads its data into cache does not count.
const PASSES: usize = 3;

/// Tenth percentile of each reference timing on the reference machine at
/// its calm speed.
pub const NOMINAL_MATVEC_NS: f64 = 12_900.0;
pub const NOMINAL_WALK_NS: f64 = 37_000.0;

/// One timing of each reference computation, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub matvec_ns: f64,
    pub walk_ns: f64,
}

fn matrix() -> &'static [f32] {
    static W: OnceLock<Vec<f32>> = OnceLock::new();
    W.get_or_init(|| {
        (0..ROWS * COLS)
            .map(|i| ((i * 7919) % 1000) as f32 * 1e-3)
            .collect()
    })
}

fn table() -> &'static [u32] {
    static T: OnceLock<Vec<u32>> = OnceLock::new();
    T.get_or_init(|| {
        let mut x = 0x9e37_79b9u32;
        (0..TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect()
    })
}

/// `y ← W·x + y/2`, sixteen accumulator lanes per row.
fn matvec(w: &[f32], x: &[f32], y: &mut [f32]) {
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &w[r * COLS..(r + 1) * COLS];
        let mut acc = [0f32; 16];
        for (c, xv) in row.chunks_exact(16).zip(x.chunks_exact(16)) {
            for k in 0..16 {
                acc[k] += c[k] * xv[k];
            }
        }
        *yr = acc.iter().sum::<f32>() + *yr * 0.5;
    }
}

/// A chain of dependent loads through `t`, each picking the next index
/// and one of two updates from the value it loaded.
fn walk(t: &[u32]) -> u32 {
    let (mut i, mut acc) = (1usize, 0u32);
    for _ in 0..STEPS {
        let v = t[i % TABLE];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(3);
        }
        if v.is_multiple_of(3) {
            acc = acc.wrapping_mul(3);
        }
        i = v as usize ^ (acc as usize & 0xff);
    }
    acc
}

/// The fastest of [`PASSES`] timings of `f`, in nanoseconds.
fn fastest(mut f: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times both reference computations.
pub fn sample() -> Sample {
    let (w, t) = (black_box(matrix()), black_box(table()));
    let x: Vec<f32> = black_box((0..COLS).map(|i| i as f32 * 1e-2).collect());
    let mut y = vec![0f32; ROWS];
    Sample {
        matvec_ns: fastest(|| {
            matvec(w, &x, &mut y);
            black_box(&mut y);
        }),
        walk_ns: fastest(|| {
            black_box(walk(t));
        }),
    }
}

/// The factor that scales a run's timings to the nominal host speed:
/// the geometric mean, over the two reference computations, of the
/// nominal timing over the tenth percentile of the run's timings; 1
/// without any samples.
pub fn factor(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let p10 = |f: fn(&Sample) -> f64| quantile(&samples.iter().map(f).collect::<Vec<_>>(), 0.1);
    let matvec = NOMINAL_MATVEC_NS / p10(|s| s.matvec_ns);
    let walk = NOMINAL_WALK_NS / p10(|s| s.walk_ns);
    (matvec * walk).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(matvec: f64, walk: f64) -> Vec<Sample> {
        // 1..=100 tenths of the given timings: p10 is the timing itself
        (1..=100)
            .rev()
            .map(|i| Sample {
                matvec_ns: f64::from(i) * matvec / 10.0,
                walk_ns: f64::from(i) * walk / 10.0,
            })
            .collect()
    }

    #[test]
    fn factor_is_the_geometric_mean_at_the_tenth_percentile() {
        assert_eq!(factor(&[]), 1.0);
        let at = |m, w| factor(&samples(m, w));
        assert!((at(NOMINAL_MATVEC_NS, NOMINAL_WALK_NS) - 1.0).abs() < 1e-12);
        // a host twice as slow at both reads twice as slow before scaling
        assert!((at(2.0 * NOMINAL_MATVEC_NS, 2.0 * NOMINAL_WALK_NS) - 0.5).abs() < 1e-12);
        // slowed 4× at one and not at the other: half the speed
        assert!((at(4.0 * NOMINAL_MATVEC_NS, NOMINAL_WALK_NS) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn references_are_timed() {
        let s = sample();
        for t in [s.matvec_ns, s.walk_ns] {
            assert!(t.is_finite() && t > 0.0, "{s:?}");
        }
    }
}
