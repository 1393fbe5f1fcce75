//! Ternary random projection (§II-A).
//!
//! The projection matrix `P ∈ R^{k×d}` has entries drawn from the
//! Achlioptas sparse distribution: each entry is `+s` with probability 1/6,
//! `−s` with probability 1/6, and `0` with probability 2/3, where
//! `s = sqrt(3/k)`. With that scale, `E[‖Px‖²] = ‖x‖²`, so inner products
//! survive the dimension reduction — exactly why the distilled approximate
//! module can track the teacher.
//!
//! Because the entries are ternary, the product `Px` needs only sign flips
//! and additions — the paper's Alignment Units + Adder Trees (§III-B
//! step 2). [`TernaryProjection::project`] mirrors that: no
//! multiplications on the data path.
//!
//! At construction the dense ±1/0 array is compiled into column-major
//! signed index lists: for every input `j`, the outputs `i` with
//! `P[i][j] = +1` and, separately, those with `P[i][j] = −1`. Projecting
//! walks the inputs in ascending `j` and runs `out[i] += x[j]` /
//! `out[i] -= x[j]` over the two lists, so each output still sees exactly
//! the add/sub sequence of a row-major scan (ascending `j`, starting from
//! 0.0) and the result is bit for bit the same. Consecutive adds hit
//! different outputs, so the loop has no data-dependent branch and no
//! serial dependency chain. It still mirrors the adder tree: a tap is one
//! sign-aligned add, nothing on the data path multiplies, and the only
//! multiply is the shared scale applied once per output at the end. The
//! compiled tap count is therefore the number of adds the Speculator's
//! adder tree performs, which
//! [`TernaryProjection::additions_per_projection`] reports in O(1).

use duet_tensor::rng::Rng;
use duet_tensor::Tensor;

/// A ternary random projection `R^d → R^k`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TernaryProjection {
    /// Entries in {-1, 0, +1}, row-major `[k, d]`.
    entries: Vec<i8>,
    k: usize,
    d: usize,
    scale: f32,
    /// Output indices of the non-zero entries, column by column: for input
    /// `j`, the `+1` outputs are `taps[bounds[2j]..bounds[2j + 1]]` and the
    /// `−1` outputs `taps[bounds[2j + 1]..bounds[2j + 2]]`.
    taps: Vec<u32>,
    /// `2d + 1` offsets into `taps`.
    bounds: Vec<usize>,
}

impl TernaryProjection {
    /// Samples a projection from the Achlioptas distribution.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `d == 0`, or `k > d` (a "dimension reduction"
    /// that increases dimension is almost certainly a bug).
    pub fn sample(d: usize, k: usize, rng: &mut Rng) -> Self {
        assert!(k > 0 && d > 0, "projection dims must be positive");
        assert!(
            k <= d,
            "reduced dim k = {k} must not exceed input dim d = {d}"
        );
        let entries: Vec<i8> = (0..k * d)
            .map(|_| {
                let u: f32 = rng.random();
                if u < 1.0 / 6.0 {
                    1i8
                } else if u < 2.0 / 6.0 {
                    -1i8
                } else {
                    0i8
                }
            })
            .collect();
        let (taps, bounds) = compile(&entries, d);
        Self {
            entries,
            k,
            d,
            scale: (3.0 / k as f32).sqrt(),
            taps,
            bounds,
        }
    }

    /// Input dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.d
    }

    /// Reduced dimension `k`.
    pub fn reduced_dim(&self) -> usize {
        self.k
    }

    /// The common scale `sqrt(3/k)` applied after the integer adder tree.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The ternary entries, row-major `[k, d]`.
    pub fn entries(&self) -> &[i8] {
        &self.entries
    }

    /// Fraction of non-zero entries (expected ≈ 1/3).
    pub fn density(&self) -> f64 {
        self.taps.len() as f64 / self.entries.len() as f64
    }

    /// The `+1` and `−1` output lists of input `j`.
    fn column(&self, j: usize) -> (&[u32], &[u32]) {
        let (lo, mid, hi) = (
            self.bounds[2 * j],
            self.bounds[2 * j + 1],
            self.bounds[2 * j + 2],
        );
        (&self.taps[lo..mid], &self.taps[mid..hi])
    }

    /// Projects a vector: `x' = P x`, computed with additions and
    /// subtractions only, then one scalar scale.
    ///
    /// Runs the compiled column lists: for each input `j` in ascending
    /// order, `x[j]` is added to its `+1` outputs and subtracted from its
    /// `−1` outputs. Every output accumulates the same sequence a row-wise
    /// scan of `P` would, so the result does not depend on the layout.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != d`.
    pub fn project(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.len(), self.d, "projection input length mismatch");
        let mut out = Tensor::zeros(&[self.k]);
        let od = out.data_mut();
        for (j, &v) in x.data().iter().enumerate() {
            let (plus, minus) = self.column(j);
            for &i in plus {
                od[i as usize] += v;
            }
            for &i in minus {
                od[i as usize] -= v;
            }
        }
        for o in od.iter_mut() {
            *o *= self.scale;
        }
        out
    }

    /// Projects every column of a `[d, cols]` matrix (the im2col patch
    /// matrix of a CONV layer): returns `[k, cols]`. Runs the same compiled
    /// lists as [`TernaryProjection::project`], a whole input row at a
    /// time, so every output column equals `project` of that column.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not `[d, cols]`.
    pub fn project_columns(&self, m: &Tensor) -> Tensor {
        assert_eq!(m.shape().rank(), 2, "project_columns expects a matrix");
        assert_eq!(m.shape().dim(0), self.d, "row count must equal d");
        let cols = m.shape().dim(1);
        let md = m.data();
        let mut out = Tensor::zeros(&[self.k, cols]);
        let od = out.data_mut();
        for j in 0..self.d {
            let mrow = &md[j * cols..(j + 1) * cols];
            let (plus, minus) = self.column(j);
            for &i in plus {
                let i = i as usize;
                for (o, &v) in od[i * cols..(i + 1) * cols].iter_mut().zip(mrow) {
                    *o += v;
                }
            }
            for &i in minus {
                let i = i as usize;
                for (o, &v) in od[i * cols..(i + 1) * cols].iter_mut().zip(mrow) {
                    *o -= v;
                }
            }
        }
        for o in od.iter_mut() {
            *o *= self.scale;
        }
        out
    }

    /// The projection as a dense `f32` matrix `[k, d]` (for testing and
    /// for the least-squares distillation, which needs `P` explicitly).
    pub fn to_dense(&self) -> Tensor {
        Tensor::from_vec(
            self.entries
                .iter()
                .map(|&e| e as f32 * self.scale)
                .collect(),
            &[self.k, self.d],
        )
    }

    /// Number of add/sub operations one projection costs — the compiled
    /// tap count, i.e. exactly the adds [`TernaryProjection::project`]
    /// executes and the Speculator's adder tree performs.
    pub fn additions_per_projection(&self) -> usize {
        self.taps.len()
    }
}

/// Compiles row-major ternary `entries [k, d]` into the column-major
/// signed tap lists described on [`TernaryProjection`]: count the taps of
/// each (input, sign) list, prefix-sum the counts into `bounds`, then place
/// the taps in one row-major sweep.
fn compile(entries: &[i8], d: usize) -> (Vec<u32>, Vec<usize>) {
    let slot = |j: usize, e: i8| 2 * j + usize::from(e < 0);
    let mut bounds = vec![0usize; 2 * d + 1];
    for row in entries.chunks_exact(d) {
        for (j, &e) in row.iter().enumerate() {
            if e != 0 {
                bounds[slot(j, e) + 1] += 1;
            }
        }
    }
    for s in 1..bounds.len() {
        bounds[s] += bounds[s - 1];
    }
    let mut next = bounds.clone();
    let mut taps = vec![0u32; bounds[2 * d]];
    for (i, row) in entries.chunks_exact(d).enumerate() {
        let i = u32::try_from(i).expect("reduced dim exceeds u32");
        for (j, &e) in row.iter().enumerate() {
            if e != 0 {
                let s = slot(j, e);
                taps[next[s]] = i;
                next[s] += 1;
            }
        }
    }
    (taps, bounds)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use duet_tensor::ops;
    use duet_tensor::rng::{self, seeded};

    /// Oracle: the row-major branchy scan `project` ran before the taps
    /// were compiled.
    pub(crate) fn branchy_project(p: &TernaryProjection, x: &Tensor) -> Tensor {
        let (k, d) = (p.reduced_dim(), p.input_dim());
        let out = (0..k)
            .map(|i| {
                let mut acc = 0.0f32;
                for (&e, &v) in p.entries()[i * d..(i + 1) * d].iter().zip(x.data()) {
                    match e {
                        1 => acc += v,
                        -1 => acc -= v,
                        _ => {}
                    }
                }
                acc * p.scale()
            })
            .collect();
        Tensor::from_vec(out, &[k])
    }

    /// Oracle: the row-major `project_columns` that ran before.
    fn branchy_project_columns(p: &TernaryProjection, m: &Tensor) -> Tensor {
        let (k, d, cols) = (p.reduced_dim(), p.input_dim(), m.shape().dim(1));
        let md = m.data();
        let mut out = Tensor::zeros(&[k, cols]);
        let od = out.data_mut();
        for i in 0..k {
            let orow = &mut od[i * cols..(i + 1) * cols];
            for (j, &e) in p.entries()[i * d..(i + 1) * d].iter().enumerate() {
                let mrow = &md[j * cols..(j + 1) * cols];
                match e {
                    1 => orow.iter_mut().zip(mrow).for_each(|(o, &v)| *o += v),
                    -1 => orow.iter_mut().zip(mrow).for_each(|(o, &v)| *o -= v),
                    _ => {}
                }
            }
            for o in orow.iter_mut() {
                *o *= p.scale();
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Seeded inputs with signed zeros and wide magnitudes mixed in, so
    /// any reordering of the adds would show in the low bits.
    fn oracle_input(r: &mut Rng, dims: &[usize]) -> Tensor {
        let mut t = rng::normal(r, dims, 0.0, 1.0);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match i % 7 {
                0 => *v = -0.0,
                3 => *v *= 1.0e6,
                5 => *v *= 1.0e-6,
                _ => {}
            }
        }
        t
    }

    #[test]
    fn compiled_project_is_bitwise_the_branchy_scan() {
        let mut r = seeded(11);
        for (d, k) in [(1, 1), (37, 1), (37, 5), (37, 37), (1152, 64), (1152, 1152)] {
            let p = TernaryProjection::sample(d, k, &mut r);
            for _ in 0..3 {
                let x = oracle_input(&mut r, &[d]);
                assert_eq!(
                    bits(&p.project(&x)),
                    bits(&branchy_project(&p, &x)),
                    "d = {d}, k = {k}"
                );
            }
            for cols in [1, 3] {
                let m = oracle_input(&mut r, &[d, cols]);
                assert_eq!(
                    bits(&p.project_columns(&m)),
                    bits(&branchy_project_columns(&p, &m)),
                    "d = {d}, k = {k}, cols = {cols}"
                );
            }
        }
    }

    #[test]
    fn density_near_one_third() {
        let p = TernaryProjection::sample(300, 100, &mut seeded(1));
        let d = p.density();
        assert!((d - 1.0 / 3.0).abs() < 0.02, "density {d}");
    }

    #[test]
    fn project_matches_dense_matmul() {
        let mut r = seeded(2);
        let p = TernaryProjection::sample(40, 10, &mut r);
        let x = rng::normal(&mut r, &[40], 0.0, 1.0);
        let fast = p.project(&x);
        let dense = ops::gemv(&p.to_dense(), &x);
        for (a, b) in fast.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn project_columns_matches_per_column() {
        let mut r = seeded(3);
        let p = TernaryProjection::sample(12, 5, &mut r);
        let m = rng::normal(&mut r, &[12, 7], 0.0, 1.0);
        let fast = p.project_columns(&m);
        for c in 0..7 {
            let col = Tensor::from_vec((0..12).map(|j| m.at(&[j, c])).collect(), &[12]);
            let pc = p.project(&col);
            for i in 0..5 {
                assert!((fast.at(&[i, c]) - pc.data()[i]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn norm_preserved_in_expectation() {
        // Johnson–Lindenstrauss-ish sanity: averaged over many projections,
        // ‖Px‖² ≈ ‖x‖².
        let mut r = seeded(4);
        let x = rng::normal(&mut r, &[64], 0.0, 1.0);
        let norm = x.norm_sq();
        let mut acc = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let p = TernaryProjection::sample(64, 16, &mut r);
            acc += p.project(&x).norm_sq();
        }
        let mean = acc / trials as f32;
        assert!(
            (mean - norm).abs() < norm * 0.1,
            "mean ‖Px‖² = {mean}, ‖x‖² = {norm}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TernaryProjection::sample(20, 5, &mut seeded(9));
        let b = TernaryProjection::sample(20, 5, &mut seeded(9));
        assert_eq!(a, b);
    }

    #[test]
    fn additions_equal_nonzeros() {
        let p = TernaryProjection::sample(50, 10, &mut seeded(5));
        assert_eq!(
            p.additions_per_projection(),
            p.entries().iter().filter(|&&e| e != 0).count()
        );
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn expanding_projection_panics() {
        TernaryProjection::sample(4, 8, &mut seeded(0));
    }
}
