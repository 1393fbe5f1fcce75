//! Convolution-to-GEMM lowering.
//!
//! §II-B of the paper: "We can apply dual-module algorithm to CNN by first
//! doing the im2col transformation on input tensor. Then, the input and
//! output become matrices rather than vectors, but the overall algorithm is
//! the same as FF layers."
//!
//! Layout conventions: feature maps are `[C, H, W]` (channel-major), filter
//! banks are `[K, C, R, S]`. The im2col patch matrix is
//! `[C·R·S, out_h·out_w]`, so a convolution is
//! `out[K, oh·ow] = filters[K, C·R·S] · patches[C·R·S, oh·ow]`.

use crate::tensor::Tensor;

/// Spatial geometry of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Filter height.
    pub kernel_h: usize,
    /// Filter width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Output height after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_h(&self) -> usize {
        let padded = self.in_h + 2 * self.padding;
        assert!(
            padded >= self.kernel_h,
            "kernel height {} exceeds padded input height {}",
            self.kernel_h,
            padded
        );
        (padded - self.kernel_h) / self.stride + 1
    }

    /// Output width after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_w(&self) -> usize {
        let padded = self.in_w + 2 * self.padding;
        assert!(
            padded >= self.kernel_w,
            "kernel width {} exceeds padded input width {}",
            self.kernel_w,
            padded
        );
        (padded - self.kernel_w) / self.stride + 1
    }

    /// Rows of the patch matrix: `C·R·S`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the patch matrix: number of output positions.
    pub fn out_positions(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Lowers a `[C, H, W]` input into a `[C·R·S, out_h·out_w]` patch matrix.
///
/// Out-of-range (padding) positions contribute zeros.
///
/// # Panics
///
/// Panics if `input` does not have shape `[C, H, W]` matching `geom`.
pub fn im2col(input: &Tensor, geom: &ConvGeometry) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "im2col input must be [C,H,W]");
    assert_eq!(input.shape().dim(0), geom.in_channels, "channel mismatch");
    assert_eq!(input.shape().dim(1), geom.in_h, "height mismatch");
    assert_eq!(input.shape().dim(2), geom.in_w, "width mismatch");

    let (oh, ow) = (geom.out_h(), geom.out_w());
    let cols = oh * ow;
    let rows = geom.patch_len();
    let mut out = Tensor::zeros(&[rows, cols]);
    let id = input.data();
    let od = out.data_mut();

    for c in 0..geom.in_channels {
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let row = (c * geom.kernel_h + kh) * geom.kernel_w + kw;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                        let col = oy * ow + ox;
                        if iy >= 0
                            && (iy as usize) < geom.in_h
                            && ix >= 0
                            && (ix as usize) < geom.in_w
                        {
                            od[row * cols + col] =
                                id[(c * geom.in_h + iy as usize) * geom.in_w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// The non-zero entries of every [`im2col`] patch column, compacted per
/// output position (CSR): position `p`'s list holds `(j, v)` for each
/// patch row `j` whose value `v = patches[j, p]` is non-zero, in
/// ascending `j`.
///
/// It is built straight from the `[C, H, W]` input, never materialising
/// the `[C·R·S, out_h·out_w]` matrix: padding taps (which [`im2col`]
/// writes as `0.0`) are never emitted, and input elements are kept iff
/// `v != 0.0` — so `±0.0` is dropped and NaN is kept. A dot product over
/// one list is therefore the zero-skipping walk down one patch column
/// with the same operands in the same order, read contiguously.
#[derive(Debug, Clone)]
pub struct PatchOperands {
    /// `starts[p]..starts[p + 1]` indexes position `p`'s entries.
    starts: Vec<usize>,
    entries: Vec<(u32, f32)>,
}

impl PatchOperands {
    /// Compacts the patch columns of `input` under `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have shape `[C, H, W]` matching `geom`,
    /// or if the patch length does not fit in `u32`.
    pub fn new(input: &Tensor, geom: &ConvGeometry) -> Self {
        assert_eq!(input.shape().rank(), 3, "im2col input must be [C,H,W]");
        assert_eq!(input.shape().dim(0), geom.in_channels, "channel mismatch");
        assert_eq!(input.shape().dim(1), geom.in_h, "height mismatch");
        assert_eq!(input.shape().dim(2), geom.in_w, "width mismatch");
        assert!(
            u32::try_from(geom.patch_len()).is_ok(),
            "patch length {} exceeds u32",
            geom.patch_len()
        );

        let (oh, ow) = (geom.out_h(), geom.out_w());
        let (kh, kw, pad) = (geom.kernel_h, geom.kernel_w, geom.padding);
        let id = input.data();
        // Each input element lands in at most kh·kw patch columns, which
        // bounds the list length without a counting pass. Every tap is
        // written at the cursor, which only advances past non-zeros (no
        // data-dependent branch), so one spare slot takes the last write.
        let nnz_in = id.iter().filter(|&&v| v != 0.0).count();
        let bound = (nnz_in * kh * kw).min(oh * ow * geom.patch_len());
        let mut entries = vec![(0u32, 0.0f32); bound + 1];
        let mut nnz = 0;
        let mut starts = Vec::with_capacity(oh * ow + 1);
        starts.push(0);
        // Kernel taps of an output coordinate that fall inside the input
        // (the rest are padding).
        let taps = |o: usize, k: usize, len: usize| {
            let at = o * geom.stride;
            let lo = pad.saturating_sub(at);
            (lo, k.min((len + pad).saturating_sub(at)).max(lo))
        };
        for oy in 0..oh {
            let (ry0, ry1) = taps(oy, kh, geom.in_h);
            for ox in 0..ow {
                let (rx0, rx1) = taps(ox, kw, geom.in_w);
                if rx0 < rx1 {
                    let x0 = ox * geom.stride + rx0 - pad;
                    for c in 0..geom.in_channels {
                        for r in ry0..ry1 {
                            let row = (c * geom.in_h + oy * geom.stride + r - pad) * geom.in_w + x0;
                            let j0 = (c * kh + r) * kw;
                            for (s, &v) in (rx0..rx1).zip(&id[row..row + (rx1 - rx0)]) {
                                entries[nnz] = ((j0 + s) as u32, v);
                                nnz += usize::from(v != 0.0);
                            }
                        }
                    }
                }
                starts.push(nnz);
            }
        }
        entries.truncate(nnz);
        Self { starts, entries }
    }

    /// Number of output positions (patch columns).
    pub fn positions(&self) -> usize {
        self.starts.len() - 1
    }

    /// Position `p`'s non-zero `(j, v)` operands, ascending in `j`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.positions()`.
    pub fn position(&self, p: usize) -> &[(u32, f32)] {
        &self.entries[self.starts[p]..self.starts[p + 1]]
    }
}

/// The adjoint of [`im2col`]: scatters a patch-matrix gradient back onto a
/// `[C, H, W]` input-gradient tensor (needed for conv backprop).
///
/// # Panics
///
/// Panics if `cols` does not have shape `[C·R·S, out_h·out_w]`.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    assert_eq!(
        cols.shape().dims(),
        &[geom.patch_len(), oh * ow],
        "col2im shape mismatch"
    );
    let mut out = Tensor::zeros(&[geom.in_channels, geom.in_h, geom.in_w]);
    let cd = cols.data();
    let od = out.data_mut();
    let ncols = oh * ow;

    for c in 0..geom.in_channels {
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let row = (c * geom.kernel_h + kh) * geom.kernel_w + kw;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                        if iy >= 0
                            && (iy as usize) < geom.in_h
                            && ix >= 0
                            && (ix as usize) < geom.in_w
                        {
                            od[(c * geom.in_h + iy as usize) * geom.in_w + ix as usize] +=
                                cd[row * ncols + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Direct (naive) convolution used as a reference to validate the
/// im2col + GEMM path. Filters are `[K, C, R, S]`, output is `[K, oh, ow]`.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn conv2d_direct(input: &Tensor, filters: &Tensor, geom: &ConvGeometry) -> Tensor {
    assert_eq!(filters.shape().rank(), 4, "filters must be [K,C,R,S]");
    let k = filters.shape().dim(0);
    assert_eq!(filters.shape().dim(1), geom.in_channels);
    assert_eq!(filters.shape().dim(2), geom.kernel_h);
    assert_eq!(filters.shape().dim(3), geom.kernel_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let mut out = Tensor::zeros(&[k, oh, ow]);
    for f in 0..k {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for c in 0..geom.in_channels {
                    for kh in 0..geom.kernel_h {
                        for kw in 0..geom.kernel_w {
                            let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                            let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                            if iy >= 0
                                && (iy as usize) < geom.in_h
                                && ix >= 0
                                && (ix as usize) < geom.in_w
                            {
                                acc += input.at(&[c, iy as usize, ix as usize])
                                    * filters.at(&[f, c, kh, kw]);
                            }
                        }
                    }
                }
                out.set(&[f, oy, ox], acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    fn geom_3x3() -> ConvGeometry {
        ConvGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 0,
        }
    }

    #[test]
    fn geometry_math() {
        let g = geom_3x3();
        assert_eq!(g.out_h(), 3);
        assert_eq!(g.out_w(), 3);
        assert_eq!(g.patch_len(), 18);
        assert_eq!(g.out_positions(), 9);
    }

    #[test]
    fn geometry_with_padding_and_stride() {
        let g = ConvGeometry {
            in_channels: 3,
            in_h: 224,
            in_w: 224,
            kernel_h: 11,
            kernel_w: 11,
            stride: 4,
            padding: 2,
        };
        // AlexNet conv1: (224 + 4 - 11)/4 + 1 = 55
        assert_eq!(g.out_h(), 55);
        assert_eq!(g.out_w(), 55);
    }

    #[test]
    fn im2col_gemm_matches_direct_conv() {
        let g = geom_3x3();
        let input = Tensor::from_fn(&[2, 5, 5], |i| (i as f32 * 0.37).sin());
        let filters = Tensor::from_fn(&[4, 2, 3, 3], |i| (i as f32 * 0.11).cos());

        let direct = conv2d_direct(&input, &filters, &g);

        let cols = im2col(&input, &g);
        let fmat = filters.reshaped(&[4, g.patch_len()]);
        let gemm_out = matmul(&fmat, &cols);

        for (a, b) in direct.data().iter().zip(gemm_out.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn im2col_gemm_matches_direct_conv_padded_strided() {
        let g = ConvGeometry {
            in_channels: 3,
            in_h: 7,
            in_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
        };
        let input = Tensor::from_fn(&[3, 7, 6], |i| ((i * 7 % 13) as f32) - 6.0);
        let filters = Tensor::from_fn(&[5, 3, 3, 3], |i| ((i * 3 % 11) as f32) * 0.1 - 0.5);

        let direct = conv2d_direct(&input, &filters, &g);
        let cols = im2col(&input, &g);
        let gemm_out = matmul(&filters.reshaped(&[5, g.patch_len()]), &cols);

        assert_eq!(direct.len(), gemm_out.len());
        for (a, b) in direct.data().iter().zip(gemm_out.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, which backprop relies on.
        let g = ConvGeometry {
            in_channels: 2,
            in_h: 4,
            in_w: 4,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::from_fn(&[2, 4, 4], |i| (i as f32 * 0.7).sin());
        let y = Tensor::from_fn(&[g.patch_len(), g.out_positions()], |i| {
            (i as f32 * 0.3).cos()
        });
        let lhs = crate::ops::dot(
            &im2col(&x, &g).reshaped(&[g.patch_len() * g.out_positions()]),
            &y.reshaped(&[g.patch_len() * g.out_positions()]),
        );
        let rhs = crate::ops::dot(
            &x.reshaped(&[x.len()]),
            &col2im(&y, &g).reshaped(&[x.len()]),
        );
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn patch_operands_are_the_nonzero_im2col_entries() {
        let geoms = [
            // (C, H, W, R, S, stride, padding)
            (2, 5, 5, 3, 3, 1, 0),
            (3, 7, 6, 3, 3, 2, 1),
            (1, 4, 9, 3, 2, 1, 1),
            (2, 5, 4, 1, 1, 2, 0),
            // padding wider than the kernel: some positions see only pads
            (1, 3, 3, 1, 1, 1, 2),
            (2, 6, 5, 5, 3, 3, 3),
        ];
        for (c, h, w, r, s, stride, padding) in geoms {
            let g = ConvGeometry {
                in_channels: c,
                in_h: h,
                in_w: w,
                kernel_h: r,
                kernel_w: s,
                stride,
                padding,
            };
            // zeros, -0.0 and NaN among ordinary values
            let input = Tensor::from_fn(&[c, h, w], |i| match i % 7 {
                0 => 0.0,
                3 => -0.0,
                5 if i % 3 == 0 => f32::NAN,
                _ => (i as f32 * 0.37).sin(),
            });
            let cols = im2col(&input, &g);
            let ops = PatchOperands::new(&input, &g);
            let positions = g.out_positions();
            assert_eq!(ops.positions(), positions, "{g:?}");
            for p in 0..positions {
                let want: Vec<(u32, u32)> = (0..g.patch_len())
                    .map(|j| (j as u32, cols.data()[j * positions + p]))
                    .filter(|&(_, v)| v != 0.0)
                    .map(|(j, v)| (j, v.to_bits()))
                    .collect();
                let got: Vec<(u32, u32)> = ops
                    .position(p)
                    .iter()
                    .map(|&(j, v)| (j, v.to_bits()))
                    .collect();
                assert_eq!(got, want, "{g:?} position {p}");
            }
        }
    }

    #[test]
    fn padding_region_is_zero() {
        let g = ConvGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let input = Tensor::full(&[1, 2, 2], 1.0);
        let cols = im2col(&input, &g);
        // top-left output position: kernel position (0,0) maps to padded
        // coordinate (-1,-1) which must be zero.
        assert_eq!(cols.at(&[0, 0]), 0.0);
    }
}
