//! Cache-blocked dense kernels: multi-RHS matrix products and
//! matrix-vector products.
//!
//! The scalar loops in [`crate::vector`] stay the semantic reference;
//! everything here is a *blocked re-tiling of the same arithmetic*.
//! Each output entry is accumulated over the shared dimension in the
//! same ascending order as [`vector::dot`]'s sequential fold, and IEEE
//! 754 multiplication is commutative bit-for-bit, so the kernels are
//! bit-identical to the naive per-row dot products — blocking only
//! changes memory traffic, never results. That invariant is what lets
//! held-out evaluation (`poisongame_ml::batch::batched_accuracy`) run
//! through the blocked product without perturbing golden-path bytes.
//!
//! # Example
//!
//! ```
//! use poisongame_linalg::gemm::{gemm_nt, RowSource};
//! use poisongame_linalg::Matrix;
//!
//! let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let w = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]).unwrap();
//! // C[i][j] = dot(x.row(i), w.row(j)) — weights as rows, no transpose.
//! let c = gemm_nt(&x, &w).unwrap();
//! assert_eq!(c.row(0), &[1.0, 1.5]);
//! assert_eq!(c.row(1), &[3.0, 3.5]);
//! ```

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector;
use crate::view::MatrixView;

use poisongame_exec::{hardware_threads, WorkerPool};

/// Rows of the left operand processed per cache block: a block of this
/// many feature rows re-reads the packed right-hand panel while it is
/// still resident.
const ROW_BLOCK: usize = 128;

/// Right-hand-side rows (weight vectors) per tile; with the 4-wide
/// register unroll below, one tile keeps at most four accumulator
/// groups live at a time.
const RHS_BLOCK: usize = 16;

/// Anything that exposes equal-length rows of `f64` — the common face
/// of [`Matrix`] and [`MatrixView`] that the blocked kernels tile over.
pub trait RowSource {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns (every row has this length).
    fn cols(&self) -> usize;
    /// Borrow row `r`.
    fn row(&self, r: usize) -> &[f64];
}

impl RowSource for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn row(&self, r: usize) -> &[f64] {
        Matrix::row(self, r)
    }
}

impl RowSource for MatrixView<'_> {
    fn rows(&self) -> usize {
        MatrixView::rows(self)
    }
    fn cols(&self) -> usize {
        MatrixView::cols(self)
    }
    fn row(&self, r: usize) -> &[f64] {
        MatrixView::row(self, r)
    }
}

impl<T: RowSource + ?Sized> RowSource for &T {
    fn rows(&self) -> usize {
        (**self).rows()
    }
    fn cols(&self) -> usize {
        (**self).cols()
    }
    fn row(&self, r: usize) -> &[f64] {
        (**self).row(r)
    }
}

/// The macro-kernel: one `ROW_BLOCK`-sized band of the output.
///
/// Computes rows `i0 .. i0 + out.len() / n` of `C = A Bᵀ` into `out`
/// (a flat row-major band, `n` columns per row). Each output entry is
/// accumulated over the shared dimension in ascending order — the
/// bit-identity contract — and the band is written by exactly one
/// caller, so bands can be dispatched to parallel workers without any
/// reduction reordering.
fn gemm_nt_block(
    a: &impl RowSource,
    panel: &Matrix,
    k: usize,
    n: usize,
    i0: usize,
    out: &mut [f64],
) {
    let band_rows = out.len() / n;
    for j0 in (0..n).step_by(RHS_BLOCK) {
        let j_end = (j0 + RHS_BLOCK).min(n);
        for local_i in 0..band_rows {
            let a_row = &a.row(i0 + local_i)[..k];
            let c_row = &mut out[local_i * n..(local_i + 1) * n];
            let mut j = j0;
            // 4 RHS accumulators share each streamed a_row load.
            while j + 4 <= j_end {
                let b0 = &panel.row(j)[..k];
                let b1 = &panel.row(j + 1)[..k];
                let b2 = &panel.row(j + 2)[..k];
                let b3 = &panel.row(j + 3)[..k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                for (t, &av) in a_row.iter().enumerate() {
                    s0 += av * b0[t];
                    s1 += av * b1[t];
                    s2 += av * b2[t];
                    s3 += av * b3[t];
                }
                c_row[j] = s0;
                c_row[j + 1] = s1;
                c_row[j + 2] = s2;
                c_row[j + 3] = s3;
                j += 4;
            }
            while j < j_end {
                c_row[j] = vector::dot(a_row, panel.row(j));
                j += 1;
            }
        }
    }
}

/// Multiply-accumulate count below which fanning row bands out to the
/// pool costs more than it saves (ticket push + wakeups ≈ a few µs).
const PARALLEL_FLOP_THRESHOLD: usize = 4_000_000;

/// How many threads `gemm_nt` lets work on an `m`-row product with
/// `flops` multiply-accumulates: one (serial) when the product has a
/// single row band or is too small to amortize dispatch, otherwise one
/// per hardware thread, capped by the band count.
fn gemm_participants(m: usize, flops: usize) -> usize {
    if m <= ROW_BLOCK || flops < PARALLEL_FLOP_THRESHOLD {
        return 1;
    }
    hardware_threads().min(m.div_ceil(ROW_BLOCK))
}

/// Blocked multi-RHS product `C = A Bᵀ` over row-major operands:
/// `C[i][j] = dot(a.row(i), b.row(j))`.
///
/// `b`'s rows are the right-hand sides (e.g. one weight vector per
/// simulation cell), so no operand is ever physically transposed. The
/// accumulation over the shared dimension is sequential-ascending per
/// output entry — bit-identical to calling [`vector::dot`] per pair,
/// for any blocking.
///
/// Large products (several `ROW_BLOCK` bands and enough arithmetic to
/// amortize dispatch) fan their output row bands out across the shared
/// worker pool ([`poisongame_exec::WorkerPool::global`]). Each band is
/// written by exactly one task and the per-entry accumulation order
/// never changes, so the parallel result is **bit-identical by
/// construction** at any worker count — see [`gemm_nt_parallel`] to
/// pick the participant count explicitly.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `a.cols() != b.cols()`.
pub fn gemm_nt(a: &(impl RowSource + Sync), b: &impl RowSource) -> Result<Matrix, LinalgError> {
    let flops = a.rows() * b.rows() * a.cols();
    gemm_nt_parallel(a, b, gemm_participants(a.rows(), flops))
}

/// [`gemm_nt`] with an explicit concurrency cap: at most
/// `participants` threads (the caller plus shared-pool workers) build
/// the product, each writing whole output row bands. `participants <= 1`
/// is the serial path; any value yields bit-identical results.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `a.cols() != b.cols()`.
pub fn gemm_nt_parallel(
    a: &(impl RowSource + Sync),
    b: &impl RowSource,
    participants: usize,
) -> Result<Matrix, LinalgError> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: a.cols(),
            right: b.cols(),
        });
    }
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    if m == 0 || n == 0 {
        return Ok(Matrix::zeros(m, n));
    }
    // Pack the right-hand sides (a view's base/tail split, or any
    // other scattered row source) into one contiguous buffer the inner
    // loops stream through.
    let mut panel = Matrix::zeros(n, k);
    for j in 0..n {
        panel.row_mut(j).copy_from_slice(b.row(j));
    }
    let mut data = vec![0.0; m * n];
    if participants <= 1 {
        for (band, out) in data.chunks_mut(ROW_BLOCK * n).enumerate() {
            gemm_nt_block(a, &panel, k, n, band * ROW_BLOCK, out);
        }
    } else {
        WorkerPool::global().for_each_chunk_mut(
            participants,
            &mut data,
            ROW_BLOCK * n,
            |band, out| {
                gemm_nt_block(a, &panel, k, n, band * ROW_BLOCK, out);
            },
        );
    }
    Ok(Matrix::from_vec(m, n, data).expect("band tiling covers exactly m*n entries"))
}

/// Blocked matrix-vector product `a * x` with a 4-row unroll: the
/// right-hand side stays register/cache resident across row groups.
/// Each entry is accumulated in [`vector::dot`] order — bit-identical
/// to the naive per-row loop.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `x.len() != a.cols()`.
pub fn gemv(a: &impl RowSource, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if x.len() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: a.cols(),
            right: x.len(),
        });
    }
    let (m, k) = (a.rows(), a.cols());
    let mut out = vec![0.0; m];
    let mut i = 0;
    while i + 4 <= m {
        let r0 = &a.row(i)[..k];
        let r1 = &a.row(i + 1)[..k];
        let r2 = &a.row(i + 2)[..k];
        let r3 = &a.row(i + 3)[..k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for (t, &xv) in x.iter().enumerate() {
            s0 += r0[t] * xv;
            s1 += r1[t] * xv;
            s2 += r2[t] * xv;
            s3 += r3[t] * xv;
        }
        out[i] = s0;
        out[i + 1] = s1;
        out[i + 2] = s2;
        out[i + 3] = s3;
        i += 4;
    }
    while i < m {
        out[i] = vector::dot(a.row(i), x);
        i += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    use rand::SeedableRng;

    fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256StarStar) -> Matrix {
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| rng.next_f64() * 2.0 - 1.0)
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    /// The reference semantics: one `vector::dot` per output entry.
    fn naive_gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                out.set(i, j, vector::dot(a.row(i), b.row(j)));
            }
        }
        out
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_naive_dots_across_block_boundaries() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x6E77);
        // Shapes straddling ROW_BLOCK (128) and RHS_BLOCK (16) edges,
        // plus tile remainders of every size mod 4.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 8),
            (17, 3, 57),
            (127, 15, 10),
            (128, 16, 33),
            (129, 17, 57),
            (150, 19, 37),
            (300, 24, 57),
        ] {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(n, k, &mut rng);
            let blocked = gemm_nt(&a, &b).unwrap();
            let naive = naive_gemm_nt(&a, &b);
            assert_eq!(blocked, naive, "bit divergence at {m}x{n}x{k}");
        }
    }

    #[test]
    fn gemm_nt_parallel_is_bit_identical_to_serial() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9A11);
        // Shapes with 1, 2 and 4 row bands, including ragged last
        // bands, at paper-like widths.
        for &(m, n, k) in &[(100, 8, 57), (256, 24, 57), (300, 5, 123), (513, 16, 33)] {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(n, k, &mut rng);
            let serial = gemm_nt_parallel(&a, &b, 1).unwrap();
            for participants in [2, 4, 8] {
                let parallel = gemm_nt_parallel(&a, &b, participants).unwrap();
                for i in 0..m {
                    let serial_bits: Vec<u64> = serial.row(i).iter().map(|v| v.to_bits()).collect();
                    let par_bits: Vec<u64> = parallel.row(i).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        serial_bits, par_bits,
                        "row {i} diverged at {m}x{n}x{k}, {participants} participants"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_participants_thresholds() {
        // One row band or tiny arithmetic → serial, no pool dispatch.
        assert_eq!(gemm_participants(ROW_BLOCK, usize::MAX), 1);
        assert_eq!(gemm_participants(1000, PARALLEL_FLOP_THRESHOLD - 1), 1);
        // Past both thresholds the cap is bands-vs-hardware.
        let p = gemm_participants(ROW_BLOCK * 4, PARALLEL_FLOP_THRESHOLD);
        assert!((1..=4).contains(&p));
    }

    #[test]
    fn gemm_nt_reads_views_like_materialized_matrices() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xB457);
        let base = random_matrix(40, 9, &mut rng);
        let tail = random_matrix(7, 9, &mut rng);
        let view = MatrixView::with_tail(&base, tail).unwrap();
        let rhs = random_matrix(5, 9, &mut rng);
        let via_view = gemm_nt(&view, &rhs).unwrap();
        let via_matrix = gemm_nt(&view.to_matrix(), &rhs).unwrap();
        assert_eq!(via_view, via_matrix);
    }

    #[test]
    fn gemm_nt_handles_empty_operands_and_mismatch() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(4, 3);
        assert_eq!(gemm_nt(&a, &b).unwrap().shape(), (0, 4));
        assert_eq!(gemm_nt(&b, &a).unwrap().shape(), (4, 0));
        let bad = Matrix::zeros(2, 5);
        assert!(matches!(
            gemm_nt(&b, &bad).unwrap_err(),
            LinalgError::DimensionMismatch { left: 3, right: 5 }
        ));
    }

    #[test]
    fn gemv_is_bit_identical_to_per_row_dots() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x6E58);
        for &(m, k) in &[(1, 3), (4, 57), (7, 12), (130, 57)] {
            let a = random_matrix(m, k, &mut rng);
            let x: Vec<f64> = (0..k).map(|_| rng.next_f64() - 0.5).collect();
            let fast = gemv(&a, &x).unwrap();
            let naive: Vec<f64> = a.iter_rows().map(|row| vector::dot(row, &x)).collect();
            assert_eq!(fast, naive, "gemv diverged at {m}x{k}");
        }
        assert!(gemv(&Matrix::zeros(2, 3), &[1.0]).is_err());
    }
}
