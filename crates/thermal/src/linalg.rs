//! Minimal dense linear algebra for the thermal solver.
//!
//! Thermal RC networks in this study are small (tens of nodes), so a dense
//! LU factorization with partial pivoting is simpler and faster than
//! pulling in a sparse solver. The factorization is cached by the
//! transient solver for the backward-Euler path; the default transient
//! path instead precomputes a matrix exponential ([`Matrix::expm`]) and
//! advances with the flat row-major kernel [`affine_matvec`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Flat row-major affine matrix–vector kernel:
/// `y[i] = bias[i] + Σ_j a[i·cols + j] · x[j]`.
///
/// This is the single hot kernel shared by the block- and grid-model
/// propagators: one contiguous streaming pass over `a` with an
/// independent dot product per row (no cross-iteration dependency, so
/// the compiler can vectorize it), unlike the serial triangular solves
/// of the LU path. Accumulation order within a row is fixed (four
/// strided partial sums), so results are bit-reproducible run to run.
///
/// # Panics
///
/// Panics if `a.len() != y.len() * cols`, `x.len() != cols`, or
/// `bias.len() != y.len()`.
pub fn affine_matvec(cols: usize, a: &[f64], bias: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(a.len(), y.len() * cols, "matrix shape mismatch");
    assert_eq!(bias.len(), y.len(), "bias length mismatch");
    for (i, out) in y.iter_mut().enumerate() {
        let row = &a[i * cols..(i + 1) * cols];
        *out = bias[i] + folded_dot(cols, row, x);
    }
}

/// The fixed-order dot product both propagator kernels share: four
/// strided accumulators break the single-chain dependency and map onto
/// SIMD lanes; the tail is folded in afterwards. Accumulation order is
/// part of the contract — [`affine_matvec`] and [`matmul_strided`] are
/// bit-identical per output element *because* they both reduce through
/// this exact sequence.
#[inline(always)]
fn folded_dot(cols: usize, row: &[f64], x: &[f64]) -> f64 {
    let chunks = cols / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for k in 0..chunks {
        let r = &row[4 * k..4 * k + 4];
        let v = &x[4 * k..4 * k + 4];
        s0 += r[0] * v[0];
        s1 += r[1] * v[1];
        s2 += r[2] * v[2];
        s3 += r[3] * v[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for j in 4 * chunks..cols {
        acc += row[j] * x[j];
    }
    acc
}

/// How many lanes a [`matmul_strided`] block keeps resident at once;
/// also the recommended padding granularity for lane-state buffers.
pub const LANE_BLOCK: usize = 8;

/// Cache-blocked affine matrix–matrix kernel over a column-major lane
/// block: for each lane `l < lanes`,
/// `y[l·ldy + i] = bias[i] + Σ_j a[i·cols + j] · x[l·ldx + j]`.
///
/// `x` holds one input column per lane (leading dimension `ldx ≥ cols`,
/// so lane `l`'s column is the contiguous `x[l·ldx .. l·ldx + cols]`);
/// `y` likewise with leading dimension `ldy ≥ rows`. Columns past
/// `lanes` — the padded tail of a structure-of-arrays buffer rounded up
/// to [`LANE_BLOCK`] — are never read or written.
///
/// Internally each block of [`LANE_BLOCK`] lanes is repacked
/// lane-interleaved (element `j` of all lanes adjacent) one
/// `K_TILE`-column tile at a time, so the matrix streams once per block
/// instead of once per lane, the packed tile stays L1-resident across
/// every row, and the four partial sums become [`LANE_BLOCK`]-wide
/// independent accumulator chains the compiler vectorizes *across
/// lanes*. The blocking reorders only *which* `(row, lane)` element is
/// produced when: per lane, every multiply still lands on the same
/// accumulator in the same (column-order) sequence as
/// [`affine_matvec`]'s — tiles advance monotonically in `k`, with the
/// per-row accumulators carried across tiles — followed by the same
/// fold and tail, so every lane's output column is bit-identical to a
/// scalar `affine_matvec` over the same data.
///
/// # Panics
///
/// Panics if `a.len() != rows * cols`, `bias.len() != rows`,
/// `ldx < cols`, `ldy < rows`, or either lane buffer is too short for
/// `lanes` columns.
#[allow(clippy::too_many_arguments)]
pub fn matmul_strided(
    rows: usize,
    cols: usize,
    a: &[f64],
    bias: &[f64],
    x: &[f64],
    ldx: usize,
    y: &mut [f64],
    ldy: usize,
    lanes: usize,
) {
    matmul_strided_in(&mut Vec::new(), rows, cols, a, bias, x, ldx, y, ldy, lanes);
}

/// [`matmul_strided`] with the packed-tile scratch supplied by the
/// caller, so a per-step caller reuses one buffer instead of
/// allocating a tile per call. The scratch's prior contents are never
/// read: every packed element is written before use.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_strided_in(
    xt: &mut Vec<f64>,
    rows: usize,
    cols: usize,
    a: &[f64],
    bias: &[f64],
    x: &[f64],
    ldx: usize,
    y: &mut [f64],
    ldy: usize,
    lanes: usize,
) {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(bias.len(), rows, "bias length mismatch");
    assert!(ldx >= cols, "input leading dimension too small");
    assert!(ldy >= rows, "output leading dimension too small");
    if lanes == 0 {
        return;
    }
    assert!(x.len() >= (lanes - 1) * ldx + cols, "input block too short");
    assert!(
        y.len() >= (lanes - 1) * ldy + rows,
        "output block too short"
    );
    // Columns per packed tile (multiple of 4): 512 × LANE_BLOCK doubles
    // = 32 KiB, one typical L1 — every propagator in the study fits a
    // single tile, keeping the accumulators on the stack.
    const K_TILE: usize = 512;
    let chunks = cols / 4;
    let whole = 4 * chunks;
    // Lane-interleaved scratch for one tile: xt[(k - k0)·LANE_BLOCK + j]
    // is column k of block-lane j (zero for lanes past the ragged end —
    // read but never written back).
    xt.resize(K_TILE.min(whole) * LANE_BLOCK, 0.0);
    let xt = &mut xt[..K_TILE.min(whole) * LANE_BLOCK];
    let pack = |xt: &mut [f64], x: &[f64], l0: usize, lb: usize, k0: usize, k1: usize| {
        if lb < LANE_BLOCK {
            xt.iter_mut().for_each(|v| *v = 0.0);
        }
        for j in 0..lb {
            let col = &x[(l0 + j) * ldx + k0..(l0 + j) * ldx + k1];
            for (k, &v) in col.iter().enumerate() {
                xt[k * LANE_BLOCK + j] = v;
            }
        }
    };

    if whole <= K_TILE {
        // Single-tile fast path: the accumulators live on the stack for
        // the whole reduction.
        for l0 in (0..lanes).step_by(LANE_BLOCK) {
            let lb = (l0 + LANE_BLOCK).min(lanes) - l0;
            pack(xt, x, l0, lb, 0, whole);
            for i in 0..rows {
                let row = &a[i * cols..(i + 1) * cols];
                let mut s = [[0.0f64; LANE_BLOCK]; 4];
                tile_accumulate(&row[..whole], xt, &mut s);
                for j in 0..lb {
                    let mut v = (s[0][j] + s[1][j]) + (s[2][j] + s[3][j]);
                    for t in whole..cols {
                        v += row[t] * x[(l0 + j) * ldx + t];
                    }
                    y[(l0 + j) * ldy + i] = bias[i] + v;
                }
            }
        }
        return;
    }

    // Tiled path for matrices wider than one tile: the four partial
    // sums per (row, block-lane) are carried across tiles in `acc`
    // (spilled/reloaded at tile boundaries only), so each lane's
    // accumulator still sees its multiplies in plain column order.
    let mut acc = vec![[[0.0f64; LANE_BLOCK]; 4]; rows];
    for l0 in (0..lanes).step_by(LANE_BLOCK) {
        let lb = (l0 + LANE_BLOCK).min(lanes) - l0;
        acc.iter_mut().for_each(|v| *v = [[0.0; LANE_BLOCK]; 4]);
        let mut k0 = 0;
        while k0 < whole {
            let k1 = (k0 + K_TILE).min(whole);
            pack(xt, x, l0, lb, k0, k1);
            for i in 0..rows {
                let row = &a[i * cols + k0..i * cols + k1];
                let mut s = acc[i];
                tile_accumulate(row, &xt[..(k1 - k0) * LANE_BLOCK], &mut s);
                acc[i] = s;
            }
            k0 = k1;
        }
        // Fold, tail (read straight from the strided columns), bias.
        for i in 0..rows {
            let row = &a[i * cols..(i + 1) * cols];
            let s = &acc[i];
            for j in 0..lb {
                let mut v = (s[0][j] + s[1][j]) + (s[2][j] + s[3][j]);
                for t in whole..cols {
                    v += row[t] * x[(l0 + j) * ldx + t];
                }
                y[(l0 + j) * ldy + i] = bias[i] + v;
            }
        }
    }
}

/// The shared inner reduction of [`matmul_strided`]: fold one tile of
/// `row` (length a multiple of 4) against the lane-interleaved packed
/// tile `xt` into the four [`LANE_BLOCK`]-wide partial sums. The
/// `chunks_exact` + fixed-size-array shape is what lets the compiler
/// drop every bounds check and keep the 8 accumulator vectors in
/// registers.
#[inline(always)]
fn tile_accumulate(row: &[f64], xt: &[f64], s: &mut [[f64; LANE_BLOCK]; 4]) {
    for (r, xk) in row.chunks_exact(4).zip(xt.chunks_exact(4 * LANE_BLOCK)) {
        let r: &[f64; 4] = r.try_into().unwrap();
        let xk: &[f64; 4 * LANE_BLOCK] = xk.try_into().unwrap();
        for j in 0..LANE_BLOCK {
            s[0][j] += r[0] * xk[j];
            s[1][j] += r[1] * xk[LANE_BLOCK + j];
            s[2][j] += r[2] * xk[2 * LANE_BLOCK + j];
            s[3][j] += r[3] * xk[3 * LANE_BLOCK + j];
        }
    }
}

/// Error produced when a linear system cannot be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinalgError {
    /// The matrix is singular (a pivot underflowed).
    Singular,
    /// Dimensions of operands do not agree.
    DimensionMismatch,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::DimensionMismatch => write!(f, "operand dimensions do not agree"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major square-or-rectangular matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// The row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j order keeps the inner loop contiguous over both the
        // output row and the rhs row.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, r) in out_row.iter_mut().zip(rhs_row) {
                    *o += aik * r;
                }
            }
        }
        out
    }

    /// Infinity norm: the maximum absolute row sum.
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Matrix exponential `exp(self)` by scaling-and-squaring with a
    /// diagonal Padé(6,6) approximant (Golub & Van Loan, Algorithm
    /// 11.3-1). The matrix is scaled by `2⁻ʲ` until its infinity norm
    /// is at most ½, the Padé approximant is evaluated there, and the
    /// result is squared `j` times.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for non-square input
    /// and [`LinalgError::Singular`] if the Padé denominator cannot be
    /// inverted or the input contains non-finite entries.
    pub fn expm(&self) -> Result<Matrix, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let norm = self.inf_norm();
        if !norm.is_finite() {
            return Err(LinalgError::Singular);
        }
        // Scale so the Padé expansion point has norm ≤ 1/2.
        let j = if norm > 0.5 {
            (norm / 0.5).log2().ceil() as u32
        } else {
            0
        };
        let mut a = self.clone();
        let scale = (0.5f64).powi(j as i32);
        for v in &mut a.data {
            *v *= scale;
        }

        const Q: u32 = 6;
        let mut num = Matrix::identity(n); // Σ c_k A^k
        let mut den = Matrix::identity(n); // Σ c_k (−A)^k
        let mut power = Matrix::identity(n); // A^k
        let mut c = 1.0;
        for k in 1..=Q {
            c *= (Q - k + 1) as f64 / (k * (2 * Q - k + 1)) as f64;
            power = a.matmul(&power);
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            for ((nv, dv), pv) in num.data.iter_mut().zip(&mut den.data).zip(&power.data) {
                *nv += c * pv;
                *dv += sign * c * pv;
            }
        }
        let mut f = den.lu()?.solve_matrix(&num);
        for _ in 0..j {
            f = f.matmul(&f);
        }
        if f.data.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::Singular);
        }
        Ok(f)
    }

    /// The matrix inverse via LU factorization.
    ///
    /// # Errors
    ///
    /// See [`Matrix::lu`].
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        Ok(self.lu()?.solve_matrix(&Matrix::identity(self.rows)))
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a pivot underflows, and
    /// [`LinalgError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<LuFactors, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut max = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Ok(LuFactors { n, lu, piv })
    }

    /// Solves `self * x = b` via a fresh LU factorization.
    ///
    /// # Errors
    ///
    /// See [`Matrix::lu`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Ok(self.lu()?.solve(b))
    }

    /// Maximum absolute asymmetry `max |a_ij - a_ji|`.
    pub fn asymmetry(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols.min(self.rows) {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Cached LU factorization with partial pivoting, reusable across many
/// right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl LuFactors {
    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the cached factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.n()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        x
    }

    /// Solves `A·X = B` column by column using the cached factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.n()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows, self.n, "rhs row count mismatch");
        let mut x = Matrix::zeros(b.rows, b.cols);
        let mut col = vec![0.0; self.n];
        let mut sol = Vec::with_capacity(self.n);
        for j in 0..b.cols {
            for i in 0..b.rows {
                col[i] = b[(i, j)];
            }
            self.solve_into(&col, &mut sol);
            for i in 0..b.rows {
                x[(i, j)] = sol[i];
            }
        }
        x
    }

    /// Solves in place into `x`, avoiding allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from `self.n()`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        x.clear();
        x.extend(self.piv.iter().map(|&p| b[p]));
        let n = self.n;
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill for kernel tests (splitmix-ish).
    fn fill(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn matmul_strided_matches_affine_matvec_bitwise() {
        // Odd cols exercise the scalar tail; padded leading dimensions
        // exercise the non-contiguous strides.
        let (rows, cols) = (13, 29);
        let (ldx, ldy) = (cols + 3, rows + 5);
        let lanes = 7;
        let a = fill(1, rows * cols);
        let bias = fill(2, rows);
        let x = fill(3, lanes * ldx);
        let mut y = vec![0.0; lanes * ldy];
        matmul_strided(rows, cols, &a, &bias, &x, ldx, &mut y, ldy, lanes);
        for l in 0..lanes {
            let mut yref = vec![0.0; rows];
            affine_matvec(cols, &a, &bias, &x[l * ldx..l * ldx + cols], &mut yref);
            for i in 0..rows {
                assert_eq!(
                    y[l * ldy + i].to_bits(),
                    yref[i].to_bits(),
                    "lane {l} row {i} diverged from the scalar kernel"
                );
            }
        }
    }

    #[test]
    fn matmul_strided_leaves_padding_untouched() {
        let (rows, cols) = (5, 6);
        let (ldx, ldy) = (cols + 2, rows + 3);
        let capacity = LANE_BLOCK; // padded SoA buffer
        let lanes = 3; // ragged: active lanes < capacity
        let a = fill(4, rows * cols);
        let bias = fill(5, rows);
        let x = fill(6, capacity * ldx);
        let sentinel = -1234.5;
        let mut y = vec![sentinel; capacity * ldy];
        matmul_strided(rows, cols, &a, &bias, &x, ldx, &mut y, ldy, lanes);
        for l in 0..capacity {
            for i in 0..ldy {
                let v = y[l * ldy + i];
                if l < lanes && i < rows {
                    assert_ne!(v, sentinel, "active element ({l},{i}) unwritten");
                } else {
                    assert_eq!(v, sentinel, "padding element ({l},{i}) clobbered");
                }
            }
        }
    }

    #[test]
    fn matmul_strided_agrees_with_matrix_matmul() {
        // Same product through the naive Matrix::matmul (row-major,
        // plain accumulation): values agree to rounding even though the
        // accumulation orders differ.
        let (rows, cols, lanes) = (9, 17, 5);
        let a_data = fill(7, rows * cols);
        let x_data = fill(8, lanes * cols);
        let a = Matrix::from_vec(rows, cols, a_data.clone());
        // Column l of the lane block as column l of a cols×lanes matrix.
        let mut xm = Matrix::zeros(cols, lanes);
        for l in 0..lanes {
            for j in 0..cols {
                xm[(j, l)] = x_data[l * cols + j];
            }
        }
        let prod = a.matmul(&xm);
        let bias = vec![0.0; rows];
        let mut y = vec![0.0; lanes * rows];
        matmul_strided(
            rows, cols, &a_data, &bias, &x_data, cols, &mut y, rows, lanes,
        );
        for l in 0..lanes {
            for i in 0..rows {
                assert!(
                    (y[l * rows + i] - prod[(i, l)]).abs() < 1e-12,
                    "({i},{l}): {} vs {}",
                    y[l * rows + i],
                    prod[(i, l)]
                );
            }
        }
    }

    #[test]
    fn matmul_strided_zero_lanes_is_a_noop() {
        let a = fill(9, 4 * 4);
        let bias = fill(10, 4);
        let mut y = vec![7.0; 8];
        matmul_strided(4, 4, &a, &bias, &[], 4, &mut y, 4, 0);
        assert!(y.iter().all(|&v| v == 7.0));
    }

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bb)| (ax - bb).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solve_identity() {
        let a = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_small_system() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let b = vec![5.0, 10.0];
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn non_square_lu_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::DimensionMismatch)));
    }

    #[test]
    fn lu_factors_reusable_across_rhs() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.0, 1.0, 5.0, 2.0, 0.0, 2.0, 6.0]);
        let lu = a.lu().unwrap();
        for b in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, -2.0, 8.0]] {
            let x = lu.solve(&b);
            assert!(residual(&a, &x, &b) < 1e-10);
        }
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 5.0, 2.0, 0.5, 2.0, 6.0]);
        let lu = a.lu().unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x1 = lu.solve(&b);
        let mut x2 = Vec::new();
        lu.solve_into(&b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn larger_diagonally_dominant_system() {
        // Build a 20×20 diagonally dominant (thermal-like) system and
        // verify the residual.
        let n = 20;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    a[(i, j)] = 10.0 + i as f64;
                } else {
                    a[(i, j)] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
                }
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 5.0).collect();
        let x = a.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn mul_vec_basic() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn asymmetry_of_symmetric_matrix_is_zero() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(a.asymmetry(), 0.0);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.5, 3.0]);
        assert!((b.asymmetry() - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "row-major data length mismatch")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_against_hand_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.5, -2.0, 0.25, 3.0]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn inf_norm_is_max_row_sum() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(a.inf_norm(), 3.5);
    }

    #[test]
    fn affine_matvec_matches_mul_vec_plus_bias() {
        let n = 11; // odd size exercises the unroll tail
        let a = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|k| ((k * 7919) % 13) as f64 - 6.0).collect(),
        );
        let x: Vec<f64> = (0..n).map(|k| 0.1 * k as f64 - 0.4).collect();
        let bias: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let mut y = vec![0.0; n];
        affine_matvec(n, a.as_slice(), &bias, &x, &mut y);
        let expect = a.mul_vec(&x);
        for i in 0..n {
            assert!((y[i] - (expect[i] + bias[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_matrix_inverts_column_by_column() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 5.0, 2.0, 0.5, 2.0, 6.0]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let e = Matrix::zeros(3, 3).expm().unwrap();
        assert_eq!(e, Matrix::identity(3));
    }

    #[test]
    fn expm_of_diagonal_exponentiates_entries() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = -2.0;
        a[(1, 1)] = 0.5;
        a[(2, 2)] = -7.0; // norm > 1/2 exercises scaling-and-squaring
        let e = a.expm().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { a[(i, i)].exp() } else { 0.0 };
                assert!(
                    (e[(i, j)] - expect).abs() < 1e-12,
                    "({i},{j}): {} vs {expect}",
                    e[(i, j)]
                );
            }
        }
    }

    #[test]
    fn expm_matches_series_on_nilpotent_matrix() {
        // Strictly upper-triangular: exp(A) = I + A + A²/2 exactly.
        let a = Matrix::from_vec(3, 3, vec![0.0, 2.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
        let e = a.expm().unwrap();
        let mut expect = Matrix::identity(3);
        let a2 = a.matmul(&a);
        for (idx, v) in expect.data.iter_mut().enumerate() {
            *v += a.data[idx] + 0.5 * a2.data[idx];
        }
        for (x, y) in e.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn expm_semigroup_property_holds() {
        // exp(A)·exp(A) = exp(2A) for the 2×2 stiff test matrix.
        let a = Matrix::from_vec(2, 2, vec![-3.0, 1.0, 0.5, -8.0]);
        let e1 = a.expm().unwrap();
        let mut a2 = a.clone();
        for v in &mut a2.data {
            *v *= 2.0;
        }
        let e2 = a2.expm().unwrap();
        let prod = e1.matmul(&e1);
        for (x, y) in prod.data.iter().zip(&e2.data) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn expm_rejects_non_square_and_non_finite() {
        assert!(matches!(
            Matrix::zeros(2, 3).expm(),
            Err(LinalgError::DimensionMismatch)
        ));
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(a.expm(), Err(LinalgError::Singular)));
    }
}
