//! Alpha register storage, in two layouts.
//!
//! Registers persist across timesteps within an evaluation — that
//! persistence is what lets evolved alphas carry state like the paper's
//! `S3_{t-1}` recursions and what makes `Update()`-written registers act as
//! learned parameters at inference time. Special registers (paper §2):
//! `s0` = label, `s1` = prediction, `m0` = input feature matrix.
//!
//! Two layouts store the same registers:
//!
//! * [`MemoryBank`] — array-of-structs: each stock owns one bank holding
//!   its scalars, vectors and matrices contiguously. This is the layout of
//!   the lockstep reference interpreter
//!   ([`Interpreter`](crate::interp::Interpreter)), where an instruction is
//!   re-dispatched per stock.
//! * [`RegisterFile`] — struct-of-arrays ("columnar", stock-major): one
//!   buffer per operand kind in which every *register element* is a
//!   contiguous plane of `n_stocks` values (`s[reg]` is one
//!   `[f64; n_stocks]` slice; vector registers are `[reg][elem][stock]`
//!   planes, matrices `[reg][row][col][stock]`). This is the layout of the
//!   columnar tile
//!   ([`BatchInterpreter`](crate::interp::BatchInterpreter)): each
//!   instruction becomes one tight loop over the stock axis
//!   (auto-vectorizable, dispatch hoisted out), and the cross-sectional
//!   RelationOps read/write scalar planes directly with zero
//!   gather/scatter.
//!
//! The two layouts are bitwise interchangeable: per stock, every kernel
//! performs the same f64 operations in the same order (property-tested in
//! `crates/core/tests/properties.rs`).
//!
//! The tile's `RegisterFile` is constructed with `B×` the per-candidate
//! register counts: it holds B candidates' register planes side by side
//! (slot-major, with one extra matrix slot for the tile-shared `m0`
//! feature plane) so a single day-major sweep can score B programs per
//! feature-block load. The tile layout, offset
//! relocation, and per-slot RNG contract are documented on
//! [`BatchInterpreter`](crate::interp::BatchInterpreter) and
//! [`relocate_for_slot`](crate::compile::relocate_for_slot).

/// Scalar register holding the training label.
pub const LABEL: usize = 0;
/// Scalar register holding the prediction.
pub const PREDICTION: usize = 1;
/// Matrix register holding the input feature matrix `X ∈ R^{f×w}`.
pub const INPUT: usize = 0;

/// One stock's registers: `s` scalars, `v` vectors (length `dim`,
/// contiguous), `m` matrices (`dim × dim`, row-major, contiguous).
///
/// The lockstep oracle's layout only.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryBank {
    /// Scalar registers.
    pub s: Vec<f64>,
    /// Vector registers, flattened `[reg][element]`.
    pub v: Vec<f64>,
    /// Matrix registers, flattened `[reg][row][col]`.
    pub m: Vec<f64>,
    dim: usize,
}

impl MemoryBank {
    /// All-zero bank for the given configuration.
    pub fn new(n_scalars: usize, n_vectors: usize, n_matrices: usize, dim: usize) -> MemoryBank {
        MemoryBank {
            s: vec![0.0; n_scalars],
            v: vec![0.0; n_vectors * dim],
            m: vec![0.0; n_matrices * dim * dim],
            dim,
        }
    }

    /// Vector/matrix element count per register.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Zeroes every register.
    pub fn reset(&mut self) {
        self.s.fill(0.0);
        self.v.fill(0.0);
        self.m.fill(0.0);
    }

    /// Read-only view of vector register `i`.
    #[inline]
    pub fn vec(&self, i: usize) -> &[f64] {
        &self.v[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable view of vector register `i`.
    #[inline]
    pub fn vec_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.v[i * self.dim..(i + 1) * self.dim]
    }

    /// Read-only view of matrix register `i` (row-major).
    #[inline]
    pub fn mat(&self, i: usize) -> &[f64] {
        let n = self.dim * self.dim;
        &self.m[i * n..(i + 1) * n]
    }

    /// Mutable view of matrix register `i`.
    #[inline]
    pub fn mat_mut(&mut self, i: usize) -> &mut [f64] {
        let n = self.dim * self.dim;
        &mut self.m[i * n..(i + 1) * n]
    }
}

/// Columnar (stock-major) register storage: every register element is one
/// contiguous plane of `n_stocks` values. See the module docs for the
/// layout contract.
///
/// Buffer offsets (`k` = `n_stocks`, `d` = `dim`):
///
/// * scalar register `r` → `s[r*k .. (r+1)*k]`
/// * vector register `r`, element `e` → `v[(r*d + e)*k ..][..k]`
/// * matrix register `r`, element `(i, j)` → `m[(r*d*d + i*d + j)*k ..][..k]`
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterFile {
    /// Scalar planes, `[reg][stock]`.
    pub(crate) s: Vec<f64>,
    /// Vector planes, `[reg][elem][stock]`.
    pub(crate) v: Vec<f64>,
    /// Matrix planes, `[reg][row][col][stock]`.
    pub(crate) m: Vec<f64>,
    n_stocks: usize,
    dim: usize,
}

impl RegisterFile {
    /// All-zero register file for `n_stocks` stocks.
    pub fn new(
        n_scalars: usize,
        n_vectors: usize,
        n_matrices: usize,
        dim: usize,
        n_stocks: usize,
    ) -> RegisterFile {
        RegisterFile {
            s: vec![0.0; n_scalars * n_stocks],
            v: vec![0.0; n_vectors * dim * n_stocks],
            m: vec![0.0; n_matrices * dim * dim * n_stocks],
            n_stocks,
            dim,
        }
    }

    /// Vector/matrix element count per register.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stocks per plane.
    pub fn n_stocks(&self) -> usize {
        self.n_stocks
    }

    /// Zeroes every register.
    pub fn reset(&mut self) {
        self.s.fill(0.0);
        self.v.fill(0.0);
        self.m.fill(0.0);
    }

    /// Read-only plane of scalar register `r` (one value per stock).
    #[inline]
    pub fn s_plane(&self, r: usize) -> &[f64] {
        &self.s[r * self.n_stocks..(r + 1) * self.n_stocks]
    }

    /// Mutable plane of scalar register `r`.
    #[inline]
    pub fn s_plane_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.s[r * self.n_stocks..(r + 1) * self.n_stocks]
    }

    /// The whole scalar buffer (`[reg][stock]` contiguous). Offsets follow
    /// the layout contract in the struct docs; used by the serving layer to
    /// snapshot/restore exactly the planes a compiled program touches.
    pub fn s_raw(&self) -> &[f64] {
        &self.s
    }

    /// Mutable access to the whole scalar buffer (see [`RegisterFile::s_raw`]).
    pub fn s_raw_mut(&mut self) -> &mut [f64] {
        &mut self.s
    }

    /// The whole vector buffer (`[reg][elem][stock]` contiguous).
    pub fn v_raw(&self) -> &[f64] {
        &self.v
    }

    /// Mutable access to the whole vector buffer.
    pub fn v_raw_mut(&mut self) -> &mut [f64] {
        &mut self.v
    }

    /// The whole matrix buffer (`[reg][row][col][stock]` contiguous).
    pub fn m_raw(&self) -> &[f64] {
        &self.m
    }

    /// Mutable access to the whole matrix buffer.
    pub fn m_raw_mut(&mut self) -> &mut [f64] {
        &mut self.m
    }

    /// One stock's scalar register `r` (tests / diagnostics).
    pub fn scalar(&self, r: usize, stock: usize) -> f64 {
        self.s[r * self.n_stocks + stock]
    }

    /// One stock's vector register `r` gathered into a `Vec` (tests only —
    /// this is a strided gather, not a hot-path access).
    pub fn vector_of(&self, r: usize, stock: usize) -> Vec<f64> {
        (0..self.dim)
            .map(|e| self.v[(r * self.dim + e) * self.n_stocks + stock])
            .collect()
    }

    /// One stock's matrix register `r` gathered row-major into a `Vec`
    /// (tests only).
    pub fn matrix_of(&self, r: usize, stock: usize) -> Vec<f64> {
        let d2 = self.dim * self.dim;
        (0..d2)
            .map(|e| self.m[(r * d2 + e) * self.n_stocks + stock])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banks_start_zeroed() {
        let b = MemoryBank::new(10, 16, 4, 13);
        assert_eq!(b.s.len(), 10);
        assert_eq!(b.v.len(), 16 * 13);
        assert_eq!(b.m.len(), 4 * 13 * 13);
        assert!(b.s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn register_views_are_disjoint_slices() {
        let mut b = MemoryBank::new(2, 3, 2, 4);
        b.vec_mut(1).fill(7.0);
        assert!(b.vec(0).iter().all(|&x| x == 0.0));
        assert!(b.vec(1).iter().all(|&x| x == 7.0));
        assert!(b.vec(2).iter().all(|&x| x == 0.0));
        b.mat_mut(0)[5] = 3.0;
        assert_eq!(b.mat(0)[5], 3.0);
        assert_eq!(b.mat(1)[5], 0.0);
    }

    #[test]
    fn register_file_planes_are_disjoint_and_stock_major() {
        let (k, d) = (5, 3);
        let mut r = RegisterFile::new(4, 2, 2, d, k);
        assert_eq!(r.s.len(), 4 * k);
        assert_eq!(r.v.len(), 2 * d * k);
        assert_eq!(r.m.len(), 2 * d * d * k);
        r.s_plane_mut(2).fill(7.0);
        assert!(r.s_plane(1).iter().all(|&x| x == 0.0));
        assert!(r.s_plane(3).iter().all(|&x| x == 0.0));
        assert_eq!(r.scalar(2, 4), 7.0);
        // Vector reg 1, elem 2, stock 3.
        r.v[(d + 2) * k + 3] = 9.0;
        assert_eq!(r.vector_of(1, 3), vec![0.0, 0.0, 9.0]);
        assert_eq!(r.vector_of(0, 3), vec![0.0; 3]);
        // Matrix reg 1, elem (2, 1), stock 0.
        r.m[(d * d + 2 * d + 1) * k] = 4.0;
        assert_eq!(r.matrix_of(1, 0)[2 * d + 1], 4.0);
        assert_eq!(r.matrix_of(0, 0), vec![0.0; d * d]);
    }

    #[test]
    fn register_file_reset_zeroes_all_planes() {
        let mut r = RegisterFile::new(3, 2, 1, 4, 6);
        r.s_plane_mut(1).fill(1.0);
        r.v[7] = 2.0;
        r.m[11] = 3.0;
        r.reset();
        assert!(r
            .s
            .iter()
            .chain(r.v.iter())
            .chain(r.m.iter())
            .all(|&x| x == 0.0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = MemoryBank::new(2, 2, 1, 3);
        b.s[1] = 1.0;
        b.vec_mut(0)[2] = 2.0;
        b.mat_mut(0)[8] = 3.0;
        b.reset();
        assert!(b
            .s
            .iter()
            .chain(b.v.iter())
            .chain(b.m.iter())
            .all(|&x| x == 0.0));
    }
}
