//! Flat day-major cross-section matrices.
//!
//! Prediction and label panels used to flow through the crates as
//! `Vec<Vec<f64>>` — one heap allocation per day, re-allocated for every
//! candidate alpha. [`CrossSections`] stores the same `n_days × n_stocks`
//! panel in **one contiguous buffer** with per-day row views, so
//!
//! * the evaluation hot path can reuse a single buffer across candidates
//!   (zero per-candidate allocations),
//! * day rows are cache-contiguous for the metric and portfolio kernels,
//! * a per-day **validity mask** lets an evaluator mark a day as "not
//!   computed" (e.g. the sweep aborted on a non-finite prediction) without
//!   copying or truncating — consumers simply skip invalid days.
//!
//! A day marked invalid is excluded from every metric; per-stock non-finite
//! values within a *valid* day are still handled value-wise by the
//! consumers (the portfolio treats those stocks as untradeable, the IC
//! masks them out), exactly as the nested-`Vec` code paths did.

/// A dense `n_days × n_stocks` panel in one contiguous day-major buffer,
/// with a per-day validity mask.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossSections {
    data: Vec<f64>,
    valid: Vec<bool>,
    n_days: usize,
    n_stocks: usize,
}

impl CrossSections {
    /// All-zero panel with every day valid.
    pub fn new(n_days: usize, n_stocks: usize) -> CrossSections {
        CrossSections {
            data: vec![0.0; n_days * n_stocks],
            valid: vec![true; n_days],
            n_days,
            n_stocks,
        }
    }

    /// Builds a panel by evaluating `f(day, stock)` for every cell.
    pub fn from_fn(
        n_days: usize,
        n_stocks: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> CrossSections {
        let mut cs = CrossSections::new(n_days, n_stocks);
        for d in 0..n_days {
            for s in 0..n_stocks {
                cs.data[d * n_stocks + s] = f(d, s);
            }
        }
        cs
    }

    /// Builds a panel from nested per-day rows (all rows must have equal
    /// length). Mostly useful for tests and non-hot-path callers.
    ///
    /// # Panics
    /// If the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> CrossSections {
        let n_days = rows.len();
        let n_stocks = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_days * n_stocks);
        for row in rows {
            assert_eq!(row.len(), n_stocks, "ragged cross-section rows");
            data.extend_from_slice(row);
        }
        CrossSections {
            data,
            valid: vec![true; n_days],
            n_days,
            n_stocks,
        }
    }

    /// Resizes to `n_days × n_stocks`, zeroes the contents, and marks every
    /// day valid — reusing the existing allocations (no heap traffic once
    /// the buffers have grown to their high-water mark).
    pub fn reset(&mut self, n_days: usize, n_stocks: usize) {
        self.data.clear();
        self.data.resize(n_days * n_stocks, 0.0);
        self.valid.clear();
        self.valid.resize(n_days, true);
        self.n_days = n_days;
        self.n_stocks = n_stocks;
    }

    /// Number of days (rows).
    pub fn n_days(&self) -> usize {
        self.n_days
    }

    /// Number of stocks (columns).
    pub fn n_stocks(&self) -> usize {
        self.n_stocks
    }

    /// True when the panel holds no days.
    pub fn is_empty(&self) -> bool {
        self.n_days == 0
    }

    /// One day's cross-section.
    #[inline]
    pub fn row(&self, day: usize) -> &[f64] {
        &self.data[day * self.n_stocks..(day + 1) * self.n_stocks]
    }

    /// Mutable view of one day's cross-section.
    #[inline]
    pub fn row_mut(&mut self, day: usize) -> &mut [f64] {
        &mut self.data[day * self.n_stocks..(day + 1) * self.n_stocks]
    }

    /// Whether `day` holds computed data.
    #[inline]
    pub fn day_valid(&self, day: usize) -> bool {
        self.valid[day]
    }

    /// Marks `day` as not computed; metrics skip it.
    pub fn invalidate_day(&mut self, day: usize) {
        self.valid[day] = false;
    }

    /// Sets one day's validity flag explicitly (the wire decoder restores
    /// masks carried in a predictions frame with this).
    pub fn set_day_validity(&mut self, day: usize, valid: bool) {
        self.valid[day] = valid;
    }

    /// The per-day validity mask, day-major — the export side of the wire
    /// protocol's predictions frame.
    pub fn validity(&self) -> &[bool] {
        &self.valid
    }

    /// Copies rows `src_rows` of `src` (and their validity flags) into
    /// `self` starting at row `first_row`. This is the serving router's
    /// merge primitive: per-shard prediction blocks interleave into one
    /// panel without intermediate allocations.
    ///
    /// # Panics
    /// If the stock counts differ, `src_rows` is out of bounds for `src`,
    /// or the rows do not fit at `first_row`.
    pub fn copy_rows_from(
        &mut self,
        first_row: usize,
        src: &CrossSections,
        src_rows: std::ops::Range<usize>,
    ) {
        assert_eq!(
            self.n_stocks, src.n_stocks,
            "row widths must match to merge blocks"
        );
        assert!(
            src_rows.start <= src_rows.end && src_rows.end <= src.n_days,
            "rows {src_rows:?} out of bounds for a {}-row block",
            src.n_days
        );
        let n = src_rows.len();
        assert!(
            first_row + n <= self.n_days,
            "block of {n} rows does not fit at row {first_row} of {}",
            self.n_days
        );
        let k = self.n_stocks;
        self.data[first_row * k..(first_row + n) * k]
            .copy_from_slice(&src.data[src_rows.start * k..src_rows.end * k]);
        self.valid[first_row..first_row + n].copy_from_slice(&src.valid[src_rows]);
    }

    /// Number of valid days.
    pub fn n_valid_days(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// True when every day is valid.
    pub fn all_days_valid(&self) -> bool {
        self.valid.iter().all(|&v| v)
    }

    /// Iterates `(day, row)` over the valid days.
    pub fn valid_rows(&self) -> impl Iterator<Item = (usize, &[f64])> {
        self.valid
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(d, _)| (d, self.row(d)))
    }

    /// The whole day-major buffer (valid and invalid days alike).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat day-major storage (`n_days × n_stocks`), for writers
    /// that fill whole panels row-block-wise (e.g. the serving layer).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copies the panel back out as nested per-day rows (diagnostics).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.n_days).map(|d| self.row(d).to_vec()).collect()
    }
}

/// Days usable for a pairwise metric over two aligned panels: valid in
/// both. Panics on shape mismatch — the two panels must describe the same
/// days and stocks.
pub(crate) fn joint_valid_days<'a>(
    a: &'a CrossSections,
    b: &'a CrossSections,
) -> impl Iterator<Item = usize> + 'a {
    assert_eq!(a.n_days, b.n_days, "panel day counts must align");
    assert_eq!(a.n_stocks, b.n_stocks, "panel stock counts must align");
    (0..a.n_days).filter(move |&d| a.valid[d] && b.valid[d])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_contiguous_and_disjoint() {
        let mut cs = CrossSections::new(3, 4);
        cs.row_mut(1).fill(7.0);
        assert!(cs.row(0).iter().all(|&x| x == 0.0));
        assert!(cs.row(1).iter().all(|&x| x == 7.0));
        assert!(cs.row(2).iter().all(|&x| x == 0.0));
        assert_eq!(cs.as_slice().len(), 12);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let cs = CrossSections::from_rows(&rows);
        assert_eq!(cs.n_days(), 3);
        assert_eq!(cs.n_stocks(), 2);
        assert_eq!(cs.to_rows(), rows);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        CrossSections::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn from_fn_fills_cells() {
        let cs = CrossSections::from_fn(2, 3, |d, s| (d * 10 + s) as f64);
        assert_eq!(cs.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(cs.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn validity_mask() {
        let mut cs = CrossSections::new(4, 2);
        assert!(cs.all_days_valid());
        cs.invalidate_day(2);
        assert!(!cs.day_valid(2));
        assert_eq!(cs.n_valid_days(), 3);
        let days: Vec<usize> = cs.valid_rows().map(|(d, _)| d).collect();
        assert_eq!(days, vec![0, 1, 3]);
    }

    #[test]
    fn reset_reuses_capacity_and_revalidates() {
        let mut cs = CrossSections::new(5, 6);
        cs.row_mut(4).fill(9.0);
        cs.invalidate_day(3);
        let cap = cs.data.capacity();
        cs.reset(3, 6);
        assert_eq!(cs.n_days(), 3);
        assert!(cs.all_days_valid());
        assert!(cs.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(cs.data.capacity(), cap, "shrinking must not reallocate");
        cs.reset(5, 6);
        assert_eq!(cs.data.capacity(), cap, "regrowing within capacity");
        assert!(cs.row(4).iter().all(|&x| x == 0.0), "stale data cleared");
    }

    #[test]
    fn copy_rows_from_merges_blocks_and_masks() {
        let mut dst = CrossSections::new(5, 3);
        let mut a = CrossSections::from_fn(2, 3, |d, s| (10 * d + s) as f64);
        a.invalidate_day(1);
        let b = CrossSections::from_fn(3, 3, |d, s| (100 * d + s) as f64);
        dst.copy_rows_from(0, &a, 0..2);
        dst.copy_rows_from(2, &b, 0..3);
        assert_eq!(dst.row(0), a.row(0));
        assert_eq!(dst.row(1), a.row(1));
        assert_eq!(dst.row(4), b.row(2));
        assert_eq!(dst.validity(), &[true, false, true, true, true]);
        // A sub-block lands alone: only rows 1..3 of `b` move.
        dst.copy_rows_from(0, &b, 1..3);
        assert_eq!(dst.row(0), b.row(1));
        assert_eq!(dst.row(1), b.row(2));
        assert_eq!(dst.row(2), b.row(0));
        assert_eq!(dst.validity(), &[true, true, true, true, true]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn copy_rows_from_rejects_overflow() {
        let mut dst = CrossSections::new(2, 3);
        let src = CrossSections::new(2, 3);
        dst.copy_rows_from(1, &src, 0..2);
    }

    #[test]
    fn set_day_validity_round_trips() {
        let mut cs = CrossSections::new(3, 1);
        cs.set_day_validity(1, false);
        assert_eq!(cs.validity(), &[true, false, true]);
        cs.set_day_validity(1, true);
        assert!(cs.all_days_valid());
    }

    #[test]
    fn joint_valid_days_intersects_masks() {
        let mut a = CrossSections::new(4, 1);
        let mut b = CrossSections::new(4, 1);
        a.invalidate_day(0);
        b.invalidate_day(3);
        let days: Vec<usize> = joint_valid_days(&a, &b).collect();
        assert_eq!(days, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "day counts")]
    fn joint_valid_days_checks_shape() {
        let a = CrossSections::new(2, 1);
        let b = CrossSections::new(3, 1);
        let _ = joint_valid_days(&a, &b).count();
    }
}
