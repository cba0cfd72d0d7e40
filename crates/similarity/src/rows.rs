//! Shared-row storage for the heap CSR stores.
//!
//! [`SharedRows`] backs both in-RAM row stores of the workspace, the
//! [`SimilarityMatrix`] and the heap arm of `SimMassIndex`. Each row is
//! its own immutable allocation behind an `Arc`: a column array and a
//! value array, each allocated once at its exact length. The store
//! itself is an n-entry table of row pointers, so `clone` and
//! [`update`](SharedRows::update) share every row they do not
//! recompute and copy only the table. A dirty-row refresh therefore
//! costs O(dirty rows + n pointers), not O(entries), and a generation
//! holds the very same allocation as its predecessor for every clean
//! row.
//!
//! Rows are shared one at a time, never in blocks: the dirty rows of a
//! churn delta scatter over the id space, so a multi-row block would be
//! copied whole for the sake of one dirty member.
//!
//! Every row is produced by one call of the caller's row function, so a
//! row's bytes depend on that function alone: a parallel build, a
//! sequential build and an update that recomputes the row agree bit for
//! bit, for any thread count (DESIGN.md §6d).
//!
//! [`SimilarityMatrix`]: crate::SimilarityMatrix

use rayon::prelude::*;
use socialrec_graph::UserId;
use std::sync::Arc;

/// One row: parallel column and value arrays of equal length.
#[derive(Debug)]
struct Row<C, V> {
    cols: Box<[C]>,
    vals: Box<[V]>,
}

impl<C, V> Row<C, V> {
    fn shared((cols, vals): (Box<[C]>, Box<[V]>)) -> Arc<Row<C, V>> {
        assert_eq!(cols.len(), vals.len(), "a row's columns and values must pair up");
        Arc::new(Row { cols, vals })
    }
}

/// A CSR matrix whose rows are immutable `Arc` allocations, shared
/// between every store derived from it (see the module docs).
#[derive(Clone, Debug)]
pub struct SharedRows<C, V> {
    rows: Vec<Arc<Row<C, V>>>,
    nnz: usize,
}

impl<C: Send + Sync, V: Send + Sync> SharedRows<C, V> {
    /// Compute rows `0..n` in parallel. `row(state, u)` returns row
    /// `u`'s columns and values, each allocated at its exact length;
    /// `init` creates one reusable `state` per worker.
    pub fn build<S, INIT, ROW>(n: usize, init: INIT, row: ROW) -> SharedRows<C, V>
    where
        INIT: Fn() -> S + Sync,
        ROW: Fn(&mut S, UserId) -> (Box<[C]>, Box<[V]>) + Sync,
    {
        let rows = (0..n as u32)
            .into_par_iter()
            .map_init(init, |state, u| Row::shared(row(state, UserId(u))))
            .collect();
        Self::from_table(rows)
    }

    /// A copy of this store with the `dirty` rows recomputed by `row`
    /// (in parallel, as in [`build`](SharedRows::build)) and every other
    /// row shared. Every id in `dirty` must be in range.
    pub fn update<S, INIT, ROW>(&self, dirty: &[UserId], init: INIT, row: ROW) -> SharedRows<C, V>
    where
        INIT: Fn() -> S + Sync,
        ROW: Fn(&mut S, UserId) -> (Box<[C]>, Box<[V]>) + Sync,
    {
        let fresh: Vec<_> =
            dirty.par_iter().map_init(init, |state, &u| Row::shared(row(state, u))).collect();
        let mut rows = self.rows.clone();
        let mut nnz = self.nnz;
        for (&u, new) in dirty.iter().zip(fresh) {
            let slot = &mut rows[u.index()];
            nnz = nnz - slot.cols.len() + new.cols.len();
            *slot = new;
        }
        SharedRows { rows, nnz }
    }

    fn from_table(rows: Vec<Arc<Row<C, V>>>) -> SharedRows<C, V> {
        let nnz = rows.iter().map(|r| r.cols.len()).sum();
        SharedRows { rows, nnz }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total stored entries over all rows.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Row `u` as parallel `(columns, values)` slices.
    #[inline]
    pub fn row(&self, u: UserId) -> (&[C], &[V]) {
        let r = &self.rows[u.index()];
        (&r.cols, &r.vals)
    }
}

/// Sequential assembly from rows in order — the shape of the reference
/// builders that the tests compare the parallel ones against.
impl<C: Send + Sync, V: Send + Sync> FromIterator<(Box<[C]>, Box<[V]>)> for SharedRows<C, V> {
    fn from_iter<I: IntoIterator<Item = (Box<[C]>, Box<[V]>)>>(rows: I) -> SharedRows<C, V> {
        Self::from_table(rows.into_iter().map(Row::shared).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-row: length `u % 5` (some rows empty), values
    /// mixed from the id so a misplaced row shows as a value mismatch.
    fn demo_row(_: &mut (), u: UserId) -> (Box<[u32]>, Box<[f64]>) {
        let h = |k: u32| u64::from(u.0).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k.into());
        let cols = (0..u.0 % 5).map(|k| h(k) as u32).collect();
        let vals = (0..u.0 % 5).map(|k| (h(k) >> 16) as f64 * 1e-3).collect();
        (cols, vals)
    }

    fn same(a: &SharedRows<u32, f64>, b: &SharedRows<u32, f64>) -> bool {
        a.num_rows() == b.num_rows()
            && a.nnz() == b.nnz()
            && (0..a.num_rows() as u32).all(|u| {
                let ((ac, av), (bc, bv)) = (a.row(UserId(u)), b.row(UserId(u)));
                ac == bc && av.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    #[test]
    fn parallel_build_matches_sequential_assembly() {
        let n = 103;
        let par = SharedRows::build(n, || (), demo_row);
        let seq: SharedRows<u32, f64> =
            (0..n as u32).map(|u| demo_row(&mut (), UserId(u))).collect();
        assert!(same(&par, &seq));
        assert_eq!(par.nnz(), (0..n).map(|u| u % 5).sum::<usize>());
        assert_eq!(SharedRows::build(0, || (), demo_row).num_rows(), 0);
    }

    #[test]
    fn update_recomputes_dirty_rows_and_keeps_the_count() {
        let base = SharedRows::build(40, || (), demo_row);
        // A row function that differs from the build's, so the dirty
        // rows visibly change while the clean ones must not.
        let shifted = |s: &mut (), u: UserId| demo_row(s, UserId(u.0 + 1));
        let dirty = [UserId(0), UserId(7), UserId(39)];
        let next = base.update(&dirty, || (), shifted);
        let want: SharedRows<u32, f64> = (0..40u32)
            .map(|u| {
                if dirty.contains(&UserId(u)) {
                    shifted(&mut (), UserId(u))
                } else {
                    demo_row(&mut (), UserId(u))
                }
            })
            .collect();
        assert!(same(&next, &want));
        assert!(same(&base.update(&[], || (), shifted), &base));
    }
}
