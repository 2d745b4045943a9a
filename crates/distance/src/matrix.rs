//! Pairwise distance matrices for the mining algorithms.
//!
//! Computing the matrix is the O(n²) heart of the outsourced-mining
//! pipeline, so the engine here is built for scale:
//!
//! * **Packed storage.** A [`DistanceMatrix`] is symmetric with a zero
//!   diagonal, so only the strict upper triangle is materialized —
//!   `n(n−1)/2` cells instead of `n²`, halving memory. Cell `(i, j)` with
//!   `i < j` lives at `j(j−1)/2 + i`: all distances from item `j` to the
//!   items before it form one contiguous *row slice*, which is what makes
//!   both incremental growth and range-parallelism cheap.
//! * **One row walk.** Every constructor fills cells through the same
//!   private walk over packed rows, in storage order: sequential growth
//!   walks the new rows, and each parallel worker walks its own range.
//! * **Incremental growth.** Appending item `n` appends exactly `n` cells
//!   at the end of the packed buffer — no re-indexing of existing cells.
//!   [`DistanceMatrix::extend`] grows a matrix by `m` queries with exactly
//!   `m·n + m(m−1)/2` distance calls, so streaming workloads never
//!   recompute old pairs: [`DistanceMatrix::extension`] computes the new
//!   cells under `&self`, then the infallible [`DistanceMatrix::append`]
//!   adds them, so a failed extend changes nothing.
//! * **Range parallelism.** [`DistanceMatrix::compute_parallel`] deals
//!   contiguous row ranges (balanced by cell count, since row `j` costs `j`
//!   calls) to std scoped threads; each worker writes directly into its
//!   disjoint slice of the packed buffer — no per-row scratch allocations —
//!   and a shared [`AtomicBool`] stops all workers as soon as one records
//!   an error. Workers share one `Sync` measure, so the result-distance
//!   measure parallelizes through one
//!   [`crate::result_distance::ResultConnection`] whose memo every worker
//!   reads and fills.
//!
//! Both paths produce bit-identical matrices — every cell is the value of
//! the same single `measure.distance(&queries[i], &queries[j])` call with
//! `i < j`, just made on a different thread — and the `matrix_packed` /
//! `matrix_parallel` benches quantify the memory and wall-clock wins.

use crate::measure::{DistanceError, QueryDistance};
use dpe_sql::Query;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

/// A symmetric n×n distance matrix with zero diagonal, stored as the
/// strict upper triangle packed into `n(n−1)/2` cells.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Packed triangle: cell `(i, j)` with `i < j` at `j(j−1)/2 + i`.
    data: Vec<f64>,
}

/// Number of packed cells for `n` items.
#[inline]
fn packed_cells(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// The one packed row walk: writes rows `rows` (row `t` is the `t` cells
/// `cell(0, t), …, cell(t − 1, t)`) into `out` in storage order. Stops at
/// the next cell once `stop` is raised, and raises it on the first error,
/// which it returns.
fn fill_rows<E>(
    out: &mut [f64],
    rows: Range<usize>,
    stop: &AtomicBool,
    mut cell: impl FnMut(usize, usize) -> Result<f64, E>,
) -> Result<(), E> {
    let mut slots = out.iter_mut();
    for t in rows {
        for i in 0..t {
            if stop.load(AtomicOrdering::Relaxed) {
                return Ok(());
            }
            match cell(i, t) {
                Ok(d) => *slots.next().expect("out sized to its rows") = d,
                Err(e) => {
                    stop.store(true, AtomicOrdering::Relaxed);
                    return Err(e);
                }
            }
        }
    }
    Ok(())
}

impl DistanceMatrix {
    /// The empty matrix (grow it with [`DistanceMatrix::extend`]).
    pub fn new() -> DistanceMatrix {
        DistanceMatrix {
            n: 0,
            data: Vec::new(),
        }
    }

    /// Computes all pairwise distances of `queries` under `measure`.
    pub fn compute<M: QueryDistance>(
        queries: &[Query],
        measure: &M,
    ) -> Result<DistanceMatrix, DistanceError> {
        let mut m = DistanceMatrix::new();
        m.extend(&[], queries, measure)?;
        Ok(m)
    }

    /// Appends `new` queries to a matrix currently covering `existing`,
    /// computing **only the new pairs**: exactly `m·n + m(m−1)/2` distance
    /// calls for `m` new queries on top of `n` existing ones. Existing
    /// cells are untouched (appending item `t` appends `t` cells at the end
    /// of the packed buffer), so the result is bit-identical to a full
    /// recompute over the concatenated list.
    ///
    /// On error the matrix is left exactly as it was. Panics when
    /// `existing.len()` differs from the matrix size.
    pub fn extend<M: QueryDistance>(
        &mut self,
        existing: &[Query],
        new: &[Query],
        measure: &M,
    ) -> Result<(), DistanceError> {
        let cells = self.extension(existing, new, measure)?;
        self.append(new.len(), cells);
        Ok(())
    }

    /// The packed cells [`DistanceMatrix::extend`] appends for `new`, in
    /// storage order, without changing the matrix (same calls and panics).
    pub fn extension<M: QueryDistance>(
        &self,
        existing: &[Query],
        new: &[Query],
        measure: &M,
    ) -> Result<Vec<f64>, DistanceError> {
        assert_eq!(
            existing.len(),
            self.n,
            "extend: matrix covers {} queries but {} were passed as existing",
            self.n,
            existing.len()
        );
        let n = self.n;
        let item = |k: usize| if k < n { &existing[k] } else { &new[k - n] };
        self.rows(new.len(), |i, t| measure.distance(item(i), item(t)))
    }

    /// The cells of the `m` rows after the current ones, via [`fill_rows`].
    fn rows<E>(
        &self,
        m: usize,
        cell: impl FnMut(usize, usize) -> Result<f64, E>,
    ) -> Result<Vec<f64>, E> {
        let n = self.n;
        let mut cells = vec![0.0; packed_cells(n + m) - packed_cells(n)];
        fill_rows(&mut cells, n..n + m, &AtomicBool::new(false), cell)?;
        Ok(cells)
    }

    /// Appends `m` items whose rows [`DistanceMatrix::extension`] computed
    /// as `cells`; a matrix holding no cells yet takes the buffer over.
    pub fn append(&mut self, m: usize, cells: Vec<f64>) {
        let rows = packed_cells(self.n + m) - packed_cells(self.n);
        assert_eq!(cells.len(), rows, "append: cells do not fill {m} rows");
        if self.data.is_empty() {
            self.data = cells;
        } else {
            self.data.reserve_exact(cells.len());
            self.data.extend_from_slice(&cells);
        }
        self.n += m;
    }

    /// Computes all pairwise distances in parallel over `threads` workers.
    ///
    /// The packed rows `1..n` (row `j` = the `j` cells `(0..j, j)`, one
    /// contiguous slice) are dealt out as contiguous ranges balanced by
    /// cell count; each worker walks its range straight into its disjoint
    /// slice of the packed buffer, so the parallel path allocates **no**
    /// scratch beyond the result itself. A shared flag makes every worker
    /// stop at the next cell once any worker has recorded an error, and the
    /// first (lowest-range) error is reported.
    ///
    /// The result is bit-identical to [`DistanceMatrix::compute`]: every
    /// cell is produced by the same single `distance` call, just on a
    /// different thread. All workers share `measure`; the result measure
    /// takes part through a [`crate::result_distance::ResultConnection`],
    /// whose memo is `Sync`.
    pub fn compute_parallel<M: QueryDistance + Sync>(
        queries: &[Query],
        measure: &M,
        threads: usize,
    ) -> Result<DistanceMatrix, DistanceError> {
        let n = queries.len();
        let cells = packed_cells(n);
        if cells == 0 {
            return Ok(DistanceMatrix {
                n,
                data: Vec::new(),
            });
        }
        let threads = threads.clamp(1, n - 1);
        let mut data = vec![0.0f64; cells];
        let stop = AtomicBool::new(false);
        let mut outcomes: Vec<Result<(), DistanceError>> = vec![Ok(()); threads];

        std::thread::scope(|scope| {
            let stop = &stop;
            let mut rest: &mut [f64] = &mut data;
            let mut row = 1usize;
            let mut offset = 0usize;
            for (w, outcome) in outcomes.iter_mut().enumerate() {
                // Grow the range row by row until it covers this worker's
                // share of the cells (row j costs j calls, so equal cell
                // counts balance the triangle).
                let target = (w + 1) * cells / threads;
                let (mut end_row, mut end_offset) = (row, offset);
                while end_row < n && end_offset < target {
                    end_offset += end_row;
                    end_row += 1;
                }
                if w == threads - 1 {
                    (end_row, end_offset) = (n, cells);
                }
                let (chunk, tail) = rest.split_at_mut(end_offset - offset);
                rest = tail;
                let rows = row..end_row;
                (row, offset) = (end_row, end_offset);
                scope.spawn(move || {
                    *outcome = fill_rows(chunk, rows, stop, |i, t| {
                        measure.distance(&queries[i], &queries[t])
                    });
                });
            }
        });

        // The first error in range order wins.
        outcomes.into_iter().collect::<Result<(), _>>()?;
        Ok(DistanceMatrix { n, data })
    }

    /// Builds a matrix from a symmetric closure over indices (for tests and
    /// synthetic mining inputs). `f` is called once per pair with `i < j`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> DistanceMatrix {
        let mut m = DistanceMatrix::new();
        m.extend_with(n, &mut f);
        m
    }

    /// Appends `m` items whose distances come from a closure over global
    /// indices (`f(i, t)` with `i < t`, `t` being the new item's index) —
    /// the infallible, measure-free analogue of [`DistanceMatrix::extend`]
    /// for streaming non-SQL workloads (e.g. graph corpora).
    pub fn extend_with(&mut self, m: usize, mut f: impl FnMut(usize, usize) -> f64) {
        let Ok(cells) = self.rows::<Infallible>(m, |i, t| Ok(f(i, t)));
        self.append(m, cells);
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the empty matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored cells — always exactly `n(n−1)/2`.
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// Distance between items `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(
            i < self.n && j < self.n,
            "({i}, {j}) out of bounds (n={})",
            self.n
        );
        match i.cmp(&j) {
            Ordering::Equal => 0.0,
            Ordering::Less => self.data[j * (j - 1) / 2 + i],
            Ordering::Greater => self.data[i * (i - 1) / 2 + j],
        }
    }

    /// The packed strict-upper-triangle cells in storage order — cell
    /// `(i, j)` with `i < j` at `j(j−1)/2 + i`. This is the exact byte
    /// content a snapshot must carry for a restored matrix to stay
    /// bit-identical; round-trip with [`DistanceMatrix::from_packed`].
    pub fn as_packed(&self) -> &[f64] {
        &self.data
    }

    /// Rebuilds a matrix from `n` and its packed cells (the inverse of
    /// [`DistanceMatrix::as_packed`]). Returns `None` when `cells.len()`
    /// is not exactly `n(n−1)/2`, so a truncated snapshot can never
    /// produce a structurally inconsistent matrix.
    pub fn from_packed(n: usize, cells: Vec<f64>) -> Option<DistanceMatrix> {
        (cells.len() == packed_cells(n)).then_some(DistanceMatrix { n, data: cells })
    }

    /// `true` iff the two matrices are bit-identical — the strongest form of
    /// the DPE check.
    pub fn identical(&self, other: &DistanceMatrix) -> bool {
        self.n == other.n
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Largest absolute difference to another matrix (diagnostics for the
    /// negative controls).
    pub fn max_abs_diff(&self, other: &DistanceMatrix) -> f64 {
        assert_eq!(self.n, other.n, "matrices must have equal size");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Default for DistanceMatrix {
    fn default() -> Self {
        DistanceMatrix::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token_distance::TokenDistance;
    use dpe_sql::parse_query;
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;

    fn queries(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                parse_query(&format!(
                    "SELECT ra, a{} FROM t{} WHERE objid = {}",
                    i % 4,
                    i % 3,
                    i * 7
                ))
                .unwrap()
            })
            .collect()
    }

    /// Counts `distance` calls; single-threaded use only.
    struct Counting(Cell<usize>);
    impl QueryDistance for Counting {
        fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError> {
            self.0.set(self.0.get() + 1);
            TokenDistance.distance(a, b)
        }
        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn symmetric_zero_diagonal() {
        let queries: Vec<_> = [
            "SELECT ra FROM t",
            "SELECT dec FROM t",
            "SELECT ra FROM u WHERE ra > 5",
        ]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
        let m = DistanceMatrix::compute(&queries, &TokenDistance).unwrap();
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn storage_is_packed_to_the_triangle() {
        for n in [0usize, 1, 2, 5, 33] {
            let m = DistanceMatrix::from_fn(n, |i, j| (i + j) as f64);
            assert_eq!(m.packed_len(), n * n.saturating_sub(1) / 2, "n = {n}");
        }
        let m = DistanceMatrix::compute(&queries(20), &TokenDistance).unwrap();
        assert_eq!(m.packed_len(), 20 * 19 / 2);
    }

    #[test]
    fn identical_and_diff() {
        let a = DistanceMatrix::from_fn(3, |i, j| (i + j) as f64 / 10.0);
        let b = a.clone();
        assert!(a.identical(&b));
        let c = DistanceMatrix::from_fn(3, |i, j| (i + j) as f64 / 10.0 + 0.001);
        assert!(!a.identical(&c));
        assert!((a.max_abs_diff(&c) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let m = DistanceMatrix::from_fn(0, |_, _| 0.0);
        assert!(m.is_empty());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let queries = queries(25);
        let seq = DistanceMatrix::compute(&queries, &TokenDistance).unwrap();
        for threads in [1, 2, 4, 7, 64] {
            let par = DistanceMatrix::compute_parallel(&queries, &TokenDistance, threads).unwrap();
            assert!(seq.identical(&par), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_propagates_errors() {
        struct Failing;
        impl QueryDistance for Failing {
            fn distance(&self, _: &Query, _: &Query) -> Result<f64, DistanceError> {
                Err(DistanceError::MissingDomain("boom".into()))
            }
            fn name(&self) -> &'static str {
                "failing"
            }
        }
        let queries = queries(6);
        let err = DistanceMatrix::compute_parallel(&queries, &Failing, 3).unwrap_err();
        assert!(matches!(err, DistanceError::MissingDomain(_)));
    }

    #[test]
    fn parallel_stops_early_after_first_error() {
        /// Fails on the very first pair (0, 1); every other call sleeps a
        /// little so the stop flag always wins the race by a wide margin.
        struct FailFirst {
            first: String,
            second: String,
            calls: AtomicUsize,
        }
        impl QueryDistance for FailFirst {
            fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError> {
                self.calls.fetch_add(1, AtomicOrdering::Relaxed);
                if a.to_string() == self.first && b.to_string() == self.second {
                    return Err(DistanceError::MissingDomain("first pair".into()));
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok(0.5)
            }
            fn name(&self) -> &'static str {
                "fail-first"
            }
        }

        let queries = queries(40);
        let total_pairs = 40 * 39 / 2;
        let measure = FailFirst {
            first: queries[0].to_string(),
            second: queries[1].to_string(),
            calls: AtomicUsize::new(0),
        };
        let err = DistanceMatrix::compute_parallel(&queries, &measure, 4).unwrap_err();
        assert!(matches!(err, DistanceError::MissingDomain(_)));
        let calls = measure.calls.load(AtomicOrdering::Relaxed);
        // Pair (0, 1) is the first cell of the first worker's range, so the
        // flag is raised almost immediately; the other workers abandon
        // their ranges at the next cell instead of finishing all 780 pairs.
        assert!(
            calls < 100,
            "expected an early exit, measured {calls}/{total_pairs} calls"
        );
    }

    #[test]
    fn parallel_handles_degenerate_sizes() {
        let one = vec![parse_query("SELECT ra FROM t").unwrap()];
        let m = DistanceMatrix::compute_parallel(&one, &TokenDistance, 8).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0, 0), 0.0);
        let none: Vec<dpe_sql::Query> = Vec::new();
        assert!(DistanceMatrix::compute_parallel(&none, &TokenDistance, 8)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn extend_matches_batch_compute_bitwise() {
        let all = queries(17);
        let full = DistanceMatrix::compute(&all, &TokenDistance).unwrap();
        for split in [0usize, 1, 8, 16, 17] {
            let (head, tail) = all.split_at(split);
            let mut m = DistanceMatrix::compute(head, &TokenDistance).unwrap();
            m.extend(head, tail, &TokenDistance).unwrap();
            assert!(full.identical(&m), "split = {split}");
        }
    }

    #[test]
    fn builder_grows_incrementally_and_matches_batch() {
        let all = queries(13);
        let full = DistanceMatrix::compute(&all, &TokenDistance).unwrap();
        // One query at a time, then the rest as one batch.
        let mut m = DistanceMatrix::new();
        assert!(m.is_empty());
        for t in 0..5 {
            m.extend(&all[..t], &all[t..t + 1], &TokenDistance).unwrap();
            assert_eq!(m.len(), t + 1);
        }
        m.extend(&all[..5], &all[5..], &TokenDistance).unwrap();
        assert_eq!(m.len(), 13);
        assert!(m.identical(&full), "one by one, then a batch");
    }

    #[test]
    fn extend_by_one_costs_n_calls() {
        let all = queries(7);
        let mut m = DistanceMatrix::new();
        let counting = Counting(Cell::new(0));
        for t in 0..all.len() {
            let before = counting.0.get();
            m.extend(&all[..t], &all[t..t + 1], &counting).unwrap();
            assert_eq!(
                counting.0.get() - before,
                t,
                "item #{t} must cost {t} calls"
            );
        }
    }

    #[test]
    fn extension_leaves_the_matrix_and_append_matches_extend() {
        let all = queries(9);
        let before = DistanceMatrix::compute(&all[..6], &TokenDistance).unwrap();
        let mut m = before.clone();
        let counting = Counting(Cell::new(0));
        let cells = m.extension(&all[..6], &all[6..], &counting).unwrap();
        assert_eq!(counting.0.get(), 3 * 6 + 3, "m·n + m(m−1)/2");
        assert!(m.identical(&before), "extension reads, never writes");
        m.append(3, cells);
        assert!(m.identical(&DistanceMatrix::compute(&all, &TokenDistance).unwrap()));
        // An empty matrix takes the buffer over: the cells stay where
        // the extension put them.
        let mut empty = DistanceMatrix::new();
        let cells = empty.extension(&[], &all, &TokenDistance).unwrap();
        let at = cells.as_ptr();
        empty.append(all.len(), cells);
        assert_eq!(empty.as_packed().as_ptr(), at);
    }

    #[test]
    #[should_panic(expected = "append: cells do not fill 1 rows")]
    fn append_rejects_cells_of_the_wrong_rows() {
        let mut m = DistanceMatrix::from_fn(4, |i, j| (i + j) as f64);
        m.append(1, vec![0.5, 0.5]);
    }

    #[test]
    fn extend_computes_exactly_the_new_pairs() {
        let all = queries(12);
        let (head, tail) = all.split_at(8); // n = 8, m = 4
        let mut m = DistanceMatrix::compute(head, &TokenDistance).unwrap();
        let counting = Counting(Cell::new(0));
        m.extend(head, tail, &counting).unwrap();
        assert_eq!(counting.0.get(), 4 * 8 + 4 * 3 / 2, "m·n + m(m−1)/2");
        assert_eq!(m.len(), 12);
    }

    #[test]
    fn extend_rolls_back_on_error() {
        struct FailOn(String);
        impl QueryDistance for FailOn {
            fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError> {
                if a.to_string() == self.0 || b.to_string() == self.0 {
                    return Err(DistanceError::MissingDomain("poison".into()));
                }
                TokenDistance.distance(a, b)
            }
            fn name(&self) -> &'static str {
                "fail-on"
            }
        }
        let all = queries(10);
        let (head, tail) = all.split_at(7);
        let mut m = DistanceMatrix::compute(head, &TokenDistance).unwrap();
        let before = m.clone();
        // Poison the *last* appended query, after earlier new rows were
        // already computed.
        let err = m
            .extend(head, tail, &FailOn(tail[2].to_string()))
            .unwrap_err();
        assert!(matches!(err, DistanceError::MissingDomain(_)));
        assert!(
            m.identical(&before),
            "failed extend must leave the matrix untouched"
        );
        assert_eq!(m.packed_len(), before.packed_len());
    }

    #[test]
    #[should_panic(expected = "extend: matrix covers")]
    fn extend_rejects_mismatched_existing() {
        let all = queries(5);
        let mut m = DistanceMatrix::compute(&all[..3], &TokenDistance).unwrap();
        m.extend(&all[..2], &all[3..], &TokenDistance).unwrap();
    }

    #[test]
    fn extend_with_matches_from_fn() {
        let f = |i: usize, j: usize| ((i * 31 + j * 7) % 13) as f64 / 13.0;
        let full = DistanceMatrix::from_fn(14, f);
        let mut m = DistanceMatrix::from_fn(9, f);
        m.extend_with(5, f);
        assert!(full.identical(&m));
    }

    #[test]
    fn packed_round_trip_is_bit_identical() {
        let m = DistanceMatrix::compute(&queries(11), &TokenDistance).unwrap();
        let cells = m.as_packed().to_vec();
        let back = DistanceMatrix::from_packed(11, cells).unwrap();
        assert!(m.identical(&back));
        // Wrong cell count for the claimed n is rejected, not misindexed.
        assert!(DistanceMatrix::from_packed(11, m.as_packed()[1..].to_vec()).is_none());
        assert!(DistanceMatrix::from_packed(0, Vec::new()).is_some());
    }
}
