use crate::{CsrMatrix, FormatError};

/// Height of a row window / TC block (§2.3: TC blocks are 16×8).
pub const WINDOW_HEIGHT: usize = 16;
/// Width of a TC block.
pub const BLOCK_WIDTH: usize = 8;

/// One non-zero after Sparse Graph Translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CondensedEntry {
    /// Row within the 16-row window (0..16).
    pub local_row: u8,
    /// Compressed column index within the window (position of the original
    /// column in the window's sorted unique-column list).
    pub comp_col: u32,
    /// Original column index in the uncondensed matrix.
    pub orig_col: u32,
    /// The non-zero value.
    pub value: f32,
}

/// One 16-row window of a condensed matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RowWindow {
    /// First (global) row covered by this window.
    pub start_row: usize,
    /// Sorted, deduplicated original column indices appearing in the window.
    /// `unique_cols[j]` is the original column of compressed column `j`.
    pub unique_cols: Vec<u32>,
    /// Entries sorted by `(comp_col / BLOCK_WIDTH, local_row, comp_col)` —
    /// i.e. grouped by TC block.
    pub entries: Vec<CondensedEntry>,
    /// `block_entry_offsets[b]..block_entry_offsets[b+1]` indexes the entries
    /// of TC block `b`. Length `num_blocks + 1`.
    pub block_entry_offsets: Vec<usize>,
}

impl RowWindow {
    /// Number of TC blocks in this window: `ceil(unique_cols / 8)`.
    pub fn num_blocks(&self) -> usize {
        self.unique_cols.len().div_ceil(BLOCK_WIDTH)
    }

    /// Number of non-zeros in this window.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Borrowed view of TC block `b` of this window.
    ///
    /// # Panics
    ///
    /// Panics if `b >= self.num_blocks()`.
    pub fn block(&self, b: usize) -> TcBlock<'_> {
        assert!(b < self.num_blocks(), "block index out of range");
        let col_lo = b * BLOCK_WIDTH;
        let col_hi = ((b + 1) * BLOCK_WIDTH).min(self.unique_cols.len());
        TcBlock {
            block_in_window: b,
            cols: &self.unique_cols[col_lo..col_hi],
            entries: &self.entries[self.block_entry_offsets[b]..self.block_entry_offsets[b + 1]],
        }
    }

    /// Iterator over the TC blocks of this window.
    pub fn blocks(&self) -> impl Iterator<Item = TcBlock<'_>> + '_ {
        (0..self.num_blocks()).map(move |b| self.block(b))
    }
}

/// A borrowed view of one 16×8 TC block.
#[derive(Debug, Clone, Copy)]
pub struct TcBlock<'a> {
    /// Index of this block within its window.
    pub block_in_window: usize,
    /// The original column indices of this block's (up to 8) columns.
    pub cols: &'a [u32],
    /// The non-zero entries falling in this block.
    pub entries: &'a [CondensedEntry],
}

impl TcBlock<'_> {
    /// Density of the block: `nnz / (16 * 8)`.
    pub fn density(&self) -> f64 {
        self.entries.len() as f64 / (WINDOW_HEIGHT * BLOCK_WIDTH) as f64
    }

    /// The 0..127 local id of an entry within this block, as stored by
    /// ME-TCF's `TCLocalId` array: `local_row * 8 + (comp_col % 8)`.
    pub fn local_id(entry: &CondensedEntry) -> u8 {
        entry.local_row * BLOCK_WIDTH as u8 + (entry.comp_col as usize % BLOCK_WIDTH) as u8
    }
}

/// A sparse matrix condensed by Sparse Graph Translation (SGT, §2.3).
///
/// The matrix is split into [`WINDOW_HEIGHT`]-row windows; within each
/// window the non-zeros are compressed "towards the left" by renumbering
/// columns with the window's sorted unique original columns. Groups of
/// [`BLOCK_WIDTH`] compressed columns form the 16×8 *TC blocks* processed
/// by one Tensor Core `mma` sequence.
///
/// # Example
///
/// ```
/// use dtc_formats::{Condensed, CsrMatrix};
///
/// # fn main() -> Result<(), dtc_formats::FormatError> {
/// // Two rows sharing column 100 condense into a single TC block.
/// let a = CsrMatrix::from_triplets(16, 200, &[(0, 100, 1.0), (1, 100, 2.0), (2, 7, 3.0)])?;
/// let c = Condensed::from_csr(&a);
/// assert_eq!(c.num_windows(), 1);
/// assert_eq!(c.num_tc_blocks(), 1);
/// assert_eq!(c.window(0).unique_cols, vec![7, 100]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Condensed {
    rows: usize,
    cols: usize,
    nnz: usize,
    windows: Vec<RowWindow>,
}

impl Condensed {
    /// Condenses a CSR matrix with SGT.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        Self::from_csr_with_threads(a, dtc_par::num_threads())
    }

    /// [`Condensed::from_csr`] on `threads` workers.
    ///
    /// SGT condensing is embarrassingly parallel: each 16-row window reads
    /// only its own rows, and results land in per-window slots, so the
    /// condensed form is identical for any thread count or steal schedule.
    /// Shards are cut at nnz quantiles (a window's cost tracks its
    /// non-zeros) and column dedup stages through the worker's arena.
    pub(crate) fn from_csr_with_threads(a: &CsrMatrix, threads: usize) -> Self {
        let rows = a.rows();
        let row_ptr = a.row_ptr();
        let window_rows = |w: usize| w * WINDOW_HEIGHT..((w + 1) * WINDOW_HEIGHT).min(rows);
        let weights: Vec<u64> = (0..rows.div_ceil(WINDOW_HEIGHT))
            .map(|w| {
                let r = window_rows(w);
                (row_ptr[r.end] - row_ptr[r.start]) as u64
            })
            .collect();
        let plan = dtc_par::ShardPlan::weighted(threads, &weights);
        let windows = dtc_par::par_map_collect_plan(&plan, |w, scratch| {
            let r = window_rows(w);
            let mut col_stage = scratch.u32_buf();
            let window = condense_window(
                r.start,
                &row_ptr[r.start..=r.end],
                a.col_idx(),
                a.values(),
                &mut col_stage,
            );
            scratch.recycle_u32(col_stage);
            window
        });
        Condensed { rows, cols: a.cols(), nnz: a.nnz(), windows }
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of 16-row windows.
    pub fn num_windows(&self) -> usize {
        self.windows.len()
    }

    /// Borrow of window `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn window(&self, w: usize) -> &RowWindow {
        &self.windows[w]
    }

    /// Iterator over all windows.
    pub fn windows(&self) -> impl Iterator<Item = &RowWindow> + '_ {
        self.windows.iter()
    }

    /// Total number of TC blocks (the TC workload unit, Observation 2).
    pub fn num_tc_blocks(&self) -> usize {
        self.windows.iter().map(RowWindow::num_blocks).sum()
    }

    /// `MeanNnzTC`: average non-zeros per TC block (Observation 2). Zero for
    /// an empty matrix.
    pub fn mean_nnz_tc(&self) -> f64 {
        let blocks = self.num_tc_blocks();
        if blocks == 0 {
            0.0
        } else {
            self.nnz as f64 / blocks as f64
        }
    }

    /// Per-window TC block counts — the *blockpartition* array of TCF, and
    /// the workload vector the Selector's makespan model consumes.
    pub fn window_block_counts(&self) -> Vec<usize> {
        self.windows.iter().map(RowWindow::num_blocks).collect()
    }

    /// Reconstructs the original CSR matrix (inverse of SGT).
    ///
    /// # Errors
    ///
    /// Never fails for a `Condensed` built by [`Condensed::from_csr`]; the
    /// `Result` guards hand-constructed values.
    pub fn to_csr(&self) -> Result<CsrMatrix, FormatError> {
        let mut triplets = Vec::with_capacity(self.nnz);
        for w in &self.windows {
            for e in &w.entries {
                triplets.push((w.start_row + e.local_row as usize, e.orig_col as usize, e.value));
            }
        }
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }
}

/// Condenses one 16-row window starting at global row `start_row`: the one
/// SGT step shared by full conversion and delta patching.
///
/// The window is given CSR-shaped: local row `r` holds
/// `col_idx[row_ptr[r]..row_ptr[r + 1]]` (strictly ascending columns) and
/// the matching `values`. `col_stage` is scratch for the column dedup; the
/// output vectors are sized exactly. Condensing is a pure function of the
/// window's entries, so any caller feeding the same entries gets the same
/// window bit for bit.
pub(crate) fn condense_window(
    start_row: usize,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f32],
    col_stage: &mut Vec<u32>,
) -> RowWindow {
    let all = row_ptr[0]..row_ptr[row_ptr.len() - 1];
    col_stage.clear();
    col_stage.extend_from_slice(&col_idx[all.clone()]);
    col_stage.sort_unstable();
    col_stage.dedup();
    let unique_cols = col_stage.to_vec();
    // Build entries with compressed columns.
    let mut entries: Vec<CondensedEntry> = Vec::with_capacity(all.len());
    for (local_row, bounds) in row_ptr.windows(2).enumerate() {
        let row = bounds[0]..bounds[1];
        for (&c, &v) in col_idx[row.clone()].iter().zip(&values[row]) {
            let comp = unique_cols.binary_search(&c).expect("col present") as u32;
            entries.push(CondensedEntry {
                local_row: local_row as u8,
                comp_col: comp,
                orig_col: c,
                value: v,
            });
        }
    }
    // Group by TC block, then by local row within the block.
    entries.sort_unstable_by_key(|e| (e.comp_col as usize / BLOCK_WIDTH, e.local_row, e.comp_col));
    let num_blocks = unique_cols.len().div_ceil(BLOCK_WIDTH);
    let mut block_entry_offsets = vec![0usize; num_blocks + 1];
    for e in &entries {
        block_entry_offsets[e.comp_col as usize / BLOCK_WIDTH + 1] += 1;
    }
    for b in 0..num_blocks {
        block_entry_offsets[b + 1] += block_entry_offsets[b];
    }
    RowWindow { start_row, unique_cols, entries, block_entry_offsets }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(n: usize) -> CsrMatrix {
        let t: Vec<(usize, usize, f32)> = (0..n).map(|i| (i, i, 1.0)).collect();
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn windows_cover_all_rows() {
        let c = Condensed::from_csr(&diag(40));
        assert_eq!(c.num_windows(), 3); // ceil(40/16)
        assert_eq!(c.window(2).start_row, 32);
    }

    #[test]
    fn diagonal_condenses_to_dense_windows() {
        // A 16x16 diagonal window has 16 unique cols => 2 TC blocks.
        let c = Condensed::from_csr(&diag(16));
        assert_eq!(c.num_tc_blocks(), 2);
        assert_eq!(c.window(0).unique_cols.len(), 16);
        assert!((c.mean_nnz_tc() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn shared_columns_condense() {
        // All 16 rows hit the same column: one compressed column, one block,
        // MeanNnzTC = 16.
        let t: Vec<(usize, usize, f32)> = (0..16).map(|r| (r, 999, 1.0)).collect();
        let a = CsrMatrix::from_triplets(16, 1000, &t).unwrap();
        let c = Condensed::from_csr(&a);
        assert_eq!(c.num_tc_blocks(), 1);
        assert_eq!(c.mean_nnz_tc(), 16.0);
    }

    #[test]
    fn roundtrip_to_csr() {
        let a = CsrMatrix::from_triplets(
            35,
            50,
            &[(0, 10, 1.0), (0, 40, 2.0), (15, 10, 3.0), (16, 0, 4.0), (34, 49, 5.0)],
        )
        .unwrap();
        let c = Condensed::from_csr(&a);
        assert_eq!(c.to_csr().unwrap(), a);
    }

    #[test]
    fn block_views_partition_entries() {
        let t: Vec<(usize, usize, f32)> =
            (0..20).map(|i| (i % 16, i * 3, (i + 1) as f32)).collect();
        let a = CsrMatrix::from_triplets(16, 100, &t).unwrap();
        let c = Condensed::from_csr(&a);
        let w = c.window(0);
        let total: usize = w.blocks().map(|b| b.entries.len()).sum();
        assert_eq!(total, w.nnz());
        // Every entry's comp_col falls in its block's column range.
        for (bi, b) in w.blocks().enumerate() {
            for e in b.entries {
                assert_eq!(e.comp_col as usize / BLOCK_WIDTH, bi);
                // orig col is recoverable from the block's column list.
                assert_eq!(b.cols[e.comp_col as usize % BLOCK_WIDTH], e.orig_col);
            }
        }
    }

    #[test]
    fn local_id_fits_in_u8() {
        let t: Vec<(usize, usize, f32)> =
            (0..16).flat_map(|r| (0..8).map(move |c| (r, c, 1.0))).collect();
        let a = CsrMatrix::from_triplets(16, 8, &t).unwrap();
        let c = Condensed::from_csr(&a);
        let w = c.window(0);
        let mut ids: Vec<u8> = w.block(0).entries.iter().map(TcBlock::local_id).collect();
        ids.sort_unstable();
        let expect: Vec<u8> = (0..128).collect();
        assert_eq!(ids, expect); // a full block uses exactly ids 0..=127
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        let c = Condensed::from_csr(&a);
        assert_eq!(c.num_windows(), 0);
        assert_eq!(c.num_tc_blocks(), 0);
        assert_eq!(c.mean_nnz_tc(), 0.0);
    }
}
