//! cuSPARSE-style CSR row-split SpMM on CUDA cores — the paper's red-line
//! normalizer (`CUSPARSE_SPMM_ALG_DEFAULT` over `CUSPARSE_FORMAT_CSR`).

use crate::util::{
    check_spmm_dims, distinct_col_count, estimate_b_hit_rate, n_tiles, push_b_tile_sectors, N_TILE,
};
use crate::SpmmKernel;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, SectorStream, TbWork};
use std::sync::Arc;

/// Rows handled by one thread block (row-split).
const ROWS_PER_TB: usize = 16;

/// cuSPARSE-like CSR SpMM.
///
/// Row-split parallelization: each thread block owns a contiguous strip of
/// rows; warps iterate over the strip's non-zeros performing FP32 FMAs on
/// CUDA cores, fetching one full B row per non-zero (no cross-row reuse —
/// the structural weakness TC condensing attacks).
#[derive(Debug, Clone)]
pub struct CusparseSpmm {
    a: CsrMatrix,
    distinct_cols: usize,
}

impl CusparseSpmm {
    /// Prepares the kernel for a sparse matrix (CSR is consumed as-is; the
    /// "format conversion" of cuSPARSE is free).
    pub fn new(a: &CsrMatrix) -> Self {
        CusparseSpmm { distinct_cols: distinct_col_count(a), a: a.clone() }
    }

    /// Borrow of the underlying matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }
}

impl SpmmKernel for CusparseSpmm {
    fn name(&self) -> &str {
        "cuSPARSE-SpMM"
    }

    fn rows(&self) -> usize {
        self.a.rows()
    }

    fn cols(&self) -> usize {
        self.a.cols()
    }

    fn nnz(&self) -> usize {
        self.a.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.a.rows(), self.a.cols(), b)?;
        // Full-FP32 CUDA-core path: the CSR reference *is* this kernel.
        self.a.spmm_reference(b)
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> Arc<KernelTrace> {
        // 8 blocks x 8 warps would claim 64 warp slots against Ada's 48; the
        // register-file-legal occupancy for this launch shape is 6.
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources {
            warps_per_block: 8,
            registers_per_thread: 32,
            shared_memory_per_block: 2048,
        });
        let mut total_b_sectors = 0.0;
        // 2-D grid: row strips × N tiles of 32 columns (cuSPARSE splits the
        // dense dimension across thread blocks too).
        let tiles = n_tiles(n);
        for tile in 0..tiles {
            let w = (n - tile * N_TILE).min(N_TILE) as f64;
            let tile_sectors = (w * 4.0 / 32.0).max(1.0);
            for start in (0..self.a.rows()).step_by(ROWS_PER_TB) {
                let end = (start + ROWS_PER_TB).min(self.a.rows());
                let mut nnz_tb = 0usize;
                let mut max_row = 0usize;
                let mut addrs = SectorStream::new();
                for r in start..end {
                    let len = self.a.row_len(r);
                    nnz_tb += len;
                    max_row = max_row.max(len);
                    if record_b_addrs {
                        for &c in self.a.row_entries(r).0 {
                            push_b_tile_sectors(
                                &mut addrs,
                                c as usize,
                                n,
                                (tile * N_TILE) as u64 / 8,
                                tile_sectors as u64,
                            );
                        }
                    }
                }
                let l = nnz_tb as f64;
                // Unaligned row starts cost extra sectors — exactly the
                // inefficiency Sputnik's reverse-offset alignment removes.
                let lsu_b = l * tile_sectors * 1.25;
                total_b_sectors += lsu_b;
                let tb = TbWork {
                    // One warp-FFMA per 32 output elements per non-zero.
                    fp_ops: l * w / 32.0,
                    // Address arithmetic per FMA strip plus row-pointer math.
                    alu_ops: l * w / 64.0 + l / 8.0 + 2.0,
                    // A data: 8 bytes (value + column) per non-zero,
                    // re-read by every N tile, with unaligned-segment
                    // overhead.
                    lsu_a_sectors: l / 4.0 * 1.5,
                    lsu_b_sectors: lsu_b,
                    epilogue_sectors: (end - start) as f64 * tile_sectors,
                    // The longest row serializes its warp's loop.
                    iters: max_row as f64,
                    b_stream: addrs,
                    ..TbWork::default()
                };
                tb.debug_validate();
                trace.push(tb);
            }
        }
        trace.assumed_l2_hit_rate =
            estimate_b_hit_rate(self.distinct_cols, total_b_sectors, n, device);
        Arc::new(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{long_row, uniform};

    #[test]
    fn matches_reference_exactly() {
        let a = uniform(100, 80, 600, 1);
        let b = DenseMatrix::from_fn(80, 16, |r, c| (r + c) as f32 * 0.1);
        let k = CusparseSpmm::new(&a);
        assert_eq!(k.execute(&b).unwrap(), a.spmm_reference(&b).unwrap());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = uniform(10, 10, 20, 2);
        let k = CusparseSpmm::new(&a);
        assert!(k.execute(&DenseMatrix::zeros(11, 4)).is_err());
    }

    #[test]
    fn trace_covers_all_rows() {
        let a = uniform(100, 100, 500, 3);
        let t = CusparseSpmm::new(&a).trace(128, &Device::rtx4090(), false);
        assert_eq!(t.num_tbs(), 100usize.div_ceil(ROWS_PER_TB) * (128 / N_TILE));
        // No tensor-core work on the CUDA-core path.
        assert_eq!(t.total_hmma_ops(), 0.0);
    }

    #[test]
    fn b_traffic_proportional_to_nnz() {
        let device = Device::rtx4090();
        let small = CusparseSpmm::new(&uniform(64, 64, 256, 4)).trace(128, &device, false);
        let large = CusparseSpmm::new(&uniform(64, 64, 1024, 4)).trace(128, &device, false);
        let s: f64 = small.iter_tbs().map(|t| t.lsu_b_sectors).sum();
        let l: f64 = large.iter_tbs().map(|t| t.lsu_b_sectors).sum();
        assert!(l > s * 3.0);
    }

    #[test]
    fn long_rows_serialize() {
        let a = long_row(32, 512, 200.0, 0.3, 5);
        let t = CusparseSpmm::new(&a).trace(128, &Device::rtx4090(), false);
        assert!(t.iter_tbs().any(|tb| tb.iters > 100.0));
    }

    #[test]
    fn recorded_addresses_match_accounting() {
        let a = uniform(32, 32, 128, 6);
        let t = CusparseSpmm::new(&a).trace(128, &Device::rtx4090(), true);
        for i in 0..t.num_tbs() {
            // Accounted traffic = recorded useful sectors x 1.25 alignment
            // overhead.
            assert!((t.stream(i).len() as f64 * 1.25 - t.tb(i).lsu_b_sectors).abs() < 1e-9);
        }
    }
}
