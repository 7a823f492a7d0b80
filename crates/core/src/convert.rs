//! Format conversion: CSR → ME-TCF, parallelized across row windows, with
//! the overhead accounting of §6.
//!
//! The paper accelerates conversion with GPU kernels (101× / 72× faster
//! than TC-GNN's CPU converter); here the analogous parallelism comes from
//! scoped threads over independent row windows, and
//! [`simulated_gpu_conversion_ms`] models what the GPU kernels would cost
//! so that the §6 overhead ratios can be reproduced.

use crate::error::DtcError;
use dtc_formats::{CsrMatrix, MeTcfMatrix, WINDOW_HEIGHT};
use std::time::{Duration, Instant};

/// Result of a timed conversion.
#[derive(Debug, Clone)]
pub struct ConversionReport {
    /// The converted matrix.
    pub metcf: MeTcfMatrix,
    /// Wall-clock CPU time of this conversion.
    pub cpu_time: Duration,
    /// Modeled GPU-kernel conversion time on the given device, in ms.
    pub simulated_gpu_ms: f64,
}

/// Converts CSR to ME-TCF, condensing row windows on `threads` workers.
///
/// A thin fallible wrapper over [`MeTcfMatrix::try_from_csr`], the one
/// conversion path: each 16-row window is condensed independently, then
/// the windows are packed in order with every offset checked. The result
/// is identical for every thread count.
///
/// # Example
///
/// ```
/// use dtc_core::convert::convert_to_metcf_parallel;
/// use dtc_formats::{gen, MeTcfMatrix};
///
/// let a = gen::uniform(512, 512, 4096, 9);
/// let parallel = convert_to_metcf_parallel(&a, 4).unwrap();
/// assert_eq!(parallel, MeTcfMatrix::from_csr(&a)); // identical result
/// ```
///
/// # Errors
///
/// Returns [`DtcError::Format`]
/// ([`IndexOverflow`](dtc_formats::FormatError::IndexOverflow)) when the
/// matrix's non-zero or TC-block count exceeds ME-TCF's `u32` offset range.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn convert_to_metcf_parallel(a: &CsrMatrix, threads: usize) -> Result<MeTcfMatrix, DtcError> {
    assert!(threads > 0, "need at least one thread");
    Ok(MeTcfMatrix::try_from_csr(a, threads)?)
}

/// Timed parallel conversion with the §6 overhead model attached.
///
/// # Errors
///
/// Propagates [`convert_to_metcf_parallel`]'s overflow guard.
pub fn convert_with_report(
    a: &CsrMatrix,
    threads: usize,
    device: &dtc_sim::Device,
) -> Result<ConversionReport, DtcError> {
    let start = Instant::now();
    let metcf = convert_to_metcf_parallel(a, threads)?;
    let cpu_time = start.elapsed();
    Ok(ConversionReport {
        simulated_gpu_ms: simulated_gpu_conversion_ms(a, device),
        cpu_time,
        metcf,
    })
}

/// Models the GPU-accelerated conversion kernels of §6.
///
/// Conversion segment-sorts and deduplicates each window's column indices
/// (multiple passes over the edge list with atomics), builds the
/// compressed column mapping, and packs four arrays — ~5200 warp-ALU
/// operations per non-zero plus a per-window constant, spread over all
/// SMs. Calibrated so the conversion/SpMM ratios land near the paper's §6
/// numbers (1.48x of one SpMM on YeastH, 14.5x on protein).
pub fn simulated_gpu_conversion_ms(a: &CsrMatrix, device: &dtc_sim::Device) -> f64 {
    simulated_gpu_conversion_ms_for(a.rows(), a.nnz(), device)
}

/// Shape-only variant of [`simulated_gpu_conversion_ms`] for callers that
/// no longer hold the CSR matrix.
pub fn simulated_gpu_conversion_ms_for(rows: usize, nnz: usize, device: &dtc_sim::Device) -> f64 {
    let windows = rows.div_ceil(WINDOW_HEIGHT) as f64;
    let warp_ops = nnz as f64 * 5200.0 / 32.0 + windows * 1200.0;
    let cycles = warp_ops / (device.alu_ops_per_cycle * device.num_sms as f64);
    // Plus re-reading the edge list per pass and writing the arrays out.
    let bytes = nnz as f64 * 220.0;
    let mem_cycles = bytes / device.dram_bytes_per_cycle();
    (cycles + mem_cycles) / (device.sm_clock_ghz * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{power_law, uniform};

    #[test]
    fn parallel_matches_sequential() {
        let a = power_law(500, 500, 8.0, 2.1, 91);
        let seq = MeTcfMatrix::from_csr(&a);
        for threads in [2, 3, 7] {
            let par = convert_to_metcf_parallel(&a, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_handles_row_counts_not_divisible_by_window() {
        let a = uniform(497, 300, 3000, 92);
        let seq = MeTcfMatrix::from_csr(&a);
        let par = convert_to_metcf_parallel(&a, 4).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn report_contains_positive_times() {
        let a = uniform(200, 200, 1500, 93);
        let r = convert_with_report(&a, 2, &dtc_sim::Device::rtx4090()).unwrap();
        assert!(r.simulated_gpu_ms > 0.0);
        assert_eq!(r.metcf.nnz(), a.nnz());
    }

    #[test]
    fn gpu_model_scales_with_nnz() {
        let d = dtc_sim::Device::rtx4090();
        let small = simulated_gpu_conversion_ms(&uniform(100, 100, 500, 94), &d);
        let large = simulated_gpu_conversion_ms(&uniform(100, 100, 5000, 94), &d);
        assert!(large > small * 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = convert_to_metcf_parallel(&uniform(10, 10, 10, 95), 0);
    }
}
