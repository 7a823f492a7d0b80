//! The lint battery's two-sided contract, tested end to end:
//!
//! 1. **Soundness of the lowering sites** — every trace any kernel lowers,
//!    over arbitrary generated matrices, passes every lint with no
//!    error-severity diagnostic (property test).
//! 2. **Sensitivity of the lints** — a trace mutated to violate one
//!    invariant (overflowed shared memory, non-canonical sector runs,
//!    zeroed HMMA work, zero occupancy, non-finite counts) is caught by
//!    exactly the lint that owns that invariant.

use dtc_spmm::baselines::util::distinct_col_count;
use dtc_spmm::baselines::*;
use dtc_spmm::core::{BalancedDtcKernel, DtcKernel};
use dtc_spmm::formats::gen::{power_law, uniform, web};
use dtc_spmm::formats::CsrMatrix;
use dtc_spmm::sim::occupancy::KernelResources;
use dtc_spmm::sim::{Device, KernelTrace, SectorRun, SectorStream, TbWork};
use dtc_spmm::verify::{verify_trace, LintId, ProblemSpec, Severity, TraceCase};
use proptest::prelude::*;

/// Every kernel constructible on `a`, with its SDB (cp.async) flag.
fn lineup(a: &CsrMatrix) -> Vec<(Box<dyn SpmmKernel>, bool)> {
    let mut out: Vec<(Box<dyn SpmmKernel>, bool)> = vec![
        (Box::new(CusparseSpmm::new(a)), false),
        (Box::new(SparseTirSpmm::new(a)), false),
        (Box::new(HpSpmm::new(a)), false),
        (Box::new(HybridSplitSpmm::new(a)), true),
        (Box::new(DtcKernel::new(a)), true),
        (Box::new(BalancedDtcKernel::new(a)), true),
    ];
    if let Ok(k) = TcgnnSpmm::new(a) {
        out.push((Box::new(k), false));
    }
    if let Ok(k) = SputnikSpmm::new(a) {
        out.push((Box::new(k), false));
    }
    if let Ok(k) = BlockSpmm::new(a, 32, u64::MAX) {
        out.push((Box::new(k), true));
    }
    if let Ok(k) = VectorSparseSpmm::new(a, 8) {
        out.push((Box::new(k), true));
    }
    if let Ok(k) = FlashLlmSpmm::new(a, u64::MAX) {
        out.push((Box::new(k), true));
    }
    if let Ok(k) = SpartaSpmm::new(a, SPARTA_DEFAULT_LIMIT) {
        out.push((Box::new(k), true));
    }
    out
}

/// Lints every kernel's trace on `a`; panics on any error-severity
/// diagnostic.
fn assert_all_kernels_clean(a: &CsrMatrix, n: usize) {
    let device = Device::rtx4090();
    let b_rows_touched = distinct_col_count(a);
    for (kernel, sdb) in lineup(a) {
        let trace = kernel.trace(n, &device, true);
        let problem =
            ProblemSpec { rows: a.rows(), cols: a.cols(), nnz: a.nnz(), n, b_rows_touched };
        let case =
            TraceCase::new(kernel.name(), &device, &trace).with_problem(problem).with_sdb(sdb);
        let errors: Vec<_> =
            verify_trace(&case).into_iter().filter(|d| d.severity == Severity::Error).collect();
        assert!(
            errors.is_empty(),
            "{} on {}x{} nnz={}: {errors:?}",
            kernel.name(),
            a.rows(),
            a.cols(),
            a.nnz()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lowered_traces_pass_every_lint(
        rows in 24usize..160,
        avg in 2usize..12,
        n in 1usize..3, // N in {32, 64}
        seed in 0u64..1000,
    ) {
        let a = power_law(rows, rows, avg as f64, 2.2, seed);
        assert_all_kernels_clean(&a, n * 32);
    }

    #[test]
    fn lowered_traces_pass_on_uniform_and_web(
        rows in 24usize..120,
        nnz_per_row in 2usize..10,
        seed in 0u64..1000,
    ) {
        let a = uniform(rows, rows, rows * nnz_per_row, seed);
        assert_all_kernels_clean(&a, 32);
        let a = web(rows, rows, nnz_per_row as f64, 2.1, 0.7, seed);
        assert_all_kernels_clean(&a, 64);
    }
}

// ---- Mutation tests: each injected violation fires its owning lint. ----

fn has_error(trace: &KernelTrace, lint: LintId) -> bool {
    let device = Device::rtx4090();
    verify_trace(&TraceCase::new("mutant", &device, trace))
        .iter()
        .any(|d| d.lint == lint && d.severity == Severity::Error)
}

/// A legal DTC-shaped trace to mutate.
fn healthy_trace() -> KernelTrace {
    let a = power_law(96, 96, 6.0, 2.2, 7);
    std::sync::Arc::unwrap_or_clone(DtcKernel::new(&a).trace(64, &Device::rtx4090(), true))
}

#[test]
fn mutation_overflowed_smem_is_caught() {
    let mut trace = healthy_trace();
    trace.set_resources(KernelResources {
        warps_per_block: 8,
        registers_per_thread: 40,
        shared_memory_per_block: 64 * 1024, // 6 x 64K >> Ada's 100K budget
    });
    assert!(has_error(&trace, LintId::SmemCapacity));
    // The declared occupancy 6 also no longer matches eq. 6 (now 1).
    assert!(has_error(&trace, LintId::OccupancyEq6));
}

#[test]
fn mutation_illegal_warp_slots_is_caught() {
    let mut trace = healthy_trace();
    trace.occupancy = 8; // 8 blocks x 8 warps = 64 > 48 slots
    assert!(has_error(&trace, LintId::WarpSlots));
}

#[test]
fn mutation_unsorted_sector_runs_are_caught() {
    let mut trace = healthy_trace();
    let bad = SectorStream::from_runs(vec![
        SectorRun { start: 512, len: 4 },
        SectorRun { start: 0, len: 0 }, // empty run: non-canonical
    ]);
    trace.push(TbWork { hmma_ops: 1.0, hmma_count: 2.0, b_stream: bad, ..TbWork::default() });
    assert!(has_error(&trace, LintId::StreamNonCanonical));
}

#[test]
fn mutation_zeroed_hmma_is_caught() {
    let a = power_law(96, 96, 6.0, 2.2, 7);
    let device = Device::rtx4090();
    let trace = DtcKernel::new(&a).trace(64, &device, false);
    // Rebuild the trace with all Tensor-Core work stripped: the same
    // problem can no longer have been computed.
    let mut zeroed = KernelTrace::new(trace.occupancy, trace.warps_per_tb);
    for i in 0..trace.num_tbs() {
        let mut tb = trace.tb(i).clone();
        tb.hmma_ops = 0.0;
        tb.hmma_count = 0.0;
        tb.fp_ops = 0.0;
        zeroed.push(tb);
    }
    let problem = ProblemSpec {
        rows: a.rows(),
        cols: a.cols(),
        nnz: a.nnz(),
        n: 64,
        b_rows_touched: distinct_col_count(&a),
    };
    let diags = verify_trace(&TraceCase::new("mutant", &device, &zeroed).with_problem(problem));
    assert!(diags.iter().any(|d| d.lint == LintId::MacsInsufficient), "{diags:?}");
}

#[test]
fn mutation_zero_occupancy_is_caught() {
    let mut trace = healthy_trace();
    trace.occupancy = 0;
    assert!(has_error(&trace, LintId::OccupancyZero));
}

#[test]
fn mutation_nonfinite_count_is_caught() {
    let mut trace = healthy_trace();
    trace.push(TbWork { alu_ops: f64::NAN, ..TbWork::default() });
    assert!(has_error(&trace, LintId::NonfiniteCount));
}

#[test]
fn mutation_cp_async_without_sdb_is_caught() {
    let device = Device::rtx4090();
    let trace = healthy_trace(); // DTC default opts: SDB on, overlap set
    let diags = verify_trace(&TraceCase::new("mutant", &device, &trace).with_sdb(false));
    assert!(diags.iter().any(|d| d.lint == LintId::CpAsyncGating), "{diags:?}");
}
