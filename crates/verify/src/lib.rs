//! `dtc-verify`: a static analyzer for kernel traces and the device cost
//! model — no simulation required.
//!
//! The paper's performance claims rest on micro-architectural invariants:
//! occupancy bounded by register/shared-memory limits (eq. 6), sector-level
//! memory traffic, Tensor-Core work proportional to the non-zero blocks. A
//! lowering site that silently violates one of them (shared memory over the
//! SM budget, HMMA counts that could not have computed `nnz x N`,
//! sub-compulsory DRAM traffic) corrupts every downstream comparison. This
//! crate makes those invariants machine-checked:
//!
//! - [`verify_trace`] lints a lowered [`KernelTrace`](dtc_sim::KernelTrace)
//!   against structural invariants, the SM resource limits of the target
//!   [`Device`](dtc_sim::Device), conservation laws of the problem
//!   instance, and cost-table coverage;
//! - [`verify_report`] additionally checks a finished
//!   [`SimReport`](dtc_sim::SimReport) against speed-of-light bounds and
//!   counter identities;
//! - [`catalog`] lists every lint with its stable id and severity;
//! - [`LintReport`] aggregates a kernel x dataset sweep into the JSON
//!   artifact the `tracelint` bench bin writes and CI gates on;
//! - the [`sched`] module carries the concurrency-lint families — shard
//!   plans, the execution log, the workspace lock graph and the serving
//!   pool protocol — consumed by the `dtc-sched` model checker and the
//!   `schedcheck` bin.
//!
//! # Example
//!
//! ```
//! use dtc_sim::{Device, KernelTrace, TbWork};
//! use dtc_verify::{verify_trace, Severity, TraceCase};
//!
//! let device = Device::rtx4090();
//! let mut trace = KernelTrace::new(6, 8);
//! trace.push(TbWork { hmma_ops: 4.0, hmma_count: 8.0, ..TbWork::default() });
//! let diags = verify_trace(&TraceCase::new("example", &device, &trace));
//! assert!(diags.iter().all(|d| d.severity < Severity::Error));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case;
mod conservation;
mod coverage;
mod diag;
pub mod docs;
mod report;
mod resources;
pub mod sched;
mod sol;
mod structural;

pub use case::{ProblemSpec, TraceCase};
pub use diag::{catalog, Diagnostic, LintId, LintInfo, Location, Severity};
pub use docs::{all_lints, explain_lint, lints_markdown, LintDoc};
pub use report::{CaseResult, LintReport};
pub use sched::{
    sched_catalog, verify_exec_log, verify_lock_graph, verify_plan, verify_pool_events, LockGraph,
    PoolEvent, SchedCase, SchedDiagnostic, SchedLintId,
};

/// Bumps the process-wide lint telemetry: `verify.lints.run` counts lint
/// passes executed, `verify.lints.violations` counts diagnostics produced.
fn lint_telemetry(passes: usize, violations: usize) {
    dtc_telemetry::metric!(counter, "verify.lints.run").add(passes as u64);
    dtc_telemetry::metric!(counter, "verify.lints.violations").add(violations as u64);
}

/// Statically analyzes one lowered trace: structural invariants, resource
/// legality (eq. 6), conservation laws and cost-table coverage. Returns
/// every diagnostic found; an empty vector means the trace is clean.
///
/// Conservation lints need [`TraceCase::problem`]; the `cp.async` gating
/// lint needs [`TraceCase::sdb_enabled`]. Without them those passes are
/// skipped, never failed.
pub fn verify_trace(case: &TraceCase) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut passes = structural::run(case, &mut diags);
    passes += resources::run(case, &mut diags);
    passes += conservation::run(case, &mut diags);
    passes += coverage::run(case, &mut diags);
    lint_telemetry(passes, diags.len());
    diags
}

/// Checks a finished simulation report against the speed-of-light bounds
/// of the device (Tensor-Core and DRAM) and the counter identities tying
/// the report back to its trace.
pub fn verify_report(case: &TraceCase, report: &dtc_sim::SimReport) -> Vec<Diagnostic> {
    let (passes, diags) = sol::run(case, report);
    lint_telemetry(passes, diags.len());
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_sim::occupancy::KernelResources;
    use dtc_sim::{simulate, Device, KernelTrace, SectorRun, SectorStream, SimOptions, TbWork};

    fn clean_trace() -> KernelTrace {
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources::dtc_spmm());
        for i in 0..32 {
            trace.push(TbWork {
                hmma_ops: 16.0,
                hmma_count: 32.0,
                alu_ops: 8.0,
                lsu_a_sectors: 20.0,
                lsu_b_sectors: 64.0,
                iters: 4.0,
                overlap_a_fetch: true,
                b_stream: ((i * 16)..(i * 16 + 16)).collect(),
                ..TbWork::default()
            });
        }
        trace
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags.iter().filter(|d| d.severity == Severity::Error).collect()
    }

    fn has_lint(diags: &[Diagnostic], lint: LintId) -> bool {
        diags.iter().any(|d| d.lint == lint)
    }

    #[test]
    fn clean_trace_has_no_errors() {
        let device = Device::rtx4090();
        let trace = clean_trace();
        let case = TraceCase::new("test", &device, &trace).with_sdb(true);
        let diags = verify_trace(&case);
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn zero_occupancy_is_a_hard_violation() {
        let device = Device::rtx4090();
        let mut trace = clean_trace();
        trace.occupancy = 0;
        let diags = verify_trace(&TraceCase::new("test", &device, &trace));
        assert!(has_lint(&diags, LintId::OccupancyZero));
        assert!(has_lint(&diags, LintId::OccupancyEq6));
    }

    #[test]
    fn warp_slot_overflow_is_caught() {
        let device = Device::rtx4090();
        // 8 blocks x 8 warps = 64 > 48 Ada warp slots.
        let trace = KernelTrace::new(8, 8);
        let diags = verify_trace(&TraceCase::new("test", &device, &trace));
        assert!(has_lint(&diags, LintId::WarpSlots), "{diags:?}");
    }

    #[test]
    fn smem_overflow_is_caught() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources {
            warps_per_block: 8,
            registers_per_thread: 40,
            shared_memory_per_block: 48 * 1024, // 6 x 48K >> 100K
        });
        let diags = verify_trace(&TraceCase::new("test", &device, &trace));
        assert!(has_lint(&diags, LintId::SmemCapacity), "{diags:?}");
        assert!(has_lint(&diags, LintId::OccupancyEq6));
    }

    #[test]
    fn non_canonical_stream_is_caught() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources::dtc_spmm());
        let bad = SectorStream::from_runs(vec![
            SectorRun { start: 0, len: 4 },
            SectorRun { start: 4, len: 4 }, // mergeable with the previous
            SectorRun { start: 100, len: 0 }, // empty
        ]);
        trace.push(TbWork { hmma_ops: 1.0, b_stream: bad, ..TbWork::default() });
        let diags = verify_trace(&TraceCase::new("test", &device, &trace));
        assert_eq!(
            diags.iter().filter(|d| d.lint == LintId::StreamNonCanonical).count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn missing_resources_is_only_info() {
        let device = Device::rtx4090();
        let trace = KernelTrace::new(6, 8);
        let diags = verify_trace(&TraceCase::new("test", &device, &trace));
        assert!(has_lint(&diags, LintId::ResourcesMissing));
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn conservation_catches_zeroed_hmma() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources::dtc_spmm());
        // Claims to solve a 1000-nnz problem with no compute at all.
        trace.push(TbWork { lsu_a_sectors: 1000.0, lsu_b_sectors: 1000.0, ..TbWork::default() });
        let problem = ProblemSpec { rows: 100, cols: 100, nnz: 1000, n: 64, b_rows_touched: 90 };
        let diags = verify_trace(&TraceCase::new("test", &device, &trace).with_problem(problem));
        assert!(has_lint(&diags, LintId::MacsInsufficient), "{diags:?}");
    }

    #[test]
    fn cp_async_requires_sdb() {
        let device = Device::rtx4090();
        let trace = clean_trace(); // every block claims overlap_a_fetch
        let diags = verify_trace(&TraceCase::new("test", &device, &trace).with_sdb(false));
        assert!(has_lint(&diags, LintId::CpAsyncGating), "{diags:?}");
        let diags = verify_trace(&TraceCase::new("test", &device, &trace).with_sdb(true));
        assert!(!has_lint(&diags, LintId::CpAsyncGating));
    }

    #[test]
    fn broken_cost_table_is_caught() {
        let mut device = Device::rtx4090();
        device.tc_hmma_per_cycle = 0.0;
        let trace = clean_trace();
        let diags = verify_trace(&TraceCase::new("test", &device, &trace));
        assert!(has_lint(&diags, LintId::CostTableCoverage), "{diags:?}");
    }

    #[test]
    fn report_of_clean_simulation_is_clean() {
        let device = Device::rtx4090();
        let trace = clean_trace();
        let report = simulate(&device, &trace, &SimOptions::default());
        let case = TraceCase::new("test", &device, &trace);
        let diags = verify_report(&case, &report);
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn impossible_report_trips_speed_of_light() {
        let device = Device::rtx4090();
        let trace = clean_trace();
        let mut report = simulate(&device, &trace, &SimOptions::default());
        report.cycles = 1e-3; // faster than the TC pipes allow
        let case = TraceCase::new("test", &device, &trace);
        let diags = verify_report(&case, &report);
        assert!(has_lint(&diags, LintId::SolTensorCore), "{diags:?}");
        assert!(has_lint(&diags, LintId::SolDram));
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let device = Device::rtx4090();
        let trace = clean_trace();
        let before = dtc_telemetry::snapshot();
        verify_trace(&TraceCase::new("test", &device, &trace));
        let after = dtc_telemetry::snapshot();
        let runs = |s: &dtc_telemetry::MetricsSnapshot| s.counter("verify.lints.run").unwrap_or(0);
        assert!(runs(&after) > runs(&before));
    }
}
