//! Analytical GPU simulator substrate for the DTC-SpMM reproduction.
//!
//! The paper's performance claims are stated in micro-architectural terms:
//! instruction mixes (`#IMAD/#HMMA`, Table 2), Tensor-Core pipeline
//! utilization (Table 2, Fig 14), per-SM busy/idle timelines under the
//! thread-block scheduling policy of eq. (1) (Fig 3, Fig 15), L2 hit rates
//! (Fig 13c), and memory traffic. This crate models exactly those
//! quantities:
//!
//! - [`Device`] — an SM-array model with per-pipe throughputs and latencies
//!   (presets: [`Device::rtx4090`], [`Device::rtx3090`]);
//! - [`KernelTrace`] / [`TbWork`] — a kernel is lowered to per-thread-block
//!   instruction and memory work, produced by the kernel crates. The trace
//!   interns duplicate work descriptors into duration *classes* and stores
//!   B-access streams run-length-encoded ([`SectorStream`]), so large
//!   launches cost memory and timing work proportional to their structural
//!   variety, not their block count;
//! - [`simulate`] — schedules thread blocks onto SMs with the paper's
//!   policy model, combines per-pipe work into per-TB durations, and
//!   produces a [`SimReport`] with makespan, per-SM timelines, pipeline
//!   utilization and instruction counts;
//! - [`cache::L2Cache`] — a sectored, set-associative LRU model for the
//!   L2 hit-rate experiments, replayed sharded by set index over `dtc-par`.
//!
//! # Example
//!
//! ```
//! use dtc_sim::{simulate, Device, KernelTrace, SimOptions, TbWork};
//!
//! let device = Device::rtx4090();
//! let mut trace = KernelTrace::new(6, 8);
//! trace.push(TbWork { hmma_ops: 100.0, hmma_count: 200.0, ..TbWork::default() });
//! let report = simulate(&device, &trace, &SimOptions::default());
//! assert!(report.time_ms > 0.0);
//! assert!(report.tc_utilization > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod counters;
mod device;
mod exec;
pub mod isa;
mod kernel;
pub mod occupancy;
mod pipeline;
mod report;
pub mod roofline;
mod scheduler;
mod stream;

pub use cache::{l2_counts_over_trace, l2_shard_counts, simulate_l2_over_trace, L2Cache};
pub use counters::{CounterSet, InstructionMix};
pub use device::Device;
pub use exec::tb_duration_event_driven;
pub use kernel::{KernelTrace, TbWork};
pub use pipeline::{
    tb_duration_cycles, tb_duration_cycles_with_occ, tb_pipe_cycles, tb_stall_cycles,
};
pub use report::SimReport;
pub use scheduler::{schedule, sm_for_block, ScheduleOutcome};
pub use stream::{SectorCursor, SectorRun, SectorStream};

/// How per-thread-block durations are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Closed-form pipe model (fast; the default).
    #[default]
    Analytical,
    /// Iteration-by-iteration replay of the kernel main loop
    /// ([`tb_duration_event_driven`]) — slower, finer latency treatment.
    EventDriven,
}

/// Options controlling a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Simulate the L2 cache over the trace's recorded B-access streams.
    /// Costs time proportional to the number of recorded sector accesses;
    /// when off, [`SimReport::l2_hit_rate`] is `None` and DRAM traffic
    /// assumes the trace's `assumed_l2_hit_rate`.
    pub simulate_l2: bool,
    /// Timing-model choice for per-block durations.
    pub timing: TimingMode,
}

/// Per-class timing results, computed once per unique work descriptor.
struct ClassTiming {
    /// Block duration in SM cycles (pipe + stall, or event-driven replay).
    duration: f64,
    /// Dependency-stall cycles (exported as a counter).
    stall: f64,
    /// Tensor-Core busy cycles contributed by one block of this class.
    tc_busy: f64,
}

/// Runs a kernel trace on a device model and returns the performance report.
///
/// This is the single entry point every kernel implementation uses: lower
/// the kernel to a [`KernelTrace`], then call `simulate`.
///
/// Durations and stall cycles are computed once per duration *class* (the
/// trace's interned unique work descriptors) and expanded to launch order
/// by class id, so both timing paths cost O(classes) instead of O(blocks).
/// All floating-point accumulation still walks blocks in launch order with
/// the per-class cached values, keeping every [`SimReport`] field
/// bit-identical to the uncompressed model.
pub fn simulate(device: &Device, trace: &KernelTrace, options: &SimOptions) -> SimReport {
    // Optional L2 simulation over the recorded access streams.
    let l2_hit_rate = if options.simulate_l2 {
        let _span = dtc_telemetry::span("sim.l2");
        Some(cache::simulate_l2_over_trace(device, trace))
    } else {
        None
    };
    let effective_hit = l2_hit_rate.unwrap_or(trace.assumed_l2_hit_rate);

    // Effective occupancy: a launch with fewer blocks than SM slots leaves
    // each resident block a larger share of its SM. The trace's occupancy
    // is legal by construction (asserted positive at `KernelTrace::new`;
    // `dtc-verify` lints a zero as a hard violation) — no silent clamping.
    debug_assert!(trace.occupancy > 0, "trace occupancy must be positive");
    let eff_occ = trace.occupancy.min(trace.num_tbs().div_ceil(device.num_sms.max(1)).max(1));

    // Per-class timing, fanned out over host threads. Each class's timing is
    // a pure function of its own work fields, and results land in their
    // class-indexed slots, so expansion below is deterministic at any
    // thread count. Event-driven replay costs O(iters) per class while the
    // analytical path is O(1), so classes are weighted by their iteration
    // count when cutting shards — one giant class can no longer serialize
    // the timing pass.
    let class_weights: Vec<u64> =
        trace.classes().iter().map(|tb| tb.iters.max(0.0) as u64 + 1).collect();
    let class_timing: Vec<ClassTiming> = dtc_par::par_map_collect_weighted(&class_weights, |c| {
        let tb = &trace.classes()[c];
        let stall =
            pipeline::tb_stall_cycles(device, eff_occ, trace.warps_per_tb, tb, effective_hit);
        let duration = match options.timing {
            // `pipe + stall` is the exact association of the combined
            // analytical formula (pinned by a pipeline test), so computing
            // the stall once serves both the duration and the counter.
            TimingMode::Analytical => {
                pipeline::tb_pipe_cycles(device, eff_occ, trace.warps_per_tb, tb) + stall
            }
            TimingMode::EventDriven => exec::tb_duration_event_driven(
                device,
                eff_occ,
                trace.warps_per_tb,
                tb,
                effective_hit,
            ),
        };
        let tc_busy = tb.hmma_ops / device.tc_hmma_per_cycle;
        ClassTiming { duration, stall, tc_busy }
    });

    // Expand per-class durations to launch order for the scheduler.
    let durations: Vec<f64> =
        trace.class_ids().iter().map(|&c| class_timing[c as usize].duration).collect();

    // Schedule onto SMs.
    let outcome = schedule(device, eff_occ, &durations);

    // Instruction/transaction accounting — kept as first-class counters
    // (Table 2's mixes, Fig 13's sectors) instead of discarded. Blocks are
    // walked in launch order: f64 accumulation order is part of the pinned
    // bit-identical contract, and the per-class cached stall and TC-busy
    // values make each step a lookup.
    let mut tc_busy = 0.0f64;
    let mut instructions = InstructionMix::default();
    let mut b_sectors = 0.0f64;
    let mut other_sectors = 0.0f64;
    let mut stall_cycles = 0.0f64;
    for &c in trace.class_ids() {
        let timing = &class_timing[c as usize];
        let tb = &trace.classes()[c as usize];
        tc_busy += timing.tc_busy;
        instructions.hmma += tb.hmma_count;
        instructions.imad += tb.imad_count;
        instructions.ffma += tb.fp_ops;
        instructions.sts += tb.smem_ops;
        instructions.shfl += tb.shfl_ops;
        instructions.atom += tb.atom_ops;
        if tb.overlap_a_fetch {
            instructions.cp_async_sectors += tb.lsu_a_sectors;
        } else {
            instructions.ldg_sectors += tb.lsu_a_sectors;
        }
        instructions.ldg_sectors += tb.lsu_b_sectors;
        instructions.stg_sectors += tb.epilogue_sectors;
        b_sectors += tb.lsu_b_sectors;
        other_sectors += tb.lsu_a_sectors + tb.epilogue_sectors;
        stall_cycles += timing.stall;
    }
    let imad_count = instructions.imad;
    let hmma_count = instructions.hmma;

    // Pipeline-utilization accounting: a TB keeps the SM's TC pipe busy for
    // hmma_ops / tc_throughput cycles regardless of slot sharing.
    let total_sm_cycles = device.num_sms as f64 * outcome.makespan_cycles.max(1e-9);
    let tc_utilization = (tc_busy / total_sm_cycles).min(1.0);

    // DRAM traffic: all sparse-A and C traffic is streaming (miss), B
    // traffic is filtered by the L2 hit rate.
    let l2_sector_hits = b_sectors * effective_hit;
    let l2_sector_misses = b_sectors * (1.0 - effective_hit) + other_sectors;
    let dram_bytes = l2_sector_misses * device.sector_bytes as f64;

    // Global DRAM-bandwidth lower bound on the kernel time.
    let dram_cycles = dram_bytes / device.dram_bytes_per_cycle();
    let cycles = outcome.makespan_cycles.max(dram_cycles);
    // When DRAM is the binding constraint, utilization shrinks accordingly.
    let tc_utilization = tc_utilization * (outcome.makespan_cycles / cycles.max(1e-9)).min(1.0);

    // Per-SM block counts and achieved occupancy over the kernel duration.
    let mut sm_blocks = vec![0usize; device.num_sms];
    for &sm in &outcome.block_sm {
        sm_blocks[sm] += 1;
    }
    let sm_occupancy: Vec<f64> =
        outcome.sm_busy_cycles.iter().map(|&b| b / cycles.max(1e-9)).collect();

    let counters = CounterSet {
        sm_cycles: outcome.sm_busy_cycles,
        sm_blocks,
        sm_occupancy,
        effective_occupancy: eff_occ,
        instructions,
        l2_sector_hits,
        l2_sector_misses,
        dram_bytes,
        stall_cycles,
    };

    sim_telemetry(trace, &counters);

    SimReport {
        cycles,
        time_ms: cycles / (device.sm_clock_ghz * 1e6),
        sm_finish_cycles: outcome.sm_finish_cycles,
        tc_utilization,
        imad_count,
        hmma_count,
        imad_per_hmma: if hmma_count > 0.0 { imad_count / hmma_count } else { f64::INFINITY },
        dram_bytes,
        l2_hit_rate,
        num_tbs: trace.num_tbs(),
        counters,
    }
}

/// Bumps the process-wide registry with launch-level aggregates (cheap:
/// relaxed atomic writes through cached handles).
fn sim_telemetry(trace: &KernelTrace, counters: &CounterSet) {
    dtc_telemetry::metric!(counter, "sim.simulate.calls").incr();
    dtc_telemetry::metric!(counter, "sim.simulate.tbs").add(counters.total_blocks() as u64);
    // Last-trace compression shape: blocks vs interned classes vs bytes held.
    dtc_telemetry::metric!(gauge, "sim.trace.blocks").set(trace.num_tbs() as f64);
    dtc_telemetry::metric!(gauge, "sim.trace.classes").set(trace.num_classes() as f64);
    dtc_telemetry::metric!(gauge, "sim.trace.bytes").set(trace.memory_bytes() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb(hmma: f64) -> TbWork {
        TbWork { hmma_ops: hmma, hmma_count: hmma * 2.0, ..TbWork::default() }
    }

    #[test]
    fn empty_trace_reports_zero_time() {
        let report = simulate(&Device::rtx4090(), &KernelTrace::new(6, 8), &SimOptions::default());
        assert_eq!(report.num_tbs, 0);
        assert!(report.time_ms < 1e-6);
    }

    #[test]
    fn more_work_takes_longer() {
        let device = Device::rtx4090();
        let mut small = KernelTrace::new(6, 8);
        let mut large = KernelTrace::new(6, 8);
        for _ in 0..256 {
            small.push(tb(100.0));
            large.push(tb(1000.0));
        }
        let rs = simulate(&device, &small, &SimOptions::default());
        let rl = simulate(&device, &large, &SimOptions::default());
        assert!(rl.time_ms > rs.time_ms * 2.0);
    }

    #[test]
    fn utilization_bounded() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(6, 8);
        for _ in 0..10_000 {
            trace.push(tb(10_000.0));
        }
        let r = simulate(&device, &trace, &SimOptions::default());
        assert!(r.tc_utilization > 0.5 && r.tc_utilization <= 1.0, "{}", r.tc_utilization);
    }

    #[test]
    fn imbalanced_trace_has_idle_sms() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(1, 8);
        // One giant TB and many tiny ones: makespan dominated by the giant.
        trace.push(tb(1e7));
        for _ in 0..127 {
            trace.push(tb(1.0));
        }
        let r = simulate(&device, &trace, &SimOptions::default());
        let max = r.sm_busy_cycles().iter().cloned().fold(0.0, f64::max);
        let min = r.sm_busy_cycles().iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > min * 100.0);
    }

    #[test]
    fn dram_bound_kernel_capped_by_bandwidth() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(6, 8);
        trace.assumed_l2_hit_rate = 0.0;
        // Tiny compute, huge memory traffic.
        trace.push(TbWork { lsu_b_sectors: 1e9, ..TbWork::default() });
        let r = simulate(&device, &trace, &SimOptions::default());
        let expect_ms = 1e9 * 32.0 / (device.dram_bw_gbps * 1e9) * 1e3;
        assert!(r.time_ms >= expect_ms * 0.99, "{} vs {}", r.time_ms, expect_ms);
    }

    #[test]
    fn interned_trace_matches_legacy_bit_for_bit() {
        // The headline contract: duplicate-heavy compressed traces report
        // exactly what the one-class-per-block representation reports.
        let device = Device::rtx4090();
        let mut interned = KernelTrace::new(6, 8);
        let mut legacy = KernelTrace::new(6, 8);
        legacy.set_interning(false);
        for i in 0..500usize {
            let w = TbWork {
                hmma_ops: (i % 7) as f64 * 10.0,
                hmma_count: (i % 7) as f64 * 20.0,
                lsu_b_sectors: (i % 3) as f64 * 64.0,
                iters: 4.0,
                ..TbWork::default()
            };
            interned.push(w.clone());
            legacy.push(w);
        }
        assert!(interned.num_classes() < 25);
        assert_eq!(legacy.num_classes(), 500);
        for timing in [TimingMode::Analytical, TimingMode::EventDriven] {
            let opts = SimOptions { simulate_l2: false, timing };
            let a = simulate(&device, &interned, &opts);
            let b = simulate(&device, &legacy, &opts);
            assert_eq!(a, b, "timing={timing:?}");
        }
    }
}
