//! `dtc-sched`: a bounded model checker for the work-stealing substrate.
//!
//! The determinism story of `dtc-par` — any thread count, any steal
//! schedule, bit-identical results — is the foundation every numeric
//! claim in this workspace stands on. This crate checks it the strong
//! way: instead of sampling a few steal seeds, it *exhaustively
//! enumerates* the steal schedules of small [`ShardPlan`]s (with
//! sleep-set partial-order reduction, see [`explore`]), replays each one
//! against the real engine substrate via
//! [`dtc_par::replay_assignments`], and asserts on every explored
//! schedule that
//!
//! - every result slot is written exactly once
//!   (`sched-slot-exclusivity`),
//! - every chunk executes exactly once (`sched-chunk-coverage`),
//! - outputs are bitwise identical to the serial reference
//!   (`sched-output-divergence`),
//! - leased arena buffers carry no state across chunks
//!   (`sched-arena-aliasing`), and
//! - after one warm-up replay, steady-state replays allocate nothing
//!   (`sched-alloc-steady-state`, when the caller wires an allocation
//!   probe — the `schedcheck` bin installs a counting allocator keyed on
//!   [`dtc_par::hot_loop_active`]).
//!
//! Violations surface as [`SchedDiagnostic`]s from the shared
//! concurrency-lint registry in [`dtc_verify::sched`]; the plan itself is
//! additionally run through the structural plan lints, and
//! [`locks::workspace_lock_graph`] carries the workspace's lock-order
//! audit. [`SchedReport::to_json`] renders the `SCHEDCHECK.json` artifact
//! CI gates on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod locks;

pub use explore::{enumerate_schedules, Action, ExploreStats};
pub use locks::workspace_lock_graph;

use dtc_par::{replay_assignments, ScratchArena, ShardPlan};
use dtc_telemetry::json::Json;
use dtc_verify::sched::SchedLocation;
use dtc_verify::{verify_plan, SchedCase, SchedDiagnostic, SchedLintId, Severity};

/// Options for one [`check_plan`] run.
pub struct CheckOptions<'a> {
    /// Stop after this many complete schedules (the walk reports
    /// non-exhaustive when hit).
    pub max_schedules: u64,
    /// Reads the cumulative hot-loop allocation count, when the host
    /// process runs a counting allocator; enables the
    /// `sched-alloc-steady-state` assertion.
    pub alloc_probe: Option<&'a dyn Fn() -> u64>,
}

impl Default for CheckOptions<'_> {
    fn default() -> Self {
        CheckOptions { max_schedules: 20_000, alloc_probe: None }
    }
}

/// The verdict for one plan shape.
#[derive(Debug)]
pub struct PlanCheck {
    /// Case name (plan shape).
    pub name: String,
    /// Items in the plan.
    pub items: usize,
    /// Chunks in the plan.
    pub chunks: usize,
    /// Worker bands in the plan.
    pub bands: usize,
    /// Complete schedules replayed.
    pub schedules: u64,
    /// Scheduler actions executed across the walk.
    pub transitions: u64,
    /// Whether the schedule space was exhausted under the cap.
    pub exhaustive: bool,
    /// Every diagnostic: structural plan lints plus explored-schedule
    /// assertions.
    pub diagnostics: Vec<SchedDiagnostic>,
}

impl PlanCheck {
    /// Whether any error-severity diagnostic was found.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }
}

fn sched_telemetry(schedules: u64, violations: usize) {
    dtc_telemetry::metric!(counter, "sched.schedules.explored").add(schedules);
    dtc_telemetry::metric!(counter, "sched.violations").add(violations as u64);
}

/// What the checker observed about one replayed schedule, before
/// judgment. Extracted from the replay loop so the violation
/// classification is a pure, unit-testable function.
#[derive(Debug, Clone, Copy, Default)]
struct Observation {
    /// Some result slot was written more than once.
    multi_write: bool,
    /// Some chunk or slot was never executed (or an assignment was
    /// out of range).
    uncovered: bool,
    /// Arena leases observed non-empty during the replay.
    dirty_leases: u64,
    /// Heap allocations counted during the replay (hot-loop probe).
    steady_state_allocs: u64,
    /// Whether the outputs matched the serial reference bit-for-bit
    /// (`None` when no reference or no complete output exists).
    matches_reference: Option<bool>,
}

/// Pure judgment: which model-checker lints one observation violates.
fn violations(obs: &Observation) -> Vec<SchedLintId> {
    let mut out = Vec::new();
    if obs.multi_write {
        out.push(SchedLintId::SchedSlotExclusivity);
    }
    if obs.uncovered {
        out.push(SchedLintId::SchedChunkCoverage);
    }
    if obs.matches_reference == Some(false) {
        out.push(SchedLintId::SchedOutputDivergence);
    }
    if obs.dirty_leases > 0 {
        out.push(SchedLintId::SchedArenaAliasing);
    }
    if obs.steady_state_allocs > 0 {
        out.push(SchedLintId::SchedAllocSteadyState);
    }
    out
}

/// The default item function: a pure, schedule-independent value per
/// index that also exercises the arena lease/recycle protocol.
fn default_item(i: usize, _worker: usize, scratch: &mut ScratchArena) -> u64 {
    let mut buf = scratch.u64_buf();
    let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    buf.push(x);
    buf.push(x.rotate_left(17));
    let v = buf.iter().fold(0u64, |acc, &b| acc.rotate_left(7) ^ b);
    scratch.recycle_u64(buf);
    v
}

/// Model-checks one plan with the default (pure) item function.
///
/// This is the checker's standard entry: the item function is
/// schedule-independent by construction, so on a correct substrate every
/// explored schedule must reproduce the serial reference bit-for-bit and
/// the report comes back clean. A violation therefore always indicts the
/// plan or the substrate, never the workload.
pub fn check_plan(
    name: &str,
    plan: &ShardPlan,
    weights: Option<&[u64]>,
    opts: &CheckOptions,
) -> PlanCheck {
    check_plan_with(name, plan, weights, opts, default_item)
}

/// Model-checks one plan with a caller-supplied item function
/// `f(item, worker, scratch) -> u64`.
///
/// The checker treats `f` as the workload under test: if its value
/// depends on which worker ran it (or on leftover arena state), the
/// output-divergence and aliasing assertions will catch that across
/// schedules — which is exactly how the mutation tests prove the
/// assertions have teeth.
pub fn check_plan_with<F>(
    name: &str,
    plan: &ShardPlan,
    weights: Option<&[u64]>,
    opts: &CheckOptions,
    mut f: F,
) -> PlanCheck
where
    F: FnMut(usize, usize, &mut ScratchArena) -> u64,
{
    let mut case = SchedCase::new(name, plan);
    if let Some(w) = weights {
        case = case.with_weights(w);
    }
    let mut diagnostics = verify_plan(&case);
    let structurally_sound = !diagnostics.iter().any(|d| d.severity == Severity::Error);

    // Serial reference (worker 0 everywhere): the oracle every schedule
    // must reproduce. Skipped when the plan is structurally broken — a
    // gapped or overlapping plan has no well-defined reference.
    let owner_order: Vec<(usize, usize)> = plan
        .band_ranges()
        .iter()
        .enumerate()
        .flat_map(|(w, &(cb, ce))| (cb..ce).map(move |c| (w, c)))
        .collect();
    let reference: Option<Vec<u64>> = if structurally_sound {
        replay_assignments(plan, &owner_order, &mut f).into_results()
    } else {
        None
    };

    // Warm-up replay: fills the per-worker arena pools so steady-state
    // replays have a hot path to be allocation-free on. Must lease the
    // same probe buffer the measured closure leases, or the first measured
    // schedule would pay that one allocation and trip the alloc lint.
    let _ = replay_assignments(plan, &owner_order, |i, w, scratch: &mut ScratchArena| {
        let probe_buf = scratch.u64_buf();
        scratch.recycle_u64(probe_buf);
        f(i, w, scratch)
    });

    // Aggregated violation tallies — one diagnostic per family at the
    // end, not one per schedule, so a systemic bug does not explode the
    // report.
    let mut bad_slots: u64 = 0; // schedules with a multi-written slot
    let mut bad_coverage: u64 = 0; // schedules missing a chunk/slot
    let mut divergent: u64 = 0; // schedules whose output != reference
    let mut aliased: u64 = 0; // schedules observing a dirty arena lease
    let mut allocating: u64 = 0; // schedules that allocated in steady state
    let mut first_bad: Option<Vec<(usize, usize)>> = None;

    let probe = opts.alloc_probe;
    let stats = enumerate_schedules(plan, opts.max_schedules, &mut |sched: &[(usize, usize)]| {
        let allocs_before = probe.map(|p| p());
        let mut dirty_leases = 0u64;
        let replay = replay_assignments(plan, sched, |i, w, scratch: &mut ScratchArena| {
            let probe_buf = scratch.u64_buf();
            if !probe_buf.is_empty() {
                dirty_leases += 1;
            }
            scratch.recycle_u64(probe_buf);
            f(i, w, scratch)
        });
        let mut obs = Observation {
            multi_write: replay.slot_writes.iter().any(|&w| w > 1),
            uncovered: replay.bad_assignments > 0 || replay.slot_writes.contains(&0),
            dirty_leases,
            steady_state_allocs: match (allocs_before, probe.map(|p| p())) {
                (Some(before), Some(after)) => after.saturating_sub(before),
                _ => 0,
            },
            matches_reference: None,
        };
        if let (Some(reference), Some(got)) = (&reference, replay.into_results()) {
            obs.matches_reference = Some(&got == reference);
        }
        let broken = violations(&obs);
        for lint in &broken {
            match lint {
                SchedLintId::SchedSlotExclusivity => bad_slots += 1,
                SchedLintId::SchedChunkCoverage => bad_coverage += 1,
                SchedLintId::SchedOutputDivergence => divergent += 1,
                SchedLintId::SchedArenaAliasing => aliased += 1,
                SchedLintId::SchedAllocSteadyState => allocating += 1,
                _ => {}
            }
        }
        if !broken.is_empty() && first_bad.is_none() {
            first_bad = Some(sched.to_vec());
        }
    });

    let mut emit = |lint: SchedLintId, count: u64, what: &str| {
        if count > 0 {
            diagnostics.push(SchedDiagnostic::new(
                lint,
                SchedLocation::CASE,
                format!(
                    "{count} of {} explored schedules {what}{}",
                    stats.schedules,
                    match &first_bad {
                        Some(s) => format!("; first offending schedule: {s:?}"),
                        None => String::new(),
                    }
                ),
            ));
        }
    };
    emit(SchedLintId::SchedSlotExclusivity, bad_slots, "wrote a result slot more than once");
    emit(SchedLintId::SchedChunkCoverage, bad_coverage, "left a chunk or slot unexecuted");
    emit(
        SchedLintId::SchedOutputDivergence,
        divergent,
        "diverged bitwise from the serial reference",
    );
    emit(SchedLintId::SchedArenaAliasing, aliased, "observed a non-empty arena lease");
    emit(SchedLintId::SchedAllocSteadyState, allocating, "allocated during steady-state replay");

    sched_telemetry(stats.schedules, diagnostics.len());
    PlanCheck {
        name: name.to_string(),
        items: plan.len(),
        chunks: plan.chunk_ranges().len(),
        bands: plan.band_ranges().len(),
        schedules: stats.schedules,
        transitions: stats.transitions,
        exhaustive: stats.exhaustive,
        diagnostics,
    }
}

/// A full `schedcheck` run: every plan shape's verdict plus the lock
/// graph audit, rendered to `SCHEDCHECK.json`.
#[derive(Debug, Default)]
pub struct SchedReport {
    /// Per-plan verdicts, in run order.
    pub plans: Vec<PlanCheck>,
    /// Lock-order diagnostics from the workspace graph audit.
    pub lock_diagnostics: Vec<SchedDiagnostic>,
}

impl SchedReport {
    /// An empty report.
    pub fn new() -> Self {
        SchedReport::default()
    }

    /// Total schedules explored across every plan.
    pub fn schedules_total(&self) -> u64 {
        self.plans.iter().map(|p| p.schedules).sum()
    }

    /// Total error-severity diagnostics across plans and the lock audit.
    pub fn errors(&self) -> usize {
        self.plans
            .iter()
            .flat_map(|p| &p.diagnostics)
            .chain(&self.lock_diagnostics)
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Serializes the report (deterministic field order, byte-stable) via
    /// the shared [`dtc_telemetry::json`] module.
    pub fn to_json(&self) -> String {
        let diag_json = |d: &SchedDiagnostic| {
            Json::obj_inline(vec![
                ("lint", Json::str(d.lint.as_str())),
                ("severity", Json::str(d.severity.as_str())),
                ("location", Json::str(d.location.to_string())),
                ("message", Json::str(&d.message)),
            ])
        };
        let plans = self
            .plans
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("name", Json::str(&p.name)),
                    ("items", Json::usize(p.items)),
                    ("chunks", Json::usize(p.chunks)),
                    ("bands", Json::usize(p.bands)),
                    ("schedules", Json::u64(p.schedules)),
                    ("transitions", Json::u64(p.transitions)),
                    ("exhaustive", Json::bool(p.exhaustive)),
                    ("diagnostics", Json::arr(p.diagnostics.iter().map(diag_json).collect())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("plans_checked", Json::usize(self.plans.len())),
            ("schedules_total", Json::u64(self.schedules_total())),
            ("errors", Json::usize(self.errors())),
            ("plans", Json::arr(plans)),
            (
                "lock_graph",
                Json::obj(vec![
                    ("classes", Json::usize(workspace_lock_graph().classes.len())),
                    ("edges", Json::usize(workspace_lock_graph().edges.len())),
                    (
                        "diagnostics",
                        Json::arr(self.lock_diagnostics.iter().map(diag_json).collect()),
                    ),
                ]),
            ),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has(check: &PlanCheck, lint: SchedLintId) -> bool {
        check.diagnostics.iter().any(|d| d.lint == lint)
    }

    #[test]
    fn real_even_plans_check_clean() {
        for (n, threads) in [(7usize, 2usize), (16, 2), (24, 3)] {
            let plan = ShardPlan::even(n, threads);
            let check = check_plan("even", &plan, None, &CheckOptions::default());
            assert!(!check.has_errors(), "n={n} t={threads}: {:?}", check.diagnostics);
            assert!(check.exhaustive, "n={n} t={threads} hit the cap");
            assert!(check.schedules >= 1);
        }
    }

    #[test]
    fn real_weighted_plans_check_clean() {
        let weights: Vec<u64> = (0..20u64).map(|i| i * i % 13).collect();
        let plan = ShardPlan::weighted(2, &weights);
        let check = check_plan("weighted", &plan, Some(&weights), &CheckOptions::default());
        assert!(!check.has_errors(), "{:?}", check.diagnostics);
        assert!(check.exhaustive);
    }

    #[test]
    fn mutation_overlapping_chunks_trip_slot_exclusivity() {
        // Two chunks share items 4..6: every schedule writes those slots
        // twice, and the structural disjointness lint fires too.
        let plan = ShardPlan::from_raw_parts(10, vec![(0, 6), (4, 10)], vec![(0, 1), (1, 2)]);
        let check = check_plan("mutant", &plan, None, &CheckOptions::default());
        assert!(has(&check, SchedLintId::SchedSlotExclusivity), "{:?}", check.diagnostics);
        assert!(has(&check, SchedLintId::PlanChunkDisjoint), "{:?}", check.diagnostics);
    }

    #[test]
    fn mutation_gapped_chunks_trip_coverage() {
        let plan = ShardPlan::from_raw_parts(10, vec![(0, 4), (6, 10)], vec![(0, 1), (1, 2)]);
        let check = check_plan("mutant", &plan, None, &CheckOptions::default());
        assert!(has(&check, SchedLintId::SchedChunkCoverage), "{:?}", check.diagnostics);
        assert!(has(&check, SchedLintId::PlanChunkCoverage), "{:?}", check.diagnostics);
    }

    #[test]
    fn mutation_worker_dependent_item_trips_divergence() {
        // The seeded bug: an item function whose value depends on which
        // worker computed it — the checker must see schedules disagree.
        let plan = ShardPlan::even(8, 2);
        let check = check_plan_with("mutant", &plan, None, &CheckOptions::default(), |i, w, _| {
            (i as u64) | ((w as u64) << 32)
        });
        assert!(has(&check, SchedLintId::SchedOutputDivergence), "{:?}", check.diagnostics);
    }

    #[test]
    fn arena_leases_stay_clean_across_all_schedules() {
        // End-to-end: on every explored schedule the checker's probe lease
        // (taken before each item, after arbitrary recycle traffic from
        // earlier chunks on any worker) comes back empty — the aliasing
        // lint never fires on the real substrate, even for a workload that
        // recycles filled buffers as hard as it can.
        let plan = ShardPlan::even(12, 2);
        let check = check_plan_with(
            "recycle-heavy",
            &plan,
            None,
            &CheckOptions::default(),
            |i, _, scratch| {
                let mut buf = scratch.u64_buf();
                buf.extend((0..8).map(|k| i as u64 + k));
                scratch.recycle_u64(buf); // returned full: next take must clear
                i as u64
            },
        );
        assert!(!check.has_errors(), "{:?}", check.diagnostics);
        assert!(!has(&check, SchedLintId::SchedArenaAliasing));
    }

    #[test]
    fn mutation_seeded_observations_trip_aliasing_and_alloc_lints() {
        // The clearing arena makes real aliasing unreachable from safe
        // code (that is the theorem the end-to-end test above pins), so
        // the mutation is seeded at the judgment layer: an observation
        // carrying a dirty lease or a steady-state allocation must be
        // classified as exactly those violations.
        let clean = Observation::default();
        assert!(violations(&clean).is_empty());
        let dirty = Observation { dirty_leases: 1, ..Observation::default() };
        assert_eq!(violations(&dirty), vec![SchedLintId::SchedArenaAliasing]);
        let leaky = Observation { steady_state_allocs: 7, ..Observation::default() };
        assert_eq!(violations(&leaky), vec![SchedLintId::SchedAllocSteadyState]);
        let chaos = Observation {
            multi_write: true,
            uncovered: true,
            dirty_leases: 2,
            steady_state_allocs: 1,
            matches_reference: Some(false),
        };
        assert_eq!(violations(&chaos).len(), 5);
    }

    #[test]
    fn report_json_is_canonical() {
        let plan = ShardPlan::even(6, 2);
        let mut report = SchedReport::new();
        report.plans.push(check_plan("even-6x2", &plan, None, &CheckOptions::default()));
        report.lock_diagnostics =
            dtc_verify::verify_lock_graph("workspace", &workspace_lock_graph());
        assert_eq!(report.errors(), 0);
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"plans_checked\": 1,\n"), "{json}");
        assert!(json.contains("\"name\": \"even-6x2\""), "{json}");
        assert!(json.contains("\"exhaustive\": true"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }
}
