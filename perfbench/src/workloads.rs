//! The four workloads. Each builds its inputs from the seed, prepares the
//! program (timed as `setup_s`), runs its timed phase for the requested
//! seconds, and checks every output outside the timed region.
//!
//! Untraced runs report the end-to-end metrics with `dtc_telemetry` spans
//! off, timed on the process CPU clock (see `clock`) and scaled to the
//! reference host speed (see `calib`). Traced runs alternate spans on and off during a shorter timed
//! phase (for `telemetry.overhead_frac`), then probe every layer on the
//! workload's own inputs.

use crate::calib::{Calibration, Sample};
use crate::check::{bitwise_eq, digest, envelope};
use crate::clock::{Lap, Stopwatch};
use crate::inputs;
use crate::layers::{self, Layers, TraceToggle};
use crate::report::Report;
use crate::rng::{derive, Rng};
use crate::stamp::{input_stats, peak_rss_mb};
use crate::stats::{mean, median, quantile};
use dtc_core::{DeltaPolicy, DtcError, DtcSpmm, EngineConfig, EngineKind, KernelChoice};
use dtc_formats::{CsrMatrix, DenseMatrix};
use dtc_serve::{Request, ServeConfig, SpmmServer};
use dtc_telemetry::json::Json;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run: at least `SETUP_REPS`, and more, up to
/// `SETUP_MAX_REPS`, until `SETUP_MIN_S` of wall time has been spent, so
/// that a cheap set-up still gets a median over a second of samples.
/// `setup_s` is the median, at the reference host speed.
const SETUP_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_S: f64 = 3.0;
/// Telemetry on/off block length, in operations, of the traced loops: one
/// full cycle of cold_build's twelve size classes.
const TRACE_BLOCK_OPS: usize = 12;
/// edit_stream checks every this-many-th patched engine against a rebuild.
const EDIT_CHECK_EVERY: usize = 32;
/// serve_mix offered rate (requests per second of virtual time): about
/// half of the saturation throughput measured on a 2-vCPU AVX-512 host.
/// A workload constant; never recalibrated per run.
const SERVE_RATE_QPS: f64 = 140.0;
/// Requests kept waiting during serve_mix's saturation phase.
const SERVE_BACKLOG: usize = 32;
/// Dense operands pre-generated per serving tenant.
const SERVE_OPERANDS: usize = 4;

/// One run's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// Length of the timed phase: traced runs spend half of it on the
    /// loop and the rest on layer probes.
    fn loop_secs(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Records a fallible operation: a returned error counts it failed.
fn record<T>(rep: &mut Report, what: &str, r: Result<T, DtcError>) -> Option<T> {
    let v = logged(what, r);
    if v.is_none() {
        rep.op(false);
    }
    v
}

/// Logs an error without counting it (the caller counts what it lost).
fn logged<T>(what: &str, r: Result<T, DtcError>) -> Option<T> {
    r.map_err(|e| eprintln!("perfbench: {what} failed: {e}")).ok()
}

/// Operations per block for `cpu_ms.p90`: eight full cold_build class
/// cycles, and ten samples beyond each block's p90.
const P90_BLOCK: usize = 96;

/// The tail metric: the median over consecutive blocks of `P90_BLOCK`
/// operations of each block's p90. On a shared host, interference comes in
/// phases of seconds; a p90 pooled over the whole run mostly measures how
/// much of the run was contended, while the median block sees a typical
/// stretch of it. Every block counts; none is selected.
fn block_p90(ms: &[f64]) -> f64 {
    let blocks: Vec<f64> = ms.chunks_exact(P90_BLOCK).map(|b| quantile(b, 0.9)).collect();
    if blocks.is_empty() {
        quantile(ms, 0.9)
    } else {
        median(&blocks)
    }
}

/// The p50 and p90 of a single-input loop: the median of every
/// operation, and the block p90.
fn pooled(ms: &[f64]) -> (f64, f64) {
    (median(ms), block_p90(ms))
}

/// The p50 and p90 of cold_build: for each quantile, the mean over
/// the size classes of that class's quantile. Every run weighs the twelve
/// classes equally, so the figure neither depends on where a pooled
/// quantile falls between the classes' clusters nor on how far into its
/// last cycle a run got.
fn class_mix(by_class: &[Vec<f64>]) -> (f64, f64) {
    let measured = || by_class.iter().filter(|c| !c.is_empty());
    let of = |q| mean(&measured().map(|c| quantile(c, q)).collect::<Vec<_>>());
    (of(0.5), of(0.9))
}

/// The end-to-end metrics of an untraced run, every time at the reference
/// host speed: `p50` summarizes `op_ms`. Stamped beside it: the tail
/// `p90` (not a bounded metric: under heavy steal it moves by more than
/// any bound allows, see the README), the median of each tenth of the
/// timed phase (slow phases show there), the p90 pooled over the whole
/// run, the calibration's median, and the wall clock's figures.
fn end_to_end(
    rep: &mut Report,
    cal: &Calibration,
    setup: &[Sample],
    (op_ms, wall_ms): (&[f64], &[f64]),
    (p50, p90): (f64, f64),
) {
    let tenth = op_ms.len().div_ceil(10).max(1);
    let tenths = op_ms.chunks(tenth).map(|w| Json::f(median(w), 3)).collect();
    rep.stamp("cpu_ms.p90", Json::f(p90, 4));
    rep.stamp("cpu_ms.p50_by_tenth", Json::arr_inline(tenths));
    rep.stamp("cpu_ms.p90_pooled", Json::f(quantile(op_ms, 0.9), 4));
    rep.stamp("calib_ms", Json::f(cal.median_ms(), 4));
    let setup_wall: Vec<f64> = setup.iter().map(|s| s.lap.wall_ms).collect();
    rep.stamp(
        "wall",
        Json::obj_inline(vec![
            ("setup_s", Json::f(median(&setup_wall) / 1e3, 4)),
            ("ms.p50", Json::f(median(wall_ms), 4)),
            ("ms.p90", Json::f(block_p90(wall_ms), 4)),
        ]),
    );
    rep.metric("setup_s", median(&cal.scaled_ms(setup)) / 1e3, setup.len());
    rep.metric("peak_rss_mb", peak_rss_mb(), 1);
    rep.metric("cpu_ms.p50", p50, op_ms.len());
}

/// The end-to-end metrics of a loop of single operations.
fn loop_end_to_end(rep: &mut Report, cal: &Calibration, setup: &[Sample], ops: &[Sample]) {
    let op_ms = cal.scaled_ms(ops);
    let wall_ms: Vec<f64> = ops.iter().map(|s| s.lap.wall_ms).collect();
    end_to_end(rep, cal, setup, (&op_ms, &wall_ms), pooled(&op_ms));
}

/// Times repeated runs of `f` (see `SETUP_REPS`), dropping each result
/// before the next run starts; returns the times and the last result.
fn setup_reps<T>(
    cal: &mut Calibration,
    mut f: impl FnMut(usize) -> Result<T, DtcError>,
) -> Result<(Vec<Sample>, T), DtcError> {
    let mut times: Vec<Sample> = Vec::new();
    let mut wall_ms = 0.0;
    let mut last = None;
    while times.len() < SETUP_REPS || (wall_ms < SETUP_MIN_S * 1e3 && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let sw = Stopwatch::start();
        last = Some(f(times.len())?);
        let lap = sw.lap();
        wall_ms += lap.wall_ms;
        times.push(cal.follow(lap));
    }
    Ok((times, last.expect("SETUP_REPS > 0")))
}

/// Repeated cold builds of `a`, the conversion cache cleared before
/// each; returns the last engine and the build times.
fn cold_setup(
    cal: &mut Calibration,
    a: &CsrMatrix,
    cfg: &EngineConfig,
) -> Result<(DtcSpmm, Vec<Sample>), DtcError> {
    let (times, engine) = setup_reps(cal, |_| {
        dtc_core::clear_conversion_cache();
        DtcSpmm::builder().config(cfg.clone()).try_build(a)
    })?;
    Ok((engine, times))
}

/// iterate: the ROADMAP baseline matrix built once with TCA reordering,
/// then N=64 `execute` calls back to back from one caller (closed loop),
/// like the epochs of a GCN training loop.
pub fn iterate(ctx: &Ctx, rep: &mut Report, layers: &mut Layers) -> Result<(), DtcError> {
    let a = inputs::baseline_matrix();
    let b = inputs::dense(a.cols(), 64, derive(ctx.seed, "iterate.b", 0));
    let cfg = EngineConfig { reorder: true, ..EngineConfig::default() };
    let conv0 = dtc_core::conversion_cache_stats();
    let mut cal = Calibration::new();
    let (mut engine, setup) = cold_setup(&mut cal, &a, &cfg)?;
    rep.stamp("input", input_stats(&a, &engine));

    // Pin the output: within the TF32 envelope of the exact product, and
    // bitwise equal to a serial execution. Every timed call must then
    // reproduce its digest.
    let first = engine.execute(&b)?;
    dtc_par::set_threads(Some(1));
    let serial = engine.execute(&b);
    dtc_par::set_threads(None);
    let mut pinned_ok = true;
    if let Err(e) = envelope(&a, &b, &first) {
        rep.mismatch(&format!("iterate envelope: {e}"));
        pinned_ok = false;
    }
    if !serial.as_ref().is_ok_and(|s| bitwise_eq(s, &first)) {
        rep.mismatch("iterate: serial and parallel execute differ");
        pinned_ok = false;
    }
    let pinned = digest(&first);
    rep.stamp("output_digest", Json::str(format!("{pinned:016x}")));
    rep.op(pinned_ok);

    let mut latency = Vec::new();
    let mut toggle = ctx.trace.then(|| TraceToggle::new(TRACE_BLOCK_OPS));
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.loop_secs() {
        let on = toggle.as_ref().is_some_and(TraceToggle::arm);
        let sw = Stopwatch::start();
        let out = if on {
            layers::timed_execute(layers, &engine, &b).map(|(c, _)| c)
        } else {
            engine.execute(&b)
        };
        let lap = sw.lap();
        let Some(c) = record(rep, "iterate execute", out) else { continue };
        latency.push(cal.follow(lap));
        if let Some(tg) = toggle.as_mut() {
            tg.record(on, lap.cpu_ms);
        }
        let ok = digest(&c) == pinned;
        if !ok {
            rep.mismatch("iterate: execute output differs from the pinned digest");
        }
        rep.op(ok);
    }

    match toggle {
        None => loop_end_to_end(rep, &cal, &setup, &latency),
        Some(tg) => {
            tg.finish(layers);
            let probe = (|| {
                layers::build_decomposition(layers, &a, &cfg)?;
                layers::execute_profile(layers, &engine, &a, &b, 5)?;
                layers::conversion_hit_rate(layers, conv0);
                let mut rng = Rng::new(derive(ctx.seed, "iterate.delta", 0));
                layers::delta_probe(layers, &mut engine, &a, &mut rng, 6)?;
                layers::serve_probe(layers, ctx.seed)
            })();
            let ok = logged("iterate layer probe", probe).is_some();
            rep.op(ok);
        }
    }
    Ok(())
}

/// One cold-build operation: `try_build` with the default configuration
/// (also the serving prepare path), then the first N=16 `execute`.
/// Returns the engine, the result and the CSR-in-hand → first-result time.
fn cold_op(a: &CsrMatrix, b: &DenseMatrix) -> Result<(DtcSpmm, DenseMatrix, Lap), DtcError> {
    let sw = Stopwatch::start();
    let engine = DtcSpmm::builder().try_build(a)?;
    let c = engine.execute(b)?;
    Ok((engine, c, sw.lap()))
}

/// cold_build: a stream of never-seen matrices (30K–200K non-zeros, from
/// the community, web and long-row families), each built and executed once.
pub fn cold_build(ctx: &Ctx, rep: &mut Report, layers: &mut Layers) -> Result<(), DtcError> {
    let conv0 = dtc_core::conversion_cache_stats();
    // Set-up: a warm-up of throw-away cold builds, one per generator
    // family at 120K non-zeros, before the timed phase. Inputs are made
    // first so that only the builds are timed.
    let warmups: Vec<Vec<(CsrMatrix, DenseMatrix)>> = (0..SETUP_REPS as u64)
        .map(|r| {
            (inputs::FAMILIES.iter().enumerate())
                .map(|(f, &family)| {
                    let s = derive(ctx.seed, "cold.warmup", r * 8 + f as u64);
                    let a = inputs::family_matrix(family, 120_000, s);
                    let b = inputs::dense(a.cols(), 16, s);
                    (a, b)
                })
                .collect()
        })
        .collect();
    let mut cal = Calibration::new();
    let (setup, ()) = setup_reps(&mut cal, |r| {
        dtc_core::clear_conversion_cache();
        warmups[r % SETUP_REPS].iter().try_for_each(|(a, b)| cold_op(a, b).map(drop))
    })?;
    drop(warmups);

    let (mut latency, mut classes) = (Vec::new(), Vec::new());
    let mut ops = 0usize;
    let mut toggle = ctx.trace.then(|| TraceToggle::new(TRACE_BLOCK_OPS));
    let (mut rows, mut nnz, mut windows, mut blocks, mut balanced) = (0, 0, 0, 0, 0);
    let start = Instant::now();
    for i in 0u64.. {
        if start.elapsed().as_secs_f64() >= ctx.loop_secs() {
            break;
        }
        let a = inputs::cold_matrix(ctx.seed, "cold.stream", i);
        let b = inputs::dense(a.cols(), 16, derive(ctx.seed, "cold.b", i));
        let on = toggle.as_ref().is_some_and(TraceToggle::arm);
        let Some((engine, c, lap)) = record(rep, "cold build", cold_op(&a, &b)) else { continue };
        latency.push(cal.follow(lap));
        classes.push(i as usize % inputs::cold_classes());
        ops += 1;
        if let Some(tg) = toggle.as_mut() {
            tg.record(on, lap.cpu_ms);
        }
        rows += a.rows();
        nnz += a.nnz();
        windows += engine.metcf().num_windows();
        blocks += engine.metcf().num_tc_blocks();
        balanced += (engine.choice() == KernelChoice::Balanced) as usize;
        let ok = envelope(&a, &b, &c)
            .map_err(|e| rep.mismatch(&format!("cold_build matrix {i}: {e}")))
            .is_ok();
        rep.op(ok);
    }
    rep.stamp(
        "input",
        Json::obj_inline(vec![
            ("matrices", Json::usize(ops)),
            ("classes", Json::usize(inputs::cold_classes())),
            ("mean_rows", Json::usize(rows / ops.max(1))),
            ("mean_nnz", Json::usize(nnz / ops.max(1))),
            ("avg_row_len", Json::f(nnz as f64 / rows.max(1) as f64, 3)),
            ("mean_windows", Json::usize(windows / ops.max(1))),
            ("mean_tc_blocks", Json::usize(blocks / ops.max(1))),
            ("mean_nnz_tc", Json::f(nnz as f64 / blocks.max(1) as f64, 3)),
            ("balanced_kernel_frac", Json::f(balanced as f64 / ops.max(1) as f64, 3)),
        ]),
    );

    match toggle {
        None => {
            let op_ms = cal.scaled_ms(&latency);
            let mut by_class = vec![Vec::new(); inputs::cold_classes()];
            for (&class, &ms) in classes.iter().zip(&op_ms) {
                by_class[class].push(ms);
            }
            let wall_ms: Vec<f64> = latency.iter().map(|s| s.lap.wall_ms).collect();
            end_to_end(rep, &cal, &setup, (&op_ms, &wall_ms), class_mix(&by_class))
        }
        Some(tg) => {
            tg.finish(layers);
            let probe = (|| {
                let mut last = None;
                for k in 0..inputs::cold_classes() as u64 {
                    let a = inputs::cold_matrix(ctx.seed, "cold.probe", k);
                    let b = inputs::dense(a.cols(), 16, derive(ctx.seed, "cold.probe.b", k));
                    let engine = layers::build_decomposition(layers, &a, &EngineConfig::default())?;
                    layers::execute_profile(layers, &engine, &a, &b, 1)?;
                    last = Some((engine, a));
                }
                layers::conversion_hit_rate(layers, conv0);
                let (mut engine, a) = last.expect("at least one class");
                let mut rng = Rng::new(derive(ctx.seed, "cold.delta", 0));
                layers::delta_probe(layers, &mut engine, &a, &mut rng, 6)?;
                layers::serve_probe(layers, ctx.seed)
            })();
            let ok = logged("cold_build layer probe", probe).is_some();
            rep.op(ok);
        }
    }
    Ok(())
}

/// edit_stream: one resident engine over the WB stand-in receiving a
/// seeded stream of small edit batches, each followed by an N=16 execute.
pub fn edit_stream(ctx: &Ctx, rep: &mut Report, layers: &mut Layers) -> Result<(), DtcError> {
    let a = inputs::wb_matrix();
    let b = inputs::dense(a.cols(), 16, derive(ctx.seed, "edit.b", 0));
    let cfg = EngineConfig::default();
    let conv0 = dtc_core::conversion_cache_stats();
    let mut cal = Calibration::new();
    let (mut engine, setup) = cold_setup(&mut cal, &a, &cfg)?;
    rep.stamp("input", input_stats(&a, &engine));
    let policy = DeltaPolicy::default();
    let mut shadow = a.clone();
    let mut rng = Rng::new(derive(ctx.seed, "edit.stream", 0));

    let mut latency = Vec::new();
    let (mut ops, mut windows, mut reselects) = (0usize, 0usize, 0usize);
    let mut toggle = ctx.trace.then(|| TraceToggle::new(TRACE_BLOCK_OPS));
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.loop_secs() {
        let delta = inputs::edit_batch(&shadow, &mut rng);
        let on = toggle.as_ref().is_some_and(TraceToggle::arm);
        if on {
            let r = layers::delta_layers(layers, &engine, &delta);
            record(rep, "delta patch probe", r);
        }
        let sw = Stopwatch::start();
        let outcome = engine.apply_delta(&delta, &policy);
        let apply = sw.lap();
        let Some(outcome) = record(rep, "apply_delta", outcome) else { continue };
        let out = if on {
            layers::timed_execute(layers, &engine, &b).map(|(c, _)| c)
        } else {
            engine.execute(&b)
        };
        let lap = sw.lap();
        let Some(c) = record(rep, "edit_stream execute", out) else { continue };
        latency.push(cal.follow(lap));
        ops += 1;
        windows += outcome.report.touched_windows();
        reselects += outcome.reselected as usize;
        if let Some(tg) = toggle.as_mut() {
            tg.record(on, lap.cpu_ms);
            if on {
                layers.push("delta.apply_ms", apply.wall_ms);
                layers.push("delta.reselect_frac", outcome.reselected as u8 as f64);
                layers.push("delta.windows_per_edit", outcome.report.touched_windows() as f64);
            }
        }

        // The reference arm: the same edits applied to a CSR copy.
        let Some(next) =
            record(rep, "apply_to_csr", delta.apply_to_csr(&shadow).map_err(DtcError::from))
        else {
            continue;
        };
        shadow = next;
        let ok = ops % EDIT_CHECK_EVERY != 1 || {
            // A fresh build of the edited matrix under the engine's kernel
            // must match the patched engine bit for bit.
            let fresh = DtcSpmm::builder()
                .config(cfg.clone())
                .force_kernel(engine.choice())
                .try_build(&shadow);
            let same = fresh.is_ok_and(|f| {
                f.metcf() == engine.metcf() && f.execute(&b).is_ok_and(|fc| bitwise_eq(&fc, &c))
            });
            if !same {
                rep.mismatch(&format!(
                    "edit_stream: patched engine differs from rebuild at edit {ops}"
                ));
            }
            same
        };
        rep.op(ok);
    }
    rep.stamp("windows_per_edit", Json::f(windows as f64 / ops.max(1) as f64, 3));
    rep.stamp("reselect_frac", Json::f(reselects as f64 / ops.max(1) as f64, 4));

    match toggle {
        None => loop_end_to_end(rep, &cal, &setup, &latency),
        Some(tg) => {
            tg.finish(layers);
            let probe = (|| {
                layers::build_decomposition(layers, &a, &cfg)?;
                layers::execute_profile(layers, &engine, &shadow, &b, 5)?;
                layers::conversion_hit_rate(layers, conv0);
                layers::serve_probe(layers, ctx.seed)
            })();
            let ok = logged("edit_stream layer probe", probe).is_some();
            rep.op(ok);
        }
    }
    Ok(())
}

/// One serving tenant: its matrix, pre-generated operands and the
/// expected output for each (from a directly built engine).
struct Tenant {
    matrix: Arc<CsrMatrix>,
    operands: Vec<DenseMatrix>,
    expected: Vec<DenseMatrix>,
}

/// A request from tenant `t` with operand `k`.
fn request(tenants: &[Tenant], t: usize, k: usize) -> Request {
    Request {
        tenant: t,
        kind: EngineKind::Dtc,
        config: EngineConfig::default(),
        matrix: Arc::clone(&tenants[t].matrix),
        b: tenants[t].operands[k].clone(),
    }
}

/// serve_mix: a default `SpmmServer` (pool capacity 8) serving ten
/// Zipf-popular tenants at a fixed open-loop Poisson rate, then under a
/// standing backlog. A virtual clock advances by the CPU time of every
/// `admit` and `serve_next_batch` call, at the reference host speed from
/// the calibration samples taken so far; a second one, stamped, by their
/// wall time.
pub fn serve_mix(ctx: &Ctx, rep: &mut Report, layers: &mut Layers) -> Result<(), DtcError> {
    let conv0 = dtc_core::conversion_cache_stats();
    let mut tenants = Vec::with_capacity(inputs::TENANTS);
    let mut stats = Vec::with_capacity(inputs::TENANTS);
    let mut probe_engine = None;
    for t in 0..inputs::TENANTS {
        let matrix = Arc::new(inputs::tenant_matrix(ctx.seed, t));
        let operands: Vec<DenseMatrix> = (0..SERVE_OPERANDS)
            .map(|k| {
                inputs::dense(matrix.cols(), 16, derive(ctx.seed, "serve.b", (t * 64 + k) as u64))
            })
            .collect();
        let direct = DtcSpmm::builder().try_build(&matrix)?;
        let expected = operands.iter().map(|b| direct.execute(b)).collect::<Result<Vec<_>, _>>()?;
        stats.push(input_stats(&matrix, &direct));
        if t == 0 {
            probe_engine = Some(direct);
        }
        tenants.push(Tenant { matrix, operands, expected });
    }
    rep.stamp("tenants", Json::arr_inline(stats));
    let weights = inputs::zipf_weights(inputs::TENANTS);

    // Set-up: a fresh server and a cold conversion cache, warmed with two
    // requests per tenant (the pool pins an engine until its second use, so
    // one request each would leave ten pinned engines for eight slots).
    let mut cal = Calibration::new();
    let (setup, server) = setup_reps(&mut cal, |_| {
        dtc_core::clear_conversion_cache();
        let s = SpmmServer::new(ServeConfig::default());
        for t in 0..inputs::TENANTS {
            for k in 0..2 {
                s.serve_one(request(&tenants, t, k))?;
            }
        }
        Ok(s)
    })?;
    let mut rng = Rng::new(derive(ctx.seed, "serve.arrivals", 0));
    let check = |rep: &mut Report,
                 outcome: &dtc_serve::BatchOutcome,
                 sent: &HashMap<u64, (f64, usize, usize)>| {
        for r in &outcome.responses {
            let (_, t, k) = sent[&r.seq];
            let ok = bitwise_eq(&r.c, &tenants[t].expected[k]);
            if !ok {
                rep.mismatch(&format!(
                    "serve_mix: response {} (tenant {t}) differs from direct execute",
                    r.seq
                ));
            }
            rep.op(ok);
        }
    };

    // Phase 1: open-loop Poisson arrivals at SERVE_RATE_QPS. Latency runs
    // from a request's due time to the completion of its batch.
    let open_secs = ctx.loop_secs() * 2.0 / 3.0;
    let mean_gap_ms = 1e3 / SERVE_RATE_QPS;
    let mut sent: HashMap<u64, (f64, usize, usize)> = HashMap::new();
    let (mut latency, mut latency_wall) = (Vec::new(), Vec::new());
    let (mut batches, mut hit_batches, mut admitted) = (0usize, 0usize, 0usize);
    let mut toggle = ctx.trace.then(|| TraceToggle::new(TRACE_BLOCK_OPS));
    let counters0 = layers::pool_counters();
    let mut clock = Lap { cpu_ms: 0.0, wall_ms: 0.0 };
    let mut next_due = rng.exp(mean_gap_ms);
    let wall = Instant::now();
    loop {
        let arriving = wall.elapsed().as_secs_f64() < open_secs;
        if server.queued() == 0 {
            if !arriving {
                break;
            }
            clock.cpu_ms = clock.cpu_ms.max(next_due);
            clock.wall_ms = clock.wall_ms.max(next_due);
        }
        while arriving && next_due <= clock.cpu_ms {
            let t = rng.weighted(&weights);
            let k = rng.below(SERVE_OPERANDS);
            let req = request(&tenants, t, k);
            let sw = Stopwatch::start();
            let admit = server.admit(req);
            let lap = sw.lap();
            clock.cpu_ms += cal.scale_latest(lap);
            clock.wall_ms += lap.wall_ms;
            if let Some(seq) = record(rep, "admit", admit) {
                sent.insert(seq, (next_due, t, k));
                admitted += 1;
                if toggle.is_some() {
                    layers.push("serve.admit_ms", lap.wall_ms);
                }
            }
            next_due += rng.exp(mean_gap_ms);
        }
        let on = toggle.as_ref().is_some_and(TraceToggle::arm);
        let started = clock.wall_ms;
        let sw = Stopwatch::start();
        let Some(outcome) = server.serve_next_batch() else { continue };
        let lap = sw.lap();
        cal.follow(lap);
        clock.cpu_ms += cal.scale_latest(lap);
        clock.wall_ms += lap.wall_ms;
        let Some(outcome) = logged("serve_next_batch", outcome) else { continue };
        batches += 1;
        hit_batches += outcome.pool_hit as usize;
        for r in &outcome.responses {
            let due = sent[&r.seq].0;
            latency.push(clock.cpu_ms - due);
            latency_wall.push(clock.wall_ms - due);
        }
        if let Some(tg) = toggle.as_mut() {
            tg.record(on, lap.cpu_ms);
            layers.push("serve.batch_ms", lap.wall_ms);
            layers.push("serve.mean_batch", outcome.batch_size as f64);
            for r in &outcome.responses {
                layers.push("serve.queue_wait_ms", started - sent[&r.seq].0);
            }
        }
        check(rep, &outcome, &sent);
    }
    // Admitted requests whose batch failed never completed.
    for _ in latency.len()..admitted {
        rep.op(false);
    }
    if toggle.is_some() {
        layers::pool_rates(layers, counters0, layers::pool_counters(), admitted);
    }
    rep.stamp("offered_qps", Json::f(SERVE_RATE_QPS, 1));
    rep.stamp("virtual_s", Json::f(clock.cpu_ms / 1e3, 3));
    rep.stamp("pool_hit_batch_frac", Json::f(hit_batches as f64 / batches.max(1) as f64, 4));
    rep.stamp("mean_batch", Json::f(latency.len() as f64 / batches.max(1) as f64, 3));

    // Phase 2: saturation. A backlog of SERVE_BACKLOG requests is always
    // waiting; throughput is completions per second of admit + serve time.
    let sat_secs = ctx.loop_secs() - open_secs;
    let (mut busy_ms, mut completed, mut sat_admitted) = (0.0f64, 0usize, 0usize);
    let wall = Instant::now();
    while wall.elapsed().as_secs_f64() < sat_secs {
        while server.queued() < SERVE_BACKLOG {
            let (t, k) = (rng.weighted(&weights), rng.below(SERVE_OPERANDS));
            let sw = Stopwatch::start();
            let admit = server.admit(request(&tenants, t, k));
            busy_ms += cal.scale_latest(sw.lap());
            if let Some(seq) = record(rep, "admit", admit) {
                sent.insert(seq, (0.0, t, k));
                sat_admitted += 1;
            }
        }
        let sw = Stopwatch::start();
        let outcome = server.serve_next_batch().expect("backlog is non-empty");
        let lap = sw.lap();
        cal.follow(lap);
        busy_ms += cal.scale_latest(lap);
        let Some(outcome) = logged("saturation serve_next_batch", outcome) else { continue };
        completed += outcome.responses.len();
        check(rep, &outcome, &sent);
    }
    // Drain the backlog so every admitted request is accounted for.
    while let Some(outcome) = server.serve_next_batch() {
        if let Some(outcome) = logged("drain serve_next_batch", outcome) {
            completed += outcome.responses.len();
            check(rep, &outcome, &sent);
        }
    }
    for _ in completed..sat_admitted {
        rep.op(false);
    }
    let sat_qps = completed as f64 * 1e3 / busy_ms;
    rep.stamp("sat_qps", Json::f(sat_qps, 2));

    match toggle {
        None => end_to_end(rep, &cal, &setup, (&latency, &latency_wall), pooled(&latency)),
        Some(tg) => {
            tg.finish(layers);
            let probe = (|| {
                for t in &tenants {
                    layers::build_decomposition(layers, &t.matrix, &EngineConfig::default())?;
                }
                let mut engine = probe_engine.expect("tenant 0 exists");
                layers::execute_profile(
                    layers,
                    &engine,
                    &tenants[0].matrix,
                    &tenants[0].operands[0],
                    5,
                )?;
                layers::conversion_hit_rate(layers, conv0);
                let mut rng = Rng::new(derive(ctx.seed, "serve.delta", 0));
                layers::delta_probe(layers, &mut engine, &tenants[0].matrix, &mut rng, 6)?;
                let matrices: Vec<Arc<CsrMatrix>> =
                    tenants.iter().map(|t| Arc::clone(&t.matrix)).collect();
                layers::prepare_probe(layers, &matrices)
            })();
            let ok = logged("serve_mix layer probe", probe).is_some();
            rep.op(ok);
        }
    }
    Ok(())
}
