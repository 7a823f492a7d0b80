//! Per-layer measurements for the traced run. Every layer is timed from
//! the benchmark's own code around the layer's public entry point; the
//! probes run each layer on the workload's own inputs, so every traced run
//! reports every layer metric.

use crate::inputs::{dense, edit_batch, tenant_matrix, zipf_weights, TENANTS};
use crate::report::{Report, PER_LAYER};
use crate::rng::{derive, Rng};
use crate::stats::{mean, median, quantile};
use dtc_core::convert::convert_to_metcf_parallel;
use dtc_core::{
    BalancedDtcKernel, DeltaPolicy, DtcError, DtcKernel, DtcSpmm, EngineConfig, EngineKind,
    KernelChoice, KeyMaterial, SpmmKernel,
};
use dtc_formats::{CsrMatrix, DenseMatrix, MeTcfMatrix};
use dtc_reorder::{Reorderer, TcaReorderer};
use dtc_serve::{Request, ServeConfig, SpmmServer};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Metrics summarized by their mean (shares and counts); `.p50`/`.p90`
/// names are quantiles of their base series; everything else is a median.
const MEANS: &[&str] =
    &["select.balanced_frac", "delta.reselect_frac", "delta.windows_per_edit", "serve.mean_batch"];

/// Raw per-layer samples, keyed by metric (or base series) name.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Times `f` into the series `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.push(name, ms_since(t));
        r
    }

    /// Summarizes every catalogued per-layer metric into the report.
    pub fn finish(&self, report: &mut Report) -> Result<(), String> {
        for &(name, _) in PER_LAYER {
            let (base, q) = match name.rsplit_once('.') {
                Some((b, "p50")) => (b, Some(0.5)),
                Some((b, "p90")) => (b, Some(0.9)),
                _ => (name, None),
            };
            let s =
                self.samples.get(base).ok_or_else(|| format!("layer series {base} is empty"))?;
            let v = match q {
                Some(q) => quantile(s, q),
                None if MEANS.contains(&name) => mean(s),
                None => median(s),
            };
            report.metric(name, v, s.len());
        }
        Ok(())
    }
}

/// Bytes of the ME-TCF arrays.
pub fn metcf_bytes(m: &MeTcfMatrix) -> usize {
    4 * (m.values().len() + m.sparse_a_to_b().len() + m.tc_offset().len())
        + 4 * m.row_window_offset().len()
        + m.tc_local_id().len()
}

/// Decomposes one cold `try_build` of `a` under `cfg` into its layers,
/// calling each layer's public entry point in turn, then times the real
/// `try_build` on a cold conversion cache. What the layers do not account
/// for is `build.other_ms`. Returns the built engine.
pub fn build_decomposition(
    layers: &mut Layers,
    a: &CsrMatrix,
    cfg: &EngineConfig,
) -> Result<DtcSpmm, DtcError> {
    let threads = dtc_par::num_threads();
    dtc_core::clear_conversion_cache();
    let t = Instant::now();
    black_box(KeyMaterial::of(a));
    let key_ms = ms_since(t);
    let t = Instant::now();
    let perm = TcaReorderer::default().reorder(a);
    let reorder_ms = ms_since(t);
    let permuted = a.permute_rows(&perm);
    let working = if cfg.reorder { &permuted } else { a };
    let t = Instant::now();
    let metcf = convert_to_metcf_parallel(working, threads)?;
    let convert_ms = ms_since(t);
    let other = convert_to_metcf_parallel(if cfg.reorder { a } else { &permuted }, threads)?;
    let (before, after) = if cfg.reorder { (&other, &metcf) } else { (&metcf, &other) };
    layers.push(
        "reorder.block_ratio",
        after.num_tc_blocks() as f64 / before.num_tc_blocks().max(1) as f64,
    );
    drop(other);
    let t = Instant::now();
    let decision = cfg.selector.decide(&metcf, &cfg.device);
    let select_ms = ms_since(t);
    let choice = cfg.force.unwrap_or(decision.choice);
    let distinct = metcf.distinct_cols();
    let t = Instant::now();
    let copy = metcf.clone();
    let lowered: Box<dyn SpmmKernel> = match choice {
        KernelChoice::Base => {
            Box::new(DtcKernel::from_metcf(copy, distinct, cfg.opts).with_precision(cfg.precision))
        }
        KernelChoice::Balanced => Box::new(
            BalancedDtcKernel::from_metcf(copy, distinct, cfg.opts).with_precision(cfg.precision),
        ),
    };
    let lower_ms = ms_since(t);
    drop(black_box(lowered));

    dtc_core::clear_conversion_cache();
    let t = Instant::now();
    let engine = DtcSpmm::builder().config(cfg.clone()).try_build(a)?;
    let build_ms = ms_since(t);
    let (hits0, _) = dtc_core::conversion_cache_stats();
    let t = Instant::now();
    black_box(dtc_core::cache::metcf_for(working)?);
    let lookup_ms = ms_since(t);
    if dtc_core::conversion_cache_stats().0 > hits0 {
        layers.push("cache.lookup_ms", lookup_ms);
    }

    let covered =
        key_ms + if cfg.reorder { reorder_ms } else { 0.0 } + convert_ms + select_ms + lower_ms;
    layers.push("cache.key_ms", key_ms);
    layers.push("reorder.ms", reorder_ms);
    layers.push("convert.ms", convert_ms);
    layers.push("convert.ns_per_nnz", convert_ms * 1e6 / a.nnz().max(1) as f64);
    layers.push("select.ms", select_ms);
    layers.push("select.balanced_frac", (choice == KernelChoice::Balanced) as u8 as f64);
    layers.push("lower.ms", lower_ms);
    layers.push("mem.metcf_mb", metcf_bytes(&metcf) as f64 / (1 << 20) as f64);
    layers.push("build.try_build_ms", build_ms);
    layers.push("build.other_ms", build_ms - covered);
    layers.push("build.covered_frac", covered / build_ms);
    Ok(engine)
}

/// Times one `DtcSpmm::execute` with the `dtc-par` counters diffed around
/// it, records the execute and `par` layer series, and returns the result
/// with its time in ms.
pub fn timed_execute(
    layers: &mut Layers,
    engine: &DtcSpmm,
    b: &DenseMatrix,
) -> Result<(DenseMatrix, f64), DtcError> {
    let threads = dtc_par::num_threads() as f64;
    let p0 = dtc_par::par_stats();
    let t = Instant::now();
    let c = engine.execute(b)?;
    let exec_ms = ms_since(t);
    let p1 = dtc_par::par_stats();
    let flops = 2.0 * engine.nnz() as f64 * b.cols() as f64;
    layers.push("execute.ms", exec_ms);
    layers.push("execute.ns_per_nnz", exec_ms * 1e6 / engine.nnz().max(1) as f64);
    layers.push("execute.gflops", flops / (exec_ms * 1e6));
    let wall = p1.wall_ns.saturating_sub(p0.wall_ns) as f64;
    if wall > 0.0 {
        layers
            .push("par.busy_frac", p1.busy_ns.saturating_sub(p0.busy_ns) as f64 / (wall * threads));
    }
    layers.push("par.crit_ms_model", p1.crit_ns.saturating_sub(p0.crit_ns) as f64 / 1e6);
    Ok((c, exec_ms))
}

/// The execute profile of one engine: `reps` paired execute / CSR
/// reference calls, the computed bytes the kernel must touch, and the
/// simulator's modelled kernel time.
pub fn execute_profile(
    layers: &mut Layers,
    engine: &DtcSpmm,
    a: &CsrMatrix,
    b: &DenseMatrix,
    reps: usize,
) -> Result<(), DtcError> {
    let n = b.cols();
    for _ in 0..reps {
        let (_, exec_ms) = timed_execute(layers, engine, b)?;
        let t = Instant::now();
        black_box(a.spmm_reference(b)?);
        let ref_ms = ms_since(t);
        layers.push("csr_ref.ms", ref_ms);
        layers.push("execute.vs_csr", exec_ms / ref_ms);
    }
    // Compulsory traffic: the ME-TCF arrays once, every touched row of B
    // once, every row of C once (computed from array sizes, not measured).
    let m = engine.metcf();
    let bytes = metcf_bytes(m) + 4 * n * (m.distinct_cols() + engine.rows());
    layers.push("execute.bytes_computed", bytes as f64);
    let device = engine.config().device.clone();
    layers.push("sim.kernel_ms_model", engine.simulate(n, &device).time_ms);
    Ok(())
}

/// Applies `reps` seeded edit batches to `engine`, timing the engine-level
/// `apply_delta` and, on a copy of its ME-TCF, the format patch and the
/// post-edit identity hash.
pub fn delta_probe(
    layers: &mut Layers,
    engine: &mut DtcSpmm,
    a: &CsrMatrix,
    rng: &mut Rng,
    reps: usize,
) -> Result<(), DtcError> {
    for _ in 0..reps {
        let delta = edit_batch(a, rng);
        delta_layers(layers, engine, &delta)?;
        let t = Instant::now();
        let out = engine.apply_delta(&delta, &DeltaPolicy::default())?;
        layers.push("delta.apply_ms", ms_since(t));
        layers.push("delta.reselect_frac", out.reselected as u8 as f64);
        layers.push("delta.windows_per_edit", out.report.touched_windows() as f64);
    }
    Ok(())
}

/// The format-level halves of a delta: `MeTcfMatrix::apply_delta` on a
/// copy of the resident format, then `KeyMaterial::of_metcf` over it.
pub fn delta_layers(
    layers: &mut Layers,
    engine: &DtcSpmm,
    delta: &dtc_formats::MatrixDelta,
) -> Result<(), DtcError> {
    let mut patched = engine.metcf().clone();
    layers.time("delta.patch_ms", || patched.apply_delta(delta))?;
    layers.time("delta.key_ms", || black_box(KeyMaterial::of_metcf(&patched)));
    Ok(())
}

/// Pool counters of the serving layer.
pub fn pool_counters() -> (u64, u64, u64) {
    let get = |name| dtc_telemetry::counter(name).get();
    (get("serve.pool.hits"), get("serve.pool.misses"), get("serve.pool.evictions"))
}

/// Records pool hit rate and evictions per thousand requests from two
/// counter readings.
pub fn pool_rates(
    layers: &mut Layers,
    before: (u64, u64, u64),
    after: (u64, u64, u64),
    requests: usize,
) {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    layers.push("serve.pool.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    layers.push(
        "serve.pool.evictions_per_kreq",
        (after.2 - before.2) as f64 * 1e3 / requests.max(1) as f64,
    );
}

/// Bursts the serve probe admits, and requests per burst.
const SERVE_BURSTS: usize = 8;
const SERVE_BURST: usize = 16;

/// The serving layer under queueing, coalescing and eviction: bursts of
/// N=16 requests drawn Zipf(1.1) over the ten serving tenants (more
/// matrices than the pool's eight slots), each burst admitted whole and
/// then drained batch by batch. Queue wait runs from a request's `admit`
/// returning to the start of the `serve_next_batch` call that serves it.
///
/// The pool's warmup pin is set to one use: with the default two, a Zipf
/// tail can fill every slot with engines still inside their pin, and the
/// pool then refuses by design (`PoolExhausted`). One use keeps every
/// resident engine evictable, so LRU eviction runs instead.
pub fn serve_probe(layers: &mut Layers, seed: u64) -> Result<(), DtcError> {
    let tenants: Vec<Arc<CsrMatrix>> =
        (0..TENANTS).map(|t| Arc::new(tenant_matrix(seed, t))).collect();
    let operands: Vec<DenseMatrix> = (tenants.iter().enumerate())
        .map(|(t, m)| dense(m.cols(), 16, derive(seed, "serve.probe.b", t as u64)))
        .collect();
    let weights = zipf_weights(TENANTS);
    let mut rng = Rng::new(derive(seed, "serve.probe", 0));
    let mut cfg = ServeConfig::default();
    cfg.pool.warmup_uses = 1;
    let server = SpmmServer::new(cfg);
    let before = pool_counters();
    let mut admitted: HashMap<u64, Instant> = HashMap::new();
    for _ in 0..SERVE_BURSTS {
        for _ in 0..SERVE_BURST {
            let t = rng.weighted(&weights);
            let req = Request {
                tenant: t,
                kind: EngineKind::Dtc,
                config: EngineConfig::default(),
                matrix: Arc::clone(&tenants[t]),
                b: operands[t].clone(),
            };
            let seq = layers.time("serve.admit_ms", || server.admit(req))?;
            admitted.insert(seq, Instant::now());
        }
        loop {
            let start = Instant::now();
            let Some(outcome) = server.serve_next_batch() else { break };
            let outcome = outcome?;
            layers.push("serve.batch_ms", ms_since(start));
            layers.push("serve.mean_batch", outcome.batch_size as f64);
            for r in &outcome.responses {
                let wait = start.duration_since(admitted[&r.seq]);
                layers.push("serve.queue_wait_ms", wait.as_secs_f64() * 1e3);
            }
        }
    }
    pool_rates(layers, before, pool_counters(), admitted.len());
    prepare_probe(layers, &tenants)
}

/// Times `dtc_core::prepare` and `admission_check` — the two halves of
/// a pool miss — on each tenant matrix.
pub fn prepare_probe(layers: &mut Layers, tenants: &[Arc<CsrMatrix>]) -> Result<(), DtcError> {
    let cfg = EngineConfig::default();
    for m in tenants {
        let engine =
            layers.time("serve.prepare_ms", || dtc_core::prepare(EngineKind::Dtc, &cfg, m))?;
        layers.time("serve.admission_check_ms", || {
            dtc_serve::admission_check(engine.as_ref(), &cfg)
        })?;
    }
    Ok(())
}

/// Fraction of conversion-cache lookups that hit since `before`.
pub fn conversion_hit_rate(layers: &mut Layers, before: (u64, u64)) {
    let (h, m) = dtc_core::conversion_cache_stats();
    let (hits, misses) = (h - before.0, m - before.1);
    layers.push("cache.conversion.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
}

/// Alternates telemetry on and off in blocks of operations during a
/// traced loop, so traced and untraced operations interleave under the
/// same conditions (and, with a block of one full input cycle, over the
/// same inputs); the ratio of their medians is the tracing overhead.
pub struct TraceToggle {
    block: usize,
    ops: usize,
    pub on_ms: Vec<f64>,
    pub off_ms: Vec<f64>,
}

impl TraceToggle {
    pub fn new(block: usize) -> Self {
        TraceToggle { block, ops: 0, on_ms: Vec::new(), off_ms: Vec::new() }
    }

    /// Sets telemetry for the next operation; returns whether it is on.
    pub fn arm(&self) -> bool {
        let on = (self.ops / self.block).is_multiple_of(2);
        dtc_telemetry::set_enabled(on);
        on
    }

    /// Records the operation armed last.
    pub fn record(&mut self, on: bool, ms: f64) {
        self.ops += 1;
        if on { &mut self.on_ms } else { &mut self.off_ms }.push(ms);
    }

    /// Records `telemetry.overhead_frac` and leaves telemetry on for the
    /// probes that follow.
    pub fn finish(&self, layers: &mut Layers) {
        if !self.on_ms.is_empty() && !self.off_ms.is_empty() {
            layers
                .push("telemetry.overhead_frac", median(&self.on_ms) / median(&self.off_ms) - 1.0);
        }
        dtc_telemetry::set_enabled(true);
    }
}
