//! `dtc-telemetry` — a dependency-free, process-wide metrics registry.
//!
//! DTC-SpMM's performance story is told in counters (instruction mixes,
//! cache hits, per-phase times, §5 of the paper); this crate is the
//! workspace-wide substrate that collects the *host-side* analogues and
//! exports them as structured JSON. Three primitive kinds:
//!
//! - [`Counter`] — a monotonic `u64` backed by a relaxed atomic. Counting
//!   is always on: one `fetch_add` with no allocation, cheap enough for
//!   hot paths regardless of whether a sink is configured.
//! - [`Gauge`] — a last-write-wins `f64` (thread count, occupancy, …).
//! - [`span`] — a hierarchical timed region. Spans nest per thread
//!   (guards build `parent/child` paths from a thread-local stack) and
//!   aggregate across threads (count / total / min / max plus the number
//!   of distinct contributing threads). Span timing is **disabled unless
//!   a sink is configured** (`DTC_METRICS` set or [`set_enabled`]`(true)`)
//!   — a disabled [`span`] reads one relaxed atomic and returns a no-op
//!   guard, so instrumented hot paths stay near-zero-cost.
//!
//! The registry is exported with [`snapshot`] (programmatic) or
//! [`flush_env_sink`] (writes JSON to the path in `DTC_METRICS`; bench
//! binaries call it on exit).
//!
//! # Example
//!
//! ```
//! dtc_telemetry::set_enabled(true);
//! let c = dtc_telemetry::counter("example.widgets");
//! c.add(3);
//! {
//!     let _outer = dtc_telemetry::span("build");
//!     let _inner = dtc_telemetry::span("convert"); // recorded as "build/convert"
//! }
//! let snap = dtc_telemetry::snapshot();
//! assert!(snap.counter("example.widgets").unwrap() >= 3);
//! assert!(snap.spans.iter().any(|s| s.path == "build/convert"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// A monotonic event counter. Obtain one with [`counter`]; hot paths should
/// look it up once and reuse the `&'static` handle.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (relaxed; no ordering guarantees needed for
    /// statistics).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins scalar (stored as `f64` bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Aggregated statistics of one span path across all of its executions.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Number of completed executions.
    pub count: u64,
    /// Total duration, nanoseconds.
    pub total_ns: u64,
    /// Shortest execution, nanoseconds.
    pub min_ns: u64,
    /// Longest execution, nanoseconds.
    pub max_ns: u64,
    /// Number of distinct threads that executed this span.
    pub threads: usize,
    seen_threads: Vec<ThreadId>,
}

impl SpanStats {
    fn record(&mut self, ns: u64, thread: ThreadId) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
        // Bounded distinct-thread tracking; 64 is far above any dtc-par pool.
        if self.seen_threads.len() < 64 && !self.seen_threads.contains(&thread) {
            self.seen_threads.push(thread);
        }
        self.threads = self.seen_threads.len();
    }
}

struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        spans: Mutex::new(BTreeMap::new()),
    })
}

/// Whether span timing is active. Counters always count.
///
/// Initialized lazily: `true` iff `DTC_METRICS` is set in the environment,
/// unless overridden by [`set_enabled`].
static ENABLED: AtomicU64 = AtomicU64::new(0); // 0 = uninit, 1 = off, 2 = on
static ENABLED_OVERRIDE: AtomicBool = AtomicBool::new(false);

/// Returns whether span timing (and sink export) is enabled.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var_os("DTC_METRICS").is_some();
            // Racing initializers agree (same env), so a plain store is fine;
            // never clobber an explicit set_enabled that won the race.
            if !ENABLED_OVERRIDE.load(Ordering::Relaxed) {
                let _ = ENABLED.compare_exchange(
                    0,
                    if on { 2 } else { 1 },
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
            ENABLED.load(Ordering::Relaxed) == 2
        }
    }
}

/// Forces span timing on or off, overriding the `DTC_METRICS` default.
pub fn set_enabled(on: bool) {
    ENABLED_OVERRIDE.store(true, Ordering::Relaxed);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The `&'static` handle of a registry metric, looked up on the first
/// evaluation at each call site and cached in a per-site static after
/// that: `metric!(counter, "a.b")` yields a [`Counter`],
/// `metric!(gauge, "a.b")` a [`Gauge`]. Hot paths use this instead of
/// calling [`counter`] / [`gauge`] (a locked map lookup) every time.
///
/// ```
/// dtc_telemetry::metric!(counter, "example.macro_hits").add(2);
/// assert!(dtc_telemetry::counter("example.macro_hits").get() >= 2);
/// ```
#[macro_export]
macro_rules! metric {
    (counter, $name:expr) => {
        $crate::metric!(@cached $crate::Counter, $crate::counter, $name)
    };
    (gauge, $name:expr) => {
        $crate::metric!(@cached $crate::Gauge, $crate::gauge, $name)
    };
    (@cached $ty:ty, $lookup:path, $name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $ty> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $lookup($name))
    }};
}

/// Returns the registered counter named `name`, creating it on first use.
///
/// The handle is `&'static`: hot paths should look it up once (through
/// [`metric!`]) and then use [`Counter::add`] directly.
pub fn counter(name: &str) -> &'static Counter {
    let mut map = registry().counters.lock().unwrap();
    if let Some(c) = map.get(name) {
        return c;
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter { value: AtomicU64::new(0) }));
    map.insert(name.to_owned(), leaked);
    leaked
}

/// Returns the registered gauge named `name`, creating it on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut map = registry().gauges.lock().unwrap();
    if let Some(g) = map.get(name) {
        return g;
    }
    let leaked: &'static Gauge =
        Box::leak(Box::new(Gauge { bits: AtomicU64::new(0f64.to_bits()) }));
    map.insert(name.to_owned(), leaked);
    leaked
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A live timed region; records its duration into the registry on drop.
/// Obtain with [`span`].
#[must_use = "a span guard measures until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    /// Full hierarchical path; `None` when telemetry is disabled (no-op).
    path: Option<String>,
    start: Option<Instant>,
}

/// Opens a timed span named `name`.
///
/// Spans nest: a span opened while another is live on the same thread is
/// recorded under `parent/child`. When telemetry is disabled this is one
/// relaxed atomic load and a no-op guard.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { path: None, start: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_owned(),
        };
        stack.push(path.clone());
        path
    });
    SpanGuard { path: Some(path), start: Some(Instant::now()) }
}

/// Times `f` under a span named `name` (convenience for expression position).
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        let ns = self.start.map(|s| s.elapsed().as_nanos() as u64).unwrap_or(0);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop in LIFO order per thread, so the top is this span.
            debug_assert_eq!(stack.last(), Some(&path));
            stack.pop();
        });
        let mut spans = registry().spans.lock().unwrap();
        spans.entry(path).or_default().record(ns, std::thread::current().id());
    }
}

/// One counter sample in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge sample in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// One span aggregate in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct SpanSample {
    /// Hierarchical path (`parent/child`).
    pub path: String,
    /// Aggregated statistics.
    pub stats: SpanStats,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// All span aggregates, sorted by path.
    pub spans: Vec<SpanSample>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Looks up a span aggregate by path.
    pub fn span(&self, path: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| s.path == path).map(|s| &s.stats)
    }

    /// Renders the snapshot as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(&c.name), c.value));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(&g.name), json_f64(g.value)));
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"path\": {}, \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"threads\": {} }}",
                json_string(&s.path),
                s.stats.count,
                s.stats.total_ns,
                s.stats.min_ns,
                s.stats.max_ns,
                s.stats.threads
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Takes a point-in-time copy of every counter, gauge and span aggregate.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(name, c)| CounterSample { name: name.clone(), value: c.get() })
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(name, g)| GaugeSample { name: name.clone(), value: g.get() })
        .collect();
    let spans = reg
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|(path, stats)| SpanSample { path: path.clone(), stats: stats.clone() })
        .collect();
    MetricsSnapshot { counters, gauges, spans }
}

/// Writes the current snapshot as JSON to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_json())
}

/// If `DTC_METRICS` names a path, writes the snapshot there and returns the
/// path. Binaries call this once before exiting; libraries never do.
pub fn flush_env_sink() -> Option<std::path::PathBuf> {
    let path = std::path::PathBuf::from(std::env::var_os("DTC_METRICS")?);
    match write_json(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("dtc-telemetry: failed to write DTC_METRICS={}: {e}", path.display());
            None
        }
    }
}

/// Zeroes every counter and gauge and clears all span aggregates (handles
/// stay valid). Intended for tests.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().values() {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.lock().unwrap().values() {
        g.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
    reg.spans.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-wide registry; serialize the ones that reset
    /// or toggle the enable flag.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counter_accumulates_and_interns() {
        let _g = LOCK.lock().unwrap();
        let a = counter("test.counter.a");
        let before = a.get();
        a.incr();
        a.add(4);
        assert_eq!(a.get(), before + 5);
        // Same name → same handle.
        assert!(std::ptr::eq(a, counter("test.counter.a")));
    }

    #[test]
    fn gauge_last_write_wins() {
        let _g = LOCK.lock().unwrap();
        let g = gauge("test.gauge");
        g.set(2.5);
        g.set(-1.25);
        assert_eq!(g.get(), -1.25);
    }

    #[test]
    fn spans_nest_into_paths() {
        let _l = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        {
            let _a = span("outer");
            let _b = span("inner");
        }
        let snap = snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("outer/inner").unwrap().count, 1);
        set_enabled(false);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        {
            let _a = span("ghost");
        }
        assert!(snapshot().span("ghost").is_none());
    }

    #[test]
    fn span_stats_track_min_max_and_threads() {
        let _l = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..3 {
                        let _s = span("worker");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = snapshot();
        let stats = snap.span("worker").unwrap();
        assert_eq!(stats.count, 12);
        assert_eq!(stats.threads, 4);
        assert!(stats.min_ns <= stats.max_ns);
        assert!(stats.total_ns >= stats.max_ns);
        set_enabled(false);
    }

    #[test]
    fn json_is_well_formed() {
        let _l = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        counter("test.json\"quoted").incr();
        gauge("test.json.gauge").set(1.5);
        {
            let _s = span("json-span");
        }
        let json = snapshot().to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"test.json\\\"quoted\": 1"));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"path\": \"json-span\""));
        // Balanced braces/brackets (cheap well-formedness proxy).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        set_enabled(false);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _l = LOCK.lock().unwrap();
        let c = counter("test.reset");
        c.add(10);
        reset();
        assert_eq!(c.get(), 0);
        c.incr();
        assert_eq!(snapshot().counter("test.reset"), Some(1));
    }

    #[test]
    fn time_returns_value() {
        assert_eq!(time("timed", || 7), 7);
    }
}
