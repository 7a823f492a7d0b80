//! Lookup-cost benchmark of the two keyed caches that remain on hot
//! paths: the ME-TCF conversion cache and the duration-class interning
//! table.
//!
//! - **Conversion.** For each working-set size W, the benchmark warms W
//!   matrices, then times a repeated warm `metcf_for` loop against a bare
//!   `KeyMaterial::of` loop over the same matrices. The key pass is the
//!   lookup's floor (the lookup is that pass plus one map probe), so the
//!   ratio shows what the cache adds on top of computing the identity.
//! - **Intern.** The class interner's lossy verified front tier, timed
//!   exact-only (`set_front_tier_enabled(false)`) vs two-tier over W
//!   cycling classes, with the front-tier hit rate.
//!
//! Reports ns/lookup (best of several repeats) and writes
//! `BENCH_cache.json` (`BENCH_cache_smoke.json` under `--smoke`). Every
//! run first pins that a crafted same-slot front-tier collision is
//! verify-rejected, never cross-served.
//!
//! Gates (smoke and full): warm conversion lookup ≤ 1.15x the bare key
//! pass at W=1 and W=8; intern two-tier ns/lookup ≤ exact-only at steady
//! state (W=1); `verify_rejects > 0` under the crafted collision. The full
//! run additionally requires the intern steady state to reach 2x.

use dtc_core::cache::metcf_for;
use dtc_core::KeyMaterial;
use dtc_formats::gen::uniform;
use dtc_formats::CsrMatrix;
use dtc_par::{set_front_tier_enabled, FrontTier};
use dtc_sim::{KernelTrace, TbWork};
use dtc_telemetry::json::Json;
use std::hint::black_box;
use std::time::Instant;

/// Timing repeats per measurement; the minimum is reported.
const REPS: usize = 7;

/// Ceiling on warm `metcf_for` ns over bare `KeyMaterial::of` ns.
const LOOKUP_OVER_KEY_BOUND: f64 = 1.15;

/// One intern sweep point.
struct Point {
    working_set: usize,
    exact_ns: f64,
    two_tier_ns: f64,
    l1_hit_rate: f64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.exact_ns / self.two_tier_ns
    }
}

/// One conversion sweep point.
struct LookupPoint {
    working_set: usize,
    key_ns: f64,
    lookup_ns: f64,
}

impl LookupPoint {
    fn ratio(&self) -> f64 {
        self.lookup_ns / self.key_ns
    }
}

/// Best-of-[`REPS`] ns per lookup for `run` (one full timed loop per call).
fn ns_per_lookup(total_lookups: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_nanos() as f64 / total_lookups as f64);
    }
    best
}

/// Front-tier hit rate observed across one extra two-tier pass, read from
/// the `cache.<name>.*` counters.
fn l1_hit_rate(name: &str, mut run: impl FnMut()) -> f64 {
    let hits = dtc_telemetry::counter(&format!("cache.{name}.l1_hits"));
    let misses = dtc_telemetry::counter(&format!("cache.{name}.l1_misses"));
    let (h0, m0) = (hits.get(), misses.get());
    run();
    let (h, m) = (hits.get() - h0, misses.get() - m0);
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

/// Times one interner working-set size: `run(iters)` performs `iters`
/// cycles over the W warmed keys, in both modes.
fn sweep_point(name: &str, w: usize, lookups: usize, mut run: impl FnMut(usize)) -> Point {
    let iters = (lookups / w).max(1);
    let total = iters * w;
    set_front_tier_enabled(false);
    let exact_ns = ns_per_lookup(total, || run(iters));
    set_front_tier_enabled(true);
    run(1); // re-warm the front slots after the exact-only phase
    let two_tier_ns = ns_per_lookup(total, || run(iters));
    let hit_rate = l1_hit_rate(name, || run(iters));
    Point { working_set: w, exact_ns, two_tier_ns, l1_hit_rate: hit_rate }
}

/// ME-TCF conversion cache: warm `metcf_for` over W resident matrices vs
/// the bare `KeyMaterial::of` pass over the same matrices, timed in
/// alternating repeats so host drift hits both sides alike.
fn bench_conversion(sets: &[usize], lookups: usize) -> Vec<LookupPoint> {
    sets.iter()
        .map(|&w| {
            dtc_core::clear_conversion_cache();
            let mats: Vec<CsrMatrix> =
                (0..w).map(|i| uniform(96, 96, 600, 0xC0DE + i as u64)).collect();
            for m in &mats {
                metcf_for(m).expect("warm conversion");
            }
            let iters = (lookups / w).max(1);
            let total = iters * w;
            let timed = |run: &dyn Fn(&CsrMatrix)| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    mats.iter().for_each(run);
                }
                t0.elapsed().as_nanos() as f64 / total as f64
            };
            let (mut key_ns, mut lookup_ns) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..REPS {
                key_ns = key_ns.min(timed(&|m| {
                    black_box(KeyMaterial::of(m));
                }));
                lookup_ns = lookup_ns.min(timed(&|m| {
                    let _ = black_box(metcf_for(m));
                }));
            }
            LookupPoint { working_set: w, key_ns, lookup_ns }
        })
        .collect()
}

/// A distinct duration class per `i` (field values chosen so no two
/// classes are bitwise equal).
fn tb_class(i: usize) -> TbWork {
    TbWork {
        alu_ops: (i * 3 + 1) as f64,
        hmma_ops: (i % 7 + 1) as f64,
        lsu_a_sectors: (i * 5 + 2) as f64,
        iters: (i + 1) as f64,
        ..TbWork::default()
    }
}

/// Duration-class interning: repeated `KernelTrace::push` cycling W
/// classes. A front hit replaces the byte-granular exact key (104 fold
/// steps) with a 13-word hash. Working sets past the 128 front slots
/// exercise the thrash fallback.
fn bench_intern(sets: &[usize], lookups: usize) -> Vec<Point> {
    sets.iter()
        .map(|&w| {
            let mut trace = KernelTrace::new(6, 8);
            for i in 0..w {
                trace.push(tb_class(i));
            }
            sweep_point("intern", w, lookups, |iters| {
                for _ in 0..iters {
                    for i in 0..w {
                        trace.push(tb_class(i));
                    }
                }
            })
        })
        .collect()
}

/// Crafted same-slot collision on a dedicated tier: the foreign probe must
/// be verify-rejected, and the resident entry must survive it.
fn crafted_collision_rejects() -> u64 {
    let rejects = dtc_telemetry::counter("cache.bench_collide.verify_rejects");
    let before = rejects.get();
    let mut t: FrontTier<u64, u64> = FrontTier::new("bench_collide", 16);
    t.insert(3, 111, 1);
    assert_eq!(t.get(3 + 16, &222), None, "colliding key must not be cross-served");
    assert_eq!(t.get(3, &111), Some(1), "resident entry must survive the reject");
    rejects.get() - before
}

fn json_point(p: &Point) -> Json {
    Json::obj_inline(vec![
        ("working_set", Json::usize(p.working_set)),
        ("exact_ns", Json::f(p.exact_ns, 1)),
        ("two_tier_ns", Json::f(p.two_tier_ns, 1)),
        ("speedup", Json::f(p.speedup(), 3)),
        ("l1_hit_rate", Json::f(p.l1_hit_rate, 4)),
    ])
}

fn json_lookup_point(p: &LookupPoint) -> Json {
    Json::obj_inline(vec![
        ("working_set", Json::usize(p.working_set)),
        ("key_ns", Json::f(p.key_ns, 1)),
        ("lookup_ns", Json::f(p.lookup_ns, 1)),
        ("lookup_over_key", Json::f(p.ratio(), 3)),
    ])
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let args = dtc_bench::cli::Args::parse();
    let smoke = args.smoke();

    let rejects = crafted_collision_rejects();
    assert!(rejects > 0, "crafted collision must be verify-rejected (got {rejects})");
    println!("crafted collision: {rejects} verify reject(s), zero cross-serves");

    // Working-set sweeps. The conversion sweep stays under the cache's
    // 64-entry cap (past it every lookup reconverts and the benchmark
    // measures conversion, not lookup). The intern sweep's 512 point
    // oversubscribes the 128 front slots to show thrash fallback.
    let (lookups, conv_sets, intern_sets): (usize, Vec<usize>, Vec<usize>) = if smoke {
        (2_000, vec![1, 8], vec![1, 64, 512])
    } else {
        (20_000, vec![1, 8, 16, 48], vec![1, 16, 64, 512])
    };
    let conversion = bench_conversion(&conv_sets, lookups);
    let intern = bench_intern(&intern_sets, lookups);

    println!("\n| conversion W | key ns | warm lookup ns | lookup / key |");
    println!("|---|---|---|---|");
    for p in &conversion {
        println!(
            "| {} | {:.0} | {:.0} | {:.3}x |",
            p.working_set,
            p.key_ns,
            p.lookup_ns,
            p.ratio()
        );
    }
    println!("\n| intern W | exact ns | two-tier ns | speedup | l1 hit rate |");
    println!("|---|---|---|---|---|");
    for p in &intern {
        println!(
            "| {} | {:.0} | {:.0} | {:.2}x | {:.1}% |",
            p.working_set,
            p.exact_ns,
            p.two_tier_ns,
            p.speedup(),
            100.0 * p.l1_hit_rate
        );
    }

    // Conversion gate: a warm lookup costs the key pass plus one probe, so
    // it must stay within a small factor of the bare key pass.
    for p in conversion.iter().filter(|p| [1, 8].contains(&p.working_set)) {
        assert!(
            p.ratio() <= LOOKUP_OVER_KEY_BOUND,
            "conversion W={}: warm lookup {:.1} ns is {:.3}x the bare key pass {:.1} ns \
             (bound {LOOKUP_OVER_KEY_BOUND}x)",
            p.working_set,
            p.lookup_ns,
            p.ratio(),
            p.key_ns
        );
    }
    // Intern gate: the front hit provably does less work at steady state
    // (W=1), so it must never regress there; the full run additionally
    // requires 2x.
    let steady = intern.iter().find(|p| p.working_set == 1).expect("steady-state point");
    assert!(
        steady.two_tier_ns <= steady.exact_ns,
        "intern: two-tier steady state ({:.1} ns) must not exceed exact-only ({:.1} ns)",
        steady.two_tier_ns,
        steady.exact_ns
    );
    if !smoke {
        assert!(
            steady.speedup() >= 2.0,
            "intern: steady-state speedup {:.2}x below the 2x acceptance bar",
            steady.speedup()
        );
    }
    // Thrash fallback: oversubscribing the intern front tier must engage
    // the exact tier (low hit rate), not a large slowdown.
    if let Some(thrash) = intern.iter().find(|p| p.working_set == 512) {
        assert!(
            thrash.l1_hit_rate < 0.9,
            "a 4x-oversubscribed front tier should mostly miss (hit rate {:.2})",
            thrash.l1_hit_rate
        );
    }

    let json = Json::obj(vec![
        ("bench", Json::str("cache")),
        ("smoke", Json::bool(smoke)),
        ("timing_reps", Json::usize(REPS)),
        ("collision_verify_rejects", Json::u64(rejects)),
        ("lookup_over_key_bound", Json::f(LOOKUP_OVER_KEY_BOUND, 2)),
        (
            "paths",
            Json::arr(vec![
                Json::obj(vec![
                    ("path", Json::str("conversion")),
                    ("sweep", Json::arr(conversion.iter().map(json_lookup_point).collect())),
                ]),
                Json::obj(vec![
                    ("path", Json::str("intern")),
                    ("sweep", Json::arr(intern.iter().map(json_point).collect())),
                ]),
            ]),
        ),
    ])
    .render();
    let artifact = if smoke { "BENCH_cache_smoke.json" } else { "BENCH_cache.json" };
    std::fs::write(artifact, &json).expect("write cache artifact");
    println!("\nwrote {artifact}");
}
