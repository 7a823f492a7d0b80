//! The lossy, verified front tier: a direct-mapped accelerator in front
//! of an exact keyed map.
//!
//! [`FrontTier`] is a fixed-capacity, power-of-two, direct-mapped,
//! overwrite-on-collision table — no probing, no buckets, no growth. It
//! earns its place only where a hit skips real work: the `dtc-sim`
//! duration-class interner, whose exact key is a byte-granular fold over
//! every work field, measures 2–4.5x faster lookups with it. Where the
//! exact lookup is already one hash plus one probe (the conversion cache,
//! the trace cache, the serve pool), a front tier measures ~1x, so those
//! stores are plain `HashMap`s on their full identity instead.
//!
//! The invariant that makes lossy safe: **every front-tier hit is verified
//! against the stored full key** (`K: PartialEq`, the complete identity,
//! never just a hash). A slot holding a different key is a miss, counted as
//! a `verify_reject`, and the lookup falls through to the exact store,
//! which refills the slot. Losing an entry to an overwrite therefore costs
//! one exact lookup, never a wrong answer: results are bitwise identical
//! with the tier on, off, or thrashing.
//!
//! Each tier is instrumented in the process-wide `dtc-telemetry` registry
//! under `cache.<name>.{l1_hits,l1_misses,l1_evictions,verify_rejects}`,
//! plus a sampled `cache.<name>.ns_per_lookup` gauge (every 512th probe is
//! timed). [`set_front_tier_enabled`] is the process-wide switch the
//! interner's exact-only benchmark reference uses.

use dtc_telemetry::{Counter, Gauge};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Process-wide front-tier switch (`true` at startup). With the switch off
/// every [`FrontTier::get`] misses without touching counters and every
/// [`FrontTier::insert`] is a no-op, so the exact tier serves alone —
/// the reference side of the bitwise-equivalence tests and benches.
static FRONT_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables every front tier in the process.
pub fn set_front_tier_enabled(on: bool) {
    FRONT_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether front tiers are currently enabled.
#[inline]
fn front_tier_enabled() -> bool {
    FRONT_ENABLED.load(Ordering::Relaxed)
}

/// The per-tier telemetry handles, registered once per cache name (all
/// instances with the same name share the same counters, so per-engine
/// tiers aggregate naturally).
#[derive(Clone, Copy)]
struct TierStats {
    l1_hits: &'static Counter,
    l1_misses: &'static Counter,
    l1_evictions: &'static Counter,
    verify_rejects: &'static Counter,
    ns_per_lookup: &'static Gauge,
}

impl TierStats {
    fn for_name(name: &str) -> Self {
        TierStats {
            l1_hits: dtc_telemetry::counter(&format!("cache.{name}.l1_hits")),
            l1_misses: dtc_telemetry::counter(&format!("cache.{name}.l1_misses")),
            l1_evictions: dtc_telemetry::counter(&format!("cache.{name}.l1_evictions")),
            verify_rejects: dtc_telemetry::counter(&format!("cache.{name}.verify_rejects")),
            ns_per_lookup: dtc_telemetry::gauge(&format!("cache.{name}.ns_per_lookup")),
        }
    }
}

/// Every 512th probe is wall-clock timed into the `ns_per_lookup` gauge.
const SAMPLE_MASK: u64 = 511;

/// The lossy front tier: direct-mapped, overwrite-on-collision, verified.
///
/// The tier is plain data owned next to its exact store (`&mut self` on
/// the interning table), so whatever protects the store protects the
/// front slots too and the two can never disagree.
pub struct FrontTier<K, V> {
    slots: Box<[Option<(K, V)>]>,
    mask: u64,
    stats: TierStats,
    lookups: u64,
}

impl<K, V> std::fmt::Debug for FrontTier<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontTier")
            .field("capacity", &self.slots.len())
            .field("lookups", &self.lookups)
            .finish()
    }
}

impl<K: Clone, V: Clone> Clone for FrontTier<K, V> {
    fn clone(&self) -> Self {
        FrontTier {
            slots: self.slots.clone(),
            mask: self.mask,
            stats: self.stats,
            lookups: self.lookups,
        }
    }
}

impl<K: PartialEq, V: Clone> FrontTier<K, V> {
    /// Creates a tier with `capacity` slots (rounded up to a power of two,
    /// at least 1), registering its counters under `cache.<name>.*`.
    pub fn new(name: &str, capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        FrontTier {
            slots: slots.into_boxed_slice(),
            mask: (capacity - 1) as u64,
            stats: TierStats::for_name(name),
            lookups: 0,
        }
    }

    /// Slot count (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slot index for a hash. The high half is folded down first: FNV-1a's
    /// multiply only carries entropy upward, so a caller hashing words with
    /// all-zero low bits (e.g. `f64` bit patterns of small counts) would
    /// otherwise map every key to the same low-bits slot.
    #[inline]
    fn slot_of(&self, hash: u64) -> usize {
        ((hash ^ (hash >> 32)) & self.mask) as usize
    }

    /// One branchless probe: the slot is `hash & mask`, and a hit requires
    /// the stored **full key** to equal `key`. An occupied slot holding a
    /// different key counts a `verify_reject` (the crafted-collision /
    /// overwrite case); an empty slot is a plain miss. Either way the
    /// caller falls through to the exact store.
    pub fn get(&mut self, hash: u64, key: &K) -> Option<V> {
        if !front_tier_enabled() {
            return None;
        }
        self.lookups += 1;
        let sampled = self.lookups & SAMPLE_MASK == 0;
        let t0 = if sampled { Some(Instant::now()) } else { None };
        let out = match &self.slots[self.slot_of(hash)] {
            Some((k, v)) if k == key => {
                self.stats.l1_hits.incr();
                Some(v.clone())
            }
            Some(_) => {
                self.stats.verify_rejects.incr();
                self.stats.l1_misses.incr();
                None
            }
            None => {
                self.stats.l1_misses.incr();
                None
            }
        };
        if let Some(t0) = t0 {
            self.stats.ns_per_lookup.set(t0.elapsed().as_nanos() as f64);
        }
        out
    }

    /// Refills the slot for `hash`, overwriting whatever was there (the
    /// lossy discipline: no probing, no chains). Overwriting a *different*
    /// resident key counts an `l1_eviction`; rewriting the same key does
    /// not.
    pub fn insert(&mut self, hash: u64, key: K, value: V) {
        if !front_tier_enabled() {
            return;
        }
        let slot = &mut self.slots[self.slot_of(hash)];
        if let Some((k, _)) = slot {
            if *k != key {
                self.stats.l1_evictions.incr();
            }
        }
        *slot = Some((key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests here either toggle the process-wide switch or assert on hit
    /// counters, so they serialize on one lock (cargo runs tests of one
    /// binary concurrently).
    static SWITCH: Mutex<()> = Mutex::new(());

    fn counters(name: &str) -> [u64; 4] {
        [
            dtc_telemetry::counter(&format!("cache.{name}.l1_hits")).get(),
            dtc_telemetry::counter(&format!("cache.{name}.l1_misses")).get(),
            dtc_telemetry::counter(&format!("cache.{name}.l1_evictions")).get(),
            dtc_telemetry::counter(&format!("cache.{name}.verify_rejects")).get(),
        ]
    }

    #[test]
    fn hit_requires_full_key_equality() {
        let _g = SWITCH.lock().unwrap();
        let mut t: FrontTier<(u64, u64), u32> = FrontTier::new("test-basic", 8);
        t.insert(3, (10, 11), 42);
        assert_eq!(t.get(3, &(10, 11)), Some(42));
        assert_eq!(t.get(3, &(10, 12)), None, "same slot, different key: must reject");
        // The reject did not disturb the resident entry.
        assert_eq!(t.get(3, &(10, 11)), Some(42));
    }

    #[test]
    fn crafted_same_slot_collision_never_cross_serves() {
        let _g = SWITCH.lock().unwrap();
        // Two keys engineered onto the same slot: hashes differ only above
        // the mask. The tier must never serve one for the other, and each
        // mismatch must be counted as a verify reject.
        let mut t: FrontTier<u64, &'static str> = FrontTier::new("test-collide", 16);
        let (ha, hb) = (0x5, 0x5 + 16); // same slot under mask 15
        let [h0, m0, e0, r0] = counters("test-collide");
        t.insert(ha, 0xaaaa, "a");
        assert_eq!(t.get(hb, &0xbbbb), None, "colliding probe must verify-reject");
        t.insert(hb, 0xbbbb, "b"); // overwrites a (lossy eviction)
        assert_eq!(t.get(ha, &0xaaaa), None, "evicted key must miss, not serve b");
        assert_eq!(t.get(hb, &0xbbbb), Some("b"));
        let [h1, m1, e1, r1] = counters("test-collide");
        assert_eq!(h1 - h0, 1);
        assert_eq!(m1 - m0, 2);
        assert_eq!(e1 - e0, 1, "overwriting a foreign key is an eviction");
        assert_eq!(r1 - r0, 2, "both cross-key probes are verify rejects");
    }

    #[test]
    fn thrash_degrades_to_misses_not_wrong_answers() {
        let _g = SWITCH.lock().unwrap();
        // Working set 4x the capacity: almost everything is overwritten
        // before it is re-probed. Every probe must be a miss or a correct
        // hit — never a foreign value.
        let mut t: FrontTier<u64, u64> = FrontTier::new("test-thrash", 16);
        let [_, m0, e0, _] = counters("test-thrash");
        let mut hits = 0u32;
        for round in 0..4u64 {
            for k in 0..64u64 {
                match t.get(k, &k) {
                    Some(v) => {
                        assert_eq!(v, k * 2, "front tier served a foreign value");
                        hits += 1;
                    }
                    None => t.insert(k, k, k * 2),
                }
            }
            let _ = round;
        }
        let [_, m1, e1, _] = counters("test-thrash");
        assert!(m1 - m0 > 64, "thrash must show up as misses (fallback engaged)");
        assert!(e1 - e0 > 0, "overwrite-on-collision must be evicting");
        assert!(hits < 4 * 64, "a 4x-oversubscribed tier cannot hit everything");
    }

    #[test]
    fn steady_state_repeated_key_always_hits() {
        let _g = SWITCH.lock().unwrap();
        let mut t: FrontTier<u64, u64> = FrontTier::new("test-steady", 64);
        t.insert(7, 7, 70);
        for _ in 0..1000 {
            assert_eq!(t.get(7, &7), Some(70));
        }
    }

    #[test]
    fn disabled_tier_is_inert() {
        let _g = SWITCH.lock().unwrap();
        let mut t: FrontTier<u64, u64> = FrontTier::new("test-disabled", 8);
        t.insert(1, 1, 10);
        set_front_tier_enabled(false);
        let [h0, m0, ..] = counters("test-disabled");
        assert_eq!(t.get(1, &1), None, "disabled tier must miss");
        t.insert(2, 2, 20);
        set_front_tier_enabled(true);
        let [h1, m1, ..] = counters("test-disabled");
        assert_eq!([h1, m1], [h0, m0], "disabled probes must not count");
        assert_eq!(t.get(1, &1), Some(10), "pre-disable entry survives");
        assert_eq!(t.get(2, &2), None, "disabled insert must not land");
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let t: FrontTier<u64, u64> = FrontTier::new("test-cap", 100);
        assert_eq!(t.capacity(), 128);
        let t: FrontTier<u64, u64> = FrontTier::new("test-cap", 0);
        assert_eq!(t.capacity(), 1, "never zero slots");
    }
}
