//! Per-worker scratch memory: reset-not-free buffer pools.
//!
//! Every sharded hot loop in the workspace used to allocate per work item
//! (a `Vec` of touched windows per thread block, a set-indexed tag table
//! per L2 replay shard, a column-dedup buffer per row window). A
//! [`ScratchArena`] turns those into leases: `take` hands back a cleared
//! buffer whose capacity survives from earlier items, `recycle` returns it
//! to the pool. Steady-state shard execution therefore performs **zero**
//! heap allocations — the property is pinned by a counting-allocator test
//! (`tests/steady_state_alloc.rs`), not by inspection.
//!
//! Arenas live in a process-wide pool keyed by worker index, so capacity
//! built up by one `par_map_collect` invocation is reused by the next.
//! Workers acquire a slot with `try_lock` and scan forward on contention;
//! if the whole pool is busy (deep nesting, external threads) they fall
//! back to a fresh local arena rather than block — correctness never
//! depends on which arena a worker gets, only steady-state allocation
//! behaviour does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Typed pools of reusable scratch buffers. See the module docs.
///
/// All `take`-style methods return a **cleared** buffer (length 0, or the
/// requested shape for [`ScratchArena::u64_table`]) that retains whatever
/// capacity it accumulated in earlier leases. Callers return buffers with
/// the matching `recycle_*` method; dropping one instead is safe but
/// forfeits its capacity.
#[derive(Debug, Default)]
pub struct ScratchArena {
    usize_bufs: Vec<Vec<usize>>,
    u32_bufs: Vec<Vec<u32>>,
    u64_bufs: Vec<Vec<u64>>,
    f64_bufs: Vec<Vec<f64>>,
    pair_bufs: Vec<Vec<(usize, u64)>>,
    u64_tables: Vec<Vec<Vec<u64>>>,
    /// Bytes currently retained by this arena's pools (capacity, not len).
    retained_bytes: usize,
}

/// Total bytes retained across every pooled arena, and the peak of that
/// total — exported as the `par.arena.bytes_peak` gauge.
static TOTAL_RETAINED: AtomicU64 = AtomicU64::new(0);
static PEAK_RETAINED: AtomicU64 = AtomicU64::new(0);

macro_rules! scalar_pool {
    ($take:ident, $recycle:ident, $field:ident, $ty:ty) => {
        /// Leases a cleared buffer from the pool (capacity retained).
        pub fn $take(&mut self) -> Vec<$ty> {
            match self.$field.pop() {
                Some(mut v) => {
                    self.note_released(v.capacity() * std::mem::size_of::<$ty>());
                    v.clear();
                    v
                }
                None => Vec::new(),
            }
        }

        /// Returns a leased buffer to the pool for the next work item.
        pub fn $recycle(&mut self, v: Vec<$ty>) {
            self.note_retained(v.capacity() * std::mem::size_of::<$ty>());
            self.$field.push(v);
        }
    };
}

impl ScratchArena {
    /// An empty arena holding no buffers.
    pub fn new() -> Self {
        Self::default()
    }

    scalar_pool!(usize_buf, recycle_usize, usize_bufs, usize);
    scalar_pool!(u32_buf, recycle_u32, u32_bufs, u32);
    scalar_pool!(u64_buf, recycle_u64, u64_bufs, u64);
    scalar_pool!(f64_buf, recycle_f64, f64_bufs, f64);
    scalar_pool!(pair_buf, recycle_pair, pair_bufs, (usize, u64));

    /// Leases a table of `len` cleared `Vec<u64>` rows (an L2 replay shard's
    /// per-set tag lists). Row capacities are retained across leases when
    /// the requested `len` matches; a longer request extends with empty
    /// (allocation-free) rows.
    pub fn u64_table(&mut self, len: usize) -> Vec<Vec<u64>> {
        let mut t = match self.u64_tables.pop() {
            Some(t) => {
                self.note_released(table_bytes(&t));
                t
            }
            None => Vec::new(),
        };
        t.truncate(len);
        for row in &mut t {
            row.clear();
        }
        t.resize_with(len, Vec::new);
        t
    }

    /// Returns a table leased with [`ScratchArena::u64_table`].
    pub fn recycle_u64_table(&mut self, t: Vec<Vec<u64>>) {
        self.note_retained(table_bytes(&t));
        self.u64_tables.push(t);
    }

    /// Bytes of buffer capacity currently parked in this arena.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    fn note_retained(&mut self, bytes: usize) {
        self.retained_bytes += bytes;
        let total = TOTAL_RETAINED.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        let peak = PEAK_RETAINED.fetch_max(total, Ordering::Relaxed).max(total);
        dtc_telemetry::metric!(gauge, "par.arena.bytes_peak").set(peak as f64);
    }

    fn note_released(&mut self, bytes: usize) {
        self.retained_bytes -= bytes;
        TOTAL_RETAINED.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

// `&Vec` on purpose: the *outer* capacity is part of the retained bytes.
#[allow(clippy::ptr_arg)]
fn table_bytes(t: &Vec<Vec<u64>>) -> usize {
    t.capacity() * std::mem::size_of::<Vec<u64>>()
        + t.iter().map(|row| row.capacity() * 8).sum::<usize>()
}

impl Drop for ScratchArena {
    fn drop(&mut self) {
        // A dropped arena's capacity leaves the process-wide total (pooled
        // arenas are never dropped; this covers contention fallbacks).
        TOTAL_RETAINED.fetch_sub(self.retained_bytes as u64, Ordering::Relaxed);
    }
}

/// Pool slots. Far above any realistic worker count; workers hash in by
/// index so steady-state runs re-acquire "their" arena every invocation.
const POOL_SLOTS: usize = 64;

fn pool() -> &'static [Mutex<ScratchArena>; POOL_SLOTS] {
    static POOL: OnceLock<[Mutex<ScratchArena>; POOL_SLOTS]> = OnceLock::new();
    POOL.get_or_init(|| std::array::from_fn(|_| Mutex::new(ScratchArena::new())))
}

/// Runs `f` with the pooled arena preferred by `worker`, scanning forward
/// under contention and falling back to a local arena if every slot is
/// busy (never blocks, so nested parallel sections cannot deadlock).
pub(crate) fn with_worker_arena<R>(worker: usize, f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    dtc_telemetry::metric!(counter, "par.arena.resets").incr();
    let pool = pool();
    let start = worker % POOL_SLOTS;
    for k in 0..POOL_SLOTS {
        if let Ok(mut arena) = pool[(start + k) % POOL_SLOTS].try_lock() {
            return f(&mut arena);
        }
    }
    f(&mut ScratchArena::new())
}

/// Runs `f` with a pooled [`ScratchArena`] on the calling thread.
///
/// For serial code paths that share a lowering routine with sharded
/// execution (e.g. `l2_shard_counts` replaying shards one by one): the same
/// lease discipline applies, so the serial path is as allocation-free as
/// the parallel one.
pub fn with_arena<R>(f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    with_worker_arena(0, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_keep_capacity_across_leases() {
        let mut arena = ScratchArena::new();
        let mut v = arena.usize_buf();
        v.extend(0..1000);
        let cap = v.capacity();
        arena.recycle_usize(v);
        let v2 = arena.usize_buf();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap, "recycled capacity must survive");
        arena.recycle_usize(v2);
    }

    #[test]
    fn table_reshapes_without_losing_rows() {
        let mut arena = ScratchArena::new();
        let mut t = arena.u64_table(8);
        for row in &mut t {
            row.extend(0..64);
        }
        let caps: Vec<usize> = t.iter().map(Vec::capacity).collect();
        arena.recycle_u64_table(t);
        let t2 = arena.u64_table(8);
        assert!(t2.iter().all(Vec::is_empty));
        for (row, cap) in t2.iter().zip(&caps) {
            assert_eq!(row.capacity(), *cap);
        }
        arena.recycle_u64_table(t2);
        // Shrinking and re-growing stays consistent.
        let t3 = arena.u64_table(3);
        assert_eq!(t3.len(), 3);
        arena.recycle_u64_table(t3);
        let t4 = arena.u64_table(10);
        assert_eq!(t4.len(), 10);
        assert!(t4.iter().all(Vec::is_empty));
    }

    #[test]
    fn retained_bytes_balance() {
        let mut arena = ScratchArena::new();
        let mut v = arena.u64_buf();
        v.extend(0..100u64);
        let bytes = v.capacity() * 8;
        arena.recycle_u64(v);
        assert_eq!(arena.retained_bytes(), bytes);
        let _ = arena.u64_buf();
        assert_eq!(arena.retained_bytes(), 0);
    }

    #[test]
    fn with_arena_reuses_pool_slot() {
        with_arena(|arena| {
            let mut v = arena.f64_buf();
            v.resize(4096, 0.0);
            arena.recycle_f64(v);
        });
        let cap = with_arena(|arena| {
            let v = arena.f64_buf();
            let cap = v.capacity();
            arena.recycle_f64(v);
            cap
        });
        assert!(cap >= 4096, "pool slot 0 must hand back the grown buffer");
    }
}
