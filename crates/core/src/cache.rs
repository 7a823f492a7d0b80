//! Keyed conversion cache: repeated pipeline builds over the same matrix
//! reuse the ME-TCF conversion instead of recomputing it.
//!
//! The paper's §6 point is that conversion overhead amortizes across the
//! thousands of SpMM calls an iterative workload makes; this cache makes
//! the host-side analogue concrete. The store is a plain `HashMap` keyed by
//! the matrix's full identity, [`KeyMaterial`] (dims, nnz and three
//! independently seeded 64-bit digests of the index and value arrays), so a
//! lookup costs one [`KeyMaterial::of`] pass plus one probe, and every hit
//! is checked by full key equality.
//!
//! Each entry holds its ME-TCF behind an `Arc`: an engine built from the
//! cache shares the entry's allocation instead of copying it, so one
//! matrix has one resident ME-TCF however many engines are built over it.
//! Hit/miss counts live in the process-wide [`dtc_telemetry`] registry
//! (`core.cache.conversion.hits` / `.misses`); [`conversion_cache_stats`]
//! is the thin reader over them.

use crate::error::DtcError;
use crate::telemetry::{
    conversion_cache_hits, conversion_cache_invalidations, conversion_cache_misses,
};
use dtc_formats::{CsrMatrix, MeTcfMatrix, BLOCK_WIDTH, WINDOW_HEIGHT};
use dtc_par::hash::{fnv1a, fnv1a_slice, Fnv1a};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One cached conversion: the ME-TCF build plus the distinct-column count
/// the L2 model needs (both derived from the same CSR walk).
#[derive(Debug)]
pub struct CachedConversion {
    /// The converted matrix, shared with every engine built from it.
    pub metcf: Arc<MeTcfMatrix>,
    /// Number of distinct columns of the source matrix.
    pub distinct_cols: usize,
}

/// Matrix identity: the conversion cache's key and the public identity
/// every prepared engine reports through [`crate::SpmmEngine::key`], so the
/// serving layer can key its engine pool on it.
///
/// Dims and nnz are stored outright; the three arrays are summarized by
/// differently seeded FNV-1a checksums, so two distinct matrices of equal
/// shape share a key only by three independent 64-bit coincidences.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyMaterial {
    rows: usize,
    cols: usize,
    nnz: usize,
    row_ptr_sum: u64,
    col_idx_sum: u64,
    value_sum: u64,
}

impl KeyMaterial {
    /// Computes the identity material of a matrix (three chunked-parallel
    /// checksum passes; digests are independent of `DTC_THREADS`).
    pub fn of(a: &CsrMatrix) -> Self {
        // Distinct offset bases decorrelate the three checksums (all use
        // the same FNV prime).
        KeyMaterial {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            row_ptr_sum: fnv1a_slice(0x6c62_272e_07bb_0142, a.row_ptr(), |&p| p as u64),
            col_idx_sum: fnv1a_slice(0xdead_beef_cafe_f00d, a.col_idx(), |&c| c as u64),
            value_sum: fnv1a_slice(0x0123_4567_89ab_cdef, a.values(), |v| v.to_bits() as u64),
        }
    }

    /// Computes the identity material of an ME-TCF matrix, bit-identical
    /// to [`KeyMaterial::of`] over its reconstructed CSR form — but
    /// without the triplet sort a full [`MeTcfMatrix::to_csr`] rebuild
    /// would pay, so a matrix patched in place by `apply_delta` keys
    /// identically to a fresh conversion of the edited CSR at a fraction
    /// of the cost. Pinned by `of_metcf_matches_of_over_the_roundtripped_csr`.
    ///
    /// Small matrices (every array at or below `fnv1a_slice`'s 64 Ki
    /// chunk, where that function is a plain serial fold) hash the three
    /// CSR-order streams straight out of the per-window row buckets with
    /// nothing materialized. Larger ones materialize via
    /// [`MeTcfMatrix::csr_arrays`] and defer to [`fnv1a_slice`], whose
    /// chunked-parallel digest a streaming fold could not reproduce.
    pub fn of_metcf(m: &MeTcfMatrix) -> Self {
        const CHUNK: usize = 64 * 1024; // fnv1a_slice's serial/chunked split
        let (rows, cols, nnz) = (m.rows(), m.cols(), m.nnz());
        if rows + 1 > CHUNK || nnz > CHUNK {
            let (row_ptr, col_idx, values) = m.csr_arrays();
            return KeyMaterial {
                rows,
                cols,
                nnz,
                row_ptr_sum: fnv1a_slice(0x6c62_272e_07bb_0142, &row_ptr, |&p| p as u64),
                col_idx_sum: fnv1a_slice(0xdead_beef_cafe_f00d, &col_idx, |&c| c as u64),
                value_sum: fnv1a_slice(0x0123_4567_89ab_cdef, &values, |v| v.to_bits() as u64),
            };
        }
        let mut row_hash = Fnv1a::with_seed(0x6c62_272e_07bb_0142);
        let mut col_hash = Fnv1a::with_seed(0xdead_beef_cafe_f00d);
        let mut val_hash = Fnv1a::with_seed(0x0123_4567_89ab_cdef);
        row_hash.word(0); // row_ptr[0]
                          // Same per-window bucketing pass as `MeTcfMatrix::csr_arrays`,
                          // folded straight into the hashers instead of materialized.
        let mut buckets: [Vec<(u32, u32)>; WINDOW_HEIGHT] = Default::default();
        let mut prefix = 0u64;
        for w in 0..m.num_windows() {
            for bucket in &mut buckets {
                bucket.clear();
            }
            for t in m.window_blocks(w) {
                let bcols = m.block_cols(t);
                let (ids, vals) = m.block_entries(t);
                for (&id, &v) in ids.iter().zip(vals) {
                    let local_row = (id / BLOCK_WIDTH as u8) as usize;
                    let local_col = (id % BLOCK_WIDTH as u8) as usize;
                    buckets[local_row].push((bcols[local_col], v.to_bits()));
                }
            }
            let base = w * WINDOW_HEIGHT;
            for (local_row, bucket) in buckets.iter().enumerate() {
                if base + local_row >= rows {
                    break;
                }
                prefix += bucket.len() as u64;
                row_hash.word(prefix);
                for &(c, bits) in bucket {
                    col_hash.word(c as u64);
                    val_hash.word(bits as u64);
                }
            }
        }
        KeyMaterial {
            rows,
            cols,
            nnz,
            row_ptr_sum: row_hash.finish(),
            col_idx_sum: col_hash.finish(),
            value_sum: val_hash.finish(),
        }
    }

    /// Rows of the identified matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the identified matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Structural non-zeros of the identified matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// A single 64-bit digest of the full material (dims, nnz and all
    /// three checksums): a compact label for logs and event streams, not
    /// an identity.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(
            0xa135_2969_7a6b_11c4,
            [
                self.rows as u64,
                self.cols as u64,
                self.nnz as u64,
                self.row_ptr_sum,
                self.col_idx_sum,
                self.value_sum,
            ]
            .into_iter(),
        )
    }
}

/// Bound on resident entries; reaching it clears the store (the workloads
/// we serve cycle over small dataset suites, so wholesale eviction is fine
/// and keeps the bookkeeping trivial).
const CACHE_CAP: usize = 64;

type Store = HashMap<KeyMaterial, Arc<CachedConversion>>;

static CACHE: OnceLock<Mutex<Store>> = OnceLock::new();

fn cache() -> &'static Mutex<Store> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Files `conversion` under `material`, clearing the store first if it is
/// full.
fn insert(material: KeyMaterial, conversion: Arc<CachedConversion>) {
    let mut c = cache().lock().unwrap();
    if c.len() >= CACHE_CAP {
        c.clear();
    }
    c.insert(material, conversion);
}

/// Returns the cached conversion for `a`, converting (and inserting) on
/// miss.
///
/// # Errors
///
/// Propagates the converter's `u32` offset-overflow guard
/// ([`DtcError::Format`]); nothing is cached on error.
pub fn metcf_for(a: &CsrMatrix) -> Result<Arc<CachedConversion>, DtcError> {
    let material = KeyMaterial::of(a);
    if let Some(hit) = cache().lock().unwrap().get(&material) {
        conversion_cache_hits().incr();
        return Ok(Arc::clone(hit));
    }
    conversion_cache_misses().incr();
    // Convert outside the lock: conversion fans out over worker threads and
    // other engines' lookups should not wait on it. The parallel converter
    // packs per-range sub-matrices inside the fan-out (bit-identical to
    // `MeTcfMatrix::from_csr`, pinned by the convert tests) — the plain
    // `from_csr` path condenses in parallel but packed serially, which
    // Amdahl-capped every cold engine build.
    let built = Arc::new(CachedConversion {
        metcf: Arc::new(crate::convert::convert_to_metcf_parallel(a, dtc_par::num_threads())?),
        distinct_cols: dtc_baselines::util::distinct_col_count(a),
    });
    insert(material, Arc::clone(&built));
    Ok(built)
}

/// Purges the cached conversion keyed by `material`, returning the number
/// of entries removed (0 or 1).
///
/// This is the conversion-cache arm of the delta-update invalidation
/// contract: after [`crate::DtcSpmm::apply_delta`] mutates a matrix, a
/// lookup under the pre-edit identity must miss.
pub fn invalidate_conversion(material: &KeyMaterial) -> usize {
    let Some(cache) = CACHE.get() else {
        return 0;
    };
    let removed = cache.lock().unwrap().remove(material).is_some();
    if removed {
        conversion_cache_invalidations().incr();
    }
    removed as usize
}

/// Seeds the cache with an already-built conversion for `a`, e.g. the
/// freshly patched ME-TCF a delta update produced. Sound because ME-TCF
/// packing is a pure function of the CSR content and the delta path is
/// bitwise-identical to a rebuild, so the seeded entry equals what a cold
/// conversion of `a` would compute.
pub fn admit_conversion(a: &CsrMatrix, conversion: Arc<CachedConversion>) {
    insert(KeyMaterial::of(a), conversion);
}

/// `(hits, misses)` of the process-wide conversion cache — a thin wrapper
/// over the `core.cache.conversion.*` registry counters.
pub fn conversion_cache_stats() -> (u64, u64) {
    (conversion_cache_hits().get(), conversion_cache_misses().get())
}

/// Empties the cache (counters are left running; tests diff them instead).
pub fn clear_conversion_cache() {
    if let Some(cache) = CACHE.get() {
        cache.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::uniform;

    #[test]
    fn same_matrix_hits_distinct_matrix_misses() {
        let a = uniform(128, 128, 900, 321);
        let first = metcf_for(&a).unwrap();
        let (_, misses0) = conversion_cache_stats();
        let again = metcf_for(&a).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "expected the cached Arc back");
        let (_, misses1) = conversion_cache_stats();
        assert_eq!(misses1, misses0, "second lookup must not convert");

        let b = uniform(128, 128, 900, 322); // same shape, different structure
        let other = metcf_for(&b).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        let (_, misses2) = conversion_cache_stats();
        assert_eq!(misses2, misses1 + 1);
    }

    #[test]
    fn invalidate_purges_and_admit_reseeds() {
        let a = uniform(144, 144, 1000, 8181);
        let first = metcf_for(&a).unwrap();
        let material = KeyMaterial::of(&a);

        assert_eq!(invalidate_conversion(&material), 1);
        // Post-invalidation lookup must reconvert (a fresh Arc), not serve
        // the purged entry.
        let (_, misses0) = conversion_cache_stats();
        let again = metcf_for(&a).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "invalidated entry must not be served");
        let (_, misses1) = conversion_cache_stats();
        assert_eq!(misses1, misses0 + 1);

        // Invalidating a non-resident identity is a no-op.
        assert_eq!(invalidate_conversion(&KeyMaterial::of(&uniform(32, 32, 60, 9))), 0);

        // Seeding an externally built conversion makes the next lookup hit
        // without converting.
        invalidate_conversion(&material);
        let seeded = Arc::new(CachedConversion {
            metcf: Arc::new(MeTcfMatrix::from_csr(&a)),
            distinct_cols: dtc_baselines::util::distinct_col_count(&a),
        });
        admit_conversion(&a, Arc::clone(&seeded));
        let (_, misses2) = conversion_cache_stats();
        let hit = metcf_for(&a).unwrap();
        assert!(Arc::ptr_eq(&hit, &seeded), "admitted conversion must be served");
        assert_eq!(conversion_cache_stats().1, misses2, "admitted entry must not reconvert");
    }

    #[test]
    fn of_metcf_matches_of_over_the_roundtripped_csr() {
        // The delta path keys a patched ME-TCF with `of_metcf` while every
        // other consumer keys the CSR with `of`; the two must agree bit
        // for bit or a post-edit lookup could serve a pre-edit artifact.
        // The last case crosses fnv1a_slice's 64 Ki chunk boundary, so it
        // exercises the materializing fallback, not the streaming fold.
        for (rows, cols, nnz, seed) in [
            (16, 16, 0, 1u64),
            (33, 40, 90, 2),
            (256, 256, 2000, 3),
            (100, 700, 4000, 4),
            (1200, 800, 70_000, 5),
        ] {
            let a = if nnz == 0 {
                CsrMatrix::from_triplets(rows, cols, &[]).unwrap()
            } else {
                uniform(rows, cols, nnz, seed)
            };
            let m = MeTcfMatrix::from_csr(&a);
            assert_eq!(KeyMaterial::of_metcf(&m), KeyMaterial::of(&a), "seed {seed}");
        }
    }

    #[test]
    fn key_depends_on_values_not_just_shape() {
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
        let b = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 2.5)]).unwrap();
        assert_ne!(KeyMaterial::of(&a), KeyMaterial::of(&b));
        assert_eq!(KeyMaterial::of(&a), KeyMaterial::of(&a.clone()));
    }

    #[test]
    fn cached_conversion_matches_direct() {
        let a = uniform(200, 150, 1200, 323);
        let cached = metcf_for(&a).unwrap();
        assert_eq!(*cached.metcf, MeTcfMatrix::from_csr(&a));
        assert_eq!(cached.distinct_cols, dtc_baselines::util::distinct_col_count(&a));
    }
}
