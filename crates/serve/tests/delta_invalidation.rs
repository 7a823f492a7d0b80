//! Cross-layer delta-invalidation property suite.
//!
//! The delta-update contract says that after [`DtcSpmm::apply_delta`]
//! mutates a matrix in place, **no caching layer may serve a pre-edit
//! artifact**: the process-wide conversion cache, the engine's trace
//! cache (and the duration classes interned inside its traces), and the
//! serving layer's [`EnginePool`] slots keyed by the mutated matrix's
//! [`KeyMaterial`]. These properties drive arbitrary edit scripts through
//! the full stack and check every layer either misses or serves post-edit
//! state — plus a near-duplicate neighbor (one value bit apart from the
//! edited matrix) that the purge must leave resident.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dtc_core::cache::metcf_for;
use dtc_core::{
    invalidate_conversion, DeltaPolicy, DtcSpmm, EngineConfig, EngineKind, KeyMaterial, MatrixDelta,
};
use dtc_formats::{gen::uniform, CsrMatrix, DenseMatrix, MeTcfMatrix};
use dtc_serve::{Request, ServeConfig, SpmmServer};
use dtc_sim::Device;
use proptest::prelude::*;

/// Every case works on a matrix nothing else in the process has touched,
/// so cache-state assertions (entry counts, purge returns) are exact even
/// with tests running in parallel threads.
static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn fresh_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let uniq = UNIQUE.fetch_add(1, Ordering::SeqCst);
    uniform(rows, cols, nnz, seed ^ uniq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Folds a generated op list into an in-bounds edit batch: upserts,
/// updates of possibly-absent coordinates and deletes (possibly of absent
/// coordinates) all mixed, exactly the tolerant surface `MatrixDelta`
/// exposes.
fn delta_from_ops(a: &CsrMatrix, ops: &[(u64, u64, u8, i32)]) -> MatrixDelta {
    let mut delta = MatrixDelta::new();
    for &(row_sel, col_sel, kind, raw) in ops {
        let row = row_sel as usize % a.rows();
        let col = col_sel as usize % a.cols();
        let value = if raw == 0 { 1.5 } else { raw as f32 * 0.25 };
        match kind % 3 {
            0 => delta.insert(row, col, value),
            1 => delta.update(row, col, -value),
            _ => delta.delete(row, col),
        }
    }
    if delta.is_empty() {
        delta.insert(0, 0, 2.0);
    }
    delta
}

fn value_bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary edit script, full stack: conversion cache, engine pool,
    /// trace cache. After the edit every layer misses under the pre-edit
    /// identity and everything served afterwards is post-edit state.
    #[test]
    fn every_layer_misses_or_serves_post_edit_artifacts(
        dims in (48usize..112, 32usize..80, 0u64..1 << 32),
        ops in proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32, 0u8..6, -8i32..8), 1..12),
    ) {
        let (rows, cols, seed) = dims;
        let a = fresh_matrix(rows, cols, rows * 4, seed);
        let delta = delta_from_ops(&a, &ops);
        let edited = delta.apply_to_csr(&a).expect("in-bounds by construction");
        let pre_material = KeyMaterial::of(&a);
        let device = Device::rtx4090();
        let config = EngineConfig::default();

        // Warm every layer under the pre-edit identity.
        let server = SpmmServer::new(ServeConfig { admission_verify: false, ..Default::default() });
        let b = DenseMatrix::from_fn(a.cols(), 8, |r, c| ((r * 5 + c) % 13) as f32 * 0.5 - 3.0);
        let request = |m: &CsrMatrix| Request {
            tenant: 0,
            kind: EngineKind::Dtc,
            config: config.clone(),
            matrix: Arc::new(m.clone()),
            b: b.clone(),
        };
        server.serve_one(request(&a)).expect("pre-edit serve");
        prop_assert_eq!(server.pool().len(), 1);
        let mut engine = DtcSpmm::new(&a);
        let _warm_trace = engine.trace(8, &device, false);

        // The edit, then the serving layer's invalidation hook.
        engine.apply_delta(&delta, &DeltaPolicy::default()).expect("in-bounds delta");
        let dropped = server.invalidate_matrix(&pre_material);
        prop_assert_eq!(dropped, 1, "exactly the pooled pre-edit engine must drop");
        prop_assert!(server.pool().is_empty());

        // Conversion cache: the pre-edit conversion is gone — purging the
        // pre-edit identity again finds nothing.
        // (Checked before any rebuild, which would legitimately re-admit
        // when the script happens to be a no-op and `edited == a`.)
        prop_assert_eq!(invalidate_conversion(&pre_material), 0);

        // The patched engine IS post-edit state: identity, format, trace
        // and output all match a fresh build over the edited matrix.
        let fresh = DtcSpmm::new(&edited);
        prop_assert_eq!(engine.key(), &KeyMaterial::of(&edited));
        prop_assert!(engine.metcf() == fresh.metcf(), "patched ME-TCF diverged from rebuild");
        prop_assert_eq!(
            engine.trace(8, &device, false).iter_tbs().count(),
            fresh.trace(8, &device, false).iter_tbs().count(),
        );

        // Pool rebuild under the post-edit identity serves post-edit
        // output, bitwise equal to the patched engine's.
        let served = server.serve_one(request(&edited)).expect("post-edit serve");
        let patched_out = engine.execute(&b).expect("patched execute");
        prop_assert_eq!(value_bits(&served), value_bits(&patched_out));

        // And the conversion cache now serves only the post-edit format.
        let conv = metcf_for(&edited).expect("within u32 bounds");
        prop_assert!(*conv.metcf == *engine.metcf());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Near-duplicate neighbor: B is A with one stored value's lowest bit
    /// flipped, so the two share dims, nnz and both index digests. Purging
    /// A's pre-edit identity must leave B resident (the same `Arc` comes
    /// back) and A's pre-edit identity missing, in both residency orders.
    #[test]
    fn near_duplicate_neighbor_survives_the_purge(
        seed in 0u64..1 << 32,
        a_last in any::<bool>(),
    ) {
        let a = fresh_matrix(64, 64, 400, seed);
        let mut triplets: Vec<(usize, usize, f32)> = a.iter().collect();
        let (r, c, v) = triplets[0];
        triplets[0] = (r, c, f32::from_bits(v.to_bits() ^ 1));
        let b = CsrMatrix::from_triplets(64, 64, &triplets).expect("in-bounds triplets");
        let material_a = KeyMaterial::of(&a);
        prop_assert!(KeyMaterial::of(&b) != material_a);

        let arc_b = if a_last {
            let arc_b = metcf_for(&b).expect("within u32 bounds");
            metcf_for(&a).expect("within u32 bounds");
            arc_b
        } else {
            metcf_for(&a).expect("within u32 bounds");
            metcf_for(&b).expect("within u32 bounds")
        };

        let mut engine = DtcSpmm::new(&a);
        let mut delta = MatrixDelta::new();
        delta.insert(3, 7, 4.25);
        delta.delete(1, 1);
        engine.apply_delta(&delta, &DeltaPolicy::default()).expect("in-bounds delta");

        // The purge took exactly A's identity: B is still resident (same
        // Arc back), A's pre-edit identity is gone, and the edited
        // identity resolves to post-edit state only.
        let b_again = metcf_for(&b).expect("within u32 bounds");
        prop_assert!(Arc::ptr_eq(&arc_b, &b_again), "neighbor evicted by a foreign purge");
        prop_assert_eq!(invalidate_conversion(&material_a), 0);
        let edited = delta.apply_to_csr(&a).expect("in-bounds delta");
        let conv = metcf_for(&edited).expect("within u32 bounds");
        prop_assert!(*conv.metcf == MeTcfMatrix::from_csr(&edited));
        prop_assert!(*conv.metcf == *engine.metcf());
    }
}
