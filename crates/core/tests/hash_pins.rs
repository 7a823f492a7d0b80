//! Pins the persisted-key digests: the shared FNV-1a dedup must keep every
//! digest byte-identical to the original per-crate implementations, or
//! cached conversions / pooled engines keyed before an upgrade would all
//! miss after it.

use dtc_core::{EngineConfig, KeyMaterial};
use dtc_formats::CsrMatrix;
use dtc_sim::Device;

fn fixed_matrix() -> CsrMatrix {
    CsrMatrix::from_triplets(
        4,
        5,
        &[(0, 1, 1.0), (0, 4, -2.5), (1, 0, 0.5), (2, 2, 3.25), (3, 3, -0.125)],
    )
    .expect("valid triplets")
}

#[test]
fn persisted_key_digests_are_pinned() {
    // Golden values captured from the pre-dedup per-crate implementations.
    let a = fixed_matrix();
    assert_eq!(KeyMaterial::of(&a).fingerprint(), 0xeec5_16a6_bed0_2edc);
    assert_eq!(EngineConfig::default().fingerprint(), 0xbda8_4a7a_db2d_840a);
    assert_eq!(Device::rtx4090().fingerprint(), 0x9d11_9efe_98a4_e684);
    assert_eq!(Device::rtx3090().fingerprint(), 0xe06d_047d_3add_6827);
}

#[test]
fn fingerprints_separate_nearby_inputs() {
    let a = fixed_matrix();
    // Same structure, one value bit-pattern changed.
    let bumped = CsrMatrix::from_triplets(
        4,
        5,
        &[(0, 1, 1.0), (0, 4, -2.5), (1, 0, 0.5), (2, 2, 3.25), (3, 3, -0.25)],
    )
    .expect("valid triplets");
    assert_ne!(KeyMaterial::of(&a).fingerprint(), KeyMaterial::of(&bumped).fingerprint());
    assert_ne!(Device::rtx4090().fingerprint(), Device::rtx3090().fingerprint());
}
