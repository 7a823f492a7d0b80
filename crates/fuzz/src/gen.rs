//! Seed-driven adversarial case generators.
//!
//! Each family targets an edge-case class the tiled TF32 pipeline is prone
//! to get wrong: degenerate shapes, tile-boundary straddles, duplicate
//! triplet canonicalization, power-law skew, IEEE special values. Every
//! case is a pure function of `(master_seed, index)`.

use dtc_formats::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One generated differential-testing case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Generator family that produced the case.
    pub family: &'static str,
    /// The per-case seed (derived from the master seed and index).
    pub seed: u64,
    /// The sparse operand.
    pub a: CsrMatrix,
    /// The dense operand (`a.cols()` x `n`).
    pub b: DenseMatrix,
}

/// Dense operand widths, biased towards values that are *not* multiples of
/// the 16x8 tile or the 32 B sector (4 and 20 give fractional sectors).
const N_CHOICES: [usize; 12] = [1, 3, 4, 7, 8, 12, 16, 17, 20, 31, 33, 64];

/// Dimensions that straddle the WINDOW_HEIGHT=16 / BLOCK_WIDTH=8 tiling.
/// 129 and 161 give ≥ 8 row windows, enough for the parallel ME-TCF
/// conversion to take the real merge path instead of its serial fallback.
const DIM_CHOICES: [usize; 16] = [1, 2, 3, 5, 7, 9, 15, 16, 17, 23, 31, 33, 47, 100, 129, 161];

/// The IEEE-754 special-value lattice: NaN, ±Inf, ±0, subnormals
/// (min-positive and max-subnormal), min-normal, and plain magnitudes.
const SPECIALS: [f32; 14] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    0.0,
    1.0e-39,           // mid subnormal
    -1.0e-39,          // negative subnormal
    1.1754942e-38,     // largest subnormal
    f32::MIN_POSITIVE, // smallest normal
    f32::EPSILON,
    1.0,
    -1.0,
    2.5,
    1.0e30,
];

/// Names of every generator family, in round-robin order.
pub fn family_names() -> &'static [&'static str] {
    &[
        "zero-nnz",
        "empty-rows",
        "single-col",
        "ragged-dims",
        "dup-unsorted",
        "power-law",
        "dense-blocks",
        "special-values",
        "near-dup-cache",
        "edit-script",
    ]
}

/// SplitMix64 step: derives the per-case seed from `(master, index)`.
fn case_seed(master: u64, index: usize) -> u64 {
    let mut z = master ^ (index as u64).wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Generates case `index` of the sweep seeded by `master_seed`.
///
/// Families are assigned round-robin so every prefix of a sweep covers
/// every family. The same `(master_seed, index)` always yields the same
/// case, independent of thread count or platform.
pub fn generate_case(master_seed: u64, index: usize) -> FuzzCase {
    let families = family_names();
    let family = families[index % families.len()];
    let seed = case_seed(master_seed, index);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = match family {
        "zero-nnz" => gen_zero_nnz(&mut rng),
        "empty-rows" => gen_empty_rows(&mut rng),
        "single-col" => gen_single_col(&mut rng),
        "ragged-dims" => gen_ragged_dims(&mut rng),
        "dup-unsorted" => gen_dup_unsorted(&mut rng),
        "power-law" => gen_power_law(&mut rng, seed),
        "dense-blocks" => gen_dense_blocks(&mut rng),
        "special-values" => gen_special_values(&mut rng),
        "near-dup-cache" => gen_near_dup_cache(&mut rng, master_seed),
        "edit-script" => gen_edit_script(&mut rng),
        other => unreachable!("unknown family {other}"),
    };
    let n = N_CHOICES[rng.random_range(0..N_CHOICES.len())];
    let b = gen_dense(&mut rng, a.cols(), n, family == "special-values");
    FuzzCase { family, seed, a, b }
}

/// A plain finite value in `[-2, 2)`.
fn val(rng: &mut StdRng) -> f32 {
    rng.random_range(-2.0f32..2.0)
}

/// The dense operand; the special-value family mixes the lattice in.
fn gen_dense(rng: &mut StdRng, k: usize, n: usize, specials: bool) -> DenseMatrix {
    DenseMatrix::from_fn(k, n, |_, _| {
        if specials && rng.random_range(0..4) == 0 {
            SPECIALS[rng.random_range(0..SPECIALS.len())]
        } else {
            val(rng)
        }
    })
}

/// A matrix with no stored entries at all.
fn gen_zero_nnz(rng: &mut StdRng) -> CsrMatrix {
    let rows = DIM_CHOICES[rng.random_range(0..DIM_CHOICES.len())];
    let cols = DIM_CHOICES[rng.random_range(0..DIM_CHOICES.len())];
    CsrMatrix::from_triplets(rows, cols, &[]).expect("empty triplets")
}

/// Several fully-empty 16-row windows; only a few rows inside one window
/// carry entries.
fn gen_empty_rows(rng: &mut StdRng) -> CsrMatrix {
    let rows = rng.random_range(33usize..170);
    let cols = DIM_CHOICES[rng.random_range(0..DIM_CHOICES.len())];
    let window = rng.random_range(0..rows.div_ceil(16));
    let populated = rng.random_range(1..4);
    let mut triplets = Vec::new();
    for _ in 0..populated {
        let r = (window * 16 + rng.random_range(0usize..16)).min(rows - 1);
        let deg = rng.random_range(1..=cols.min(6));
        for _ in 0..deg {
            triplets.push((r, rng.random_range(0..cols), val(rng)));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
}

/// K = 1: a single B row feeds every product.
fn gen_single_col(rng: &mut StdRng) -> CsrMatrix {
    let rows = DIM_CHOICES[rng.random_range(0..DIM_CHOICES.len())];
    let mut triplets = Vec::new();
    for r in 0..rows {
        if rng.random_range(0..3) > 0 {
            triplets.push((r, 0, val(rng)));
        }
    }
    CsrMatrix::from_triplets(rows, 1, &triplets).expect("in-bounds triplets")
}

/// M and K drawn from the tile-straddling dimension set, moderate fill.
fn gen_ragged_dims(rng: &mut StdRng) -> CsrMatrix {
    let rows = DIM_CHOICES[rng.random_range(0..DIM_CHOICES.len())];
    let cols = DIM_CHOICES[rng.random_range(0..DIM_CHOICES.len())];
    let nnz = rng.random_range(0..=(rows * cols).div_ceil(3));
    let mut triplets = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        triplets.push((rng.random_range(0..rows), rng.random_range(0..cols), val(rng)));
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
}

/// Duplicate and unsorted triplets, including `v`/`-v` pairs that sum to
/// an explicit stored zero after canonicalization.
fn gen_dup_unsorted(rng: &mut StdRng) -> CsrMatrix {
    let rows = rng.random_range(1usize..40);
    let cols = rng.random_range(1usize..40);
    let base = rng.random_range(1..60);
    let mut triplets = Vec::new();
    for _ in 0..base {
        let t = (rng.random_range(0..rows), rng.random_range(0..cols), val(rng));
        triplets.push(t);
        match rng.random_range(0..4) {
            0 => triplets.push(t),                    // exact duplicate
            1 => triplets.push((t.0, t.1, -t.2)),     // cancels to explicit zero
            2 => triplets.push((t.0, t.1, val(rng))), // summed duplicate
            _ => {}
        }
    }
    // Deterministic "unsorting": reverse, then interleave halves.
    triplets.reverse();
    let mid = triplets.len() / 2;
    let (lo, hi) = triplets.split_at(mid);
    let shuffled: Vec<_> = hi.iter().chain(lo.iter()).copied().collect();
    CsrMatrix::from_triplets(rows, cols, &shuffled).expect("in-bounds triplets")
}

/// Power-law degree extremes: near-flat and ultra-skewed exponents over
/// odd dimensions, with one dense mega-row appended.
fn gen_power_law(rng: &mut StdRng, seed: u64) -> CsrMatrix {
    let rows = 17 + 2 * rng.random_range(0usize..80);
    let cols = 17 + 2 * rng.random_range(0usize..80);
    let alpha = if rng.random_range(0..2) == 0 { 1.05 } else { 3.5 };
    let base = dtc_formats::gen::power_law(rows, cols, 4.0, alpha, seed ^ 0xA5);
    let mut triplets: Vec<(usize, usize, f32)> = base.iter().collect();
    let mega = rng.random_range(0..rows);
    for c in 0..cols {
        triplets.push((mega, c, val(rng)));
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
}

/// Dense 8x16 rectangles straddling the 16-row window boundary and the
/// 8-column block boundary.
fn gen_dense_blocks(rng: &mut StdRng) -> CsrMatrix {
    let rows = rng.random_range(24usize..48);
    let cols = rng.random_range(18usize..40);
    let mut triplets = Vec::new();
    // Block one: rows 12..20 straddle the window boundary at 16.
    let c0 = rng.random_range(1..cols - 16);
    for r in 12..20 {
        for c in c0..c0 + 16 {
            triplets.push((r, c, val(rng)));
        }
    }
    // Block two (optional): straddles the 8-column boundary.
    if rng.random_range(0..2) == 0 {
        let r0 = rng.random_range(0..rows - 8);
        for r in r0..r0 + 8 {
            for c in 4..12 {
                triplets.push((r, c, val(rng)));
            }
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
}

/// Small shapes with lattice values in A (and in B, chosen by the caller).
fn gen_special_values(rng: &mut StdRng) -> CsrMatrix {
    let rows = rng.random_range(1usize..24);
    let cols = rng.random_range(1usize..24);
    let nnz = rng.random_range(1..=(rows * cols).min(48));
    let mut triplets = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let v = if rng.random_range(0..2) == 0 {
            SPECIALS[rng.random_range(0..SPECIALS.len())]
        } else {
            val(rng)
        };
        triplets.push((rng.random_range(0..rows), rng.random_range(0..cols), v));
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
}

/// Near-duplicates of one sweep-wide base matrix: same shape and sparsity
/// structure, with at most one stored value changed by a single bit or a
/// sign flip. Every case of the family shares dims, nnz and both index
/// digests with the others, so a conversion cache keyed on anything less
/// than the full identity (value digest included) would cross-serve stale
/// conversions. The base is derived from the *master* seed (not the case
/// seed) so consecutive cases of the family really are near-duplicates.
fn gen_near_dup_cache(rng: &mut StdRng, master_seed: u64) -> CsrMatrix {
    let base = dtc_formats::gen::uniform(80, 80, 640, master_seed ^ 0x5EED_CACE);
    let mut triplets: Vec<(usize, usize, f32)> = base.iter().collect();
    match rng.random_range(0..3) {
        // Exact duplicate of the base: must hit the cache, not reconvert.
        0 => {}
        // One value nudged by its lowest mantissa bit: identical structure,
        // distinct identity.
        1 => {
            let i = rng.random_range(0..triplets.len());
            let (r, c, v) = triplets[i];
            triplets[i] = (r, c, f32::from_bits(v.to_bits() ^ 1));
        }
        // One sign flip.
        _ => {
            let i = rng.random_range(0..triplets.len());
            let (r, c, v) = triplets[i];
            triplets[i] = (r, c, -v);
        }
    }
    CsrMatrix::from_triplets(80, 80, &triplets).expect("in-bounds triplets")
}

/// Matrices shaped to stress the delta-update splice: entries piled onto
/// the rows flanking every 16-row window boundary (15/16, 31/32, …), a
/// deliberately empty window in the middle, and a ragged final window.
/// The runner's delta axis then derives an edit script from the case seed,
/// so patches hit exactly the windows whose re-based offsets are easiest
/// to get wrong.
fn gen_edit_script(rng: &mut StdRng) -> CsrMatrix {
    // 3..9 windows, last one ragged more often than not.
    let rows = rng.random_range(40usize..140);
    let cols = DIM_CHOICES[rng.random_range(0..DIM_CHOICES.len())].max(4);
    let empty_window = rng.random_range(0..rows.div_ceil(16));
    let mut triplets = Vec::new();
    for w in 0..rows.div_ceil(16) {
        if w == empty_window {
            continue;
        }
        // Boundary rows of this window (first and last), plus a couple of
        // interior rows.
        let base = w * 16;
        let last = (base + 15).min(rows - 1);
        for r in [base, last, base + rng.random_range(0usize..16).min(rows - 1 - base)] {
            let deg = rng.random_range(1..=cols.min(10));
            for _ in 0..deg {
                triplets.push((r, rng.random_range(0..cols), val(rng)));
            }
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit views for comparison: generated matrices carry NaN, under which
    /// `PartialEq` would report spurious divergence.
    fn csr_bits(a: &CsrMatrix) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
        (
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn generation_is_deterministic() {
        for index in 0..16 {
            let a = generate_case(42, index);
            let b = generate_case(42, index);
            assert_eq!(a.family, b.family);
            assert_eq!(csr_bits(&a.a), csr_bits(&b.a));
            let a_bits: Vec<u32> = a.b.as_slice().iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u32> = b.b.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn families_round_robin() {
        let families = family_names();
        for (index, &family) in families.iter().enumerate() {
            assert_eq!(generate_case(1, index).family, family);
        }
    }

    #[test]
    fn b_matches_a_shape() {
        for index in 0..32 {
            let case = generate_case(3, index);
            assert_eq!(case.b.rows(), case.a.cols(), "family {}", case.family);
            assert!(case.b.cols() > 0);
        }
    }

    #[test]
    fn zero_nnz_family_is_empty() {
        let case = generate_case(5, 0);
        assert_eq!(case.family, "zero-nnz");
        assert_eq!(case.a.nnz(), 0);
    }
}
