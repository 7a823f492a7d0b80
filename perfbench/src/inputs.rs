//! The workloads' inputs, all derived from the seed: matrices drawn from
//! the Table-1 generator families, dense operands, and edit batches.

use crate::rng::{derive, Rng};
use dtc_formats::{gen, CsrMatrix, DenseMatrix, MatrixDelta, WINDOW_HEIGHT};

/// The ROADMAP's execute-baseline matrix: a 12288²
/// planted-community graph with 784,467 non-zeros. Fixed; the seed varies
/// the dense operand.
pub fn baseline_matrix() -> CsrMatrix {
    gen::community(12288, 12288, 48, 64.0, 0.9, 2024)
}

/// The `WB` (web-BerkStan) stand-in of Table 1, as `dtc-datasets`
/// defines it: web graph, 16384², ~172K non-zeros, 1024 row windows.
/// Fixed; the seed varies the edit stream and the dense operand.
pub fn wb_matrix() -> CsrMatrix {
    gen::web(16384, 16384, 11.09, 2.1, 0.75, 0xA005)
}

/// Generator family of a cold-build matrix.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// Planted-community graph (Type I, short rows).
    Community,
    /// Web / power-law graph (Type I, skewed short rows).
    Web,
    /// Log-normal long rows (Type II).
    LongRow,
}

/// Non-zero targets of the cold-build size classes (30K–200K).
pub const COLD_NNZ: [usize; 4] = [30_000, 60_000, 120_000, 200_000];
pub const FAMILIES: [Family; 3] = [Family::Community, Family::Web, Family::LongRow];

/// Number of (family, size) classes the cold-build stream cycles through.
pub fn cold_classes() -> usize {
    FAMILIES.len() * COLD_NNZ.len()
}

/// Cold-build matrix `i` of the stream: class `i mod 12`, fresh structure
/// and values from `(seed, i)`. Cycling the classes keeps every run's mix
/// identical, so seeds vary structure, never the size distribution.
pub fn cold_matrix(seed: u64, stream: &str, i: u64) -> CsrMatrix {
    let class = i as usize % cold_classes();
    let family = FAMILIES[class % FAMILIES.len()];
    let nnz = COLD_NNZ[class / FAMILIES.len()];
    family_matrix(family, nnz, derive(seed, stream, i))
}

/// A matrix of `family` with roughly `nnz` non-zeros.
pub fn family_matrix(family: Family, nnz: usize, seed: u64) -> CsrMatrix {
    match family {
        Family::Community => {
            let rows = nnz / 8;
            gen::community(rows, rows, (rows / 256).max(1), 8.0, 0.9, seed)
        }
        Family::Web => {
            let rows = nnz / 10;
            gen::web(rows, rows, 10.0, 2.1, 0.75, seed)
        }
        Family::LongRow => gen::long_row(nnz / 250, 4096, 250.0, 1.0, seed),
    }
}

/// A dense operand with `n` columns, values in `[-1, 1)`.
pub fn dense(rows: usize, n: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng::new(seed);
    DenseMatrix::from_fn(rows, n, |_, _| (rng.unit() * 2.0 - 1.0) as f32)
}

/// A small edit batch over `a`: 1–4 distinct row windows, 1–6 edits in each,
/// mixing inserts, value updates and deletes of stored entries.
pub fn edit_batch(a: &CsrMatrix, rng: &mut Rng) -> MatrixDelta {
    let windows = a.rows().div_ceil(WINDOW_HEIGHT);
    let touched = 1 + rng.below(4);
    let mut picked: Vec<usize> = Vec::with_capacity(touched);
    while picked.len() < touched.min(windows) {
        let w = rng.below(windows);
        if !picked.contains(&w) {
            picked.push(w);
        }
    }
    let mut delta = MatrixDelta::new();
    for w in picked {
        let lo = w * WINDOW_HEIGHT;
        let hi = (lo + WINDOW_HEIGHT).min(a.rows());
        for _ in 0..1 + rng.below(6) {
            let row = lo + rng.below(hi - lo);
            let (cols, _) = a.row_entries(row);
            let value = (rng.unit() * 2.0 - 1.0) as f32;
            match rng.below(3) {
                0 if !cols.is_empty() => {
                    delta.update(row, cols[rng.below(cols.len())] as usize, value)
                }
                1 if !cols.is_empty() => delta.delete(row, cols[rng.below(cols.len())] as usize),
                _ => delta.insert(row, rng.below(a.cols()), value),
            }
        }
    }
    delta
}

/// One serving tenant's matrix: ten stand-ins spanning Type I (community,
/// web) and Type II (long-row), 40K–150K non-zeros. Listed in popularity
/// order, so Type II tenants sit at ranks 2, 5 and 8.
pub fn tenant_matrix(seed: u64, t: usize) -> CsrMatrix {
    let s = derive(seed, "serve.tenant", t as u64);
    match t {
        0 => gen::web(8192, 8192, 11.0, 2.1, 0.75, s),
        1 => gen::long_row(512, 2048, 300.0, 1.6, s),
        2 => gen::community_with_shuffle(8192, 8192, 128, 5.0, 0.8, 0.3, s),
        3 => gen::community(6144, 6144, 48, 12.0, 0.9, s),
        4 => gen::long_row(384, 1536, 400.0, 1.0, s),
        5 => gen::web(12288, 12288, 8.0, 2.1, 0.75, s),
        6 => gen::community_with_shuffle(12288, 12288, 192, 4.0, 0.85, 0.3, s),
        7 => gen::long_row(256, 1024, 500.0, 0.7, s),
        8 => gen::web(4096, 4096, 11.0, 2.1, 0.75, s),
        _ => gen::community(16384, 16384, 64, 6.0, 0.9, s),
    }
}

pub const TENANTS: usize = 10;

/// Zipf(1.1) popularity weights over the tenants' ranks.
pub fn zipf_weights(n: usize) -> Vec<f64> {
    (1..=n).map(|r| 1.0 / (r as f64).powf(1.1)).collect()
}
