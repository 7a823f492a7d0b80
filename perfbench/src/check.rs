//! Output checks. Each runs outside the timed region; a mismatch counts
//! the operation as failed.

use dtc_formats::{CsrMatrix, DenseMatrix};
use dtc_fuzz::oracle::{check_against, Reference};

/// Bitwise digest of a dense result.
pub fn digest(c: &DenseMatrix) -> u64 {
    dtc_par::hash::fnv1a_slice(dtc_par::hash::FNV_OFFSET, c.as_slice(), |v| v.to_bits() as u64)
}

/// Bitwise equality of two dense results (shape and every bit).
pub fn bitwise_eq(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The TF32 error envelope of `dtc_fuzz::oracle`: every element of `got`
/// within its bound of the exact f64 product `a·b`, NaN and infinities
/// adjudicated structurally. Returns the first element outside it.
pub fn envelope(a: &CsrMatrix, b: &DenseMatrix, got: &DenseMatrix) -> Result<(), String> {
    match check_against(&Reference::compute(a, b), got) {
        None => Ok(()),
        Some(m) => Err(m.to_string()),
    }
}
