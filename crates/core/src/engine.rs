//! The single front door that prepares an engine behind the shared
//! execution trait.
//!
//! Every engine in the workspace implements
//! [`SpmmKernel`](dtc_baselines::SpmmKernel): exact execution, a lowering to
//! a simulator trace, and simulation. [`prepare`] pays all one-time costs
//! (reordering, ME-TCF conversion, Selector simulation, baseline format
//! builds) and returns the prepared engine boxed behind that trait, so the
//! serving layer (`dtc-serve`) pools the DTC pipeline ([`DtcSpmm`]) and the
//! baselines alike as `Arc<dyn SpmmKernel>`. The pool keys engines on the
//! request's [`KeyMaterial`](crate::KeyMaterial), so the trait carries no
//! identity of its own.

use crate::config::EngineConfig;
use crate::error::DtcError;
use crate::DtcSpmm;
use dtc_baselines::SpmmKernel;
use dtc_formats::CsrMatrix;

/// Which engine family [`prepare`] builds behind the trait.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The full DTC-SpMM pipeline ([`DtcSpmm`]).
    Dtc,
    /// The conversion-free cuSPARSE baseline.
    Cusparse,
    /// The Sputnik CUDA-core baseline.
    Sputnik,
    /// The TCGNN tensor-core baseline.
    Tcgnn,
}

impl EngineKind {
    /// Stable label for reports and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Dtc => "dtc",
            EngineKind::Cusparse => "cusparse",
            EngineKind::Sputnik => "sputnik",
            EngineKind::Tcgnn => "tcgnn",
        }
    }
}

/// Prepares an engine of the requested family: pays every one-time cost
/// (reorder, conversion, selection, baseline format build) now and returns
/// the boxed prepared engine. This is the single front door `dtc-serve`
/// builds pool entries through.
///
/// # Errors
///
/// Propagates baseline construction failures (e.g. TCGNN's square-matrix
/// restriction) as [`DtcError::Format`].
pub fn prepare(
    kind: EngineKind,
    config: &EngineConfig,
    a: &CsrMatrix,
) -> Result<Box<dyn SpmmKernel>, DtcError> {
    Ok(match kind {
        EngineKind::Dtc => Box::new(DtcSpmm::builder().config(config.clone()).try_build(a)?),
        EngineKind::Cusparse => Box::new(dtc_baselines::CusparseSpmm::new(a)),
        EngineKind::Sputnik => Box::new(dtc_baselines::SputnikSpmm::new(a)?),
        EngineKind::Tcgnn => Box::new(dtc_baselines::TcgnnSpmm::new(a)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyMaterial;
    use dtc_formats::gen::{power_law, uniform};
    use dtc_formats::DenseMatrix;

    /// The trait must stay object-safe and shareable across threads: this
    /// is the serving layer's whole premise. Moving the boxed engines into
    /// scoped threads makes the `Send + Sync` supertrait a compile-time
    /// check.
    #[test]
    fn prepared_engines_are_object_safe_and_cross_threads() {
        let a = power_law(128, 128, 6.0, 2.2, 9);
        let config = EngineConfig::default();
        let engines: Vec<Box<dyn SpmmKernel>> =
            [EngineKind::Dtc, EngineKind::Cusparse, EngineKind::Sputnik, EngineKind::Tcgnn]
                .into_iter()
                .map(|kind| prepare(kind, &config, &a).unwrap())
                .collect();
        let b = DenseMatrix::ones(128, 8);
        std::thread::scope(|s| {
            for e in engines {
                let (b, device) = (&b, &config.device);
                s.spawn(move || {
                    assert_eq!(e.rows(), 128, "{}", e.name());
                    let c = e.execute(b).unwrap();
                    assert_eq!(c.rows(), 128);
                    let r = e.simulate(8, device);
                    assert!(r.time_ms > 0.0, "{}", e.name());
                });
            }
        });
    }

    #[test]
    fn key_is_of_the_source_matrix_even_under_reordering() {
        let a = power_law(256, 256, 8.0, 2.2, 10);
        let e = DtcSpmm::builder().reorder(true).build(&a);
        assert!(e.permutation().is_some());
        assert_eq!(*e.key(), KeyMaterial::of(&a));
    }

    #[test]
    fn prepare_propagates_baseline_restrictions() {
        // TCGNN refuses non-square matrices; the front door must surface
        // that as DtcError::Format, not panic.
        let a = uniform(64, 32, 128, 11);
        match prepare(EngineKind::Tcgnn, &EngineConfig::default(), &a) {
            Err(DtcError::Format(_)) => {}
            Err(other) => panic!("expected DtcError::Format, got {other:?}"),
            Ok(_) => panic!("non-square TCGNN prepare must fail"),
        }
    }

    #[test]
    fn engine_results_match_direct_kernel_bitwise() {
        let a = power_law(192, 192, 7.0, 2.1, 12);
        let b = DenseMatrix::from_fn(192, 16, |r, c| ((r * 13 + c * 5) % 23) as f32 * 0.125 - 1.0);
        let direct = DtcSpmm::new(&a);
        let via_trait = prepare(EngineKind::Dtc, &EngineConfig::default(), &a).unwrap();
        let want = direct.execute(&b).unwrap();
        let got = via_trait.execute(&b).unwrap();
        assert_eq!(want, got, "trait path must be bitwise-identical");
    }
}
