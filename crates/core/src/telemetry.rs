//! Handles to dtc-core's entries in the process-wide
//! [`dtc_telemetry`] registry.
//!
//! Counter names are part of the crate's observable surface (tests and the
//! `DTC_METRICS` JSON snapshot key on them), so they are defined once here:
//!
//! | name | meaning |
//! |---|---|
//! | `core.pipeline.builds` | engines assembled via [`crate::DtcSpmmBuilder::build`] |
//! | `core.cache.conversion.hits` / `.misses` | process-wide ME-TCF conversion cache |
//! | `core.cache.conversion.invalidations` | conversion entries purged by key after a delta update |
//! | `core.cache.trace.hits` / `.misses` | per-engine memoized kernel traces |
//! | `core.cache.trace.invalidations` | per-engine trace caches dropped wholesale by a delta update |
//! | `core.delta.applies` | in-place [`crate::DtcSpmm::apply_delta`] patches |
//! | `core.delta.reselects` | delta applies whose stat drift re-ran the Selector |

use dtc_telemetry::Counter;

/// Engines assembled through the builder.
pub(crate) fn pipeline_builds() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.pipeline.builds")
}

/// ME-TCF conversion cache hits.
pub(crate) fn conversion_cache_hits() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.cache.conversion.hits")
}

/// ME-TCF conversion cache misses (each one paid a conversion).
pub(crate) fn conversion_cache_misses() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.cache.conversion.misses")
}

/// Per-engine trace-cache hits (a `simulate` that re-lowered nothing).
pub(crate) fn trace_cache_hits() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.cache.trace.hits")
}

/// Per-engine trace-cache misses (kernel lowered once per key).
pub(crate) fn trace_cache_misses() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.cache.trace.misses")
}

/// Conversion-cache entries purged by key ([`crate::cache::invalidate_conversion`]).
pub(crate) fn conversion_cache_invalidations() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.cache.conversion.invalidations")
}

/// Per-engine trace caches dropped wholesale after an in-place delta
/// (the trace key carries no matrix identity, so every entry is stale).
pub(crate) fn trace_cache_invalidations() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.cache.trace.invalidations")
}

/// In-place delta patches applied through [`crate::DtcSpmm::apply_delta`].
pub(crate) fn delta_applies() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.delta.applies")
}

/// Delta applies whose row-length-stat drift crossed the policy
/// threshold and re-ran the simulation-based Selector.
pub(crate) fn delta_reselects() -> &'static Counter {
    dtc_telemetry::metric!(counter, "core.delta.reselects")
}
