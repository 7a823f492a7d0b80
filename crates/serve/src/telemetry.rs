//! Handles for the serving layer's registry counters.
//!
//! Naming (all in the process-wide `dtc-telemetry` registry):
//!
//! - `serve.requests.admitted` — requests accepted into the queue;
//! - `serve.requests.coalesced` — requests that rode another request's
//!   batch (batch size minus one, summed over batches);
//! - `serve.requests.rejected` — requests refused at admission;
//! - `serve.pool.hits` / `serve.pool.misses` — engine-pool lookups;
//! - `serve.pool.evictions` — engines evicted by the LRU policy;
//! - `serve.pool.invalidations` — engines dropped because their source
//!   matrix was edited in place (delta-update staleness purge);
//!
//! plus the `serve.batch` span around every batched execution and the
//! `serve.prepare` span around every engine build.

use dtc_telemetry::Counter;

/// The `serve.requests.admitted` counter.
pub fn requests_admitted() -> &'static Counter {
    dtc_telemetry::metric!(counter, "serve.requests.admitted")
}

/// The `serve.requests.coalesced` counter.
pub fn requests_coalesced() -> &'static Counter {
    dtc_telemetry::metric!(counter, "serve.requests.coalesced")
}

/// The `serve.requests.rejected` counter.
pub fn requests_rejected() -> &'static Counter {
    dtc_telemetry::metric!(counter, "serve.requests.rejected")
}

/// The `serve.pool.hits` counter.
pub fn pool_hits() -> &'static Counter {
    dtc_telemetry::metric!(counter, "serve.pool.hits")
}

/// The `serve.pool.misses` counter.
pub fn pool_misses() -> &'static Counter {
    dtc_telemetry::metric!(counter, "serve.pool.misses")
}

/// The `serve.pool.evictions` counter.
pub fn pool_evictions() -> &'static Counter {
    dtc_telemetry::metric!(counter, "serve.pool.evictions")
}

/// The `serve.pool.invalidations` counter.
pub fn pool_invalidations() -> &'static Counter {
    dtc_telemetry::metric!(counter, "serve.pool.invalidations")
}
