//! The metric catalogue (mirrored in `BENCHMARK.json`) and the result
//! printer. The last stdout line of every run is one JSON object with
//! exactly `correct`, `attempted`, `failed` and `metrics`; the lines above
//! it print each metric with its unit and sample count, and the stamp.

use dtc_telemetry::json::Json;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MiB"), ("cpu_ms.p50", "ms")];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("reorder.ms", "ms"),
    ("reorder.block_ratio", "ratio"),
    ("cache.key_ms", "ms"),
    ("cache.conversion.hit_rate", "frac"),
    ("cache.lookup_ms", "ms"),
    ("convert.ms", "ms"),
    ("convert.ns_per_nnz", "ns/nnz"),
    ("select.ms", "ms"),
    ("select.balanced_frac", "frac"),
    ("lower.ms", "ms"),
    ("mem.metcf_mb", "MiB"),
    ("build.try_build_ms", "ms"),
    ("build.other_ms", "ms"),
    ("build.covered_frac", "frac"),
    ("execute.ms", "ms"),
    ("execute.ns_per_nnz", "ns/nnz"),
    ("execute.gflops", "GFLOP/s"),
    ("execute.bytes_computed", "B"),
    ("csr_ref.ms", "ms"),
    ("execute.vs_csr", "ratio"),
    ("par.busy_frac", "frac"),
    ("par.crit_ms_model", "ms"),
    ("delta.apply_ms", "ms"),
    ("delta.patch_ms", "ms"),
    ("delta.key_ms", "ms"),
    ("delta.reselect_frac", "frac"),
    ("delta.windows_per_edit", "count"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.prepare_ms", "ms"),
    ("serve.admission_check_ms", "ms"),
    ("serve.pool.hit_rate", "frac"),
    ("serve.pool.evictions_per_kreq", "1/kreq"),
    ("serve.mean_batch", "count"),
    ("sim.kernel_ms_model", "ms"),
    ("telemetry.overhead_frac", "frac"),
];

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks (each also counts its operation as failed).
    pub mismatches: u64,
    pub metrics: Vec<Metric>,
    pub stamp: Vec<(String, Json)>,
}

impl Report {
    /// Counts one attempted operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed output check (the operation is counted by `op`).
    pub fn mismatch(&mut self, what: &str) {
        self.mismatches += 1;
        if self.mismatches <= 5 {
            eprintln!("perfbench: output check failed: {what}");
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric { name, value, samples });
    }

    pub fn stamp(&mut self, key: &str, value: Json) {
        self.stamp.push((key.to_string(), value));
    }

    /// Prints the run. Fails when the metric set differs from the catalogue
    /// for this mode or a value is not a finite number.
    pub fn print(&self, trace: bool) -> Result<(), String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", m.value));
            }
            println!("metric {name:<32} {:>16} {unit:<8} n={}", fmt_num(m.value), m.samples);
            fields.push((
                name,
                Json::obj_inline(vec![
                    ("value", Json::raw(fmt_num(m.value))),
                    ("unit", Json::str(unit)),
                ]),
            ));
        }
        if let Some(extra) = self.metrics.iter().find(|m| !catalogue.iter().any(|c| c.0 == m.name))
        {
            return Err(format!("metric {} is not in the catalogue", extra.name));
        }
        let samples: Vec<(&str, Json)> =
            self.metrics.iter().map(|m| (m.name, Json::usize(m.samples))).collect();
        let mut stamp = self.stamp.clone();
        stamp.push(("samples".into(), Json::obj_inline(samples)));
        println!("stamp {}", Json::obj_inline(stamp).render().trim_end());
        let result = Json::obj_inline(vec![
            ("correct", Json::bool(self.mismatches == 0 && self.failed == 0)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("metrics", Json::obj_inline(fields)),
        ]);
        print!("{}", result.render());
        Ok(())
    }
}

/// Every digit the measurement has: Rust's shortest round-trip form.
fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue must list exactly the metrics `BENCHMARK.json` names,
    /// in order and with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed: Vec<(String, String)> = json
            .lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let catalogue: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, catalogue);
    }
}
