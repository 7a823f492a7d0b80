//! Provenance stamped onto every result: source identity, toolchain, host
//! and the inputs' structural statistics.

use dtc_core::DtcSpmm;
use dtc_formats::CsrMatrix;
use dtc_par::hash::Fnv1a;
use dtc_telemetry::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Commit (when the checkout is a git repository), a digest of the
/// workspace sources (always), toolchain and host facts.
pub fn host_and_source() -> Vec<(String, Json)> {
    let root = repo_root();
    // Only the checkout's own repository: `git` alone would walk up and
    // report an enclosing repository's commit.
    let commit = root
        .join(".git")
        .exists()
        .then(|| Command::new("git").arg("-C").arg(&root).args(["rev-parse", "HEAD"]).output())
        .and_then(Result::ok)
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512 = false;
    vec![
        ("commit".into(), Json::str(commit)),
        (
            "source_digest".into(),
            Json::str(format!("{:016x}", source_digest(&root.join("crates")))),
        ),
        ("rustc".into(), Json::str(env!("PERFBENCH_RUSTC"))),
        ("nproc".into(), Json::usize(std::thread::available_parallelism().map_or(1, |n| n.get()))),
        ("dtc_par_threads".into(), Json::usize(dtc_par::num_threads())),
        ("cpu".into(), Json::str(cpu)),
        ("avx512f".into(), Json::bool(avx512)),
    ]
}

/// FNV-1a over the sorted paths and bytes of every `.rs` and `Cargo.toml`
/// under `dir`: identifies the measured sources when no commit is at hand.
fn source_digest(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect(dir, &mut files);
    files.sort();
    let mut h = Fnv1a::new();
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        let name = f.strip_prefix(dir).unwrap_or(&f).to_string_lossy().into_owned();
        name.bytes().chain(bytes).for_each(|b| h.word(b as u64));
    }
    h.finish()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}

/// Structural statistics of one input and the engine built over it.
pub fn input_stats(a: &CsrMatrix, engine: &DtcSpmm) -> Json {
    let m = engine.metcf();
    Json::obj_inline(vec![
        ("rows", Json::usize(a.rows())),
        ("cols", Json::usize(a.cols())),
        ("nnz", Json::usize(a.nnz())),
        ("avg_row_len", Json::f(a.nnz() as f64 / a.rows().max(1) as f64, 3)),
        ("windows", Json::usize(m.num_windows())),
        ("tc_blocks", Json::usize(m.num_tc_blocks())),
        ("mean_nnz_tc", Json::f(m.mean_nnz_tc(), 3)),
        ("kernel", Json::str(engine.name())),
    ])
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Aggregate CPU jiffies `(busy, steal, total)` from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    let total: u64 = f.iter().take(8).sum();
    let idle = f.get(3)? + f.get(4)?;
    Some((total - idle - f.get(7)?, *f.get(7)?, total))
}

/// Host CPU use between two `cpu_jiffies` readings: the busy and stolen
/// shares of all CPU time. Steal is time the hypervisor gave elsewhere.
pub fn cpu_shares(before: Option<(u64, u64, u64)>, after: Option<(u64, u64, u64)>) -> Json {
    match (before, after) {
        (Some(b), Some(a)) if a.2 > b.2 => {
            let total = (a.2 - b.2) as f64;
            Json::obj_inline(vec![
                ("busy", Json::f((a.0 - b.0) as f64 / total, 3)),
                ("steal", Json::f((a.1 - b.1) as f64 / total, 3)),
            ])
        }
        _ => Json::raw("null"),
    }
}
