//! `dtc-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <iterate|cold_build|edit_stream|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `perfbench/README.md` for what each workload and metric means.

mod calib;
mod check;
mod clock;
mod inputs;
mod layers;
mod report;
mod rng;
mod stamp;
mod stats;
mod workloads;

use dtc_telemetry::json::Json;
use std::process::ExitCode;
use workloads::Ctx;

const USAGE: &str = "usage: dtc-perfbench --workload <iterate|cold_build|edit_stream|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, ctx: Ctx { seed, seconds, trace } })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "iterate" => workloads::iterate,
        "cold_build" => workloads::cold_build,
        "edit_stream" => workloads::edit_stream,
        "serve_mix" => workloads::serve_mix,
        other => {
            eprintln!("dtc-perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = args.ctx;
    // End-to-end numbers are measured with spans off; traced runs switch
    // them on themselves.
    dtc_telemetry::set_enabled(false);
    let mut rep = report::Report::default();
    let mut layers = layers::Layers::default();
    let cpu0 = stamp::cpu_jiffies();
    let result = run(&ctx, &mut rep, &mut layers);
    rep.stamp("host_cpu", stamp::cpu_shares(cpu0, stamp::cpu_jiffies()));
    if let Err(e) = result {
        eprintln!("dtc-perfbench: {} set-up failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if !ctx.trace && dtc_telemetry::enabled() {
        eprintln!("dtc-perfbench: telemetry spans were on during an untraced run");
        return ExitCode::FAILURE;
    }
    if ctx.trace {
        if let Err(e) = layers.finish(&mut rep) {
            eprintln!("dtc-perfbench: {e}");
            return ExitCode::FAILURE;
        }
        // The decomposed layers must still describe `try_build`.
        let covered = rep.metrics.iter().find(|m| m.name == "build.covered_frac").map(|m| m.value);
        let ok = covered.is_some_and(|c| (0.5..=1.5).contains(&c));
        if !ok {
            eprintln!(
                "dtc-perfbench: layers cover {covered:?} of try_build; the decomposition is stale"
            );
        }
        rep.stamp("layer_coverage_ok", Json::bool(ok));
    }
    let mut stamp = stamp::host_and_source();
    stamp.extend([
        ("workload".into(), Json::str(&args.workload)),
        ("seed".into(), Json::u64(ctx.seed)),
        ("seconds".into(), Json::raw(format!("{}", ctx.seconds))),
        ("trace".into(), Json::bool(ctx.trace)),
    ]);
    stamp.append(&mut rep.stamp);
    rep.stamp = stamp;
    match rep.print(ctx.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dtc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
