//! One benchmark for the Metis workspace: three workloads, their
//! end-to-end metrics, and a traced mode that gives per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cosim_abr|serve_poisson|interpret_offline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come only from `--seed`. Each run checks the program's outputs
//! and counts every failed or mismatched operation; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run (`--trace 1`) also writes its
//! spans to `.perfbench/<workload>-seed<n>.trace.json`.

mod affinity;
mod alone;
mod cosim;
mod offline;
mod report;
mod serve;
mod stamp;
mod stats;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = stamp::Stamp::current();
    let report = match args.workload.as_str() {
        "cosim_abr" => cosim::run(args.seed, args.seconds, args.trace),
        "serve_poisson" => serve::run(args.seed, args.seconds, args.trace),
        "interpret_offline" => offline::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(tracer) = &report.tracer {
        let path = std::path::PathBuf::from(".perfbench")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let mut meta = stamp.pairs();
        meta.push(("workload", args.workload.clone()));
        meta.push(("seed", args.seed.to_string()));
        if let Err(e) = tracer.write_chrome(&path, &meta) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    report.print(&args.workload, args.seed, args.trace, &stamp);
    ExitCode::SUCCESS
}
