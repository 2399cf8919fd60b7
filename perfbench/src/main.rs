//! `pai-perfbench --workload <name> --seconds <s> [--seed <n>] [--trace <0|1>]`
//!
//! Prints what it measured, then, as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Untraced runs report the end-to-end metrics, traced runs the
//! per-layer ones, and write their spans under `.bench_trace/`.

use std::process::ExitCode;

use pai_perfbench::{run, run_traced, Sizes, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = pai_repro::SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
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
    let workload = workload
        .ok_or_else(|| format!("--workload is required: one of {}", WORKLOADS.join(", ")))?;
    // No default: the bounds in BENCHMARK.json hold at its run_seconds.
    let seconds = seconds.ok_or("--seconds is required; BENCHMARK.json gives run_seconds")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn write_spans(args: &Args, spans: &[(&str, String)]) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let body: Vec<String> = spans
        .iter()
        .map(|(name, json)| format!("\"{name}\": {json}"))
        .collect();
    std::fs::write(&path, format!("{{{}}}\n", body.join(",\n")))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let result = parse().and_then(|args| {
        let report = if args.trace {
            run_traced(&args.workload, Sizes::FULL, args.seed, args.seconds)?
        } else {
            run(&args.workload, Sizes::FULL, args.seed, args.seconds)?
        };
        if args.trace {
            write_spans(&args, &report.spans)?;
        }
        Ok((args, report))
    });
    match result {
        Ok((args, report)) => {
            println!(
                "workload {} seed {} trace {}",
                args.workload,
                args.seed,
                u8::from(args.trace)
            );
            for line in &report.notes {
                println!("{line}");
            }
            println!(
                "passes: {} attempted, {} failed",
                report.tally.attempted, report.tally.failed
            );
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pai-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
