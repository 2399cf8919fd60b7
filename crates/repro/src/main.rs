//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all                 # every experiment, in paper order
//! repro fig9 fig12 summary  # a selection
//! repro --list              # available ids
//! repro --jobs 5000 fig7    # smaller population (faster)
//! ```
//!
//! Each experiment prints a text block and writes JSON to
//! `target/repro/<id>.json`.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use pai_repro::{run_experiment, Context, EXPERIMENTS, POPULATION};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _) in EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let mut jobs = POPULATION;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--jobs" {
            match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            ids.push(arg);
        }
    }
    if ids.is_empty() {
        print_help();
        return ExitCode::FAILURE;
    }
    if ids.len() == 1 && ids[0] == "all" {
        ids = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    }
    for id in &ids {
        if !EXPERIMENTS.iter().any(|(known, _)| known == id) {
            eprintln!("unknown experiment '{id}'; use --list");
            return ExitCode::FAILURE;
        }
    }

    let out_dir = PathBuf::from("target/repro");
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    eprintln!(
        "generating population of {jobs} jobs (seed {})...",
        pai_repro::SEED
    );
    let ctx = Context::with_size(jobs);

    for id in &ids {
        let result = match run_experiment(id, &ctx) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("experiment '{id}' failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("==== {} — {} ====", result.id, result.title);
        println!("{}", result.text);
        let path = out_dir.join(format!("{}.json", result.id));
        match serde_json::to_string_pretty(&result.json) {
            Ok(body) => {
                if let Err(e) = fs::write(&path, body) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("cannot serialize {}: {e}", result.id);
                return ExitCode::FAILURE;
            }
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn print_help() {
    println!(
        "repro — regenerate the tables and figures of\n\
         'Characterizing Deep Learning Training Workloads on Alibaba-PAI'\n\n\
         usage: repro [--jobs N] <id>... | all | --list\n\n\
         ids: {}",
        EXPERIMENTS
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<_>>()
            .join(", ")
    );
}
