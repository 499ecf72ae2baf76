//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the front-door benchmark and prints its checked
//! result as one JSON object on the last line of standard output.
//!
//! `perfbench restart-worker <workload> <seed> <scale_div>` is the child
//! process a run starts to take its restart samples
//! (see `perfbench::restarts`).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{restarts, result_json, run, Config, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config::new("", 0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {}", cfg.seconds));
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        cfg.trace_dir = PathBuf::from(dir).join("perfbench-traces");
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(restarts::WORKER) {
        return match restarts::worker(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench {}: {e}", restarts::WORKER);
                ExitCode::FAILURE
            }
        };
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(out) => {
            for line in &out.notes {
                println!("# {line}");
            }
            println!("{}", result_json(&cfg, &out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
