//! The wall-clock benchmark of the MOIST reproduction. See README.md.
//!
//! ```text
//! moist_benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! moist_benchmark all [--seed <u64>] [--seconds <n>] [--repeat <n>] [--out <file>]
//! moist_benchmark compare <base.json> <new.json>
//! ```

mod alloc_count;
mod env;
mod hist;
mod layers;
mod ops;
mod oracle;
mod pacer;
mod report;
mod run;
mod spec;
mod suite;
mod trace;
mod window;

#[global_allocator]
static GLOBAL: alloc_count::Counting = alloc_count::Counting;

use std::path::PathBuf;
use std::process::ExitCode;

/// The value after `--name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn one_run(args: &[String]) -> Result<(), String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload <name> is required")?;
    let w = spec::workload(&name).ok_or_else(|| {
        let names = spec::WORKLOADS.map(|w| w.name);
        format!("unknown workload {name}; one of {names:?}")
    })?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: u64 = flag(args, "--seconds")?.unwrap_or(spec::declared().run_seconds);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let traced = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let outcome = run::run(w, seed, seconds, traced)?;
    let text = outcome
        .metrics
        .render(traced, w.listed(), outcome.attempted, outcome.failed)?;
    println!("{text}");
    Ok(())
}

fn all(args: &[String]) -> Result<(), String> {
    suite::all(
        flag(args, "--seed")?.unwrap_or(1),
        flag(args, "--seconds")?.unwrap_or(spec::declared().run_seconds),
        flag(args, "--repeat")?.unwrap_or(1),
        flag::<PathBuf>(args, "--out")?,
    )
}

fn compare(args: &[String]) -> Result<(), String> {
    let [base, new] = args else {
        return Err("compare needs two result files: <base.json> <new.json>".into());
    };
    suite::compare(base.as_ref(), new.as_ref())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => one_run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("moist_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
