//! `libra-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then the result line: one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness check failed and 2 on bad arguments.

use libra_perfbench::{run, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, traced: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"expected a positive number"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse().unwrap_or_else(|why| {
        eprintln!("libra-perfbench: {why}");
        std::process::exit(2);
    });
    let Some(out) = run(&args.workload, args.seed, args.seconds, args.traced) else {
        eprintln!(
            "libra-perfbench: unknown workload {:?} (one of: {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    println!("workload {} seed {} traced {}", args.workload, args.seed, args.traced);
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, unit, value) in out.metrics(args.traced) {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    for p in &out.problems {
        println!("  FAILED CHECK: {p}");
    }
    println!("{}", out.json(args.traced));
    if !out.is_correct(args.traced) {
        std::process::exit(1);
    }
}
