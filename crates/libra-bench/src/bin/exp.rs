//! Regenerate the paper's tables and figures (DESIGN.md §3 maps each to its
//! module): `exp <name>… | all [--threads N]`. Names come from
//! `libra_bench::experiments::EXPERIMENTS`; `all` runs the whole table in
//! order. Heavy sweeps honour `LIBRA_REPS` and `LIBRA_SCALE`, and fan their
//! simulation runs across `--threads N` worker threads (equivalent to
//! `LIBRA_THREADS=N`; default: all cores). Output is byte-identical at any
//! thread count — jobs are collected in configuration order before printing.

use libra_bench::experiments::EXPERIMENTS;

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: exp <name>... | all [--threads N]\n  \
         names: {}\n  \
         --threads N   worker threads for sweep fan-out\n                \
         (default: LIBRA_THREADS or all cores)",
        names.join(", ")
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg} (try --help)");
    std::process::exit(2);
}

fn main() {
    let mut all = false;
    let mut runs: Vec<fn()> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| fail("--threads expects a positive integer"));
                std::env::set_var("LIBRA_THREADS", n.to_string());
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            "all" => {
                all = true;
                runs.extend(EXPERIMENTS.iter().map(|&(_, run)| run));
            }
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some(&(_, run)) => runs.push(run),
                None => fail(&format!("unknown argument: {name}")),
            },
        }
    }
    if runs.is_empty() {
        fail("no experiment named");
    }
    if all {
        println!("[sweep runner: {} worker thread(s)]", libra_bench::threads());
    }
    for run in runs {
        run();
    }
    if all {
        println!("\nAll experiments complete. CSV artifacts are under results/.");
    }
}
