//! Profiler-model golden: pins what the trained models predict.
//!
//! `tests/golden_trace.rs` only reaches the profiler through ~165
//! invocations, so its refits stop a few dozen rows past the 100 pilot
//! rows. This test drives the online-refit path much further: it trains all
//! ten SeBS functions under `ModelChoice::Auto` and `ModelChoice::MlOnly`,
//! streams 600 seeded observations into each (refits at 100–700 rows) and
//! renders the relatedness scores plus the predictions on a fixed size grid
//! after every 150 observations. Any change to forest training that moves a
//! split, a vote or a leaf mean shows up as a diff.
//!
//! Regenerate deliberately with `LIBRA_BLESS=1 cargo test --test
//! profiler_golden` after verifying a behavioural change is intended.

use libra::core::profiler::{ModelChoice, Profiler, ProfilerConfig};
use libra::sim::demand::InputMeta;
use libra::sim::invocation::Actuals;
use libra::workloads::{sebs_suite, ALL_APPS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::PathBuf;

const OBSERVATIONS: u64 = 600;
const CHECKPOINT_EVERY: u64 = 150;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/profiler_models.txt")
}

/// Eight log-spaced sizes across `[lo/2, 2·hi]`: inside the trained domain
/// and past both ends of it (the extrapolation branch).
fn size_grid(lo: u64, hi: u64) -> Vec<u64> {
    let (a, b) = ((lo.max(1) as f64 / 2.0).max(1.0).ln(), (hi as f64 * 2.0).ln());
    (0..8).map(|k| (a + (b - a) * k as f64 / 7.0).exp().round() as u64).collect()
}

fn render_predictions(out: &mut String, p: &Profiler, f: usize, grid: &[u64], seen: u64) {
    for &size in grid {
        let pred = p.predict(f, InputMeta::new(size, 7)).expect("trained function predicts");
        writeln!(
            out,
            "  n={seen} size={size} cpu={} mem={} dur_us={} path={:?}",
            pred.cpu_millis,
            pred.mem_mb,
            pred.duration.as_micros(),
            pred.path
        )
        .unwrap();
    }
}

fn render_all() -> String {
    let suite = sebs_suite();
    let mut out = String::new();
    for choice in [ModelChoice::Auto, ModelChoice::MlOnly] {
        let mut p = Profiler::new(suite.len(), ProfilerConfig::default(), choice);
        for kind in ALL_APPS {
            let f = kind.id().idx();
            let (lo, hi) = kind.size_range();
            let first = InputMeta::new(((lo as f64 * hi as f64).sqrt()) as u64, 12345);
            p.train(f, &suite[f], first);
            writeln!(
                out,
                "=== {choice:?} {} related={:?} scores={:?}",
                kind.name(),
                p.is_size_related(f),
                p.scores(f)
            )
            .unwrap();
            let grid = size_grid(lo, hi);
            render_predictions(&mut out, &p, f, &grid, 0);

            // Log-uniform sizes over the app's range, ground-truth actuals.
            let mut rng = ChaCha8Rng::seed_from_u64(0x9e37 ^ f as u64);
            let (ln_lo, ln_hi) = ((lo as f64).ln(), (hi as f64).ln());
            for i in 1..=OBSERVATIONS {
                let size = rng.gen_range(ln_lo..ln_hi).exp().round().max(1.0) as u64;
                let input = InputMeta::new(size, rng.gen_range(0..u64::MAX));
                let d = suite[f].model.demand(&input);
                let actuals = Actuals {
                    cpu_peak_millis: d.cpu_peak_millis,
                    mem_peak_mb: d.mem_peak_mb,
                    exec_duration: d.base_duration,
                    input_size: size,
                };
                p.observe(f, input, &actuals);
                if i % CHECKPOINT_EVERY == 0 {
                    render_predictions(&mut out, &p, f, &grid, i);
                }
            }
        }
    }
    out
}

#[test]
fn profiler_models_match_golden() {
    let rendered = render_all();
    let path = golden_path();
    if std::env::var("LIBRA_BLESS").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("blessed {} ({} bytes)", path.display(), rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run LIBRA_BLESS=1", path.display())
    });
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "profiler golden diverged at line {}", i + 1);
    }
    assert_eq!(rendered.lines().count(), golden.lines().count(), "golden line count diverged");
}
