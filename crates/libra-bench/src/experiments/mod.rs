//! One module per table/figure of the paper's evaluation (§8).
//!
//! Each module's `run()` prints the measured numbers side by side with the
//! paper's expected shape and writes CSV series under `results/` (override
//! with `LIBRA_RESULTS_DIR`). The `exp` binary runs them by name through
//! [`EXPERIMENTS`]; `exp all` runs the whole table in order.

pub mod ablations;
pub mod chaos;
pub mod fig01;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09_10_11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod keepalive;
pub mod overheads;
pub mod table1;
pub mod table2;

/// Every experiment by name, in the order `exp all` runs them.
pub const EXPERIMENTS: [(&str, fn()); 16] = [
    ("table1", table1::run),
    ("fig01", fig01::run),
    ("fig06", || {
        fig06::run();
    }),
    ("fig07", || {
        fig07::run();
    }),
    ("fig08", fig08::run),
    ("fig09_10_11", || {
        fig09_10_11::run();
    }),
    ("fig12", fig12::run),
    ("table2", || {
        table2::run();
    }),
    ("fig13", || {
        fig13::run();
    }),
    ("fig14", || {
        fig14::run();
    }),
    ("fig15", || {
        fig15::run();
    }),
    ("fig16", || {
        fig16::run();
    }),
    ("overheads", overheads::run),
    ("ablations", ablations::run),
    ("keepalive", || {
        keepalive::run();
    }),
    ("chaos", || {
        chaos::run();
    }),
];

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;
    use std::collections::BTreeSet;

    #[test]
    fn table_names_are_unique_and_cover_every_module() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiments");
        let modules: BTreeSet<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter_map(|f| f.strip_suffix(".rs").map(String::from))
            .filter(|m| m != "mod")
            .collect();
        assert_eq!(modules.len(), 16);
        assert_eq!(names, modules.iter().map(String::as_str).collect());
    }
}
