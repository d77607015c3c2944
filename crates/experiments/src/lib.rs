//! Reproduction harness for every table and figure of the paper.
//!
//! Each `tableN`/`figN` module exposes a `run()` returning structured rows
//! and a `render()` producing the human-readable table, so the same code
//! backs the CLI binaries (`cargo run -p optimus-experiments --bin table1`),
//! the Criterion benches, and the integration tests. `run_all` regenerates
//! everything and writes CSV files under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod tco;

mod util;

pub use util::{markdown_table, model_by_name, write_csv};

/// An experiment's name (its CSV's file stem) and its CSV's rows.
pub type Experiment = (&'static str, fn() -> Vec<Vec<String>>);

/// Every experiment, in the order [`run_all`] writes them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1::csv),
    ("table2", table2::csv),
    ("table4", table4::csv),
    ("fig3", fig3::csv),
    ("fig4", fig4::csv),
    ("fig5", fig5::csv),
    ("fig6", fig6::csv),
    ("fig7", fig7::csv),
    ("fig8", fig8::csv),
    ("fig9", fig9::csv),
    ("ablations", ablations::csv),
    ("tco", tco::csv),
    ("scaling", scaling::csv),
];

/// Runs every experiment and writes its CSV into `dir`.
///
/// # Errors
///
/// Returns an I/O error if `dir` is not writable.
pub fn run_all(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, csv) in EXPERIMENTS {
        write_csv(dir.join(format!("{name}.csv")), &csv())?;
    }
    Ok(())
}
