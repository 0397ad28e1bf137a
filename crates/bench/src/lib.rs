//! # fdb-bench — the experiment harness
//!
//! One module per evaluation experiment (E1–E13, plus ablations A1–A4), each
//! regenerating a figure/table of the reconstructed evaluation suite
//! described in DESIGN.md §3. Run them through the `experiments` binary:
//!
//! ```text
//! cargo run --release -p fdb-bench --bin experiments -- e1
//! cargo run --release -p fdb-bench --bin experiments -- all --quick
//! ```
//!
//! Every experiment prints a markdown table (pasted into EXPERIMENTS.md)
//! and writes a CSV under `results/`. All randomness derives from fixed
//! master seeds, so outputs regenerate identically.

#![deny(missing_docs)]

pub mod experiments;

use fdb_sim::report::Table;
use std::path::PathBuf;

/// Effort level for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Few frames per point — smoke-test speed.
    Quick,
    /// Full statistical weight (what EXPERIMENTS.md records).
    Full,
}

impl Effort {
    /// Scales a frame count by the effort level.
    pub fn frames(&self, full: u64) -> u64 {
        match self {
            Effort::Quick => (full / 8).max(4),
            Effort::Full => full,
        }
    }
}

/// A completed experiment: identifier, human title, result table.
pub struct ExperimentResult {
    /// Short identifier (`e1`, `e4b`, `a1`, …).
    pub id: &'static str,
    /// One-line description (becomes the table caption).
    pub title: &'static str,
    /// The regenerated table.
    pub table: Table,
}

impl ExperimentResult {
    /// Prints the markdown form and writes the CSV under `results/`.
    pub fn emit(&self) {
        println!("\n## {} — {}\n", self.id.to_uppercase(), self.title);
        println!("{}", self.table.to_markdown());
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{}.csv", self.id));
            if let Err(e) = std::fs::write(&path, self.table.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[csv written to {}]", path.display());
            }
        }
    }
}

/// Where experiment CSVs land (workspace `results/`, overridable via
/// `FDB_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("FDB_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_scaling() {
        assert_eq!(Effort::Full.frames(80), 80);
        assert_eq!(Effort::Quick.frames(80), 10);
        assert_eq!(Effort::Quick.frames(8), 4); // floor
    }
}
