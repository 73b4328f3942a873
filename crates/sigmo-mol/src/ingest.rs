//! Streaming `.smi` bulk ingest with per-line error quarantine.
//!
//! Corpus files in the wild (the paper's ZINC tranches ship this way) are
//! one-record-per-line `SMILES [whitespace name]` text, and at millions of
//! lines a single malformed record must not abort the whole build. This
//! module parses every line in parallel, keeps the valid molecules in file
//! order, and *quarantines* bad lines — recording the 1-based line number,
//! the raw text, and the parse error — instead of failing.
//!
//! Determinism: the output ordering is exactly file order regardless of
//! thread count (rayon's indexed `par_iter().map().collect()` preserves
//! order), so downstream index builds byte-fixpoint across
//! `RAYON_NUM_THREADS` settings.

use crate::molecule::Molecule;
use crate::reader::{line_records, LineRecord};
use crate::smiles::{parse_smiles, parse_smiles_heavy, SmilesError};
use rayon::prelude::*;
use std::sync::OnceLock;

/// One rejected input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// 1-based line number in the input text.
    pub line: usize,
    /// The raw line content (trimmed).
    pub text: String,
    /// Human-readable parse error.
    pub error: String,
}

/// Result of a bulk `.smi` ingest.
#[derive(Debug, Clone, Default)]
pub struct SmiIngest {
    /// Parsed molecules in file order, with their names. Lines without an
    /// explicit name get `line<N>`.
    pub molecules: Vec<(String, Molecule)>,
    /// Rejected lines in file order.
    pub quarantined: Vec<QuarantinedLine>,
    /// Total non-blank, non-comment lines considered.
    pub considered: usize,
}

/// Parses a `.smi` corpus: one `SMILES [name]` record per line. Blank lines
/// and `#` comments are skipped; malformed records are quarantined, never
/// fatal. Parsing runs in parallel but both output vectors are in strict
/// file order.
pub fn ingest_smi(text: &str, heavy_only: bool) -> SmiIngest {
    let records: Vec<LineRecord> = line_records(text).collect();
    // Parallel fill of per-record slots: the range adapter is the genuinely
    // parallel construct, and indexed slots keep the result in file order
    // no matter how records are distributed over threads.
    let slots: Vec<OnceLock<Result<Molecule, SmilesError>>> =
        (0..records.len()).map(|_| OnceLock::new()).collect();
    (0..records.len()).into_par_iter().for_each(|i| {
        let smiles = records[i].notation;
        let parsed = if heavy_only {
            parse_smiles_heavy(smiles)
        } else {
            parse_smiles(smiles)
        };
        let _ = slots[i].set(parsed);
    });

    let mut out = SmiIngest {
        considered: records.len(),
        ..SmiIngest::default()
    };
    for (record, slot) in records.iter().zip(slots) {
        match slot.into_inner().expect("every record slot is filled") {
            Ok(mol) => {
                let name = record
                    .name
                    .map_or_else(|| format!("line{}", record.line), str::to_string);
                out.molecules.push((name, mol));
            }
            Err(e) => out.quarantined.push(QuarantinedLine {
                line: record.line,
                text: record.text.to_string(),
                error: e.to_string(),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_named_and_unnamed_lines() {
        let got = ingest_smi("CCO ethanol\nC\n\n# comment\nCC(=O)O acetic-acid\n", false);
        assert_eq!(got.considered, 3);
        assert!(got.quarantined.is_empty());
        let names: Vec<&str> = got.molecules.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["ethanol", "line2", "acetic-acid"]);
    }

    #[test]
    fn quarantines_bad_lines_with_numbers() {
        let got = ingest_smi("CCO\nC(C\nXx bogus\nCC\n", false);
        assert_eq!(got.molecules.len(), 2);
        assert_eq!(got.quarantined.len(), 2);
        assert_eq!(got.quarantined[0].line, 2);
        assert_eq!(got.quarantined[1].line, 3);
        assert_eq!(got.quarantined[1].text, "Xx bogus");
        assert!(!got.quarantined[0].error.is_empty());
    }

    #[test]
    fn order_is_deterministic_across_thread_counts() {
        let mut text = String::new();
        for i in 0..200 {
            if i % 7 == 3 {
                text.push_str("not-a-molecule\n");
            } else {
                text.push_str(&format!(
                    "{} m{}\n",
                    if i % 2 == 0 { "CCO" } else { "c1ccccc1" },
                    i
                ));
            }
        }
        let runs: Vec<(Vec<String>, Vec<usize>)> = ["1", "4"]
            .iter()
            .map(|threads| {
                // The vendored rayon shim reads RAYON_NUM_THREADS per launch.
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let got = ingest_smi(&text, true);
                (
                    got.molecules.iter().map(|(n, _)| n.clone()).collect(),
                    got.quarantined.iter().map(|q| q.line).collect(),
                )
            })
            .collect();
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0].1.len(), (0..200).filter(|i| i % 7 == 3).count());
    }

    #[test]
    fn heavy_only_strips_hydrogens() {
        let got = ingest_smi("CCO\n", true);
        assert_eq!(got.molecules[0].1.num_atoms(), 3);
        let got_full = ingest_smi("CCO\n", false);
        assert_eq!(got_full.molecules[0].1.num_atoms(), 9);
    }
}
