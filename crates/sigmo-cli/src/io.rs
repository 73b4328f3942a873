//! File I/O for the CLI: `.smi` (SMILES-per-line) and `.sdf` formats.

use sigmo_graph::LabeledGraph;
use sigmo_mol::{
    line_records, parse_sdf, parse_smarts, parse_smiles, parse_smiles_heavy, write_sdf,
    write_smiles, LineRecord, Molecule,
};
use std::fmt;
use std::path::Path;

/// I/O errors with file context.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Fs(std::io::Error),
    /// A record failed to parse.
    Parse {
        /// File the record came from.
        file: String,
        /// 1-based record number (line for .smi, block for .sdf).
        record: usize,
        /// Parser message.
        message: String,
    },
    /// Unrecognized file extension.
    UnknownFormat(String),
    /// The file parsed but contained no molecules.
    Empty(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Fs(e) => write!(f, "I/O error: {e}"),
            IoError::Parse {
                file,
                record,
                message,
            } => {
                write!(f, "{file}: record {record}: {message}")
            }
            IoError::UnknownFormat(p) => {
                write!(f, "{p}: unknown format (expected .smi or .sdf)")
            }
            IoError::Empty(p) => write!(f, "{p}: no molecules found"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Fs(e)
    }
}

/// A record's name, or `path#line` when it has none.
fn record_name(path: &str, record: &LineRecord) -> String {
    record
        .name
        .map_or_else(|| format!("{path}#{}", record.line), str::to_string)
}

/// A parse failure of one record.
fn parse_error(path: &str, record: usize, e: impl fmt::Display) -> IoError {
    IoError::Parse {
        file: path.to_string(),
        record,
        message: e.to_string(),
    }
}

/// A named molecule loaded from disk.
#[derive(Debug, Clone)]
pub struct NamedMolecule {
    /// Display name (from the .smi name column or SDF title; falls back to
    /// `file#index`).
    pub name: String,
    /// The molecule.
    pub molecule: Molecule,
}

/// Loads molecules from `.smi` or `.sdf`. When `heavy_only` is set, SMILES
/// records skip implicit-hydrogen saturation (the usual choice for *query*
/// files, where hydrogens are left unconstrained).
pub fn load_molecules(path: &str, heavy_only: bool) -> Result<Vec<NamedMolecule>, IoError> {
    let text = std::fs::read_to_string(path)?;
    parse_molecules(path, &text, heavy_only)
}

/// Parses molecule text by extension (exposed for tests).
pub fn parse_molecules(
    path: &str,
    text: &str,
    heavy_only: bool,
) -> Result<Vec<NamedMolecule>, IoError> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let out = match ext {
        "smi" | "smiles" => line_records(text)
            .map(|r| {
                let parsed = if heavy_only {
                    parse_smiles_heavy(r.notation)
                } else {
                    parse_smiles(r.notation)
                };
                parsed
                    .map(|molecule| NamedMolecule {
                        name: record_name(path, &r),
                        molecule,
                    })
                    .map_err(|e| parse_error(path, r.line, e))
            })
            .collect::<Result<Vec<_>, _>>()?,
        "sdf" | "mol" => parse_sdf(text)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.map(|molecule| NamedMolecule {
                    name: format!("{path}#{}", i + 1),
                    molecule,
                })
                .map_err(|e| parse_error(path, i + 1, e))
            })
            .collect::<Result<Vec<_>, _>>()?,
        other => return Err(IoError::UnknownFormat(format!("{path} (.{other})"))),
    };
    if out.is_empty() {
        return Err(IoError::Empty(path.to_string()));
    }
    Ok(out)
}

/// A named query pattern graph (from `.smi`, `.sdf`, or `.smarts`).
#[derive(Debug, Clone)]
pub struct NamedQueryGraph {
    /// Display name.
    pub name: String,
    /// The pattern graph.
    pub graph: LabeledGraph,
}

/// Loads query patterns: `.smarts` files hold one SMARTS per line
/// (wildcards supported); `.smi`/`.sdf` files are parsed as heavy-atom
/// molecules.
pub fn load_query_graphs(path: &str) -> Result<Vec<NamedQueryGraph>, IoError> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    if matches!(ext, "smarts" | "sma") {
        let text = std::fs::read_to_string(path)?;
        let out = line_records(&text)
            .map(|r| {
                parse_smarts(r.notation)
                    .map(|graph| NamedQueryGraph {
                        name: record_name(path, &r),
                        graph,
                    })
                    .map_err(|e| parse_error(path, r.line, e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if out.is_empty() {
            return Err(IoError::Empty(path.to_string()));
        }
        Ok(out)
    } else {
        Ok(load_molecules(path, true)?
            .into_iter()
            .map(|m| NamedQueryGraph {
                name: m.name,
                graph: m.molecule.to_labeled_graph(),
            })
            .collect())
    }
}

/// Serializes molecules for `generate --output`: `.smi` or `.sdf` by
/// extension.
pub fn serialize_molecules(path: &str, mols: &[NamedMolecule]) -> Result<String, IoError> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    match ext {
        "smi" | "smiles" => Ok(mols
            .iter()
            .map(|m| format!("{} {}\n", write_smiles(&m.molecule), m.name))
            .collect()),
        "sdf" | "mol" => Ok(write_sdf(
            mols.iter().map(|m| (m.name.as_str(), &m.molecule)),
        )),
        other => Err(IoError::UnknownFormat(format!("{path} (.{other})"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smi_parsing_with_names_and_comments() {
        let text = "# library\nCCO ethanol\nCC(=O)O acetic-acid\n\nC1CCCCC1\n";
        let mols = parse_molecules("lib.smi", text, false).unwrap();
        assert_eq!(mols.len(), 3);
        assert_eq!(mols[0].name, "ethanol");
        assert_eq!(mols[0].molecule.formula(), "C2H6O");
        assert_eq!(mols[2].name, "lib.smi#5");
    }

    #[test]
    fn heavy_only_skips_hydrogens() {
        let mols = parse_molecules("q.smi", "C=O carbonyl\n", true).unwrap();
        assert_eq!(mols[0].molecule.num_atoms(), 2);
    }

    #[test]
    fn parse_error_carries_location() {
        let err = parse_molecules("x.smi", "CCO\nC(C)(C)(C)(C)C bad\n", false).unwrap_err();
        match err {
            IoError::Parse { record, .. } => assert_eq!(record, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_extension_rejected() {
        assert!(matches!(
            parse_molecules("x.xyz", "CCO", false),
            Err(IoError::UnknownFormat(_))
        ));
    }

    #[test]
    fn empty_file_rejected() {
        assert!(matches!(
            parse_molecules("x.smi", "# nothing\n", false),
            Err(IoError::Empty(_))
        ));
    }

    #[test]
    fn sdf_round_trip_through_serialize() {
        let mols = parse_molecules("a.smi", "CCO ethanol\nCC ethane\n", false).unwrap();
        let sdf = serialize_molecules("out.sdf", &mols).unwrap();
        let back = parse_molecules("out.sdf", &sdf, false).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].molecule.formula(), "C2H6O");
    }

    #[test]
    fn smarts_query_loading() {
        let dir = std::env::temp_dir().join("sigmo-cli-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.smarts");
        std::fs::write(&path, "C(=O)~* acyl\n*~* anything\n").unwrap();
        let qs = load_query_graphs(path.to_str().unwrap()).unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].name, "acyl");
        assert_eq!(qs[0].graph.num_nodes(), 3);
        assert_eq!(qs[1].graph.label(0), sigmo_graph::WILDCARD_LABEL);
    }

    #[test]
    fn smi_queries_load_as_heavy_graphs() {
        let dir = std::env::temp_dir().join("sigmo-cli-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.smi");
        std::fs::write(&path, "C=O carbonyl\n").unwrap();
        let qs = load_query_graphs(path.to_str().unwrap()).unwrap();
        assert_eq!(qs[0].graph.num_nodes(), 2);
    }

    #[test]
    fn smi_serialization_re_parses() {
        let mols = parse_molecules("a.smi", "CC(=O)O acid\n", false).unwrap();
        let smi = serialize_molecules("out.smi", &mols).unwrap();
        let back = parse_molecules("out.smi", &smi, false).unwrap();
        assert_eq!(back[0].molecule.formula(), "C2H4O2");
        assert_eq!(back[0].name, "acid");
    }
}
