//! Molecular substrate for SIGMo: elements, molecules, SMILES, generators,
//! query libraries, and dataset assembly.
//!
//! The paper evaluates on molecules from the ZINC database and queries from
//! the Ehrlich–Rarey substructure benchmark. Neither is redistributable
//! here, so this crate provides:
//!
//! * a periodic-table subset tuned to organic chemistry ([`Element`]) with
//!   valence limits and empirical occurrence frequencies (which drive the
//!   frequency-skewed signature bit allocation of `sigmo-core`);
//! * [`Molecule`], a chemically validated molecular graph that lowers to a
//!   `sigmo_graph::LabeledGraph` with element labels and bond-order edge
//!   labels;
//! * a SMILES-subset [`smiles`] parser/writer so real data can be loaded;
//! * a seeded, valence-correct, drug-like [`MoleculeGenerator`] that
//!   reproduces the statistical properties the paper exploits (label skew,
//!   average degree ≈ 4 with hydrogens, sparsity ≥ 95%);
//! * [`QueryExtractor`] sampling connected subgraphs as query patterns, plus
//!   a hand-coded functional-group library ([`queries::functional_groups`]);
//! * [`Dataset`], bundling data graphs and queries with scale-factor
//!   replication for the weak-scaling experiments (Figure 12).

pub mod canonical;
pub mod dataset;
pub mod descriptors;
pub mod elements;
pub mod formats;
pub mod generator;
pub mod ingest;
pub mod molecule;
pub mod queries;
mod reader;
pub mod smarts;
pub mod smiles;

pub use canonical::{
    are_isomorphic, canonical_code, dedup_isomorphic, reference_canonical_code,
    reference_canonical_search,
};
pub use dataset::{Dataset, DatasetConfig};
pub use descriptors::{cycle_basis, descriptors, ring_membership, Descriptors};
pub use elements::{Element, NUM_ELEMENT_LABELS};
pub use formats::{parse_mol_block, parse_sdf, write_mol_block, write_sdf, MolFileError};
pub use generator::{GeneratorConfig, MoleculeGenerator};
pub use ingest::{ingest_smi, QuarantinedLine, SmiIngest};
pub use molecule::{Bond, BondOrder, Chirality, Molecule, MoleculeError};
pub use queries::{functional_groups, QueryExtractor};
pub use reader::{line_records, LineRecord};
pub use smarts::{parse_smarts, SmartsError};
pub use smiles::{parse_smiles, parse_smiles_heavy, write_smiles, SmilesError};
