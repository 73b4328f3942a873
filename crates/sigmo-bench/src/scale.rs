//! Benchmark scale presets.

use sigmo_mol::{Dataset, DatasetConfig};

/// How big the synthetic dataset is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Small: CI-friendly, every figure in seconds.
    Quick,
    /// Proportions closer to the paper's 618 queries / 114,901 molecules
    /// (scaled to stay tractable on a CPU executor).
    Paper,
}

impl BenchScale {
    /// Parses a scale name: `quick` or `paper`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "quick" => Ok(BenchScale::Quick),
            "paper" => Ok(BenchScale::Paper),
            other => Err(format!(
                "unknown bench scale {other:?}: expected `quick` or `paper`"
            )),
        }
    }

    /// Reads `SIGMO_BENCH_SCALE` (`quick` | `paper`); defaults to quick
    /// when unset and panics on any other value, so a typo cannot
    /// silently run (or gate) the wrong scale.
    pub fn from_env() -> Self {
        match std::env::var("SIGMO_BENCH_SCALE") {
            Err(std::env::VarError::NotPresent) => BenchScale::Quick,
            Ok(name) => Self::parse(&name).unwrap_or_else(|e| panic!("SIGMO_BENCH_SCALE: {e}")),
            Err(e) => panic!("SIGMO_BENCH_SCALE: {e}"),
        }
    }

    /// Number of data molecules.
    pub fn num_molecules(self) -> usize {
        match self {
            BenchScale::Quick => 300,
            BenchScale::Paper => 6000,
        }
    }

    /// Number of extracted queries (the functional-group library adds ~30).
    pub fn num_extracted_queries(self) -> usize {
        match self {
            BenchScale::Quick => 30,
            BenchScale::Paper => 120,
        }
    }

    /// Builds the dataset for this scale.
    pub fn dataset(self, seed: u64) -> Dataset {
        Dataset::build(&DatasetConfig {
            num_molecules: self.num_molecules(),
            num_extracted_queries: self.num_extracted_queries(),
            seed,
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_dataset_builds() {
        let d = BenchScale::Quick.dataset(1);
        assert_eq!(d.data_graphs().len(), 300);
        assert!(d.queries().len() >= 30);
    }

    #[test]
    fn env_default_is_quick() {
        // The test environment doesn't set the variable.
        if std::env::var("SIGMO_BENCH_SCALE").is_err() {
            assert_eq!(BenchScale::from_env(), BenchScale::Quick);
        }
    }
}
