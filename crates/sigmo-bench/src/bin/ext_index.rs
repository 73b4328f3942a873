//! Corpus-scale screening benchmark (extension): digests tiered corpora
//! with planted rare-pattern carriers, screens through the persistent
//! signature index, compares the indexed path against the index-off
//! engine oracle and writes `BENCH_index.json`. The run asserts exactness
//! (identical match totals), the ≥5× payoff at the largest corpus, and
//! the sublinear screening wall (see [`sigmo_bench::index_bench::run`]).

fn main() {
    sigmo_bench::gate::record(&sigmo_bench::gate::INDEX);
}
