//! The bench gate's verdicts on hand-made inputs (no bench runs): the
//! flat reader, the three field kinds, and the committed `BENCH_*.json`
//! files themselves.

use sigmo_bench::gate::{self, Field, BENCHES};
use sigmo_bench::BenchScale;

fn sample() -> Vec<Field> {
    vec![
        Field::scale(BenchScale::Quick),
        Field::count("total_matches", 39988),
        Field::exact("model_s", 0.000008819, 9),
        Field::wall("wall_s", 0.100000),
        Field::recorded("speedup", 64.093, 3),
    ]
}

/// Gates `fresh` against `committed` text and returns the failures.
fn failures(committed: &str, fresh: &[Field]) -> Vec<String> {
    gate::compare(&gate::parse(committed).expect("parses"), fresh).failures
}

/// The sample's committed file with one token replaced.
fn doctored(key: &str, token: &str) -> String {
    let fields: Vec<Field> = sample()
        .into_iter()
        .map(|mut f| {
            if f.key == key {
                f.token = token.to_string();
            }
            f
        })
        .collect();
    gate::render(&fields)
}

fn assert_one_failure_naming(fails: &[String], key: &str) {
    assert_eq!(fails.len(), 1, "{fails:?}");
    assert!(fails[0].starts_with(&format!("{key}:")), "{fails:?}");
}

#[test]
fn a_file_compared_with_itself_passes() {
    let fresh = sample();
    let cmp = gate::compare(&gate::parse(&gate::render(&fresh)).unwrap(), &fresh);
    assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    assert_eq!(cmp.exact_matched, 3);
    assert_eq!(cmp.walls.len(), 1);
}

#[test]
fn a_doctored_exact_token_fails() {
    let fails = failures(&doctored("total_matches", "39989"), &sample());
    assert_one_failure_naming(&fails, "total_matches");
    // Text equality: a value the old numeric scan would round the same
    // way still differs.
    let fails = failures(&doctored("model_s", "0.000008820"), &sample());
    assert_one_failure_naming(&fails, "model_s");
}

#[test]
fn a_wall_fails_only_past_its_slack() {
    // 0.1 s fresh: a committed 0.073 s gives limit 0.10125 s (pass), a
    // committed 0.07 s gives 0.0975 s (fail).
    assert!(failures(&doctored("wall_s", "0.073000"), &sample()).is_empty());
    assert!(failures(&doctored("wall_s", "0.090000"), &sample()).is_empty());
    let fails = failures(&doctored("wall_s", "0.070000"), &sample());
    assert_one_failure_naming(&fails, "wall_s");
    assert_eq!(gate::REL_LIMIT, 1.25);
    assert_eq!(gate::ABS_SLACK_S, 0.010);
}

#[test]
fn a_changed_recorded_value_is_ignored() {
    assert!(failures(&doctored("speedup", "1.000"), &sample()).is_empty());
}

#[test]
fn a_missing_or_extra_key_fails() {
    let mut fresh = sample();
    let committed = gate::render(&fresh);
    fresh.push(Field::count("new_counter", 1));
    assert_one_failure_naming(&failures(&committed, &fresh), "new_counter");

    let fresh = sample();
    let mut more = sample();
    more.push(Field::count("old_counter", 1));
    assert_one_failure_naming(&failures(&gate::render(&more), &fresh), "old_counter");
}

#[test]
fn a_scale_mismatch_fails() {
    let mut fresh = sample();
    fresh[0] = Field::scale(BenchScale::Paper);
    assert_one_failure_naming(&failures(&gate::render(&sample()), &fresh), "scale");
}

#[test]
fn duplicate_keys_and_nested_values_are_rejected() {
    let err = gate::parse("{\n  \"a\": 1,\n  \"b\": 2,\n  \"a\": 3\n}\n").unwrap_err();
    assert!(err.starts_with("a:"), "{err}");
    let err = gate::parse("{\n  \"a\": 1,\n  \"phases\": {\"setup\": 0.1}\n}\n").unwrap_err();
    assert!(err.starts_with("phases:"), "{err}");
    let err = gate::parse("{\n  \"kernels\": [1]\n}\n").unwrap_err();
    assert!(err.starts_with("kernels:"), "{err}");
    let err = gate::parse("{\n  \"flag\": true\n}\n").unwrap_err();
    assert!(err.starts_with("flag:"), "{err}");
}

#[test]
fn best_of_takes_the_minimum_wall_and_requires_equal_exact_fields() {
    let mut slow = sample();
    slow[3] = Field::wall("wall_s", 0.2);
    let mut fast = sample();
    fast[3] = Field::wall("wall_s", 0.05);
    let best = gate::best_of(vec![slow.clone(), fast, slow]);
    assert_eq!(best[3].token, "0.050000");

    let mut drifted = sample();
    drifted[1] = Field::count("total_matches", 1);
    let result = std::panic::catch_unwind(|| gate::best_of(vec![sample(), drifted]));
    assert!(result.is_err(), "a drifting exact field must panic");
}

#[test]
fn every_committed_bench_file_reads_cleanly_in_writer_format() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/");
    for bench in BENCHES {
        let path = format!("{root}{}", bench.file);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let pairs = gate::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(pairs[0].0, "scale", "{path}");
        // Re-rendering the parsed tokens gives the file back byte for
        // byte: the committed copy is exactly what the writer emits.
        let fields: Vec<Field> = pairs
            .into_iter()
            .map(|(key, token)| Field {
                key,
                kind: gate::Kind::Exact,
                token,
            })
            .collect();
        assert_eq!(gate::render(&fields), text, "{path}");
    }
}

#[test]
fn bench_scale_names_are_checked() {
    assert_eq!(BenchScale::parse("quick"), Ok(BenchScale::Quick));
    assert_eq!(BenchScale::parse("paper"), Ok(BenchScale::Paper));
    for typo in ["Paper", "full"] {
        let err = BenchScale::parse(typo).unwrap_err();
        assert!(err.contains("`quick` or `paper`"), "{err}");
    }
}
