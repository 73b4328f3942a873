//! One bench table: every committed `BENCH_*.json` field is declared once,
//! by the runner that measures it, with the kind that says how the
//! regression gate treats it.
//!
//! * [`Kind::Exact`] — virtual-clock values, counters, totals, modeled
//!   seconds and strings. The fresh token must equal the committed token
//!   as text; floats are rendered at the field's fixed precision, so text
//!   equality is value equality at that precision.
//! * [`Kind::Wall`] — a measured wall time. It passes while
//!   `fresh ≤ committed × REL_LIMIT + ABS_SLACK_S`.
//! * [`Kind::Recorded`] — a ratio derived from walls (throughputs,
//!   speedups). Written for the reader, never gated.
//!
//! The same [`Field`] list feeds the writer ([`render`]) and the gate
//! ([`compare`] against [`parse`] of the committed file), so adding a
//! gated field is one line in its runner. [`BENCHES`] is the table of the
//! five benches; `bench_diff` loops over it, and each recording binary
//! writes one entry with [`record`].

use crate::BenchScale;

/// Relative slack on a wall: fail only on a >25 % regression.
pub const REL_LIMIT: f64 = 1.25;
/// Absolute slack so sub-millisecond walls don't flake on timer noise.
pub const ABS_SLACK_S: f64 = 0.010;

/// How the gate treats a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Deterministic: the fresh token must equal the committed one.
    Exact,
    /// Measured wall seconds: `fresh ≤ committed × 1.25 + 10 ms`.
    Wall,
    /// Derived from walls: written, never gated.
    Recorded,
}

/// One `"key": token` line of a bench file.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// The JSON key, unique within its file.
    pub key: String,
    /// How the gate treats it.
    pub kind: Kind,
    /// The rendered JSON value.
    pub token: String,
}

impl Field {
    fn new(key: impl Into<String>, kind: Kind, token: String) -> Self {
        Self {
            key: key.into(),
            kind,
            token,
        }
    }

    /// An exact integer (counter, total, tick).
    pub fn count(key: impl Into<String>, v: u64) -> Self {
        Self::new(key, Kind::Exact, v.to_string())
    }

    /// An exact float (modeled seconds, occupancy) at `digits` decimals.
    pub fn exact(key: impl Into<String>, v: f64, digits: usize) -> Self {
        Self::new(key, Kind::Exact, format!("{v:.digits$}"))
    }

    /// An exact string. Bench strings are identifiers, never escaped.
    pub fn text(key: impl Into<String>, s: &str) -> Self {
        assert!(!s.contains(['"', '\\']), "unescaped bench string {s:?}");
        Self::new(key, Kind::Exact, format!("\"{s}\""))
    }

    /// The run's scale, which every bench file starts with.
    pub fn scale(scale: BenchScale) -> Self {
        Self::text("scale", &format!("{scale:?}"))
    }

    /// Measured wall seconds, rendered to the microsecond.
    pub fn wall(key: impl Into<String>, secs: f64) -> Self {
        Self::new(key, Kind::Wall, format!("{secs:.6}"))
    }

    /// A wall-derived ratio at `digits` decimals.
    pub fn recorded(key: impl Into<String>, v: f64, digits: usize) -> Self {
        Self::new(key, Kind::Recorded, format!("{v:.digits$}"))
    }
}

/// Renders fields as the flat JSON object every bench file holds, one
/// field per line in declaration order.
pub fn render(fields: &[Field]) -> String {
    let mut out = String::from("{\n");
    for (i, f) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        out.push_str(&format!("  \"{}\": {}{comma}\n", f.key, f.token));
    }
    out.push_str("}\n");
    out
}

/// Parses a flat JSON object into `(key, token)` pairs in file order.
/// Values must be numbers or escape-free strings; nested values and
/// duplicate keys are errors naming the key.
pub fn parse(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut rest = text.trim_start();
    rest = rest.strip_prefix('{').ok_or("expected '{'")?;
    let mut pairs: Vec<(String, String)> = Vec::new();
    loop {
        let (key, after) = string(rest.trim_start()).ok_or("expected a quoted key")?;
        let key = key[1..key.len() - 1].to_string();
        rest = after
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("{key}: expected ':'"))?
            .trim_start();
        let (token, after) = if rest.starts_with(['{', '[']) {
            return Err(format!("{key}: nested values are not allowed"));
        } else if let Some(s) = string(rest) {
            s
        } else {
            let end = rest
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(rest.len());
            let token = &rest[..end];
            if token.parse::<f64>().is_err() {
                return Err(format!("{key}: expected a number or a string"));
            }
            (token, &rest[end..])
        };
        if pairs.iter().any(|(k, _)| *k == key) {
            return Err(format!("{key}: duplicate key"));
        }
        pairs.push((key, token.to_string()));
        rest = after.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after;
        } else if let Some(after) = rest.strip_prefix('}') {
            rest = after;
            break;
        } else {
            return Err(format!(
                "{}: expected ',' or '}}'",
                pairs[pairs.len() - 1].0
            ));
        }
    }
    if !rest.trim().is_empty() {
        return Err("trailing text after the object".to_string());
    }
    Ok(pairs)
}

/// Splits a leading escape-free `"..."` (quotes included) off `s`.
fn string(s: &str) -> Option<(&str, &str)> {
    let body = s.strip_prefix('"')?;
    let end = body.find(['"', '\\'])?;
    (body.as_bytes()[end] == b'"').then(|| s.split_at(end + 2))
}

/// One gated wall's numbers, for the report table.
#[derive(Debug, Clone)]
pub struct WallRow {
    /// Field key.
    pub key: String,
    /// Committed seconds.
    pub committed: f64,
    /// Fresh seconds.
    pub fresh: f64,
    /// `committed × REL_LIMIT + ABS_SLACK_S`.
    pub limit: f64,
}

impl WallRow {
    /// Whether the fresh wall is within its limit.
    pub fn ok(&self) -> bool {
        self.fresh <= self.limit
    }
}

/// The gate's verdict on one bench.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Every wall compared, in field order.
    pub walls: Vec<WallRow>,
    /// Exact fields that matched.
    pub exact_matched: usize,
    /// One message per failed field, each naming its key.
    pub failures: Vec<String>,
}

/// Gates a fresh run against a committed file's pairs. Both sides must
/// hold the same keys; each field is then judged by its kind.
pub fn compare(committed: &[(String, String)], fresh: &[Field]) -> Comparison {
    let mut cmp = Comparison::default();
    for (key, _) in committed {
        if !fresh.iter().any(|f| f.key == *key) {
            cmp.failures
                .push(format!("{key}: committed but not produced by the run"));
        }
    }
    for f in fresh {
        let Some((_, committed)) = committed.iter().find(|(k, _)| *k == f.key) else {
            cmp.failures
                .push(format!("{}: produced by the run but not committed", f.key));
            continue;
        };
        match f.kind {
            Kind::Exact if *committed == f.token => cmp.exact_matched += 1,
            Kind::Exact => cmp.failures.push(format!(
                "{}: fresh {} != committed {committed} (exact field)",
                f.key, f.token
            )),
            Kind::Wall => match (committed.parse::<f64>(), f.token.parse::<f64>()) {
                (Ok(c), Ok(fresh)) => {
                    let row = WallRow {
                        key: f.key.clone(),
                        committed: c,
                        fresh,
                        limit: c * REL_LIMIT + ABS_SLACK_S,
                    };
                    if !row.ok() {
                        cmp.failures.push(format!(
                            "{}: fresh {fresh:.6}s > limit {:.6}s (committed {c:.6}s)",
                            f.key, row.limit
                        ));
                    }
                    cmp.walls.push(row);
                }
                _ => cmp
                    .failures
                    .push(format!("{}: committed {committed} is not seconds", f.key)),
            },
            Kind::Recorded => {}
        }
    }
    cmp
}

/// Merges repeated runs of one bench: every `Exact` token must agree
/// across the runs, each `Wall` takes its minimum (the gate asks whether
/// the code can still hit the committed profile, so best-of-N is the
/// statistic for a noisy shared host), and `Recorded` keeps the first.
pub fn best_of(runs: Vec<Vec<Field>>) -> Vec<Field> {
    let mut runs = runs.into_iter();
    let mut best = runs.next().expect("at least one run");
    for run in runs {
        assert_eq!(run.len(), best.len(), "runs produced different fields");
        for (b, f) in best.iter_mut().zip(run) {
            assert_eq!(
                (&b.key, b.kind),
                (&f.key, f.kind),
                "runs disagree on fields"
            );
            match b.kind {
                Kind::Exact => assert_eq!(b.token, f.token, "{}: nondeterministic", b.key),
                Kind::Wall => {
                    let secs = |t: &str| t.parse::<f64>().expect("wall token");
                    if secs(&f.token) < secs(&b.token) {
                        b.token = f.token;
                    }
                }
                Kind::Recorded => {}
            }
        }
    }
    best
}

/// One committed bench: its name, its file, and the runner that measures
/// it (asserting the bench's own invariants) and declares its fields.
pub struct Bench {
    /// Short name for reports.
    pub name: &'static str,
    /// The committed file, relative to the repo root.
    pub file: &'static str,
    /// Runs the bench at a scale.
    pub run: fn(BenchScale) -> Vec<Field>,
}

/// The end-to-end pipeline profile (`bench_pipeline`).
pub const PIPELINE: Bench = Bench {
    name: "pipeline",
    file: "BENCH_pipeline.json",
    run: crate::pipeline_bench::run,
};

/// The serving soak (`ext_serve_soak`).
pub const SERVE: Bench = Bench {
    name: "serve",
    file: "BENCH_serve.json",
    run: crate::serve_bench::run,
};

/// The adaptive-join ablation (`ext_adaptive`).
pub const ADAPTIVE: Bench = Bench {
    name: "adaptive",
    file: "BENCH_adaptive.json",
    run: crate::adaptive_bench::run,
};

/// The sharded fault soak (`ext_shard_soak`).
pub const SHARD: Bench = Bench {
    name: "shard",
    file: "BENCH_shard.json",
    run: crate::shard_bench::run,
};

/// The corpus-screening bench (`ext_index`).
pub const INDEX: Bench = Bench {
    name: "index",
    file: "BENCH_index.json",
    run: crate::index_bench::run,
};

/// Every committed bench, in gate order.
pub const BENCHES: [&Bench; 5] = [&PIPELINE, &SERVE, &ADAPTIVE, &SHARD, &INDEX];

/// Runs one bench at the `SIGMO_BENCH_SCALE` scale and writes its file
/// into the working directory (the repo root, for the documented command
/// lines), echoing it to stdout.
pub fn record(bench: &Bench) {
    let json = render(&(bench.run)(BenchScale::from_env()));
    print!("{json}");
    std::fs::write(bench.file, &json).unwrap_or_else(|e| panic!("write {}: {e}", bench.file));
    eprintln!("wrote {}", bench.file);
}
