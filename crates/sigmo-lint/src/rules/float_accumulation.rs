//! **float-accumulation** — no floating-point accumulation on the result
//! surface.
//!
//! Float addition is not associative: a parallel (or merely reordered)
//! reduction of the same values can produce different bits, and the
//! repo's invariant is *bit-identical* results across thread counts. The
//! counter model therefore accumulates integers (word counts, byte
//! counts, picosecond-priced costs as u64/u128) and converts to floats
//! only at the display edge. This rule keeps float `+=`, float `sum()`
//! and float `fold`s out of kernel- and report-reachable code.
//!
//! Detected, on the result surface:
//!
//! * `x += ...` where `x` is float-bound (`x: f64`, `x = 0.0`) or the
//!   added expression contains a float literal;
//! * `.sum::<f32>()` / `.sum::<f64>()` (and `product`);
//! * `.fold(0.0, ...)`-style folds seeded with a float literal —
//!   except min/max reductions (`fold(0.0, f64::max)`), which are
//!   commutative and associative over non-NaN floats and so immune to
//!   the reordering hazard.
//!
//! Suppressing this rule requires a written justification — the accepted
//! ones are "sequential by construction" (a single-threaded merge in a
//! fixed order) and "display-only" (wall-time style values excluded from
//! determinism keys).

use super::{bound_names, find_all, has_float_literal, Diagnostic, Rule, RuleCtx};
use crate::index::FileIndex;
use crate::lexer;
use std::ops::Range;

/// See the module docs.
pub struct FloatAccumulation;

const FLOAT_SUMS: &[&str] = &[
    ".sum::<f32>(",
    ".sum::<f64>(",
    ".product::<f32>(",
    ".product::<f64>(",
];

impl Rule for FloatAccumulation {
    fn name(&self) -> &'static str {
        "float-accumulation"
    }

    fn description(&self) -> &'static str {
        "floating-point accumulation on the result surface: reduction order changes the bits"
    }

    fn requires_justification(&self) -> bool {
        true
    }

    fn check(&self, file: &FileIndex, ctx: &RuleCtx, out: &mut Vec<Diagnostic>) {
        if ctx.kernel.is_empty() && ctx.report.is_empty() {
            return;
        }
        let float_names = bound_names(&file.file.code, &["f32", "f64"]);
        let mut ranges: Vec<Range<usize>> = ctx.kernel.clone();
        ranges.extend(ctx.report.iter().cloned());
        for range in &ranges {
            check_plus_assign(file, range.clone(), &float_names, out);
            check_sums(file, range.clone(), out);
            check_folds(file, range.clone(), out);
        }
    }
}

fn check_plus_assign(
    file: &FileIndex,
    range: Range<usize>,
    float_names: &std::collections::BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let code = &file.file.code;
    let bytes = code.as_bytes();
    for at in find_all(&file.file, range.clone(), "+=") {
        // LHS identifier (skipping whitespace back from `+=`).
        let mut i = at;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        let lhs = super::receiver_segment(code, i);
        // RHS: up to the statement end.
        let rhs_end = code[at..range.end.min(code.len())]
            .find(';')
            .map(|p| at + p)
            .unwrap_or(range.end);
        let floaty = float_names.contains(lhs) || has_float_literal(&code[at + 2..rhs_end]);
        if floaty {
            let (line, column) = file.file.line_col(at + 1);
            out.push(diag(file, line, column, &format!("float `+=` on `{lhs}`")));
        }
    }
}

fn check_sums(file: &FileIndex, range: Range<usize>, out: &mut Vec<Diagnostic>) {
    for pat in FLOAT_SUMS {
        for at in find_all(&file.file, range.clone(), pat) {
            let (line, column) = file.file.line_col(at + 1);
            out.push(diag(
                file,
                line,
                column,
                &format!("`{}`", pat.trim_start_matches('.').trim_end_matches('(')),
            ));
        }
    }
}

fn check_folds(file: &FileIndex, range: Range<usize>, out: &mut Vec<Diagnostic>) {
    let code = &file.file.code;
    let bytes = code.as_bytes();
    for at in find_all(&file.file, range.clone(), ".fold(") {
        // Seed expression: up to the first top-level `,` in the arg list.
        let open = at + ".fold(".len() - 1;
        let Some(close) = lexer::matching_paren(code, open) else {
            continue;
        };
        let mut depth = 0i32;
        let mut seed_end = close;
        for (j, &b) in bytes.iter().enumerate().take(close).skip(open + 1) {
            match b {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b',' if depth == 0 => {
                    seed_end = j;
                    break;
                }
                _ => {}
            }
        }
        // `fold(0.0, f64::max)`-style reductions are order-insensitive
        // (min/max are commutative and associative over non-NaN floats),
        // so the nonassociativity hazard this rule exists for is absent.
        let op = &code[seed_end..close];
        if op.contains("f64::max")
            || op.contains("f64::min")
            || op.contains("f32::max")
            || op.contains("f32::min")
        {
            continue;
        }
        if has_float_literal(&code[open + 1..seed_end]) {
            let (line, column) = file.file.line_col(at + 1);
            out.push(diag(file, line, column, "float-seeded `fold`"));
        }
    }
}

fn diag(file: &FileIndex, line: usize, column: usize, what: &str) -> Diagnostic {
    Diagnostic {
        rule: "float-accumulation",
        file: file.file.path.clone(),
        line,
        column,
        message: format!(
            "{what} on the result surface: float reduction order changes the bits — accumulate \
             integers (fixed-point) and convert at the display edge, or justify why the order \
             is fixed",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rule;

    fn run(src: &str) -> Vec<Diagnostic> {
        run_rule(&FloatAccumulation, "crates/sigmo-core/src/cost.rs", src)
    }

    #[test]
    fn float_plus_assign_in_report_fn_is_flagged() {
        let d = run(
            "fn merge(parts: &[Part]) -> RunReport {\n    let mut total: f64 = 0.0;\n    for p in parts {\n        total += p.cost;\n    }\n    RunReport { total }\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("total"));
    }

    #[test]
    fn integer_plus_assign_is_fine() {
        let d = run(
            "fn merge(parts: &[Part]) -> RunReport {\n    let mut total: u64 = 0;\n    for p in parts {\n        total += p.count;\n    }\n    RunReport { total }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn float_literal_rhs_is_flagged_without_binding_info() {
        let d = run(
            "fn merge(xs: &[f64]) -> StreamReport {\n    let mut acc = zero();\n    acc += 0.5;\n    StreamReport { acc }\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn float_sum_turbofish_is_flagged() {
        let d = run(
            "fn merge(xs: &[f64]) -> RunReport {\n    let t = xs.iter().sum::<f64>();\n    RunReport { t }\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("sum::<f64>"));
    }

    #[test]
    fn float_seeded_fold_is_flagged() {
        let d = run(
            "fn merge(xs: &[f64]) -> RunReport {\n    let t = xs.iter().fold(0.0, |a, b| a + b);\n    RunReport { t }\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn min_max_folds_are_order_insensitive_and_fine() {
        let d = run(
            "fn merge(xs: &[f64]) -> RunReport {\n    let t = xs.iter().cloned().fold(0.0, f64::max);\n    RunReport { t }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn integer_fold_is_fine() {
        let d = run(
            "fn merge(xs: &[u64]) -> RunReport {\n    let t = xs.iter().fold(0u64, |a, b| a + b);\n    RunReport { t }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn float_math_off_the_result_surface_is_fine() {
        let d = run(
            "fn describe(xs: &[f64]) -> f64 {\n    let mut m = 0.0;\n    for x in xs {\n        m += x;\n    }\n    m\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn kernel_reachable_float_accumulation_is_flagged() {
        let d = run(
            "fn host(q: &Queue) {\n    q.parallel_for(\"k\", \"score\", n, 64, |i, c| { score(i, c); });\n}\nfn score(i: usize, c: &K) {\n    let mut s: f32 = 0.0;\n    s += weight(i);\n    c.add_instructions(s as u64);\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }
}
