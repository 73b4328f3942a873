//! The SIGMo kernel-discipline and determinism rules.
//!
//! Each rule is an independently testable module implementing [`Rule`].
//! Rules scan one indexed file (see [`crate::index`]) together with its
//! [`RuleCtx`] — the kernel- and report-reachability byte ranges computed
//! by [`crate::reach`] — and emit [`Diagnostic`]s; pragma suppression and
//! ordering happen in the driver ([`crate::analyze_sources`]).
//!
//! Two families:
//!
//! * **kernel discipline** (per-bit probes, allocation, uncharged traffic,
//!   unbounded loops) runs over *kernel-reachable* code — wherever it
//!   lives, found through the call graph rather than a file-name list;
//! * **determinism** (collection iteration order, float accumulation,
//!   relaxed reads, wall clock, unordered parallel merges) runs over the
//!   *result surface* — kernel code plus everything report construction
//!   reaches. Suppressing a determinism rule requires a written
//!   justification in the pragma ([`Rule::requires_justification`]).
//!
//! File-wide rules (atomic orderings, unsafe hygiene) ignore the context
//! and keep their original everywhere semantics.

pub mod alloc_in_kernel;
pub mod atomic_ordering;
pub mod float_accumulation;
pub mod nondet_collection_iter;
pub mod per_bit_probe;
pub mod relaxed_read_in_report;
pub mod unbounded_kernel_loop;
pub mod uncharged_access;
pub mod unordered_par_collect;
pub mod unsafe_safety;
pub mod wall_clock_in_result;

use crate::index::FileIndex;
use crate::lexer::{self, SourceFile};
use std::ops::Range;

/// One finding, anchored to a file:line:column span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (kebab-case, matches the pragma spelling).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub column: usize,
    /// Human-readable explanation with the expected remedy.
    pub message: String,
}

/// Per-file reachability context handed to every rule: the byte ranges of
/// this file that are kernel-reachable (launch closures plus fns the call
/// graph reaches from them) and report-reachable (fns that build result
/// reports, plus their callees).
#[derive(Debug, Default)]
pub struct RuleCtx {
    /// Kernel-context byte ranges, sorted by start.
    pub kernel: Vec<Range<usize>>,
    /// Report-context byte ranges, sorted by start.
    pub report: Vec<Range<usize>>,
}

impl RuleCtx {
    /// True when `at` is inside kernel context.
    pub fn in_kernel(&self, at: usize) -> bool {
        in_ranges(&self.kernel, at)
    }

    /// True when `at` is inside the result surface (kernel or report
    /// context): code whose behavior the determinism invariant pins.
    pub fn in_result(&self, at: usize) -> bool {
        in_ranges(&self.kernel, at) || in_ranges(&self.report, at)
    }
}

/// A workspace invariant checked per file against its reachability
/// context.
pub trait Rule {
    /// Kebab-case rule name, as written in `allow(...)` pragmas.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Whether a pragma suppressing this rule must carry a written
    /// justification (the determinism family does; see the pragma docs).
    fn requires_justification(&self) -> bool {
        false
    }
    /// Scans the file and appends findings.
    fn check(&self, file: &FileIndex, ctx: &RuleCtx, out: &mut Vec<Diagnostic>);
}

/// Every rule, in reporting order: kernel discipline first, then the
/// determinism family, then the file-wide hygiene rules.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(per_bit_probe::PerBitProbe),
        Box::new(uncharged_access::UnchargedAccess),
        Box::new(alloc_in_kernel::AllocInKernel),
        Box::new(unbounded_kernel_loop::UnboundedKernelLoop),
        Box::new(nondet_collection_iter::NondetCollectionIter),
        Box::new(float_accumulation::FloatAccumulation),
        Box::new(relaxed_read_in_report::RelaxedReadInReport),
        Box::new(wall_clock_in_result::WallClockInResult),
        Box::new(unordered_par_collect::UnorderedParCollect),
        Box::new(atomic_ordering::AtomicOrdering),
        Box::new(unsafe_safety::UnsafeSafety),
    ]
}

/// Every kernel-launch entry point: the plain, stop-aware (`_until`),
/// chunk-dispatch and work-group forms. Literal match on the trailing `(`
/// keeps `parallel_for` from matching its own `_until` spelling twice.
pub const KERNEL_LAUNCHES: &[&str] = &[
    ".parallel_for(",
    ".parallel_for_until(",
    ".parallel_for_chunks_until(",
    ".parallel_for_work_group(",
    ".parallel_for_work_group_until(",
];

/// Offset of the `{` opening a loop body, scanning from `from` (just past
/// the loop keyword / header start) and skipping `(...)`/`[...]` groups
/// (struct-literal braces cannot appear unparenthesized in a loop header).
/// Returns `None` at a `;` — the construct was not a loop with a body.
pub fn header_body_open(code: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut i = from;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'[' => bracket += 1,
            b']' => bracket -= 1,
            b'{' if paren == 0 && bracket == 0 => return Some(i),
            b';' if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// A `fn` item: its name and the byte range of its body in `code`.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Offset of the `fn` keyword.
    pub at: usize,
    /// Body byte range (inside the braces, exclusive of them).
    pub body: std::ops::Range<usize>,
}

/// All `fn` items of a file (any nesting level). Declarations without a
/// body (`fn f(...);`) are skipped.
pub fn fn_items(file: &SourceFile) -> Vec<FnItem> {
    let code = &file.code;
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = lexer::find_word(code, from, "fn") {
        from = at + 2;
        let bytes = code.as_bytes();
        let mut i = at + 2;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && lexer::is_ident_byte(bytes[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` in an `Fn(..)` bound or similar
        }
        let name = code[name_start..i].to_string();
        // Parameter list, then the first `{` (body) or `;` (declaration).
        let Some(open_paren) = code[i..].find('(').map(|p| i + p) else {
            continue;
        };
        let Some(close_paren) = lexer::matching_paren(code, open_paren) else {
            continue;
        };
        let mut j = close_paren + 1;
        let mut body = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    if let Some(close) = lexer::matching_brace(code, j) {
                        body = Some(j + 1..close);
                    }
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        if let Some(body) = body {
            from = body.start;
            out.push(FnItem { name, at, body });
        }
    }
    out
}

/// Finds occurrences of `pat` (a literal like `".get("`) within `range`
/// of the file's code, returning absolute offsets. When `pat` starts with
/// an identifier byte the match is word-boundary checked on the left.
pub fn find_all(file: &SourceFile, range: std::ops::Range<usize>, pat: &str) -> Vec<usize> {
    let code = &file.code[range.clone()];
    let bytes = file.code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(pat) {
        let abs = range.start + from + rel;
        let boundary_ok = !pat
            .as_bytes()
            .first()
            .is_some_and(|&b| lexer::is_ident_byte(b))
            || abs == 0
            || !lexer::is_ident_byte(bytes[abs - 1]);
        if boundary_ok {
            out.push(abs);
        }
        from += rel + pat.len();
    }
    out
}

/// True when `offset` falls inside any of the given byte ranges.
pub fn in_ranges(ranges: &[std::ops::Range<usize>], offset: usize) -> bool {
    ranges.iter().any(|r| r.contains(&offset))
}

/// The identifier path segment ending just before `at` (exclusive): for
/// `plan.crashed.iter()` with `at` on the `.` before `iter`, returns
/// `"crashed"`. Empty when `at` is not preceded by an identifier.
pub fn receiver_segment(code: &str, at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut i = at;
    while i > 0 && lexer::is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    &code[i..at]
}

/// Names bound to any of `words` by type ascription (`name: Word<...>`,
/// including struct fields and fn params) or constructor assignment
/// (`name = Word::new(...)`). The lexical stand-in for the type inference
/// this analyzer does not have: good enough to tie `plan.crashed.iter()`
/// back to a `crashed: HashSet<usize>` field declared anywhere in the
/// file.
pub fn bound_names(code: &str, words: &[&str]) -> std::collections::BTreeSet<String> {
    let bytes = code.as_bytes();
    let mut out = std::collections::BTreeSet::new();
    for word in words {
        let mut from = 0;
        while let Some(at) = lexer::find_word(code, from, word) {
            from = at + word.len();
            if let Some(name) = binding_before(code, bytes, at) {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// The identifier bound to the type/constructor word starting at
/// `word_at`, if the word appears in a binding position: after `:` (type
/// ascription, possibly through a path and `&`/`&mut`) or after `=`
/// (constructor assignment).
fn binding_before<'a>(code: &'a str, bytes: &[u8], word_at: usize) -> Option<&'a str> {
    let mut i = word_at;
    // Skip a qualifying path (`std::collections::`) leftwards.
    loop {
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i >= 2 && &bytes[i - 2..i] == b"::" {
            i -= 2;
            while i > 0 && lexer::is_ident_byte(bytes[i - 1]) {
                i -= 1;
            }
            continue;
        }
        break;
    }
    // Skip `&` / `&mut` of a reference type.
    let word_end = |mut j: usize| loop {
        if j == 0 || !lexer::is_ident_byte(bytes[j - 1]) {
            break j;
        }
        j -= 1;
    };
    if i > 0 && lexer::is_ident_byte(bytes[i - 1]) {
        let start = word_end(i);
        if &code[start..i] == "mut" {
            i = start;
            while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                i -= 1;
            }
        }
    }
    if i > 0 && bytes[i - 1] == b'&' {
        i -= 1;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
    }
    // A binding introducer: `name: Word` or `name = Word` (not `::`, `==`,
    // `=>`, `>=` etc.).
    let intro = *bytes.get(i.checked_sub(1)?)?;
    let before = i.checked_sub(2).map(|k| bytes[k]);
    let ok = match intro {
        b':' => before != Some(b':'),
        b'=' => !matches!(
            before,
            Some(b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'&' | b'|' | b'^')
        ),
        _ => return None,
    };
    if !ok {
        return None;
    }
    i -= 1;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let start = word_end(i);
    (start < i).then(|| &code[start..i])
}

/// True when `s` contains a float literal: `1.5`, `0.0`, `2f32`, `3f64`.
pub fn has_float_literal(s: &str) -> bool {
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if !b.is_ascii_digit() {
            continue;
        }
        if bytes.get(i + 1) == Some(&b'.') && bytes.get(i + 2).is_some_and(u8::is_ascii_digit) {
            return true;
        }
        let rest = &s[i + 1..];
        if rest.starts_with("f32") || rest.starts_with("f64") {
            return true;
        }
    }
    false
}

/// Test helper: indexes `src` as a one-file workspace, computes its
/// reachability context and runs `rule` over it — the same path the
/// driver takes, so rule unit tests exercise real contexts.
#[cfg(test)]
pub(crate) fn run_rule(rule: &dyn Rule, path: &str, src: &str) -> Vec<Diagnostic> {
    let ws = crate::index::Workspace::from_sources([(path, src)]);
    let cg = crate::callgraph::CallGraph::build(&ws);
    let reach = crate::reach::Reach::compute(&ws, &cg);
    let ctx = RuleCtx {
        kernel: reach.kernel_ranges(&ws, 0),
        report: reach.report_ranges(&ws, 0),
    };
    let mut out = Vec::new();
    rule.check(&ws.files[0], &ctx, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_items_finds_multiline_signatures_and_nested_bodies() {
        let src = "\
pub fn outer(
    a: u32,
) -> u32 {
    fn inner(b: u32) -> u32 { b }
    inner(a)
}
trait T { fn decl(&self); }
";
        let f = lex("x.rs", src);
        let items = fn_items(&f);
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        let outer = &items[0];
        assert!(f.code[outer.body.clone()].contains("inner(a)"));
    }

    #[test]
    fn find_all_respects_word_boundaries() {
        let f = lex("x.rs", "bitmap.get(a); xbitmap.get(b); map.fetch_or(c);");
        assert_eq!(find_all(&f, 0..f.code.len(), "bitmap.get(").len(), 1);
        assert_eq!(find_all(&f, 0..f.code.len(), ".fetch_or(").len(), 1);
    }

    #[test]
    fn receiver_segment_takes_last_path_component() {
        let code = "plan.crashed.iter()";
        let at = code.find(".iter").unwrap();
        assert_eq!(receiver_segment(code, at), "crashed");
        assert_eq!(receiver_segment("x.iter()", 1), "x");
        // A parenthesized receiver has no identifier before the dot:
        // conservative misses are fine, false ties are not.
        assert_eq!(receiver_segment("(x).iter()", 3), "");
        assert_eq!(receiver_segment(").iter()", 1), "");
    }
}
