//! The workspace symbol index — the substrate for interprocedural
//! analysis.
//!
//! `sigmo-lint` started as a per-file lexical linter; the determinism
//! audit needs to reason about *where code runs*, not just what file it
//! sits in. This module lexes every source file once and records, per
//! file:
//!
//! * every `fn` item (name + body byte range, via [`crate::rules::fn_items`]);
//! * every kernel-launch closure body (the closures handed to
//!   `Queue::parallel_for*` — the code that executes inside a kernel);
//! * the `#[cfg(test)]` ranges (test code is outside the audit surface);
//! * whether the file is *context-exempt*: measurement and verification
//!   harnesses (`tests/`, `benches/`, `examples/`, `crates/sigmo-bench/`,
//!   the end-to-end benchmark `perfbench/`)
//!   time things with wall clocks and sum floats *by design*, so the
//!   reachability-gated rules do not treat their code as kernel or report
//!   context. File-wide rules (atomic orderings, unsafe hygiene) still
//!   apply to them.
//!
//! The index feeds [`crate::callgraph`] (lexical call edges) and
//! [`crate::reach`] (kernel/report reachability), which together decide
//! which byte ranges of each file the kernel-discipline and determinism
//! rules interrogate.

use crate::lexer::{self, SourceFile};
use crate::rules::{fn_items, in_ranges, FnItem, KERNEL_LAUNCHES};
use std::ops::Range;
use std::path::Path;

/// One indexed source file.
#[derive(Debug)]
pub struct FileIndex {
    /// The lexed file (blanked code view + comments).
    pub file: SourceFile,
    /// Every `fn` item with a body, in source order.
    pub fns: Vec<FnItem>,
    /// Byte ranges of kernel-launch closure bodies (both the stop probe
    /// and the kernel body closures), outside `#[cfg(test)]`.
    pub kernel_closures: Vec<Range<usize>>,
    /// `#[cfg(test)]` item ranges.
    pub tests: Vec<Range<usize>>,
    /// True for measurement/verification harness files whose code is not
    /// treated as kernel or report context (see module docs).
    pub context_exempt: bool,
}

/// The lexed workspace: every file the analyzer sees, in path order.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Indexed files, sorted by path.
    pub files: Vec<FileIndex>,
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…` →
/// `<name>`), or `""` for files outside `crates/` (workspace-root tests,
/// build scripts), which the call graph treats as unconstrained.
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// True for files whose code must not seed or carry kernel/report
/// context: test suites, benches, examples, the measurement crate, and
/// the end-to-end benchmark package.
pub fn context_exempt(path: &str) -> bool {
    let exempt_dir =
        |d: &str| path.starts_with(&format!("{d}/")) || path.contains(&format!("/{d}/"));
    exempt_dir("tests")
        || exempt_dir("benches")
        || exempt_dir("examples")
        || path.starts_with("crates/sigmo-bench/")
        || path.starts_with("perfbench/")
}

impl Workspace {
    /// Indexes a set of `(path, source)` pairs. Paths should be
    /// workspace-relative and `/`-separated.
    pub fn from_sources<I, P, S>(sources: I) -> Self
    where
        I: IntoIterator<Item = (P, S)>,
        P: AsRef<str>,
        S: AsRef<str>,
    {
        let mut files: Vec<FileIndex> = sources
            .into_iter()
            .map(|(path, src)| index_file(path.as_ref(), src.as_ref()))
            .collect();
        files.sort_by(|a, b| a.file.path.cmp(&b.file.path));
        Workspace { files }
    }

    /// Indexes every workspace file under `root` (see
    /// [`crate::walk_workspace`]). Unreadable files are returned as
    /// `(path, error)` pairs for the driver to report.
    pub fn load(root: &Path) -> (Self, Vec<(String, String)>) {
        let mut sources = Vec::new();
        let mut errors = Vec::new();
        for rel in crate::walk_workspace(root) {
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            match std::fs::read_to_string(root.join(&rel)) {
                Ok(src) => sources.push((rel_str, src)),
                Err(e) => errors.push((rel_str, e.to_string())),
            }
        }
        (Self::from_sources(sources), errors)
    }

    /// Index of the file with the given path, if present.
    pub fn file_index(&self, path: &str) -> Option<usize> {
        self.files
            .binary_search_by(|f| f.file.path.as_str().cmp(path))
            .ok()
    }
}

/// Lexes and indexes one file.
pub fn index_file(path: &str, src: &str) -> FileIndex {
    let file = lexer::lex(path, src);
    let tests = file.test_ranges();
    let fns = fn_items(&file);
    let kernel_closures = kernel_closures(&file, &tests);
    FileIndex {
        fns,
        kernel_closures,
        tests,
        context_exempt: context_exempt(path),
        file,
    }
}

/// Byte ranges of every closure body inside a kernel launch's argument
/// list, outside `#[cfg(test)]`. Both the stop probe and the kernel body
/// execute under the launch, so both count as kernel context.
pub fn kernel_closures(file: &SourceFile, tests: &[Range<usize>]) -> Vec<Range<usize>> {
    let code = &file.code;
    let mut out = Vec::new();
    for launch in KERNEL_LAUNCHES {
        for at in crate::rules::find_all(file, 0..code.len(), launch) {
            if in_ranges(tests, at) {
                continue;
            }
            let args_open = at + launch.len() - 1;
            let Some(args_close) = lexer::matching_paren(code, args_open) else {
                continue;
            };
            out.extend(closure_bodies(code, args_open + 1, args_close));
        }
    }
    out.sort_by_key(|r| r.start);
    out
}

/// All closure bodies in `open..close` of the blanked code: every
/// `|params| body` (or `|| body`), where the body is either a brace block
/// or the expression up to the next top-level `,` / the end of the range.
fn closure_bodies(code: &str, open: usize, close: usize) -> Vec<Range<usize>> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = open;
    while i < close {
        match bytes[i] {
            b'|' => {
                // `||` (no parameters) or `|params|`.
                let params_end = if bytes.get(i + 1) == Some(&b'|') {
                    i + 1
                } else {
                    match (i + 1..close).find(|&j| bytes[j] == b'|') {
                        Some(j) => j,
                        None => break,
                    }
                };
                let mut j = params_end + 1;
                while j < close && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j < close && bytes[j] == b'{' {
                    match lexer::matching_brace(code, j) {
                        Some(end) => {
                            out.push(j + 1..end);
                            i = end + 1;
                        }
                        None => break,
                    }
                } else {
                    // Expression body: up to the next `,` at depth 0.
                    let mut depth = 0i32;
                    let mut k = j;
                    while k < close {
                        match bytes[k] {
                            b'(' | b'[' | b'{' => depth += 1,
                            b')' | b']' | b'}' => depth -= 1,
                            b',' if depth == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    out.push(j..k);
                    i = k + 1;
                }
            }
            // Skip nested groups that are not closures (e.g. a tuple arg)
            // so a `|` inside them is not misread as a closure opener.
            b'(' | b'[' => match matching_any(code, i) {
                Some(end) => i = end + 1,
                None => break,
            },
            _ => i += 1,
        }
    }
    out
}

fn matching_any(code: &str, open: usize) -> Option<usize> {
    match code.as_bytes()[open] {
        b'(' => lexer::matching_paren(code, open),
        b'[' => {
            let bytes = code.as_bytes();
            let mut depth = 0usize;
            for (i, &b) in bytes.iter().enumerate().skip(open) {
                if b == b'[' {
                    depth += 1;
                } else if b == b']' {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_fns_and_kernel_closures() {
        let src = "\
fn host(q: &Queue) {
    q.parallel_for(\"k\", \"filter\", n, 128, |i, c| {
        helper(i, c);
    });
}
fn helper(i: usize, c: &KernelCounters) {
    c.add_instructions(1);
}
";
        let idx = index_file("crates/x/src/filter.rs", src);
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.kernel_closures.len(), 1);
        let body = &idx.file.code[idx.kernel_closures[0].clone()];
        assert!(body.contains("helper(i, c)"));
        assert!(!idx.context_exempt);
    }

    #[test]
    fn until_launches_collect_both_closures() {
        let src = "\
fn host(q: &Queue, gov: &Governor) {
    q.parallel_for_until(\"k\", \"join\", n, 64, || gov.stopped(), |i, c| {
        step(i, c);
    });
}
";
        let idx = index_file("crates/x/src/join.rs", src);
        assert_eq!(idx.kernel_closures.len(), 2, "{:?}", idx.kernel_closures);
        let probe = &idx.file.code[idx.kernel_closures[0].clone()];
        assert!(probe.contains("gov.stopped()"), "{probe:?}");
    }

    #[test]
    fn chunk_dispatch_launch_is_indexed() {
        let src = "\
fn host(q: &Queue) {
    q.parallel_for_chunks_until(\"k\", \"filter\", n, 64, || false, |items, c| {
        for i in items { touch(i, c); }
    });
}
";
        let idx = index_file("crates/x/src/filter.rs", src);
        assert_eq!(idx.kernel_closures.len(), 2);
    }

    #[test]
    fn test_module_launches_are_skipped() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(q: &Queue) {
        q.parallel_for(\"k\", \"t\", 1, 1, |_, _| {});
    }
}
";
        let idx = index_file("crates/x/src/filter.rs", src);
        assert!(idx.kernel_closures.is_empty());
    }

    #[test]
    fn harness_paths_are_context_exempt() {
        assert!(context_exempt("tests/determinism_queue.rs"));
        assert!(context_exempt("crates/sigmo-core/benches/filter.rs"));
        assert!(context_exempt("examples/quickstart.rs"));
        assert!(context_exempt("crates/sigmo-bench/src/figures.rs"));
        assert!(context_exempt("perfbench/src/serve.rs"));
        assert!(!context_exempt("crates/sigmo-core/src/filter.rs"));
        assert!(!context_exempt("crates/sigmo-serve/src/server.rs"));
    }

    #[test]
    fn workspace_sorts_and_finds_files() {
        let ws = Workspace::from_sources([("b.rs", "fn b() {}"), ("a.rs", "fn a() {}")]);
        assert_eq!(ws.files[0].file.path, "a.rs");
        assert_eq!(ws.file_index("b.rs"), Some(1));
        assert_eq!(ws.file_index("c.rs"), None);
    }
}
