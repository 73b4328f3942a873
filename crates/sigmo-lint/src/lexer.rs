//! A minimal Rust lexer: separates code from comments and blanks literal
//! bodies, preserving byte columns exactly.
//!
//! The analyzer's rules are line/scope scanners, not parsers — they only
//! need to see *code* tokens (so a `".get("` inside a string or comment is
//! never a probe) and *comments* (so pragmas and `// SAFETY:` markers can
//! be read). This module produces both views with 1:1 column fidelity:
//! every comment byte and every string/char-literal body byte is replaced
//! by a space in the code view, so byte offsets in the code view are byte
//! offsets in the original file.
//!
//! Handled: line comments, nested block comments, string literals with
//! escapes, raw strings (`r"…"`, `r#"…"#`, any hash count), byte and
//! byte-raw strings, char and byte-char literals, and the lifetime/label
//! ambiguity of `'` (`'a`, `'next: loop`).

/// One source line, split into its code and comment parts.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line with comments and literal bodies blanked to spaces.
    pub code: String,
    /// Comment text on this line (markers stripped, trimmed), if any.
    pub comment: Option<String>,
}

/// A lexed source file plus the concatenated code view.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Per-line split views.
    pub lines: Vec<Line>,
    /// All code lines joined with `\n`; columns match the original file.
    pub code: String,
    /// Byte offset in `code` where each line begins.
    pub line_starts: Vec<usize>,
}

impl SourceFile {
    /// Maps a byte offset in [`SourceFile::code`] to 1-based (line, column).
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.line_starts[line] + 1)
    }

    /// 0-based line index of a byte offset in [`SourceFile::code`].
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_col(offset).0 - 1
    }

    /// Byte ranges of `code` covered by `#[cfg(test)]` items (the test
    /// modules / functions the kernel-discipline rules skip).
    pub fn test_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(at) = self.code[from..].find("#[cfg(test)]") {
            let start = from + at;
            let after = start + "#[cfg(test)]".len();
            // The attribute guards the next item: the first `{` opens its
            // body (mod or fn); a `;` first means an out-of-line module.
            match first_of(&self.code, after, &['{', ';']) {
                Some((i, '{')) => {
                    let end = matching_brace(&self.code, i).unwrap_or(self.code.len());
                    out.push(start..end + 1);
                    from = end + 1;
                }
                Some((i, _)) => from = i + 1,
                None => break,
            }
        }
        out
    }
}

fn first_of(code: &str, from: usize, needles: &[char]) -> Option<(usize, char)> {
    code[from..]
        .char_indices()
        .find(|(_, c)| needles.contains(c))
        .map(|(i, c)| (from + i, c))
}

/// Given the offset of a `{` in blanked code, returns the offset of its
/// matching `}`.
pub fn matching_brace(code: &str, open: usize) -> Option<usize> {
    debug_assert_eq!(code.as_bytes()[open], b'{');
    matching_delim(code, open, b'{', b'}')
}

/// Given the offset of a `(` in blanked code, returns the offset of its
/// matching `)`.
pub fn matching_paren(code: &str, open: usize) -> Option<usize> {
    debug_assert_eq!(code.as_bytes()[open], b'(');
    matching_delim(code, open, b'(', b')')
}

fn matching_delim(code: &str, open: usize, o: u8, c: u8) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == o {
            depth += 1;
        } else if b == c {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// True for bytes that continue an identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds the next whole-word occurrence of `word` at or after `from`.
pub fn find_word(code: &str, from: usize, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut at = from;
    while let Some(rel) = code[at..].find(word) {
        let i = at + rel;
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        let after = i + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(i);
        }
        at = i + word.len();
    }
    None
}

/// All identifiers in a code snippet (keywords included; callers filter).
pub fn idents(code: &str) -> Vec<&str> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) && !bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.push(&code[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

#[derive(PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(usize),
    Str,
    RawStr(usize),
}

/// Lexes `text` into code and comment views. `path` is recorded verbatim.
pub fn lex(path: &str, text: &str) -> SourceFile {
    let bytes = text.as_bytes();
    let mut lines = Vec::new();
    // Byte buffers, not `String`s: the input is valid UTF-8 and every
    // replacement is whole-char (a multi-byte char never starts a state
    // transition, which all trigger on ASCII bytes), so pushing raw bytes
    // keeps multi-byte text intact *and* byte columns exact — `b as char`
    // would re-encode bytes ≥ 0x80 and drift every following column.
    let mut code_buf: Vec<u8> = Vec::new();
    let mut comment_buf: Vec<u8> = Vec::new();
    let mut state = State::Code;
    let mut i = 0;

    macro_rules! flush_line {
        () => {{
            let code = String::from_utf8_lossy(&code_buf).into_owned();
            let comment = String::from_utf8_lossy(&comment_buf);
            let comment = comment.trim();
            lines.push(Line {
                code,
                comment: if comment.is_empty() {
                    None
                } else {
                    Some(comment.to_string())
                },
            });
            code_buf.clear();
            comment_buf.clear();
        }};
    }

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    code_buf.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    code_buf.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    state = State::Str;
                    code_buf.push(b'"');
                    i += 1;
                } else if b == b'r' || b == b'b' {
                    // Possible raw / byte string or byte char; also plain
                    // identifiers starting with r/b. Only treat as a
                    // literal prefix when not continuing an identifier.
                    let prev_ident = i > 0 && is_ident_byte(bytes[i - 1]);
                    if !prev_ident {
                        if let Some((kind, consumed)) = literal_prefix(bytes, i) {
                            code_buf.resize(code_buf.len() + consumed, b' ');
                            // Re-surface the delimiting quote for clarity.
                            code_buf.pop();
                            code_buf.push(b'"');
                            state = kind;
                            i += consumed;
                            continue;
                        }
                    }
                    code_buf.push(b);
                    i += 1;
                } else if b == b'\'' {
                    // Char literal vs lifetime/loop label. A char
                    // literal never spans a newline, so a quote whose
                    // body would cross one (or run off the file) is
                    // treated as a lone quote — keeping every line's
                    // byte count intact even on malformed input.
                    let next = bytes.get(i + 1).copied();
                    let is_char = match next {
                        Some(b'\\') => true,
                        Some(b'\n') | None => false,
                        Some(c) if c >= 0x80 => {
                            // Multi-byte contents: the closing quote sits
                            // after the whole UTF-8 sequence, not at i+2.
                            let len = utf8_len(c);
                            bytes.get(i + 1 + len) == Some(&b'\'')
                        }
                        Some(_) => bytes.get(i + 2) == Some(&b'\''),
                    };
                    let end = if is_char {
                        char_literal_end(bytes, i)
                    } else {
                        None
                    };
                    match end {
                        Some(end) => {
                            // Blank the quotes too: a quote left beside a
                            // blanked body (`'  '`) would pair with later
                            // text if the view were ever re-scanned, and
                            // no rule keys on char-literal delimiters.
                            code_buf.resize(code_buf.len() + end + 1 - i, b' ');
                            i = end + 1;
                        }
                        None => {
                            code_buf.push(b'\'');
                            i += 1;
                        }
                    }
                } else {
                    code_buf.push(b);
                    i += 1;
                }
            }
            State::LineComment => {
                comment_buf.push(b);
                code_buf.push(b' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    code_buf.extend_from_slice(b"  ");
                    i += 2;
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    comment_buf.extend_from_slice(b"/*");
                    code_buf.extend_from_slice(b"  ");
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    comment_buf.push(b);
                    code_buf.push(b' ');
                    i += 1;
                }
            }
            State::Str => {
                if b == b'\\' {
                    if bytes.get(i + 1) == Some(&b'\n') {
                        // Line-continuation escape: let the newline branch
                        // flush the line so offsets stay aligned.
                        code_buf.push(b' ');
                        i += 1;
                    } else {
                        code_buf.extend_from_slice(b"  ");
                        i += 2;
                    }
                } else if b == b'"' {
                    code_buf.push(b'"');
                    state = State::Code;
                    i += 1;
                } else {
                    code_buf.push(b' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' && raw_str_closes(bytes, i, hashes) {
                    code_buf.push(b'"');
                    code_buf.resize(code_buf.len() + hashes, b' ');
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    code_buf.push(b' ');
                    i += 1;
                }
            }
        }
    }
    if state == State::LineComment || !code_buf.is_empty() || !comment_buf.is_empty() {
        flush_line!();
    }
    if lines.is_empty() {
        lines.push(Line {
            code: String::new(),
            comment: None,
        });
    }

    let mut code = String::new();
    let mut line_starts = Vec::with_capacity(lines.len());
    for (n, line) in lines.iter().enumerate() {
        line_starts.push(code.len());
        code.push_str(&line.code);
        if n + 1 < lines.len() {
            code.push('\n');
        }
    }
    SourceFile {
        path: path.to_string(),
        lines,
        code,
        line_starts,
    }
}

/// Detects `b"`, `r"`, `r#"`, `br"`, `br#"` prefixes at `i`. Returns the
/// state to enter and the bytes consumed through the opening quote. A
/// byte-char literal `b'x'` returns `None` so the `'` path handles it.
fn literal_prefix(bytes: &[u8], i: usize) -> Option<(State, usize)> {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if bytes.get(j) == Some(&b'\'') {
            return None;
        }
    }
    if bytes.get(j) == Some(&b'"') {
        return Some((State::Str, j + 1 - i));
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        let mut hashes = 0;
        while bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if bytes.get(j) == Some(&b'"') {
            return Some((State::RawStr(hashes), j + 1 - i));
        }
    }
    None
}

fn raw_str_closes(bytes: &[u8], quote: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(quote + k) == Some(&b'#'))
}

/// End offset (of the closing `'`) of a char literal starting at `open`,
/// or `None` if a newline or end-of-input arrives first — the caller
/// falls back to a lone quote so line/byte alignment survives malformed
/// literals.
fn char_literal_end(bytes: &[u8], open: usize) -> Option<usize> {
    let mut i = open + 1;
    while i < bytes.len() && bytes[i] != b'\n' {
        if bytes[i] == b'\\' {
            if bytes.get(i + 1) == Some(&b'\n') {
                return None;
            }
            i += 2;
        } else if bytes[i] == b'\'' {
            return Some(i);
        } else {
            i += 1;
        }
    }
    None
}

/// Byte length of the UTF-8 character starting with `first` (≥ 0x80).
fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_blanked_and_captured() {
        let f = lex("x.rs", "let a = 1; // set a\nlet b = 2;\n");
        assert_eq!(f.lines[0].code, "let a = 1;         ");
        assert_eq!(f.lines[0].comment.as_deref(), Some("set a"));
        assert_eq!(f.lines[1].comment, None);
    }

    #[test]
    fn strings_keep_quotes_blank_bodies() {
        let f = lex("x.rs", r#"call("a.get(b) { }", 2);"#);
        assert!(!f.code.contains(".get("));
        assert!(!f.code.contains('{'));
        assert_eq!(f.code.len(), r#"call("a.get(b) { }", 2);"#.len());
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let f = lex("x.rs", r#"let s = "a\"b.get(c)"; x();"#);
        assert!(!f.code.contains(".get("));
        assert!(f.code.contains("x();"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = lex("x.rs", "let s = r#\"json {}.get() \"# ; y();");
        assert!(!f.code.contains(".get("));
        assert!(f.code.contains("y();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = lex("x.rs", "let c = '{'; 'outer: loop { break 'outer; }");
        // The brace inside the char literal is blanked; the loop braces
        // survive; the label keeps its tick.
        assert_eq!(f.code.matches('{').count(), 1);
        assert!(f.code.contains("'outer: loop"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = lex("x.rs", "a(); /* one /* two */ still */ b();\nc();");
        assert!(f.lines[0].code.contains("a();"));
        assert!(f.lines[0].code.contains("b();"));
        assert!(!f.lines[0].code.contains("two"));
        assert!(f.lines[1].code.contains("c();"));
    }

    #[test]
    fn line_col_round_trip() {
        let f = lex("x.rs", "ab\ncdef\ng");
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(3), (2, 1));
        assert_eq!(f.line_col(6), (2, 4));
        assert_eq!(f.line_col(8), (3, 1));
    }

    #[test]
    fn matching_delims() {
        let code = "fn f(a: u32) { if x { y(); } }";
        let open = code.find('{').unwrap();
        assert_eq!(matching_brace(code, open), Some(code.len() - 1));
        let paren = code.find('(').unwrap();
        assert_eq!(matching_paren(code, paren), Some(code.find(')').unwrap()));
    }

    #[test]
    fn find_word_respects_boundaries() {
        let code = "balloon for loop for_each for";
        assert_eq!(find_word(code, 0, "for"), Some(8));
        assert_eq!(find_word(code, 9, "for"), Some(code.len() - 3));
        assert_eq!(find_word(code, 0, "loo"), None);
    }

    #[test]
    fn test_ranges_cover_cfg_test_mods() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn t() { probe(); }\n}\nfn b() {}\n";
        let f = lex("x.rs", src);
        let ranges = f.test_ranges();
        assert_eq!(ranges.len(), 1);
        let probe = f.code.find("probe").unwrap();
        assert!(ranges[0].contains(&probe));
        let b = f.code.find("fn b").unwrap();
        assert!(!ranges[0].contains(&b));
    }

    #[test]
    fn idents_extracts_words() {
        assert_eq!(
            idents("foo.bar(q as usize, d)"),
            ["foo", "bar", "q", "as", "usize", "d"]
        );
    }
}
