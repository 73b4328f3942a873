//! The one line-notation reader behind [`crate::smiles`] and
//! [`crate::smarts`].
//!
//! SMILES and SMARTS share their skeleton: atoms joined by bond symbols,
//! `(...)` branches, `.` fragment breaks and ring-closure digits. [`read`]
//! walks that skeleton once for both, generic over a [`Dialect`] that
//! supplies only what differs: its bond-symbol table, whether `%nn` ring
//! numbers exist, how an unbracketed and a bracket atom read, and what an
//! atom or an edge becomes. [`Cursor`] is the one atom-token scanner
//! (element symbols, charges, digit runs) that both bracket grammars and
//! both organic-atom paths call.
//!
//! Every error names text that is in the input: its offset lies on a char
//! boundary, an unexpected character is the one at that offset, and an
//! unknown element symbol is spelled as written.

use crate::elements::Element;

/// A syntax error both notations report alike; each dialect's error type
/// converts it into its own variant of the same name.
#[derive(Debug)]
pub(crate) enum SyntaxError {
    Unexpected { at: usize, found: char },
    UnknownElement { at: usize, symbol: String },
    RingBond { number: u16, reason: &'static str },
    Parenthesis { at: usize },
    DanglingBond { at: usize },
    Empty,
}

/// The two-letter element symbols inside brackets, and the organic subset
/// of SMILES outside them.
pub(crate) const TWO_LETTER: &[Element] = &[Element::Cl, Element::Br, Element::Si];

/// A read position in a line-notation string, bounded by `end` (the
/// closing `]` inside a bracket atom).
pub(crate) struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the next unread character.
    pub(crate) pos: usize,
    end: usize,
}

impl<'a> Cursor<'a> {
    /// The next unread byte, `None` at the end.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.peek_at(0)
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        let at = self.pos + ahead;
        (at < self.end).then(|| self.text.as_bytes()[at])
    }

    /// Consumes `b` if it is next.
    pub(crate) fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    /// The unread text up to the end.
    pub(crate) fn rest(&self) -> &'a str {
        &self.text[self.pos..self.end]
    }

    /// An unexpected-character error at the cursor.
    pub(crate) fn unexpected(&self) -> SyntaxError {
        self.unexpected_at(self.pos)
    }

    /// An unexpected-character error naming the char that starts at `at`.
    pub(crate) fn unexpected_at(&self, at: usize) -> SyntaxError {
        let found = self.text[at..].chars().next();
        SyntaxError::Unexpected {
            at,
            found: found.expect("an error offset inside the text"),
        }
    }

    /// Reads up to `max` decimal digits; `None` when none is next.
    pub(crate) fn digits(&mut self, max: usize) -> Option<u32> {
        let start = self.pos;
        let mut n = 0u32;
        while self.pos - start < max {
            match self.peek() {
                Some(d @ b'0'..=b'9') => n = n.saturating_mul(10).saturating_add((d - b'0') as u32),
                _ => break,
            }
            self.pos += 1;
        }
        (self.pos > start).then_some(n)
    }

    /// Reads a formal charge: `+` or `-`, then one digit or repeats of the
    /// same sign (`+2`, `++`). `None` when no sign is next.
    pub(crate) fn formal_charge(&mut self) -> Option<i8> {
        let mark = self.peek().filter(|&b| b == b'+' || b == b'-')?;
        self.pos += 1;
        let magnitude = match self.digits(1) {
            Some(d) => d as i8,
            None => {
                let mut m = 1i8;
                while self.eat(mark) {
                    m += 1;
                }
                m
            }
        };
        Some(if mark == b'+' { magnitude } else { -magnitude })
    }

    /// Reads an element symbol: one of `two_letter`, an uppercase letter,
    /// or a lowercase (aromatic) one. Returns the element and whether it
    /// was written aromatic.
    pub(crate) fn element(
        &mut self,
        two_letter: &[Element],
    ) -> Result<(Element, bool), SyntaxError> {
        let at = self.pos;
        let first = match self.peek() {
            Some(b) if b.is_ascii_alphabetic() => b,
            _ => return Err(self.unexpected()),
        };
        let pair = [first, self.peek_at(1).unwrap_or(0)];
        if let Some(&e) = two_letter.iter().find(|e| e.symbol().as_bytes() == pair) {
            self.pos += 2;
            return Ok((e, false));
        }
        self.pos += 1;
        let aromatic = first.is_ascii_lowercase();
        match Element::from_symbol_bytes(&[first.to_ascii_uppercase()]) {
            Some(e) if !aromatic || e.can_be_aromatic() => Ok((e, aromatic)),
            _ => Err(SyntaxError::UnknownElement {
                at,
                symbol: (first as char).to_string(),
            }),
        }
    }
}

/// What one line notation supplies to [`read`].
pub(crate) trait Dialect {
    /// An atom as its token reads.
    type Atom;
    /// A bond symbol's meaning.
    type Bond: Copy + PartialEq;
    /// The notation's error type.
    type Error: From<SyntaxError>;
    /// Whether `%nn` two-digit ring numbers are read.
    const PERCENT_RINGS: bool;
    /// The bond a symbol stands for, `None` for a byte that is no bond.
    fn bond(symbol: u8) -> Option<Self::Bond>;
    /// Reads the unbracketed atom at the cursor.
    fn organic(cur: &mut Cursor) -> Result<Self::Atom, Self::Error>;
    /// Reads a bracket atom's inside; the cursor stops at the `]`, and
    /// anything left unread before it is an error.
    fn bracket(cur: &mut Cursor) -> Result<Self::Atom, Self::Error>;
    /// Adds an atom; atoms are numbered from 0 in order.
    fn add_atom(&mut self, atom: Self::Atom);
    /// Adds the edge `a`–`b`; `bond` is `None` when no symbol was written.
    fn add_edge(&mut self, a: u32, b: u32, bond: Option<Self::Bond>) -> Result<(), Self::Error>;
}

/// Walks `text`'s skeleton, handing each atom and edge to `dialect`.
///
/// A bond symbol binds the next atom or ring closure. A ring bond's symbol
/// may be written at either end; two different symbols are an error.
pub(crate) fn read<D: Dialect>(text: &str, dialect: &mut D) -> Result<(), D::Error> {
    if text.is_empty() {
        return Err(SyntaxError::Empty.into());
    }
    let mut cur = Cursor {
        text,
        pos: 0,
        end: text.len(),
    };
    let mut atoms = 0u32;
    let mut prev: Option<u32> = None;
    let mut branches: Vec<u32> = Vec::new();
    // The unconsumed bond symbol and its offset, for dangling-bond spans.
    let mut pending: Option<(D::Bond, usize)> = None;
    // Open ring bonds: number -> (atom, bond symbol given at the opening).
    let mut rings: [Option<(u32, Option<D::Bond>)>; 100] = [None; 100];

    while let Some(c) = cur.peek() {
        let at = cur.pos;
        if let Some(bond) = D::bond(c) {
            if prev.is_none() {
                return Err(SyntaxError::DanglingBond { at }.into());
            }
            pending = Some((bond, at));
            cur.pos += 1;
            continue;
        }
        match c {
            b'(' => {
                branches.push(prev.ok_or(SyntaxError::Parenthesis { at })?);
                cur.pos += 1;
            }
            b')' => {
                // A bond symbol must bind an atom inside its own branch.
                if let Some((_, at)) = pending {
                    return Err(SyntaxError::DanglingBond { at }.into());
                }
                prev = Some(branches.pop().ok_or(SyntaxError::Parenthesis { at })?);
                cur.pos += 1;
            }
            b'.' => {
                // Fragment separator: the next atom starts a new component.
                if pending.is_some() {
                    return Err(SyntaxError::DanglingBond { at }.into());
                }
                prev = None;
                cur.pos += 1;
            }
            b'1'..=b'9' | b'%' if c != b'%' || D::PERCENT_RINGS => {
                cur.pos += 1;
                let number = if c == b'%' {
                    match cur.digits(2) {
                        Some(n) if cur.pos == at + 3 => n as u16,
                        _ => return Err(cur.unexpected_at(at).into()),
                    }
                } else {
                    (c - b'0') as u16
                };
                let atom = prev.ok_or(SyntaxError::RingBond {
                    number,
                    reason: "ring digit before any atom",
                })?;
                let bond = pending.take().map(|(b, _)| b);
                match rings[number as usize].take() {
                    None => rings[number as usize] = Some((atom, bond)),
                    Some((other, _)) if other == atom => {
                        return Err(SyntaxError::RingBond {
                            number,
                            reason: "ring closes on the same atom",
                        }
                        .into())
                    }
                    Some((other, open)) => {
                        if matches!((open, bond), (Some(o), Some(b)) if o != b) {
                            return Err(SyntaxError::RingBond {
                                number,
                                reason: "ring bond symbols conflict",
                            }
                            .into());
                        }
                        dialect.add_edge(other, atom, bond.or(open))?;
                    }
                }
            }
            _ => {
                let atom = if c == b'[' {
                    let close = text[at..]
                        .find(']')
                        .map(|j| at + j)
                        .ok_or_else(|| cur.unexpected_at(at))?;
                    let mut inner = Cursor {
                        text,
                        pos: at + 1,
                        end: close,
                    };
                    let atom = D::bracket(&mut inner)?;
                    if inner.pos < close {
                        return Err(inner.unexpected().into());
                    }
                    cur.pos = close + 1;
                    atom
                } else {
                    D::organic(&mut cur)?
                };
                dialect.add_atom(atom);
                let bond = pending.take().map(|(b, _)| b);
                if let Some(p) = prev {
                    dialect.add_edge(p, atoms, bond)?;
                }
                prev = Some(atoms);
                atoms += 1;
            }
        }
    }
    if let Some((_, at)) = pending {
        return Err(SyntaxError::DanglingBond { at }.into());
    }
    if !branches.is_empty() {
        return Err(SyntaxError::Parenthesis { at: text.len() }.into());
    }
    if let Some(number) = rings.iter().position(Option::is_some) {
        return Err(SyntaxError::RingBond {
            number: number as u16,
            reason: "ring bond never closed",
        }
        .into());
    }
    if atoms == 0 {
        return Err(SyntaxError::Empty.into());
    }
    Ok(())
}

/// One record of a `.smi` or `.smarts` file: `NOTATION [whitespace name]`.
#[derive(Debug, Clone, Copy)]
pub struct LineRecord<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The whole record, trimmed.
    pub text: &'a str,
    /// The SMILES or SMARTS string.
    pub notation: &'a str,
    /// The name after the notation, `None` when the line has none.
    pub name: Option<&'a str>,
}

/// Splits line-notation text into records, skipping blank lines and `#`
/// comments. Callers choose their own default names and their own policy
/// on records that fail to parse.
pub fn line_records(text: &str) -> impl Iterator<Item = LineRecord<'_>> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            return None;
        }
        let (notation, name) = match text.split_once(char::is_whitespace) {
            Some((notation, name)) => (notation, Some(name.trim())),
            None => (text, None),
        };
        Some(LineRecord {
            line: i + 1,
            text,
            notation,
            name,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_records_skip_blanks_and_comments_and_split_names() {
        let text = "# header\n  CCO  ethanol  \n\nC\tmethane gas\n[NH4+]\n";
        let got: Vec<_> = line_records(text)
            .map(|r| (r.line, r.text, r.notation, r.name))
            .collect();
        assert_eq!(
            got,
            [
                (2, "CCO  ethanol", "CCO", Some("ethanol")),
                (4, "C\tmethane gas", "C", Some("methane gas")),
                (5, "[NH4+]", "[NH4+]", None),
            ]
        );
    }
}
