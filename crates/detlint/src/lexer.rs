//! A hand-rolled, comment/string/raw-string aware Rust lexer.
//!
//! This is *not* a full Rust lexer: it produces exactly the token stream the
//! rule engine needs — identifiers, punctuation (with the handful of
//! multi-character operators the rules match on fused), literals and
//! lifetimes — while keeping comments out of the token stream but available
//! for the annotation escape hatches (`// DET-OK:`, `// SWAR-OK:`,
//! `// SAFETY:`, `// PANIC-OK:`, `// ORACLE:`).
//!
//! Correctness properties the rules depend on (each pinned by a test in
//! `tests/lexer_edge_cases.rs`):
//!
//! - `//` inside string literals does not start a comment;
//! - raw strings (`r"…"`, `r#"…"#`, any number of `#`s, byte variants) are
//!   consumed as single literals, including embedded quotes and `//`;
//! - block comments nest (`/* /* */ */`), as in real Rust;
//! - lifetimes (`'a`) are distinguished from char literals (`'a'`, `'\n'`);
//! - raw identifiers (`r#match`) are identifiers, not raw strings;
//! - every token and comment carries a 1-based source line for findings.
//!
//! Angle brackets are disambiguated with a depth tracker: a `<` that follows
//! `::`, an uppercase-initial identifier, `impl`/`dyn`, or a `fn` name opens
//! a generic-argument context, and while that context is open every `>` is
//! emitted as a single token — so `Vec<Vec<u8>>` lexes as two `>`s, never a
//! `>>` shift, and `>>=` only fuses at depth 0. The tracker resets on tokens
//! that cannot appear inside generics (`;`, `{`, `}`, `.`, `&&`, `||`), which
//! bounds the damage of a false open (e.g. `MAX < n` where `MAX` is a const):
//! a genuine shift between a false open and the next reset would be split and
//! thus invisible to SWAR01 — a narrow, documented false-negative window.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `foo`, `r#match`).
    Ident,
    /// Punctuation / operator, possibly fused (`<<`, `+=`, `::`).
    Punct,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Numeric literal (`0x3333`, `1.0e-5`, `42u64`).
    Num,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

/// One comment (line or block), with the line span it covers and its text
/// with the comment markers stripped.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub end_line: u32,
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Multi-character operators the rules match on. Longest-match-first; every
/// other punctuation character becomes a single-char token.
const FUSED: &[&str] = &[
    "<<=", ">>=", "..=", "::", "->", "=>", "<<", ">>", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "&&", "||", "==", "!=", "<=", ">=", "..",
];

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied();
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into tokens plus a side channel of comments.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();
    // Generic-argument angle-bracket depth; see the module docs.
    let mut angle: u32 = 0;

    while let Some(b) = cur.peek(0) {
        let line = cur.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                let start = cur.pos + 2;
                while let Some(c) = cur.peek(0) {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                let text = src[start..cur.pos]
                    .trim_start_matches(['/', '!'])
                    .to_string();
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text,
                });
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                let start = cur.pos + 2;
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                let mut end = cur.pos;
                while depth > 0 {
                    if cur.starts_with("/*") {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    } else if cur.starts_with("*/") {
                        depth -= 1;
                        end = cur.pos;
                        cur.bump();
                        cur.bump();
                    } else if cur.bump().is_none() {
                        end = cur.pos;
                        break;
                    }
                }
                out.comments.push(Comment {
                    line,
                    end_line: cur.line,
                    text: src[start..end].trim_matches(['*', '!', ' ']).to_string(),
                });
            }
            b'"' => {
                let text = lex_quoted(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_literal(&cur) => {
                let (kind, text) = lex_prefixed_literal(&mut cur);
                out.tokens.push(Token { kind, text, line });
            }
            b'r' if cur.peek(1) == Some(b'#') && cur.peek(2).is_some_and(is_ident_start) => {
                // Raw identifier `r#match`: one identifier token.
                let start = cur.pos;
                cur.bump();
                cur.bump();
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..cur.pos].to_string(),
                    line,
                });
            }
            b'\'' => {
                let (kind, text) = lex_quote_or_lifetime(&mut cur);
                out.tokens.push(Token { kind, text, line });
            }
            _ if is_ident_start(b) => {
                let start = cur.pos;
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..cur.pos].to_string(),
                    line,
                });
            }
            _ if b.is_ascii_digit() => {
                let text = lex_number(&mut cur, src);
                out.tokens.push(Token {
                    kind: TokenKind::Num,
                    text,
                    line,
                });
            }
            _ => {
                // Angle-bracket context: `<` after `::`/type-name/`impl`/
                // `dyn`/a `fn` name opens generics (or deepens an open one);
                // while open, every `>` is a single token and never fuses
                // into `>>`/`>=`/`>>=`.
                if b == b'<'
                    && cur.peek(1) != Some(b'<')
                    && cur.peek(1) != Some(b'=')
                    && (angle > 0 || opens_generics(&out.tokens))
                {
                    angle += 1;
                    cur.bump();
                    out.tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: "<".into(),
                        line,
                    });
                    continue;
                }
                if b == b'>' && angle > 0 {
                    angle -= 1;
                    cur.bump();
                    out.tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: ">".into(),
                        line,
                    });
                    continue;
                }
                let mut fused = None;
                for op in FUSED {
                    if cur.starts_with(op) {
                        fused = Some(*op);
                        break;
                    }
                }
                let text = match fused {
                    Some(op) => {
                        for _ in 0..op.len() {
                            cur.bump();
                        }
                        op.to_string()
                    }
                    None => {
                        cur.bump();
                        (b as char).to_string()
                    }
                };
                // These tokens cannot appear inside a generic-argument list;
                // any open angle context was a false open (or unbalanced
                // source) — reset so the tracker cannot leak across
                // statements.
                if matches!(text.as_str(), ";" | "{" | "}" | "." | "&&" | "||") {
                    angle = 0;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    out
}

/// Does the token stream so far end in a position where a `<` opens a
/// generic-argument list? True after `::` (turbofish/qualified paths), an
/// uppercase-initial identifier (type names), `impl`/`dyn`, or a lowercase
/// identifier that itself follows `fn` (generic fn declarations).
fn opens_generics(tokens: &[Token]) -> bool {
    let Some(prev) = tokens.last() else {
        return false;
    };
    match prev.kind {
        TokenKind::Punct => prev.text == "::",
        TokenKind::Ident => {
            if prev.text == "impl" || prev.text == "dyn" {
                return true;
            }
            if prev
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            {
                return true;
            }
            // `fn name<…>`: lowercase name directly after `fn`.
            tokens
                .len()
                .checked_sub(2)
                .and_then(|i| tokens.get(i))
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "fn")
        }
        _ => false,
    }
}

/// Is the cursor at `r"`, `r#"`, `br"`, `b"`, `b'` — i.e. a prefixed string,
/// raw string or byte literal (as opposed to a plain identifier starting
/// with `r`/`b`, or a raw identifier `r#match`)?
fn starts_raw_or_byte_literal(cur: &Cursor) -> bool {
    let b0 = cur.peek(0);
    match b0 {
        Some(b'r') => match cur.peek(1) {
            Some(b'"') => true,
            Some(b'#') => {
                // Scan past the `#`s: raw string if a `"` follows, raw
                // identifier (`r#match`) otherwise.
                let mut i = 1;
                while cur.peek(i) == Some(b'#') {
                    i += 1;
                }
                cur.peek(i) == Some(b'"')
            }
            _ => false,
        },
        Some(b'b') => match cur.peek(1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => {
                let mut i = 2;
                while cur.peek(i) == Some(b'#') {
                    i += 1;
                }
                cur.peek(i) == Some(b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Lex a plain `"…"` string (cursor on the opening quote), handling escapes.
fn lex_quoted(cur: &mut Cursor) -> String {
    let start = cur.pos;
    cur.bump(); // opening quote
    while let Some(c) = cur.peek(0) {
        match c {
            b'\\' => {
                cur.bump();
                cur.bump();
            }
            b'"' => {
                cur.bump();
                break;
            }
            _ => {
                cur.bump();
            }
        }
    }
    String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned()
}

/// Lex `r"…"`/`r#"…"#`/`b"…"`/`br#"…"#`/`b'…'` (cursor on the prefix).
fn lex_prefixed_literal(cur: &mut Cursor) -> (TokenKind, String) {
    let start = cur.pos;
    let mut raw = false;
    if cur.peek(0) == Some(b'b') {
        cur.bump();
    }
    if cur.peek(0) == Some(b'r') {
        raw = true;
        cur.bump();
    }
    if !raw && cur.peek(0) == Some(b'\'') {
        // Byte char b'…': delegate to the char path (never a lifetime).
        cur.bump();
        lex_char_body(cur);
        let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
        return (TokenKind::Char, text);
    }
    if raw {
        let mut hashes = 0usize;
        while cur.peek(0) == Some(b'#') {
            hashes += 1;
            cur.bump();
        }
        cur.bump(); // opening quote
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        loop {
            if cur.src[cur.pos..].starts_with(&closer) {
                for _ in 0..closer.len() {
                    cur.bump();
                }
                break;
            }
            if cur.bump().is_none() {
                break;
            }
        }
        let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
        return (TokenKind::Str, text);
    }
    // b"…": plain quoted with escapes.
    let body = lex_quoted(cur);
    let mut text = String::from("b");
    text.push_str(&body);
    (TokenKind::Str, text)
}

/// Cursor just past an opening `'`: consume the char body and closing quote.
fn lex_char_body(cur: &mut Cursor) {
    if cur.peek(0) == Some(b'\\') {
        cur.bump();
        cur.bump();
    } else {
        cur.bump();
    }
    if cur.peek(0) == Some(b'\'') {
        cur.bump();
    }
}

/// Distinguish `'a'` (char) from `'a` (lifetime); cursor on the `'`.
fn lex_quote_or_lifetime(cur: &mut Cursor) -> (TokenKind, String) {
    let start = cur.pos;
    cur.bump(); // the quote
    let next = cur.peek(0);
    let after = cur.peek(1);
    let is_lifetime =
        next.is_some_and(is_ident_start) && after != Some(b'\'') && next != Some(b'\\');
    if is_lifetime {
        while cur.peek(0).is_some_and(is_ident_continue) {
            cur.bump();
        }
        let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
        (TokenKind::Lifetime, text)
    } else {
        lex_char_body(cur);
        let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
        (TokenKind::Char, text)
    }
}

/// Lex a numeric literal, including suffixes (`42u64`), hex/underscores
/// (`0x0F0F_0F0F`), floats and exponents (`1.0e-5`). The `0..n` range form
/// must *not* swallow the `..`.
fn lex_number(cur: &mut Cursor, src: &str) -> String {
    let start = cur.pos;
    while cur
        .peek(0)
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
    {
        let c = cur.peek(0);
        cur.bump();
        // `1e-5` / `1E+5`: the sign belongs to the literal only right after
        // an exponent marker in a non-hex literal.
        if (c == Some(b'e') || c == Some(b'E'))
            && !src[start..cur.pos].starts_with("0x")
            && matches!(cur.peek(0), Some(b'+') | Some(b'-'))
            && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
        {
            cur.bump();
        }
    }
    // Fractional part: `.` followed by a digit (so `0..n` stays a range).
    if cur.peek(0) == Some(b'.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        while cur
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            let c = cur.peek(0);
            cur.bump();
            if (c == Some(b'e') || c == Some(b'E'))
                && matches!(cur.peek(0), Some(b'+') | Some(b'-'))
                && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                cur.bump();
            }
        }
    }
    src[start..cur.pos].to_string()
}
