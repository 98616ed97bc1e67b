//! Per-file analysis context derived from the raw token stream: which lines
//! are `#[cfg(test)]`-gated, which tokens sit inside which `fn`, where
//! statement boundaries fall, and which escape-hatch annotations are present.

use std::cell::RefCell;
use std::collections::BTreeSet;

use crate::lexer::{self, Lexed, Token, TokenKind};

/// A lexed file plus the derived structure the rules consult.
pub struct FileCtx {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Crate the file belongs to (`pcm`, `engine`, …; `vcc_repro` for the
    /// facade's own `src`/`tests`/`examples`).
    pub crate_name: String,
    /// True for files under a `tests/`, `benches/` or `examples/` directory —
    /// test-only code, exempt from the library-code rules.
    pub is_test_code: bool,
    pub lexed: Lexed,
    /// Line ranges (inclusive) covered by `#[cfg(test)]`-gated items,
    /// including `#[cfg(any(test, …))]` and bare `#[test]` functions.
    pub test_ranges: Vec<(u32, u32)>,
    /// `fn` spans as (start token index, end token index inclusive, name).
    pub fn_spans: Vec<(usize, usize, String)>,
    /// Statement runs as half-open token index ranges, split at `;`/`{`/`}`.
    /// A multi-line expression is one statement, so the SWAR mask-guard and
    /// annotation checks see all of it.
    pub stmts: Vec<(usize, usize)>,
    /// Indices (into `lexed.comments`) of annotation comments a rule has
    /// consulted while suppressing (or deciding about) a matched pattern.
    /// ANN01 reports escape-hatch comments never consumed by any rule.
    pub used_annotations: RefCell<BTreeSet<usize>>,
}

impl FileCtx {
    pub fn new(path: String, src: &str) -> Self {
        let lexed = lexer::lex(src);
        let crate_name = crate_of(&path);
        let is_test_code = path
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples");
        let test_ranges = find_test_ranges(&lexed.tokens);
        let fn_spans = find_fn_spans(&lexed.tokens);
        let stmts = split_statements(&lexed.tokens);
        FileCtx {
            path,
            crate_name,
            is_test_code,
            lexed,
            test_ranges,
            fn_spans,
            stmts,
            used_annotations: RefCell::new(BTreeSet::new()),
        }
    }

    /// Is this line inside a `#[cfg(test)]`-gated item (or a test-only file)?
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_code
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// Does an annotation comment `marker <non-empty reason>` cover the line
    /// range `[first, last]`? Accepted positions: a (tail) comment on any of
    /// those lines, or anywhere in the contiguous comment block immediately
    /// above `first` — so a multi-line justification keeps its marker on the
    /// first line and still counts. The marker must *start* a comment line —
    /// prose that merely mentions `// DET-OK: <why>` does not silence
    /// findings.
    pub fn annotated(&self, marker: &str, first: u32, last: u32) -> bool {
        let hits = self.annotation_hits(marker, first, last);
        let found = !hits.is_empty();
        let mut used = self.used_annotations.borrow_mut();
        used.extend(hits);
        found
    }

    /// The comment indices `annotated` would consume, without marking them
    /// used. See `annotated` for the accepted positions.
    fn annotation_hits(&self, marker: &str, first: u32, last: u32) -> Vec<usize> {
        let has_marker = |c: &crate::lexer::Comment| {
            c.text
                .trim_start()
                .strip_prefix(marker)
                .is_some_and(|rest| !rest.trim().is_empty())
        };
        let mut hits = Vec::new();
        // Tail / in-range comments.
        for (i, c) in self.lexed.comments.iter().enumerate() {
            if c.end_line >= first && c.line <= last && has_marker(c) {
                hits.push(i);
            }
        }
        // Contiguous comment block ending on the line above `first`.
        let mut line = first.saturating_sub(1);
        while let Some((i, c)) = self
            .lexed
            .comments
            .iter()
            .enumerate()
            .find(|(_, c)| c.line <= line && c.end_line >= line)
        {
            if has_marker(c) {
                hits.push(i);
                break;
            }
            if c.line == 0 || c.line > line {
                break;
            }
            line = c.line - 1;
        }
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Name of the innermost `fn` containing token `idx`, if any.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&str> {
        self.fn_spans
            .iter()
            .filter(|&&(s, e, _)| idx >= s && idx <= e)
            .min_by_key(|&&(s, e, _)| e - s)
            .map(|(_, _, name)| name.as_str())
    }

    /// Line span (first, last) of the statement token range.
    pub fn stmt_lines(&self, stmt: (usize, usize)) -> (u32, u32) {
        let toks = &self.lexed.tokens[stmt.0..stmt.1];
        let first = toks.first().map_or(0, |t| t.line);
        let last = toks.last().map_or(first, |t| t.line);
        (first, last)
    }
}

/// Which crate does a workspace-relative path belong to?
fn crate_of(path: &str) -> String {
    let comps: Vec<&str> = path.split('/').collect();
    match comps.as_slice() {
        ["crates", "compat", name, ..] => (*name).to_string(),
        ["crates", name, ..] => (*name).to_string(),
        _ => "vcc_repro".to_string(),
    }
}

fn is(t: &Token, s: &str) -> bool {
    t.text == s
}

/// Find line ranges of items gated by `#[cfg(test)]`-style attributes.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !is(&tokens[i], "#") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < tokens.len() && is(&tokens[j], "!");
        if inner {
            j += 1;
        }
        if j >= tokens.len() || !is(&tokens[j], "[") {
            i += 1;
            continue;
        }
        // Find the matching `]` and inspect the attribute body.
        let open = j;
        let mut depth = 0usize;
        let mut close = open;
        for (k, t) in tokens.iter().enumerate().skip(open) {
            if is(t, "[") {
                depth += 1;
            } else if is(t, "]") {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
        }
        let body = &tokens[open + 1..close];
        let has = |s: &str| body.iter().any(|t| t.kind == TokenKind::Ident && is(t, s));
        let is_test_attr = (has("cfg") && has("test")) || (body.len() == 1 && has("test"));
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test-gated.
            out.push((1, u32::MAX));
            return out;
        }
        // Skip any further attributes, then span the gated item: through the
        // matching `}` of its body, or to the terminating `;` if bodyless.
        let mut k = close + 1;
        while k + 1 < tokens.len() && is(&tokens[k], "#") && is(&tokens[k + 1], "[") {
            let mut d = 0usize;
            while k < tokens.len() {
                if is(&tokens[k], "[") {
                    d += 1;
                } else if is(&tokens[k], "]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        let start_line = tokens[i].line;
        let mut end_line = start_line;
        let mut brace = 0usize;
        let mut entered = false;
        while k < tokens.len() {
            let t = &tokens[k];
            if !entered && is(t, ";") {
                end_line = t.line;
                break;
            }
            if is(t, "{") {
                brace += 1;
                entered = true;
            } else if is(t, "}") {
                brace = brace.saturating_sub(1);
                if entered && brace == 0 {
                    end_line = t.line;
                    break;
                }
            }
            end_line = t.line;
            k += 1;
        }
        out.push((start_line, end_line));
        i = k + 1;
    }
    out
}

/// Find `fn` bodies as token index spans with the function's name.
fn find_fn_spans(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].kind == TokenKind::Ident && is(&tokens[i], "fn")) {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        // Scan to the body `{` (or `;` for a bodyless trait/extern decl).
        // Angle brackets in the signature never contain `{`/`;` except in
        // const-generic braces, which brace-matching handles anyway. A `;`
        // inside square brackets is an array type (`&[u64; LINE_WORDS]`),
        // not a declaration terminator.
        let mut k = i + 2;
        let mut brace = 0usize;
        let mut bracket = 0i32;
        let mut entered = false;
        let mut end = None;
        while k < tokens.len() {
            let t = &tokens[k];
            if is(t, "[") {
                bracket += 1;
            } else if is(t, "]") {
                bracket -= 1;
            }
            if !entered && is(t, ";") && bracket <= 0 {
                break; // declaration without a body
            }
            if is(t, "{") {
                brace += 1;
                entered = true;
            } else if is(t, "}") {
                brace = brace.saturating_sub(1);
                if entered && brace == 0 {
                    end = Some(k);
                    break;
                }
            }
            k += 1;
        }
        if let Some(end) = end {
            out.push((i, end, name));
        }
        i += 2;
    }
    out
}

/// Split the token stream into statement-ish runs at `;`, `{` and `}`.
fn split_statements(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Punct && (is(t, ";") || is(t, "{") || is(t, "}")) {
            if i > start {
                out.push((start, i));
            }
            start = i + 1;
        }
    }
    if tokens.len() > start {
        out.push((start, tokens.len()));
    }
    out
}
