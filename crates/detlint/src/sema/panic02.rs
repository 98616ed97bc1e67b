//! PANIC02 — panic reachability in supervised contexts. A panic inside the
//! mailbox executor's per-command `catch_unwind` boundary does not
//! crash the process: it is caught, logged, and degrades the run. That makes
//! *silent* panics the hazard — every potentially-panicking site reachable
//! from a supervision boundary must be a deliberate, annotated decision.
//!
//! Roots are non-test fns in the configured crates that contain a
//! `catch_unwind`, plus their direct callers: the supervised job is usually
//! a closure written at the *call site* of the supervising fn (the mailbox
//! executor's `supervised(…, || pipeline.write_back(…))`), and the call
//! graph attributes closure bodies to the enclosing fn. From the roots a forward BFS walks callees; sites are only
//! reported in the configured crates.
//!
//! Sites: `panic!`/`todo!`/`unimplemented!` invocations and slice/array
//! indexing `expr[i]` (full-range `[..]` is not a panic site). `unwrap`/
//! `expect` are PANIC01's business and only counted here in crates PANIC01
//! excludes. Escape hatches: `// PANIC-OK: <why>` on the site's statement,
//! or on the `fn` declaration line to accept the whole fn.
//!
//! One finding per fn (first site's line, a site count, and the witnessing
//! chain from the supervision root) keeps the report readable.

use std::collections::{BTreeMap, VecDeque};

use crate::config::Config;
use crate::file::FileCtx;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;

use super::symbols::FnId;
use super::Workspace;

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Keywords that can directly precede `[` without the `[` being an index
/// (array literals in expression position: `in [a, b]`, `return [0; 4]`, …).
const NONINDEX_PREV: &[&str] = &[
    "in", "return", "if", "else", "match", "loop", "while", "for", "break", "continue", "move",
    "as", "mut", "ref", "let", "await", "dyn", "impl", "fn", "use", "pub", "static", "const",
    "struct", "enum", "union", "trait", "type", "where", "unsafe", "box",
];

pub fn check(ctxs: &[FileCtx], ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.panic02_crates.is_empty() {
        return;
    }
    let syms = &ws.symbols;

    // 1. Roots: catch_unwind fns in scope crates, plus their direct callers
    //    (where the supervised closures actually live).
    let mut roots: Vec<FnId> = Vec::new();
    for (id, f) in syms.fns.iter().enumerate() {
        if f.is_test || !cfg.panic02_crates.contains(&f.crate_name) {
            continue;
        }
        let toks = &ctxs[f.file].lexed.tokens;
        let has_cu = (f.span.0..=f.span.1)
            .any(|i| toks[i].kind == TokenKind::Ident && toks[i].text == "catch_unwind");
        if has_cu {
            roots.push(id);
            for &caller in &ws.graph.callers[id] {
                if !syms.fns[caller].is_test {
                    roots.push(caller);
                }
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();

    // 2. Forward BFS with predecessors for witness chains.
    let mut pred: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &r in &roots {
        pred.entry(r).or_insert(None);
        queue.push_back(r);
    }
    while let Some(f) = queue.pop_front() {
        for &c in &ws.graph.callees[f] {
            if syms.fns[c].is_test {
                continue;
            }
            pred.entry(c).or_insert_with(|| {
                queue.push_back(c);
                Some(f)
            });
        }
    }

    // 3. Scan each reachable fn in scope for panic sites.
    for &id in pred.keys() {
        let f = &syms.fns[id];
        if !cfg.panic02_crates.contains(&f.crate_name) {
            continue;
        }
        let ctx = &ctxs[f.file];
        // Fn-level acceptance: `// PANIC-OK: <why>` at the declaration.
        if ctx.annotated("PANIC-OK:", f.line, f.line) {
            continue;
        }
        let sites = fn_panic_sites(ctxs, ws, cfg, id);
        let live: Vec<&Site> = sites
            .iter()
            .filter(|s| !ctx.annotated("PANIC-OK:", s.stmt.0, s.stmt.1))
            .collect();
        let Some(first) = live.first() else {
            continue;
        };
        let chain = witness(ws, &pred, id);
        out.push(Finding {
            rule: "PANIC02",
            path: f.path.clone(),
            line: first.line,
            call_path: chain,
            message: format!(
                "`{}` can panic ({}{}) and is reachable from supervision root `{}`: a panic \
                 here is caught and silently degrades the run; handle the failure or annotate \
                 `// PANIC-OK: <why this cannot fire or is an acceptable degradation>`",
                f.display(),
                first.what,
                if live.len() > 1 {
                    format!(" and {} more site(s)", live.len() - 1)
                } else {
                    String::new()
                },
                ws.symbols.fns[root_of(&pred, id)].display(),
            ),
        });
    }
}

fn root_of(pred: &BTreeMap<FnId, Option<FnId>>, mut id: FnId) -> FnId {
    while let Some(&Some(p)) = pred.get(&id) {
        id = p;
    }
    id
}

/// The witnessing chain root → … → fn as display names.
fn witness(ws: &Workspace, pred: &BTreeMap<FnId, Option<FnId>>, id: FnId) -> Vec<String> {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some(&Some(p)) = pred.get(&cur) {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain.iter().map(|&f| ws.symbols.fns[f].display()).collect()
}

struct Site {
    line: u32,
    stmt: (u32, u32),
    what: String,
}

/// Potentially-panicking sites inside fn `id`'s own tokens.
fn fn_panic_sites(ctxs: &[FileCtx], ws: &Workspace, cfg: &Config, id: FnId) -> Vec<Site> {
    let f = &ws.symbols.fns[id];
    let ctx = &ctxs[f.file];
    let toks = &ctx.lexed.tokens;
    let nested = ws.symbols.nested_spans(ctxs, id);
    let in_nested = |i: usize| nested.iter().any(|&(s, e)| i >= s && i <= e);
    let count_unwrap = cfg.panic01_exclude_crates.contains(&f.crate_name);
    let stmt_of = |i: usize| {
        ctx.stmts
            .iter()
            .find(|&&(s, e)| i >= s && i < e)
            .map(|&se| ctx.stmt_lines(se))
            .unwrap_or((toks[i].line, toks[i].line))
    };
    let mut out = Vec::new();
    for i in f.span.0..=f.span.1 {
        if in_nested(i) {
            continue;
        }
        let t = &toks[i];
        let what: Option<String> = if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            Some(format!("`{}!` invocation", t.text))
        } else if t.kind == TokenKind::Ident
            && count_unwrap
            && matches!(t.text.as_str(), "unwrap" | "expect")
            && i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            Some(format!("`.{}()` call", t.text))
        } else if t.text == "[" && is_index(toks, i, f.span.1) {
            Some("slice/array indexing".into())
        } else {
            None
        };
        if let Some(what) = what {
            out.push(Site {
                line: t.line,
                stmt: stmt_of(i),
                what,
            });
        }
    }
    out
}

/// Is the `[` at `i` an index expression (`expr[i]`) rather than an array
/// literal, attribute, or type? Previous token must be an ident (not a
/// keyword), `)`, or `]`; a bare full-range `[..]` never panics.
fn is_index(toks: &[Token], i: usize, span_end: usize) -> bool {
    if i == 0 {
        return false;
    }
    let p = &toks[i - 1];
    let indexish = match p.kind {
        TokenKind::Ident => !NONINDEX_PREV.contains(&p.text.as_str()),
        TokenKind::Punct => p.text == ")" || p.text == "]",
        _ => false,
    };
    if !indexish {
        return false;
    }
    // `expr[..]` takes the whole slice — cannot be out of bounds.
    if toks.get(i + 1).is_some_and(|a| a.text == "..")
        && toks.get(i + 2).is_some_and(|b| b.text == "]")
        && i + 2 <= span_end
    {
        return false;
    }
    true
}
