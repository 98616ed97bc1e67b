//! LOCK01 — lock-order consistency. Extracts `Mutex` acquisition sequences
//! per fn (`relock(&…)` and `….lock()` — the poison-recovering `relock` and
//! `rewait` helpers are transparent), propagates held-lock sets along call
//! edges inside the configured crates, and reports any pair of locks
//! acquired in both orders — the classic deadlock shape.
//!
//! Lock naming is structural, not typed: `self.field` canonicalizes to
//! `crate::ImplType::field`, a field path through a local
//! (`shared.slots[s][t]`) to `crate::slots[_]` (indices collapse to `[_]`,
//! the leading local is dropped so every fn touching the same shared struct
//! agrees on the name), and a bare local/param to `crate::fn::name`
//! (fn-scoped — cross-fn aliasing through parameters is not tracked, a
//! documented conservatism). Same-name pairs (two instances of an indexed
//! family) are skipped: instance order inside one family is not checkable
//! without value tracking.
//!
//! Guard lifetime: a `let`-bound guard is held to the end of the fn
//! (scope-end and explicit `drop` are ignored — conservative); any other
//! acquisition is statement-local. A pair is recorded when a second lock is
//! acquired — directly or anywhere in the callee's transitive acquire set —
//! while a `let` guard is held. Escape hatch: `// LOCK-OK: <why>` at any of
//! the witnessing acquisition statements.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::file::FileCtx;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;

use super::symbols::FnId;
use super::Workspace;

/// One lock acquisition inside a fn.
#[derive(Debug, Clone)]
struct Acq {
    name: String,
    tok: usize,
    line: u32,
    stmt: (u32, u32),
    /// `let`-bound guard: held to end of fn.
    held: bool,
}

/// A witness for one ordered pair (A then B).
#[derive(Debug, Clone)]
struct Witness {
    file: usize,
    path: String,
    line: u32,
    /// Display chain from the holding fn to the fn acquiring the second lock.
    chain: Vec<String>,
    /// Statements to consult for `// LOCK-OK:` — the two acquisitions (for
    /// cross-fn pairs the second is the call-site statement).
    stmts: Vec<(u32, u32)>,
}

pub fn check(ctxs: &[FileCtx], ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.lock01_crates.is_empty() {
        return;
    }
    let syms = &ws.symbols;
    let in_scope: Vec<FnId> = (0..syms.fns.len())
        .filter(|&id| {
            let f = &syms.fns[id];
            !f.is_test
                && cfg.lock01_crates.contains(&f.crate_name)
                && f.name != "relock"
                && f.name != "rewait"
        })
        .collect();
    let scope_set: BTreeSet<FnId> = in_scope.iter().copied().collect();

    // Per-fn acquisition sequences.
    let mut acqs: BTreeMap<FnId, Vec<Acq>> = BTreeMap::new();
    for &id in &in_scope {
        acqs.insert(id, fn_acquisitions(ctxs, ws, id));
    }

    // Transitive acquire-name sets over the scope subgraph (fixpoint).
    let mut trans: BTreeMap<FnId, BTreeSet<String>> = BTreeMap::new();
    for &id in &in_scope {
        trans.insert(id, acqs[&id].iter().map(|a| a.name.clone()).collect());
    }
    loop {
        let mut changed = false;
        for &id in &in_scope {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for &c in &ws.graph.callees[id] {
                if scope_set.contains(&c) {
                    add.extend(trans[&c].iter().cloned());
                }
            }
            let cur = trans.entry(id).or_default();
            let before = cur.len();
            cur.extend(add);
            changed |= cur.len() != before;
        }
        if !changed {
            break;
        }
    }

    // Ordered pairs with first-seen witnesses.
    let mut pairs: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for &id in &in_scope {
        let f = &syms.fns[id];
        let seq = &acqs[&id];
        let ctx = &ctxs[f.file];
        // In-fn: a held guard, then any later acquisition.
        for (i, a) in seq.iter().enumerate() {
            if !a.held {
                continue;
            }
            for b in seq.iter().skip(i + 1) {
                record(
                    &mut pairs,
                    (a.name.clone(), b.name.clone()),
                    Witness {
                        file: f.file,
                        path: f.path.clone(),
                        line: a.line,
                        chain: vec![f.display()],
                        stmts: vec![a.stmt, b.stmt],
                    },
                );
            }
            // Cross-fn: calls made while the guard is held.
            for site in &ws.graph.sites[id] {
                if site.tok <= a.tok || !scope_set.contains(&site.callee) {
                    continue;
                }
                let call_stmt = stmt_of(ctx, site.tok);
                for lock in &trans[&site.callee] {
                    if *lock == a.name {
                        continue;
                    }
                    let chain = acquire_chain(ws, &acqs, &scope_set, site.callee, lock);
                    let mut full = vec![f.display()];
                    full.extend(chain);
                    record(
                        &mut pairs,
                        (a.name.clone(), lock.clone()),
                        Witness {
                            file: f.file,
                            path: f.path.clone(),
                            line: a.line,
                            chain: full,
                            stmts: vec![a.stmt, call_stmt],
                        },
                    );
                }
            }
        }
    }

    // Both-orders detection.
    for ((a, b), w1) in &pairs {
        if a >= b {
            continue;
        }
        let Some(w2) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        let annotated = w1
            .stmts
            .iter()
            .map(|s| (w1.file, *s))
            .chain(w2.stmts.iter().map(|s| (w2.file, *s)))
            .any(|(file, (lo, hi))| ctxs[file].annotated("LOCK-OK:", lo, hi));
        if annotated {
            continue;
        }
        let mut call_path = vec![format!("{a} -> {b}:")];
        call_path.extend(w1.chain.iter().cloned());
        call_path.push(format!("{b} -> {a}:"));
        call_path.extend(w2.chain.iter().cloned());
        out.push(Finding {
            rule: "LOCK01",
            path: w1.path.clone(),
            line: w1.line,
            call_path,
            message: format!(
                "locks `{a}` and `{b}` are acquired in both orders: {a} then {b} via {} \
                 ({}:{}), but {b} then {a} via {} ({}:{}) — a potential deadlock; make the \
                 order globally consistent or annotate an acquisition \
                 `// LOCK-OK: <why both orders cannot contend>`",
                w1.chain.join(" -> "),
                w1.path,
                w1.line,
                w2.chain.join(" -> "),
                w2.path,
                w2.line,
            ),
        });
    }
}

fn record(pairs: &mut BTreeMap<(String, String), Witness>, key: (String, String), w: Witness) {
    if key.0 == key.1 {
        return;
    }
    pairs.entry(key).or_insert(w);
}

fn stmt_of(ctx: &FileCtx, tok: usize) -> (u32, u32) {
    ctx.stmts
        .iter()
        .find(|&&(s, e)| tok >= s && tok < e)
        .map(|&se| ctx.stmt_lines(se))
        .unwrap_or_else(|| {
            let l = ctx.lexed.tokens[tok].line;
            (l, l)
        })
}

/// Greedy shortest-ish chain of displays from `id` to a fn that directly
/// acquires `lock` (following callees whose transitive set contains it).
fn acquire_chain(
    ws: &Workspace,
    acqs: &BTreeMap<FnId, Vec<Acq>>,
    scope: &BTreeSet<FnId>,
    id: FnId,
    lock: &str,
) -> Vec<String> {
    let mut chain = Vec::new();
    let mut cur = id;
    let mut visited = BTreeSet::new();
    loop {
        chain.push(ws.symbols.fns[cur].display());
        if !visited.insert(cur) {
            break;
        }
        if acqs
            .get(&cur)
            .is_some_and(|s| s.iter().any(|a| a.name == lock))
        {
            break;
        }
        let next = ws.graph.callees[cur].iter().copied().find(|c| {
            scope.contains(c)
                && !visited.contains(c)
                && transitively_acquires(ws, acqs, scope, *c, lock, &mut BTreeSet::new())
        });
        match next {
            Some(n) => cur = n,
            None => break,
        }
    }
    chain
}

/// Does `id` (or anything it calls inside scope) directly acquire `lock`?
fn transitively_acquires(
    ws: &Workspace,
    acqs: &BTreeMap<FnId, Vec<Acq>>,
    scope: &BTreeSet<FnId>,
    id: FnId,
    lock: &str,
    visited: &mut BTreeSet<FnId>,
) -> bool {
    if !visited.insert(id) {
        return false;
    }
    if acqs
        .get(&id)
        .is_some_and(|s| s.iter().any(|a| a.name == lock))
    {
        return true;
    }
    ws.graph.callees[id]
        .iter()
        .any(|&c| scope.contains(&c) && transitively_acquires(ws, acqs, scope, c, lock, visited))
}

/// Extract the fn's lock acquisitions, token-ordered.
fn fn_acquisitions(ctxs: &[FileCtx], ws: &Workspace, id: FnId) -> Vec<Acq> {
    let f = &ws.symbols.fns[id];
    let ctx = &ctxs[f.file];
    let toks = &ctx.lexed.tokens;
    let nested = ws.symbols.nested_spans(ctxs, id);
    let in_nested = |i: usize| nested.iter().any(|&(s, e)| i >= s && i <= e);
    let mut out = Vec::new();
    for i in f.span.0..=f.span.1 {
        if in_nested(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let expr: Option<Vec<Token>> =
            if t.text == "relock" && toks.get(i + 1).is_some_and(|n| n.text == "(") {
                // `relock(&EXPR)` — tokens to the matching `)`.
                let mut depth = 0i32;
                let mut j = i + 1;
                let mut arg = Vec::new();
                while j <= f.span.1 {
                    match toks[j].text.as_str() {
                        "(" => {
                            depth += 1;
                            if depth > 1 {
                                arg.push(toks[j].clone());
                            }
                        }
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                            arg.push(toks[j].clone());
                        }
                        _ => {
                            if depth >= 1 {
                                arg.push(toks[j].clone());
                            }
                        }
                    }
                    j += 1;
                }
                Some(arg)
            } else if t.text == "lock"
                && i >= 1
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
            {
                // `RECV.lock()` — walk the receiver chain backwards.
                Some(receiver_chain(toks, i - 1, f.span.0))
            } else {
                None
            };
        let Some(expr) = expr else {
            continue;
        };
        let Some(name) = canonical_lock_name(&expr, f) else {
            continue;
        };
        let stmt_range = ctx
            .stmts
            .iter()
            .find(|&&(s, e)| i >= s && i < e)
            .copied()
            .unwrap_or((i, i + 1));
        let held = ctx
            .lexed
            .tokens
            .get(stmt_range.0)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "let");
        out.push(Acq {
            name,
            tok: i,
            line: t.line,
            stmt: ctx.stmt_lines(stmt_range),
            held,
        });
    }
    out
}

/// Walk back from the `.` before `lock` collecting the postfix receiver:
/// idents, `.`/`::`, and `[…]` index groups.
fn receiver_chain(toks: &[Token], dot: usize, span_start: usize) -> Vec<Token> {
    let mut j = dot;
    let mut start = dot;
    while j > span_start {
        let p = &toks[j - 1];
        match p.text.as_str() {
            "." | "::" => {
                j -= 1;
            }
            "]" => {
                // Skip the index group.
                let mut depth = 0i32;
                let mut k = j - 1;
                loop {
                    match toks[k].text.as_str() {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == span_start {
                        break;
                    }
                    k -= 1;
                }
                j = k;
            }
            _ if p.kind == TokenKind::Ident => {
                j -= 1;
                start = j;
                // An ident not preceded by `.`/`::`/`]` ends the chain.
                if j == span_start || !matches!(toks[j - 1].text.as_str(), "." | "::") {
                    break;
                }
            }
            _ => break,
        }
    }
    toks[start..dot].to_vec()
}

/// Canonicalize a lock expression (see module docs).
fn canonical_lock_name(expr: &[Token], f: &super::symbols::FnSym) -> Option<String> {
    // Flatten to idents + index markers, dropping `&`/`mut`/`self` prefix
    // handling as described.
    #[derive(PartialEq)]
    enum Part {
        Ident(String),
        Index,
    }
    let mut parts: Vec<Part> = Vec::new();
    let mut i = 0;
    let mut leading_self = false;
    while i < expr.len() {
        let t = &expr[i];
        match t.text.as_str() {
            "&" | "mut" | "." | "::" => {}
            "[" => {
                // Collapse the whole index group.
                let mut depth = 0i32;
                while i < expr.len() {
                    match expr[i].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                parts.push(Part::Index);
            }
            "self" if parts.is_empty() => leading_self = true,
            _ if t.kind == TokenKind::Ident => parts.push(Part::Ident(t.text.clone())),
            _ => {}
        }
        i += 1;
    }
    let render = |parts: &[Part]| {
        let mut s = String::new();
        for p in parts {
            match p {
                Part::Ident(name) => {
                    if !s.is_empty() {
                        s.push('.');
                    }
                    s.push_str(name);
                }
                Part::Index => s.push_str("[_]"),
            }
        }
        s
    };
    if leading_self {
        let ty = f.impl_type.as_deref().unwrap_or("?");
        if parts.is_empty() {
            return None;
        }
        return Some(format!("{}::{}::{}", f.crate_name, ty, render(&parts)));
    }
    let n_idents = parts.iter().filter(|p| matches!(p, Part::Ident(_))).count();
    if n_idents == 0 {
        return None;
    }
    if n_idents == 1 {
        // A bare local/param: fn-scoped name.
        return Some(format!("{}::{}::{}", f.crate_name, f.name, render(&parts)));
    }
    // Drop the leading local so every fn naming the same shared field path
    // agrees; keep its index markers out too.
    let first_ident = parts.iter().position(|p| matches!(p, Part::Ident(_)))?;
    let mut rest = &parts[first_ident + 1..];
    // Leading indices on the dropped local (`locals[i].field`) go with it.
    while let Some(Part::Index) = rest.first() {
        rest = &rest[1..];
    }
    Some(format!("{}::{}", f.crate_name, render(rest)))
}
