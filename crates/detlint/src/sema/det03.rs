//! DET03 — nondeterminism taint: a *source* of nondeterminism (hash-container
//! iteration, wall-clock reads, thread identity, unseeded RNG construction)
//! reachable from a merge/stats/report *sink* function breaks the bit-identical
//! replay contract, even when source and sink sit crates apart.
//!
//! Sinks are fns that mention one of the configured stat/report types
//! (`MemoryStats`, `PipelineStats`, `TimingStats`, `FaultLog`,
//! `ServiceReport`), are methods of such a type, or are named golden-report
//! writers (`reproduce*`). Reachability is a multi-source BFS over the call
//! graph (caller → callee); the witnessing chain sink → … → source is
//! reported. Escape hatch: `// DET-OK: <why order/time cannot leak>` at the
//! *source* statement.
//!
//! Hash-iteration sources are only considered in crates *outside* DET01's
//! blanket scope — inside it DET01 already fires line-locally and stricter.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::config::Config;
use crate::file::FileCtx;
use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::{hash_bound_idents, HASH_ITER_METHODS};

use super::symbols::FnId;
use super::Workspace;

/// One candidate source site inside a fn.
struct Source {
    line: u32,
    stmt: (u32, u32),
    what: String,
}

pub fn check(ctxs: &[FileCtx], ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    let syms = &ws.symbols;
    // Per-file hash-bound names, computed lazily.
    let mut hash_names: BTreeMap<usize, Vec<String>> = BTreeMap::new();

    // 1. Sinks: non-test fns mentioning a sink type, methods of a sink type,
    //    or fns with a sink name.
    let mut sinks: Vec<FnId> = Vec::new();
    for (id, f) in syms.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let named = cfg.det03_sink_fns.contains(&f.name);
        let of_type = f
            .impl_type
            .as_ref()
            .is_some_and(|t| cfg.det03_sink_types.contains(t));
        let mentions = {
            let toks = &ctxs[f.file].lexed.tokens;
            (f.span.0..=f.span.1).any(|i| {
                toks[i].kind == TokenKind::Ident && cfg.det03_sink_types.contains(&toks[i].text)
            })
        };
        if named || of_type || mentions {
            sinks.push(id);
        }
    }

    // 2. Multi-source BFS, recording predecessors for witness chains.
    let mut pred: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &s in &sinks {
        pred.entry(s).or_insert(None);
        queue.push_back(s);
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

    // 3. Sources in every reachable fn.
    for &id in pred.keys() {
        let f = &syms.fns[id];
        let ctx = &ctxs[f.file];
        let names = hash_names
            .entry(f.file)
            .or_insert_with(|| hash_bound_idents(ctx));
        let allow_hash = !cfg.det01_crates.contains(&f.crate_name);
        for src in fn_sources(ctxs, ws, id, names, allow_hash) {
            if ctx.annotated("DET-OK:", src.stmt.0, src.stmt.1) {
                continue;
            }
            let chain = witness(ws, &pred, id);
            out.push(Finding {
                rule: "DET03",
                path: f.path.clone(),
                line: src.line,
                call_path: chain,
                message: format!(
                    "nondeterministic source ({}) in `{}` is reachable from merge/report \
                     sink `{}`: its effect can leak into merged stats or golden reports; \
                     make it deterministic or annotate the source statement \
                     `// DET-OK: <why order/time cannot leak>`",
                    src.what,
                    f.display(),
                    ws.symbols.fns[root_of(&pred, id)].display(),
                ),
            });
        }
    }
}

/// Walk predecessors back to the BFS root (a sink fn).
fn root_of(pred: &BTreeMap<FnId, Option<FnId>>, mut id: FnId) -> FnId {
    while let Some(&Some(p)) = pred.get(&id) {
        id = p;
    }
    id
}

/// The witnessing chain sink → … → fn as display names.
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

/// Nondeterminism sources inside fn `id`'s own tokens (nested fns excluded —
/// they are scanned as their own symbols).
fn fn_sources(
    ctxs: &[FileCtx],
    ws: &Workspace,
    id: FnId,
    hash_names: &[String],
    allow_hash: bool,
) -> Vec<Source> {
    let f = &ws.symbols.fns[id];
    let ctx = &ctxs[f.file];
    let toks = &ctx.lexed.tokens;
    let nested = ws.symbols.nested_spans(ctxs, id);
    let in_nested = |i: usize| nested.iter().any(|&(s, e)| i >= s && i <= e);
    let mut out = Vec::new();
    let stmt_of = |i: usize| {
        ctx.stmts
            .iter()
            .find(|&&(s, e)| i >= s && i < e)
            .map(|&se| ctx.stmt_lines(se))
            .unwrap_or((toks[i].line, toks[i].line))
    };
    for i in f.span.0..=f.span.1 {
        if in_nested(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let what: Option<String> = match t.text.as_str() {
            "now"
                if i >= 2
                    && toks[i - 1].text == "::"
                    && matches!(toks[i - 2].text.as_str(), "Instant" | "SystemTime") =>
            {
                Some(format!("`{}::now()` wall-clock read", toks[i - 2].text))
            }
            "current" if i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "thread" => {
                Some("`thread::current()` thread identity".into())
            }
            "thread_rng" | "from_entropy" => {
                Some(format!("`{}()` unseeded RNG construction", t.text))
            }
            m if allow_hash
                && HASH_ITER_METHODS.contains(&m)
                && i >= 2
                && toks[i - 1].text == "."
                && hash_names.contains(&toks[i - 2].text) =>
            {
                Some(format!(
                    "hash-order iteration `{}.{}()`",
                    toks[i - 2].text,
                    m
                ))
            }
            "for" if allow_hash => {
                // `for x in [&] name` over a hash-bound name.
                hash_for_target(toks, i, f.span.1, hash_names)
            }
            _ => None,
        };
        if let Some(what) = what {
            let stmt = stmt_of(i);
            out.push(Source {
                line: t.line,
                stmt,
                what,
            });
        }
    }
    out
}

/// For a `for` keyword at `i`, does the loop iterate a hash-bound name
/// directly (`for x in &name`)? Mirrors DET01's shape.
fn hash_for_target(
    toks: &[crate::lexer::Token],
    i: usize,
    span_end: usize,
    hash_names: &[String],
) -> Option<String> {
    let mut j = i + 1;
    // Find `in` before the loop body opens.
    while j <= span_end && toks[j].text != "in" {
        if toks[j].text == "{" {
            return None;
        }
        j += 1;
    }
    let mut k = j + 1;
    while k <= span_end && toks[k].text != "{" {
        let t = &toks[k];
        if t.kind == TokenKind::Ident && hash_names.contains(&t.text) {
            let next_call = toks
                .get(k + 1)
                .is_some_and(|n| n.text == "." || n.text == "(");
            if !next_call {
                return Some(format!("hash-order iteration `for … in {}`", t.text));
            }
        }
        k += 1;
    }
    None
}
