//! Conservative call graph over the workspace symbol table.
//!
//! Call-site forms recognized inside a fn body (nested fns excluded — their
//! tokens belong to the nested fn):
//!
//! - `name(…)` — a bare call. Resolves to free fns named `name` in the
//!   caller's own crate, else in the crates its file `use`-imports.
//! - `Type::name(…)` — a qualified call. Resolves to methods of `Type`
//!   anywhere in the workspace (`Self` maps to the caller's impl type).
//! - `mod::name(…)` (lowercase path head) — resolves to free fns named
//!   `name` in the crate named by the path head if it is a workspace crate,
//!   else to free fns in scope crates.
//! - `recv.name(…)` — an unqualified method call. Resolves to *every*
//!   workspace method named `name` in the caller's crate or an imported
//!   crate. No receiver typing: this overapproximates (several `stats`
//!   methods become several edges) and never underapproximates within the
//!   imported-crate set.
//!
//! Known blind spots (documented conservatisms): function values passed as
//! arguments (`map(Self::cost)`) and macro bodies produce no edges; closures
//! are attributed to the enclosing fn, which is what makes the mailbox
//! executor's `supervised(…, || pipeline.write_back(…))` supervision
//! boundaries analyzable at all.

use std::collections::BTreeSet;

use crate::file::FileCtx;
use crate::lexer::TokenKind;

use super::symbols::{FnId, SymbolTable};

/// Keywords and std-prelude constructors that look like `name(…)` calls but
/// never resolve to a workspace fn.
const CALL_SKIP: &[&str] = &[
    "if",
    "while",
    "match",
    "for",
    "loop",
    "return",
    "fn",
    "as",
    "in",
    "move",
    "else",
    "let",
    "mut",
    "ref",
    "unsafe",
    "await",
    "Some",
    "None",
    "Ok",
    "Err",
    "Box",
    "Vec",
    "String",
    "Default",
    "assert",
    "debug_assert",
];

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name in the caller's file.
    pub tok: usize,
    pub callee: FnId,
}

/// The workspace call graph: per-fn call sites (token-ordered) plus the
/// reverse adjacency.
pub struct CallGraph {
    pub sites: Vec<Vec<CallSite>>,
    pub callees: Vec<Vec<FnId>>,
    pub callers: Vec<Vec<FnId>>,
}

impl CallGraph {
    pub fn build(ctxs: &[FileCtx], syms: &SymbolTable) -> CallGraph {
        let n = syms.fns.len();
        let sites: Vec<Vec<CallSite>> = (0..n).map(|id| fn_call_sites(ctxs, syms, id)).collect();
        let mut callees: Vec<Vec<FnId>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); n];
        for (id, ss) in sites.iter().enumerate() {
            let mut cs: Vec<FnId> = ss.iter().map(|s| s.callee).collect();
            cs.sort_unstable();
            cs.dedup();
            for &c in &cs {
                callers[c].push(id);
            }
            callees[id] = cs;
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }
        CallGraph {
            sites,
            callees,
            callers,
        }
    }
}

/// Scope crates for resolution from `file`: its own crate plus every crate
/// its `use` declarations import (intersected with crates that actually
/// contributed symbols).
fn scope_crates(syms: &SymbolTable, file: usize, own: &str) -> BTreeSet<String> {
    let mut scope: BTreeSet<String> = syms.imports[file]
        .iter()
        .filter(|c| syms.crates.contains(*c))
        .cloned()
        .collect();
    scope.insert(own.to_string());
    scope
}

fn fn_call_sites(ctxs: &[FileCtx], syms: &SymbolTable, id: FnId) -> Vec<CallSite> {
    let f = &syms.fns[id];
    let ctx = &ctxs[f.file];
    let toks = &ctx.lexed.tokens;
    let nested = syms.nested_spans(ctxs, id);
    let in_nested = |i: usize| nested.iter().any(|&(s, e)| i >= s && i <= e);
    let scope = scope_crates(syms, f.file, &f.crate_name);
    let in_scope = |cand: FnId| scope.contains(&syms.fns[cand].crate_name);

    let mut out = Vec::new();
    let mut i = f.span.0;
    while i < f.span.1 {
        if in_nested(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        let callish = t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !CALL_SKIP.contains(&t.text.as_str())
            && !(i >= 1 && toks[i - 1].text == "fn");
        if !callish {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let mut targets: Vec<FnId> = Vec::new();
        if i >= 1 && toks[i - 1].text == "." {
            // Unqualified method call.
            if let Some(cands) = syms.methods_by_name.get(name) {
                targets.extend(cands.iter().copied().filter(|&c| in_scope(c)));
            }
        } else if i >= 2 && toks[i - 1].text == "::" && toks[i - 2].kind == TokenKind::Ident {
            let qual = toks[i - 2].text.as_str();
            let ty = if qual == "Self" {
                f.impl_type.as_deref()
            } else {
                Some(qual)
            };
            let type_name = ty.filter(|t| t.chars().next().is_some_and(|c| c.is_ascii_uppercase()));
            if let Some(ty) = type_name {
                if let Some(cands) = syms.by_type_method.get(&(ty.to_string(), name.to_string())) {
                    targets.extend(cands.iter().copied());
                }
            } else if let Some(head) = path_head(toks, i) {
                // `mod::fn(…)` — lowercase path. If the head names a
                // workspace crate, resolve there; else treat as a module
                // path inside a scope crate.
                if let Some(cands) = syms.free_by_name.get(name) {
                    if syms.crates.contains(&head) {
                        targets.extend(
                            cands
                                .iter()
                                .copied()
                                .filter(|&c| syms.fns[c].crate_name == head),
                        );
                    } else {
                        targets.extend(cands.iter().copied().filter(|&c| in_scope(c)));
                    }
                }
            }
        } else {
            // Bare call: own crate first, then imported crates.
            if let Some(cands) = syms.free_by_name.get(name) {
                let own: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|&c| syms.fns[c].crate_name == f.crate_name)
                    .collect();
                if own.is_empty() {
                    targets.extend(cands.iter().copied().filter(|&c| in_scope(c)));
                } else {
                    targets.extend(own);
                }
            }
        }
        for callee in targets {
            if callee != id {
                out.push(CallSite { tok: i, callee });
            }
        }
        i += 1;
    }
    out
}

/// For a `a::b::name(` call with the name at token `i`, the first path
/// segment (`a`). Walks back over `ident ::` pairs.
fn path_head(toks: &[crate::lexer::Token], i: usize) -> Option<String> {
    let mut j = i;
    let mut head = None;
    while j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == TokenKind::Ident {
        head = Some(toks[j - 2].text.clone());
        j -= 2;
    }
    head
}
