//! The per-file rule set. Each rule walks a [`FileCtx`] token stream and
//! reports [`Finding`]s; scoping (which crates/paths a rule applies to)
//! comes from [`Config`]. The workspace-global ORACLE01 pass lives in
//! `oracle.rs`.
//!
//! Every rule has an annotation escape hatch that *requires a reason*
//! (`// DET-OK: <why>` etc.) — a bare marker does not silence the finding.
//! See `docs/INVARIANTS.md` for the contract behind each rule.

use crate::config::Config;
use crate::file::FileCtx;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;

/// Hash-container methods whose visit order is nondeterministic.
pub(crate) const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
    "par_iter",
    "par_iter_mut",
];

/// Identifiers that bound or mask a value, satisfying the SWAR01 guard when
/// they appear in the same statement as a narrowing cast / variable shift.
const SWAR_GUARD_IDENTS: &[&str] = &[
    "low_mask",
    "count_ones",
    "trailing_zeros",
    "leading_zeros",
    "min",
    // This workspace's masked accessor: `Block::extract(pos, len)` returns a
    // value already truncated to `len` bits.
    "extract",
];

fn is(t: &Token, s: &str) -> bool {
    t.text == s
}

fn ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

/// Run every per-file rule that applies to `ctx`.
pub fn check_file(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.det01_crates.contains(&ctx.crate_name) {
        det01(ctx, out);
    }
    if cfg.det02_crates.contains(&ctx.crate_name) {
        det02(ctx, out);
    }
    if cfg
        .swar01_paths
        .iter()
        .any(|p| ctx.path.starts_with(p.as_str()))
    {
        swar01(ctx, out);
    }
    unsafe01(ctx, out);
    if !cfg.panic01_exclude_crates.contains(&ctx.crate_name) {
        panic01(ctx, out);
    }
}

/// Names bound to `HashMap`/`HashSet` in this file: `name: [&mut] HashMap<…>`
/// field/param declarations and `let [mut] name = HashMap::new()`-style
/// initializations.
pub(crate) fn hash_bound_idents(ctx: &FileCtx) -> Vec<String> {
    let toks = &ctx.lexed.tokens;
    let mut names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(ident(t, "HashMap") || ident(t, "HashSet")) {
            continue;
        }
        // `name : [& ['a] ] [mut] HashMap` — a typed binding site.
        let mut j = i;
        while j >= 1
            && (is(&toks[j - 1], "&")
                || ident(&toks[j - 1], "mut")
                || toks[j - 1].kind == TokenKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && is(&toks[j - 1], ":") && toks[j - 2].kind == TokenKind::Ident {
            names.push(toks[j - 2].text.clone());
            continue;
        }
        // `let [mut] name … = HashMap::…` — scan back inside the statement.
        if let Some(&(s, e)) = ctx.stmts.iter().find(|&&(s, e)| i >= s && i < e) {
            let stmt = &toks[s..e];
            if stmt.first().is_some_and(|t| ident(t, "let")) {
                let mut j = 1;
                if stmt.get(j).is_some_and(|t| ident(t, "mut")) {
                    j += 1;
                }
                if let Some(name) = stmt.get(j).filter(|t| t.kind == TokenKind::Ident) {
                    names.push(name.text.clone());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// DET01 — no `HashMap`/`HashSet` iteration in determinism-scoped crates.
///
/// Hash iteration order varies run to run (and shard to shard), which breaks
/// the N-shard ≡ sequential replay contract the moment the order feeds stats,
/// selection, or output. Escape hatch: `// DET-OK: <why order cannot
/// matter>` (e.g. an order-independent integer sum).
fn det01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let names = hash_bound_idents(ctx);
    if names.is_empty() {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for &(s, e) in &ctx.stmts {
        let stmt = &toks[s..e];
        let (first, last) = ctx.stmt_lines((s, e));
        if ctx.in_test(first) {
            continue;
        }
        let mut hit = None;
        // `name . iter ( …` — nondeterministic-order method on a hash ident.
        for j in 2..stmt.len() {
            if stmt[j].kind == TokenKind::Ident
                && HASH_ITER_METHODS.contains(&stmt[j].text.as_str())
                && is(&stmt[j - 1], ".")
                && names.contains(&stmt[j - 2].text)
            {
                hit = Some((stmt[j].line, stmt[j - 2].text.clone(), stmt[j].text.clone()));
                break;
            }
        }
        // `for x in [&] [self.] name` — direct iteration.
        if hit.is_none() {
            if let Some(fi) = stmt.iter().position(|t| ident(t, "for")) {
                if let Some(ii) = stmt[fi..].iter().position(|t| ident(t, "in")) {
                    let tail = &stmt[fi + ii + 1..];
                    let follows_dot_call =
                        |k: usize| tail.get(k + 1).is_some_and(|t| is(t, ".") || is(t, "("));
                    for (k, t) in tail.iter().enumerate() {
                        if t.kind == TokenKind::Ident
                            && names.contains(&t.text)
                            && !follows_dot_call(k)
                        {
                            hit = Some((t.line, t.text.clone(), "for".into()));
                            break;
                        }
                    }
                }
            }
        }
        if let Some((line, name, how)) = hit {
            if ctx.annotated("DET-OK:", first, last) {
                continue;
            }
            out.push(Finding {
                rule: "DET01",
                path: ctx.path.clone(),
                line,
                call_path: Vec::new(),
                message: format!(
                    "iteration over hash container `{name}` (via `{how}`): hash order is \
                     nondeterministic and breaks the shard-replay contract; use an ordered \
                     structure, sort first, or annotate `// DET-OK: <why order cannot matter>`"
                ),
            });
        }
    }
}

/// Names declared `: f64` in this file (fields, params, lets).
fn f64_idents(ctx: &FileCtx) -> Vec<String> {
    let toks = &ctx.lexed.tokens;
    let mut names = Vec::new();
    for i in 2..toks.len() {
        if ident(&toks[i], "f64") && is(&toks[i - 1], ":") && toks[i - 2].kind == TokenKind::Ident {
            names.push(toks[i - 2].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// DET02 — `f64` accumulation in hot crates needs an exactness argument.
///
/// The shard-merge determinism proof relies on every accumulated `f64` being
/// exactly representable (Table-I class energies are integer pJ), so sums
/// associate. New float accumulation must either carry the same argument in
/// a `// DET-OK:` annotation or move to integers/fixed-point.
fn det02(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let names = f64_idents(ctx);
    let toks = &ctx.lexed.tokens;
    for &(s, e) in &ctx.stmts {
        let stmt = &toks[s..e];
        let (first, last) = ctx.stmt_lines((s, e));
        if ctx.in_test(first) {
            continue;
        }
        let mut hit: Option<(u32, String)> = None;
        for j in 0..stmt.len() {
            // `name += …` where `name` is declared f64 in this file.
            if is(&stmt[j], "+=")
                && j >= 1
                && stmt[j - 1].kind == TokenKind::Ident
                && names.contains(&stmt[j - 1].text)
            {
                hit = Some((stmt[j].line, format!("`{} +=`", stmt[j - 1].text)));
                break;
            }
            // `.sum::<f64>()`.
            if ident(&stmt[j], "sum")
                && stmt.get(j + 1).is_some_and(|t| is(t, "::"))
                && stmt.get(j + 3).is_some_and(|t| ident(t, "f64"))
            {
                hit = Some((stmt[j].line, "`.sum::<f64>()`".into()));
                break;
            }
            // `.fold(0.0, …)` / `.fold(0f64, …)`.
            if ident(&stmt[j], "fold")
                && stmt.get(j + 1).is_some_and(|t| is(t, "("))
                && stmt.get(j + 2).is_some_and(|t| {
                    t.kind == TokenKind::Num && (t.text == "0.0" || t.text == "0f64")
                })
            {
                hit = Some((stmt[j].line, "float `fold`".into()));
                break;
            }
        }
        if let Some((line, what)) = hit {
            if ctx.annotated("DET-OK:", first, last) {
                continue;
            }
            out.push(Finding {
                rule: "DET02",
                path: ctx.path.clone(),
                line,
                call_path: Vec::new(),
                message: format!(
                    "f64 accumulation ({what}) in a determinism-hot crate: float sums only \
                     merge exactly when every addend is integer-valued; justify with \
                     `// DET-OK: <exactness argument>` or use integer/fixed-point"
                ),
            });
        }
    }
}

/// Does the statement (plus enclosing-fn name) carry a mask/bound guard?
fn swar_guarded(ctx: &FileCtx, stmt: &[Token], stmt_start: usize) -> bool {
    let masked = stmt.iter().any(|t| {
        (t.kind == TokenKind::Punct && (t.text == "&" || t.text == "&="))
            || (t.kind == TokenKind::Ident
                && (t.text.to_ascii_lowercase().contains("mask")
                    || SWAR_GUARD_IDENTS.contains(&t.text.as_str())))
    });
    if masked {
        return true;
    }
    // A mask *constructor* is its own guard: `fn low_mask(…) { 1 << bits - 1 }`.
    ctx.enclosing_fn(stmt_start)
        .is_some_and(|f| f.to_ascii_lowercase().contains("mask"))
}

/// SWAR01 — narrowing casts and variable-distance shifts in broadcast
/// modules must be mask-guarded on the same expression.
///
/// In word-parallel code an unguarded `x >> n` or `x as u8` silently mixes
/// neighboring lanes' bits. The guard is a `&` mask (or a recognized bound
/// like `.min(…)`/`count_ones()`) in the same statement; otherwise annotate
/// `// SWAR-OK: <why lanes cannot leak>`.
fn swar01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    for &(s, e) in &ctx.stmts {
        let stmt = &toks[s..e];
        let (first, last) = ctx.stmt_lines((s, e));
        if ctx.in_test(first) {
            continue;
        }
        let mut hit: Option<(u32, String)> = None;
        for j in 0..stmt.len() {
            let t = &stmt[j];
            // Variable-distance shift: `<<`/`>>` whose distance operand is an
            // identifier. The lexer's angle-bracket depth tracker guarantees
            // a `>` closing nested generics is never fused into `>>`, so a
            // shift token here is always a genuine shift.
            if t.kind == TokenKind::Punct && matches!(t.text.as_str(), "<<" | ">>" | "<<=" | ">>=")
            {
                // `1 << n` (any suffix) spreads exactly one bit — it cannot
                // leak across lanes, and it is how masks themselves are
                // built (`(1u64 << bits) - 1`).
                let one_bit = j >= 1
                    && stmt[j - 1].kind == TokenKind::Num
                    && num_value_is_one(&stmt[j - 1].text);
                let next_var = stmt.get(j + 1).is_some_and(|n| n.kind == TokenKind::Ident);
                if next_var && !one_bit {
                    hit = Some((t.line, format!("variable-distance `{}`", t.text)));
                    break;
                }
            }
            // Narrowing cast: `as u8|u16|u32`.
            if ident(t, "as") {
                if let Some(n) = stmt.get(j + 1) {
                    if matches!(n.text.as_str(), "u8" | "u16" | "u32" | "i8" | "i16" | "i32") {
                        hit = Some((t.line, format!("narrowing `as {}`", n.text)));
                        break;
                    }
                }
            }
        }
        if let Some((line, what)) = hit {
            if swar_guarded(ctx, stmt, s) || ctx.annotated("SWAR-OK:", first, last) {
                continue;
            }
            out.push(Finding {
                rule: "SWAR01",
                path: ctx.path.clone(),
                line,
                call_path: Vec::new(),
                message: format!(
                    "{what} without a mask guard in a SWAR/broadcast module: unguarded \
                     narrowing/shifts leak bits across packed lanes; mask on the same \
                     expression or annotate `// SWAR-OK: <why lanes cannot leak>`"
                ),
            });
        }
    }
}

/// Is this numeric literal the value 1 (`1`, `1u64`, `1_u128`, …)?
fn num_value_is_one(text: &str) -> bool {
    let digits: String = text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| c.is_ascii_digit())
        .collect();
    digits == "1"
}

/// UNSAFE01 — every `unsafe` needs an adjacent `// SAFETY:` comment, and
/// `std::arch` intrinsics must sit behind a feature-dispatch guard.
///
/// Forward hook for the SIMD roadmap item: when the first real `unsafe`
/// lands, it is born documented and runtime-dispatched, never bare.
fn unsafe01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    // File-level dispatch evidence for intrinsics: a `cfg(target_arch)` /
    // `target_feature` attribute or an `is_x86_feature_detected!` call
    // anywhere in the file.
    let has_dispatch_guard = {
        let mut found = false;
        for (i, t) in toks.iter().enumerate() {
            if ident(t, "is_x86_feature_detected") || ident(t, "is_aarch64_feature_detected") {
                found = true;
                break;
            }
            if ident(t, "target_feature") || ident(t, "target_arch") {
                // Only count it inside an attribute: look back for `#`/`[`.
                if toks[..i].iter().rev().take(8).any(|p| is(p, "[")) {
                    found = true;
                    break;
                }
            }
        }
        found
    };
    for (i, t) in toks.iter().enumerate() {
        if ident(t, "unsafe") {
            // `unsafe` inside an attribute (`#[unsafe(no_mangle)]`) or trait
            // bound context still deserves a SAFETY note; keep it simple and
            // require the comment for every occurrence.
            if !ctx.annotated("SAFETY:", t.line, t.line)
                && !ctx.annotated("SAFETY:", t.line.saturating_sub(2), t.line)
            {
                out.push(Finding {
                    rule: "UNSAFE01",
                    path: ctx.path.clone(),
                    line: t.line,
                    call_path: Vec::new(),
                    message: "`unsafe` without an adjacent `// SAFETY: <invariant>` comment \
                              (within the two lines above)"
                        .into(),
                });
            }
        }
        // Intrinsic call sites: `_mm*`/`_mm256*` idents or `std::arch` /
        // `core::arch` paths.
        let is_intrinsic = (t.kind == TokenKind::Ident && t.text.starts_with("_mm"))
            || (ident(t, "arch")
                && i >= 2
                && is(&toks[i - 1], "::")
                && (ident(&toks[i - 2], "std") || ident(&toks[i - 2], "core")));
        if is_intrinsic && !has_dispatch_guard {
            out.push(Finding {
                rule: "UNSAFE01",
                path: ctx.path.clone(),
                line: t.line,
                call_path: Vec::new(),
                message: "std::arch intrinsic without a dispatch guard in this file: gate \
                          behind `#[cfg(target_arch = …)]`/`#[target_feature]` plus an \
                          `is_x86_feature_detected!`-style runtime check"
                    .into(),
            });
        }
    }
}

/// Escape-hatch markers ANN01 audits for staleness. (`// SAFETY:` is not
/// listed: it is documentation UNSAFE01 *requires*, not a finding
/// suppressor, so an extra one is harmless.)
const ANN_MARKERS: &[&str] = &["DET-OK:", "SWAR-OK:", "PANIC-OK:", "LOCK-OK:"];

/// ANN01 — stale escape-hatch annotations.
///
/// An annotation that no longer suppresses anything is a lie in the source:
/// it claims a hazard was reviewed where none exists (the code changed, or
/// the marker never matched a pattern). Runs after every other rule — a
/// marker comment in non-test code that no rule consumed while deciding a
/// finding is reported. Fix: delete the marker (keep the prose if it still
/// explains something) or re-attach it to the statement it was meant for.
pub fn ann01(ctxs: &[FileCtx], out: &mut Vec<Finding>) {
    for ctx in ctxs {
        if ctx.is_test_code {
            continue;
        }
        let used = ctx.used_annotations.borrow();
        for (i, c) in ctx.lexed.comments.iter().enumerate() {
            if used.contains(&i) || ctx.in_test(c.line) {
                continue;
            }
            let Some(marker) = ANN_MARKERS
                .iter()
                .find(|m| c.text.trim_start().starts_with(*m))
            else {
                continue;
            };
            out.push(Finding {
                rule: "ANN01",
                path: ctx.path.clone(),
                line: c.line,
                call_path: Vec::new(),
                message: format!(
                    "stale `{marker}` annotation: no enabled rule consumed it at this \
                     position, so it suppresses nothing and misdocuments the code as a \
                     reviewed hazard; delete the marker (keep any still-true prose) or \
                     move it onto the statement it was written for"
                ),
            });
        }
    }
}

/// PANIC01 — no `unwrap()`/`expect()` in library code.
///
/// Library panics take down a whole replay (and under the sharded engine, a
/// worker thread, which poisons the run). Handle the `None`/`Err`, return it,
/// or annotate `// PANIC-OK: <why unreachable or intended>`.
fn panic01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.is_test_code {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(ident(t, "unwrap") || ident(t, "expect")) {
            continue;
        }
        if i == 0 || !is(&toks[i - 1], ".") || !toks.get(i + 1).is_some_and(|n| is(n, "(")) {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        if ctx.annotated("PANIC-OK:", t.line, t.line)
            || ctx.annotated("PANIC-OK:", t.line.saturating_sub(2), t.line)
        {
            continue;
        }
        out.push(Finding {
            rule: "PANIC01",
            path: ctx.path.clone(),
            line: t.line,
            call_path: Vec::new(),
            message: format!(
                "`.{}()` in library code: a panic here aborts the whole replay (and poisons \
                 sharded workers); handle the failure, return it, or annotate \
                 `// PANIC-OK: <why this cannot fail / should abort>`",
                t.text
            ),
        });
    }
}
