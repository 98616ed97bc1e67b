//! detlint — the workspace invariant linter.
//!
//! Enforces the contracts this reproduction's headline results rest on but
//! the compiler cannot see: replay determinism (DET01/DET02 line-local,
//! DET03 interprocedural taint), SWAR lane safety (SWAR01),
//! documented+dispatched `unsafe` (UNSAFE01), oracle coverage (ORACLE01),
//! panic-free library code (PANIC01) and supervised-panic accounting
//! (PANIC02), lock-order consistency (LOCK01), and truthful escape-hatch
//! annotations (ANN01). See `docs/INVARIANTS.md` for the full catalog, the
//! per-rule escape hatches, and the semantic-layer design note.
//!
//! The tool is pure std: a hand-rolled comment/string/raw-string aware
//! lexer ([`lexer`]), per-file structure analysis ([`file`](mod@file)), a rule engine
//! ([`rules`] + the global [`oracle`] pass + the interprocedural [`sema`]
//! layer — symbol table, call graph, and the DET03/LOCK01/PANIC02 rules),
//! scoping config ([`config::Config`], loaded from `detlint.toml`), and
//! text/JSON reporting ([`report`], findings carry witnessing call paths).
//! `cargo run -p detlint -- check [--json] [--rule <ID>]` exits nonzero on
//! findings; `detlint --explain <ID>` prints a rule's contract.

#![forbid(unsafe_code)]

pub mod config;
pub mod file;
pub mod lexer;
pub mod oracle;
pub mod report;
pub mod rules;
pub mod sema;
mod walk;

use std::path::Path;

use config::Config;
use file::FileCtx;
use report::Finding;

/// Lint one in-memory source file (no ORACLE01 — that pass is global).
/// Used by the fixture self-tests.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let ctx = FileCtx::new(path.to_string(), src);
    let mut out = Vec::new();
    rules::check_file(&ctx, cfg, &mut out);
    report::sort(&mut out);
    out
}

/// Lint a set of in-memory files, including the global ORACLE01 pass.
pub fn lint_files(files: Vec<(String, String)>, cfg: &Config) -> Vec<Finding> {
    let ctxs: Vec<FileCtx> = files
        .into_iter()
        .map(|(path, src)| FileCtx::new(path, &src))
        .collect();
    let mut out = Vec::new();
    for ctx in &ctxs {
        rules::check_file(ctx, cfg, &mut out);
    }
    oracle::check_workspace(&ctxs, &mut out);
    sema::check_workspace(&ctxs, cfg, &mut out);
    // ANN01 must run last: it reports escape-hatch comments no other rule
    // consumed while deciding findings above.
    rules::ann01(&ctxs, &mut out);
    report::sort(&mut out);
    out
}

/// The one-paragraph contract behind a rule ID, for `detlint --explain`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "DET01" => {
            "DET01 — no HashMap/HashSet iteration in determinism-scoped crates. Hash order \
             varies run to run and shard to shard; the moment it feeds stats, selection, or \
             output, the N-shard == sequential replay contract breaks. Use an ordered \
             structure or sort first. Escape hatch: `// DET-OK: <why order cannot matter>`."
        }
        "DET02" => {
            "DET02 — f64 accumulation in hot crates needs an exactness argument. The \
             shard-merge determinism proof relies on every accumulated f64 being exactly \
             representable so sums associate. Escape hatch: `// DET-OK: <exactness \
             argument>`, or move to integers/fixed-point."
        }
        "DET03" => {
            "DET03 — interprocedural nondeterminism taint. A source (hash-container \
             iteration, Instant/SystemTime::now, thread::current, unseeded RNG \
             construction) reachable from a merge/stats/report sink fn over the call graph \
             can leak order or time into merged stats and golden reports, crates apart \
             from where it runs. The finding carries the witnessing sink -> ... -> source \
             call path. Escape hatch: `// DET-OK: <why order/time cannot leak>` at the \
             source statement."
        }
        "SWAR01" => {
            "SWAR01 — narrowing casts and variable-distance shifts in SWAR/broadcast \
             modules must be mask-guarded in the same statement, or lane bits silently \
             leak into neighbors. Escape hatch: `// SWAR-OK: <why lanes cannot leak>`."
        }
        "UNSAFE01" => {
            "UNSAFE01 — every `unsafe` needs an adjacent `// SAFETY: <invariant>` comment, \
             and std::arch intrinsics must sit behind cfg/target_feature dispatch plus a \
             runtime feature check. No escape hatch: write the SAFETY comment."
        }
        "PANIC01" => {
            "PANIC01 — no unwrap()/expect() in library code: a panic aborts the whole \
             replay and poisons sharded workers. Handle or return the failure. Escape \
             hatch: `// PANIC-OK: <why this cannot fail / should abort>`."
        }
        "PANIC02" => {
            "PANIC02 — panic reachability in supervised contexts. Fns reachable from \
             per-shard catch_unwind job boundaries that can panic (panic!/todo!/\
             unimplemented!/unreachable!, slice indexing) degrade the run silently instead \
             of crashing: each such site must be a deliberate decision. The finding \
             carries the root -> ... -> fn call chain. Escape hatch: `// PANIC-OK: <why>` \
             at the site's statement, or on the fn declaration line to accept the fn."
        }
        "LOCK01" => {
            "LOCK01 — lock-order consistency. Mutex acquisition sequences are extracted \
             per fn (through the relock/rewait poison helpers), held-lock sets propagate \
             along call edges, and any pair of locks acquired in both orders — the classic \
             deadlock shape — is reported with both witnessing chains. Escape hatch: \
             `// LOCK-OK: <why both orders cannot contend>` at an involved acquisition."
        }
        "ORACLE01" => {
            "ORACLE01 — oracle coverage. Every SWAR kernel entry point listed in the \
             coverage contract must have a scalar-oracle equivalence test; a kernel \
             without one is unverified word-parallel bit manipulation. Fix by adding the \
             oracle test, not by shrinking the contract."
        }
        "ANN01" => {
            "ANN01 — stale escape-hatch annotations. A `// DET-OK:`/`// SWAR-OK:`/\
             `// PANIC-OK:`/`// LOCK-OK:` marker that no enabled rule consumed suppresses \
             nothing and misdocuments the code as a reviewed hazard. Delete the marker \
             (keep any still-true prose) or move it onto the statement it was written for."
        }
        _ => return None,
    })
}

/// Walk the workspace rooted at `root` and lint every `.rs` file.
pub fn run_check(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let paths = walk::rust_files(root, &cfg.exclude)?;
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(lint_files(files, cfg))
}

/// Locate the workspace root (the directory holding `detlint.toml`) from
/// `start`, walking upward.
pub fn find_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("detlint.toml").is_file() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Load `detlint.toml` from the workspace root.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("detlint.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
