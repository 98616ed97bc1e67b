//! ORACLE01 — the workspace-global oracle-coverage cross-reference pass.
//!
//! Two obligations, both born from how this repo actually verifies itself
//! (scalar oracles + differential tests):
//!
//! 1. Every type with an `impl Encoder for T` (or `impl coset::Encoder for
//!    T`) must be referenced from a differential test under some
//!    `crates/*/tests/` directory. An encoder nobody wired into
//!    `cost_oracle.rs`-style coverage is exactly the bug class PR 3/4 were
//!    built to prevent.
//! 2. Every function marked `// ORACLE: <test-path>` must point at an
//!    existing test file that actually references the function by name.

use crate::file::FileCtx;
use crate::lexer::TokenKind;
use crate::report::Finding;

/// Run the cross-reference pass over all lexed files.
pub fn check_workspace(files: &[FileCtx], out: &mut Vec<Finding>) {
    // Identifier universe of the differential-test files.
    let test_files: Vec<&FileCtx> = files
        .iter()
        .filter(|f| f.path.starts_with("crates/") && f.path.contains("/tests/"))
        .collect();
    let referenced = |name: &str| {
        test_files.iter().any(|f| {
            f.lexed
                .tokens
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == name)
        })
    };

    for f in files {
        // `impl [coset::]Encoder for TypeName` outside test code.
        let toks = &f.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !(t.kind == TokenKind::Ident && t.text == "impl") {
                continue;
            }
            // Skip generic params: `impl<T> Encoder for …`.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "<") {
                let mut depth = 0i32;
                while j < toks.len() {
                    // The lexer's angle tracker splits `>>` in generics, so
                    // single-character matching is exact here.
                    match toks[j].text.as_str() {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Optional `coset ::` path prefix.
            if toks.get(j).is_some_and(|t| t.text == "coset")
                && toks.get(j + 1).is_some_and(|t| t.text == "::")
            {
                j += 2;
            }
            if toks.get(j).is_none_or(|t| t.text != "Encoder") {
                continue;
            }
            if toks.get(j + 1).is_none_or(|t| t.text != "for") {
                continue;
            }
            let Some(ty) = toks.get(j + 2).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            if f.in_test(t.line) || f.is_test_code {
                continue;
            }
            if !referenced(&ty.text) {
                out.push(Finding {
                    rule: "ORACLE01",
                    path: f.path.clone(),
                    line: t.line,
                    call_path: Vec::new(),
                    message: format!(
                        "`impl Encoder for {}` is not referenced by any differential test \
                         under crates/*/tests/ — wire it into the oracle suite so the \
                         broadcast/scalar equivalence covers it",
                        ty.text
                    ),
                });
            }
        }

        // `// ORACLE: <test-path>` markers.
        for c in &f.lexed.comments {
            // The marker must start the comment; prose mentioning the
            // `// ORACLE:` convention is not a marker.
            let Some(rest) = c.text.trim_start().strip_prefix("ORACLE:") else {
                continue;
            };
            let target = rest.split_whitespace().next().unwrap_or("");
            if target.is_empty() {
                out.push(Finding {
                    rule: "ORACLE01",
                    path: f.path.clone(),
                    line: c.line,
                    call_path: Vec::new(),
                    message: "`// ORACLE:` marker without a test path".into(),
                });
                continue;
            }
            // The function the marker precedes: next `fn` token at or after
            // the comment line.
            let fn_name = toks
                .iter()
                .enumerate()
                .find(|(_, t)| t.line >= c.line && t.kind == TokenKind::Ident && t.text == "fn")
                .and_then(|(k, _)| toks.get(k + 1))
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone());
            let Some(fn_name) = fn_name else {
                out.push(Finding {
                    rule: "ORACLE01",
                    path: f.path.clone(),
                    line: c.line,
                    call_path: Vec::new(),
                    message: format!("`// ORACLE: {target}` marker is not followed by a `fn`"),
                });
                continue;
            };
            let Some(target_file) = files.iter().find(|f| f.path == target) else {
                out.push(Finding {
                    rule: "ORACLE01",
                    path: f.path.clone(),
                    line: c.line,
                    call_path: Vec::new(),
                    message: format!(
                        "`// ORACLE: {target}` names a test file that does not exist in the \
                         workspace"
                    ),
                });
                continue;
            };
            let hit = target_file
                .lexed
                .tokens
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == fn_name);
            if !hit {
                out.push(Finding {
                    rule: "ORACLE01",
                    path: f.path.clone(),
                    line: c.line,
                    call_path: Vec::new(),
                    message: format!(
                        "oracle fn `{fn_name}` is not referenced from `{target}` — the \
                         differential test no longer pins it"
                    ),
                });
            }
        }
    }
}
