//! Pins for the lexer correctness properties the rule engine depends on
//! (listed in `lexer.rs`'s module docs): comment/string disambiguation, raw
//! strings, nested block comments, lifetimes vs char literals, numeric
//! forms, and line mapping for multi-line statements.

use detlint::file::FileCtx;
use detlint::lexer::{lex, TokenKind};

fn token_texts(src: &str) -> Vec<String> {
    lex(src).tokens.into_iter().map(|t| t.text).collect()
}

fn comment_texts(src: &str) -> Vec<String> {
    lex(src).comments.into_iter().map(|c| c.text).collect()
}

#[test]
fn double_slash_inside_string_is_not_a_comment() {
    let lexed = lex(r#"let url = "https://example.com"; // real comment"#);
    assert!(lexed.comments.len() == 1 && lexed.comments[0].text.trim() == "real comment");
    let strs: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Str)
        .collect();
    assert_eq!(strs.len(), 1);
    assert_eq!(strs[0].text, "\"https://example.com\"");
}

#[test]
fn raw_strings_consume_embedded_quotes_and_slashes() {
    // `r#"…"#` with an embedded `"` and `//` — one Str token, no comments.
    let src = r###"let re = r#"a "quoted" // not a comment"#;"###;
    let lexed = lex(src);
    assert!(lexed.comments.is_empty(), "{:?}", lexed.comments);
    let strs: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Str)
        .collect();
    assert_eq!(strs.len(), 1);
    assert!(strs[0].text.starts_with("r#\"") && strs[0].text.ends_with("\"#"));
}

#[test]
fn multi_hash_raw_strings_and_byte_variants() {
    let src = "let a = r##\"one \"# two\"##; let b = br\"bytes\"; let c = b\"esc\\\"aped\";";
    let lexed = lex(src);
    let strs: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Str)
        .map(|t| t.text.clone())
        .collect();
    assert_eq!(strs.len(), 3, "{strs:?}");
    assert!(strs[0].contains("one \"# two"));
}

#[test]
fn raw_identifiers_are_idents_not_raw_strings() {
    let lexed = lex("let r#match = 1;");
    assert!(lexed
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "r#match"));
    assert!(!lexed.tokens.iter().any(|t| t.kind == TokenKind::Str));
}

#[test]
fn block_comments_nest() {
    let src = "before /* outer /* inner */ still outer */ after";
    let lexed = lex(src);
    assert_eq!(lexed.comments.len(), 1);
    assert!(lexed.comments[0].text.contains("inner"));
    let idents: Vec<_> = lexed.tokens.iter().map(|t| t.text.clone()).collect();
    assert_eq!(idents, ["before", "after"]);
}

#[test]
fn block_comment_line_spans_cover_every_line() {
    let src = "a\n/* one\n   two\n   three */\nb";
    let lexed = lex(src);
    assert_eq!(lexed.comments.len(), 1);
    assert_eq!((lexed.comments[0].line, lexed.comments[0].end_line), (2, 4));
    let b = lexed.tokens.iter().find(|t| t.text == "b").unwrap();
    assert_eq!(b.line, 5);
}

#[test]
fn lifetimes_are_not_char_literals() {
    let lexed = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
    let lifetimes = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .count();
    let chars: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Char)
        .map(|t| t.text.clone())
        .collect();
    assert_eq!(lifetimes, 2);
    assert_eq!(chars, ["'a'"]);
}

#[test]
fn escaped_char_literals() {
    let chars: Vec<String> = lex(r"let nl = '\n'; let q = '\''; let bs = b'\\';")
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokenKind::Char)
        .map(|t| t.text)
        .collect();
    assert_eq!(chars, [r"'\n'", r"'\''", r"b'\\'"]);
}

#[test]
fn numeric_forms() {
    let nums: Vec<String> = lex("0x0F0F_0F0F 1_000u64 1.0e-5 2E+3 0.5f64 7")
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokenKind::Num)
        .map(|t| t.text)
        .collect();
    assert_eq!(
        nums,
        ["0x0F0F_0F0F", "1_000u64", "1.0e-5", "2E+3", "0.5f64", "7"]
    );
}

#[test]
fn ranges_do_not_swallow_the_dots() {
    assert_eq!(token_texts("0..n"), ["0", "..", "n"]);
    assert_eq!(token_texts("0..=63"), ["0", "..=", "63"]);
}

#[test]
fn fused_operators_lex_as_single_tokens() {
    assert_eq!(
        token_texts("a <<= 1; b >>= 2; c += d; e && f"),
        ["a", "<<=", "1", ";", "b", ">>=", "2", ";", "c", "+=", "d", ";", "e", "&&", "f"]
    );
}

#[test]
fn doc_comment_markers_are_stripped() {
    let texts = comment_texts("/// outer doc\n//! inner doc\n// plain");
    assert_eq!(texts.len(), 3);
    assert_eq!(texts[0].trim(), "outer doc");
    assert_eq!(texts[1].trim(), "inner doc");
    assert_eq!(texts[2].trim(), "plain");
}

#[test]
fn nested_generics_close_as_single_angle_tokens() {
    // The angle-bracket depth tracker splits the `>>` closing nested
    // generics into two `>` tokens — no fused shift token appears anywhere.
    let toks = token_texts("let v: Vec<Vec<u8>> = Vec::new();");
    assert!(!toks.iter().any(|t| t == ">>"), "{toks:?}");
    assert_eq!(toks.iter().filter(|t| *t == ">").count(), 2);
    assert_eq!(
        toks,
        [
            "let", "v", ":", "Vec", "<", "Vec", "<", "u8", ">", ">", "=", "Vec", "::", "new", "(",
            ")", ";"
        ]
    );
}

#[test]
fn turbofish_nested_generics_split_too() {
    let toks = token_texts("x.collect::<Vec<Vec<u64>>>();");
    assert!(!toks.iter().any(|t| t == ">>" || t == ">>>"), "{toks:?}");
    assert_eq!(toks.iter().filter(|t| *t == ">").count(), 3);
}

#[test]
fn genuine_shifts_still_fuse_after_generic_statements() {
    // The tracker resets at statement boundaries: a generic type in one
    // statement must not eat the `>>` of a real shift in the next.
    let toks = token_texts("let v: Vec<Vec<u8>> = d; let y = x >> n;");
    assert_eq!(toks.iter().filter(|t| *t == ">>").count(), 1);
    assert_eq!(toks.iter().filter(|t| *t == ">").count(), 2);
}

#[test]
fn shift_assign_at_depth_zero_stays_fused() {
    // `a <<= 1` / `b >>= 2` carry no generic context — fused operators.
    let toks = token_texts("impl Foo { fn f(&self) { self.a <<= 1; } }");
    assert!(toks.iter().any(|t| t == "<<="), "{toks:?}");
}

#[test]
fn comparison_then_shift_is_not_generic_context() {
    // `a < b` between lowercase idents must not open a generic depth (the
    // following `>>` is a genuine shift and must stay fused).
    let toks = token_texts("let c = a < b; let d = x >> k;");
    assert!(toks.iter().any(|t| t == ">>"), "{toks:?}");
}

#[test]
fn fn_generic_params_open_tracking() {
    // `fn name<…>` opens generic context via the fn-name heuristic.
    let toks = token_texts("fn pick<T: Into<Vec<u8>>>(t: T) {}");
    assert!(!toks.iter().any(|t| t == ">>"), "{toks:?}");
}

#[test]
fn multi_line_statements_are_one_unit() {
    // A statement spanning four lines must be a single statement run whose
    // line span covers all of it — this is what lets a mask on line 4 guard
    // a shift on line 2, and an annotation above line 1 cover everything.
    let src = "\
let x = (value\n    >> shift)\n    & 0x3333;\nlet y = 1;\n";
    let ctx = FileCtx::new("crates/pcm/src/row.rs".into(), src);
    let spans: Vec<(u32, u32)> = ctx.stmts.iter().map(|&s| ctx.stmt_lines(s)).collect();
    assert_eq!(spans[0], (1, 3), "{spans:?}");
    assert_eq!(spans[1], (4, 4), "{spans:?}");
}

#[test]
fn tokens_carry_their_source_line() {
    let lexed = lex("a\nbb\n\nccc");
    let lines: Vec<(String, u32)> = lexed.tokens.into_iter().map(|t| (t.text, t.line)).collect();
    assert_eq!(
        lines,
        [("a".into(), 1), ("bb".into(), 2), ("ccc".into(), 4)]
    );
}

#[test]
fn unterminated_constructs_do_not_hang_or_panic() {
    // Robustness: the lexer must terminate on malformed input (it lints
    // files as they are being edited).
    for src in ["\"never closed", "/* never closed", "r#\"never closed", "'"] {
        let _ = lex(src);
    }
}
