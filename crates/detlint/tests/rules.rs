//! Fixture-based self-tests: every rule has at least one seeded-violation
//! fixture (must fire) and one clean fixture (must stay silent), plus an
//! end-to-end run of the real binary against a seeded mini-workspace and a
//! cleanliness check of this workspace itself.

use std::path::Path;

use detlint::config::Config;
use detlint::report::Finding;
use detlint::{lint_files, lint_source};

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn assert_clean(findings: &[Finding]) {
    assert!(
        findings.is_empty(),
        "expected no findings, got:\n{}",
        detlint::report::render_text(findings)
    );
}

// ---------------------------------------------------------------- DET01

#[test]
fn det01_flags_hash_iteration() {
    let cfg = Config {
        det01_crates: vec!["engine".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/engine/src/tally.rs",
        include_str!("../fixtures/det01_bad.rs"),
        &cfg,
    );
    assert_eq!(rules_of(&findings), ["DET01", "DET01"], "{findings:?}");
}

#[test]
fn det01_accepts_annotations_ordered_maps_and_tests() {
    let cfg = Config {
        det01_crates: vec!["engine".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/engine/src/tally.rs",
        include_str!("../fixtures/det01_ok.rs"),
        &cfg,
    );
    assert_clean(&findings);
}

#[test]
fn det01_is_scoped_to_configured_crates() {
    // The same seeded source in an unscoped crate does not fire.
    let cfg = Config {
        det01_crates: vec!["engine".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/workload/src/tally.rs",
        include_str!("../fixtures/det01_bad.rs"),
        &cfg,
    );
    assert_clean(&findings);
}

// ---------------------------------------------------------------- DET02

#[test]
fn det02_flags_f64_accumulation() {
    let cfg = Config {
        det02_crates: vec!["pcm".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/pcm/src/acc.rs",
        include_str!("../fixtures/det02_bad.rs"),
        &cfg,
    );
    // `+=` on an f64 field, `.sum::<f64>()`, and a float fold.
    assert_eq!(
        rules_of(&findings),
        ["DET02", "DET02", "DET02"],
        "{findings:?}"
    );
}

#[test]
fn det02_accepts_annotated_and_integer_accumulation() {
    let cfg = Config {
        det02_crates: vec!["pcm".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/pcm/src/acc.rs",
        include_str!("../fixtures/det02_ok.rs"),
        &cfg,
    );
    assert_clean(&findings);
}

// ---------------------------------------------------------------- SWAR01

#[test]
fn swar01_flags_unguarded_shift_and_narrowing_cast() {
    let cfg = Config {
        swar01_paths: vec!["crates/pcm/src/row.rs".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/pcm/src/row.rs",
        include_str!("../fixtures/swar01_bad.rs"),
        &cfg,
    );
    assert_eq!(rules_of(&findings), ["SWAR01", "SWAR01"], "{findings:?}");
}

#[test]
fn swar01_accepts_masked_annotated_and_single_bit_forms() {
    let cfg = Config {
        swar01_paths: vec!["crates/pcm/src/row.rs".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/pcm/src/row.rs",
        include_str!("../fixtures/swar01_ok.rs"),
        &cfg,
    );
    assert_clean(&findings);
}

#[test]
fn swar01_is_scoped_to_configured_paths() {
    let cfg = Config {
        swar01_paths: vec!["crates/pcm/src/row.rs".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/pcm/src/other.rs",
        include_str!("../fixtures/swar01_bad.rs"),
        &cfg,
    );
    assert_clean(&findings);
}

// ---------------------------------------------------------------- UNSAFE01

#[test]
fn unsafe01_flags_bare_unsafe_and_unguarded_intrinsics() {
    let findings = lint_source(
        "crates/pcm/src/simd.rs",
        include_str!("../fixtures/unsafe01_bad.rs"),
        &Config::default(),
    );
    assert_eq!(
        rules_of(&findings),
        ["UNSAFE01", "UNSAFE01"],
        "{findings:?}"
    );
}

#[test]
fn unsafe01_accepts_safety_comments_with_dispatch_guard() {
    let findings = lint_source(
        "crates/pcm/src/simd.rs",
        include_str!("../fixtures/unsafe01_ok.rs"),
        &Config::default(),
    );
    assert_clean(&findings);
}

// ---------------------------------------------------------------- PANIC01

#[test]
fn panic01_flags_unwrap_and_expect_in_library_code() {
    let findings = lint_source(
        "crates/workload/src/parse.rs",
        include_str!("../fixtures/panic01_bad.rs"),
        &Config::default(),
    );
    assert_eq!(rules_of(&findings), ["PANIC01", "PANIC01"], "{findings:?}");
}

#[test]
fn panic01_accepts_handled_annotated_and_test_gated_unwraps() {
    let findings = lint_source(
        "crates/workload/src/parse.rs",
        include_str!("../fixtures/panic01_ok.rs"),
        &Config::default(),
    );
    assert_clean(&findings);
}

#[test]
fn panic01_skips_test_bench_and_example_files() {
    for path in [
        "crates/workload/tests/parse.rs",
        "crates/workload/benches/parse.rs",
        "crates/workload/examples/parse.rs",
    ] {
        let findings = lint_source(
            path,
            include_str!("../fixtures/panic01_bad.rs"),
            &Config::default(),
        );
        assert_clean(&findings);
    }
}

#[test]
fn panic01_respects_crate_excludes() {
    let cfg = Config {
        panic01_exclude_crates: vec!["workload".into()],
        ..Config::default()
    };
    let findings = lint_source(
        "crates/workload/src/parse.rs",
        include_str!("../fixtures/panic01_bad.rs"),
        &cfg,
    );
    assert_clean(&findings);
}

// ---------------------------------------------------------------- ORACLE01

#[test]
fn oracle01_flags_encoder_without_differential_coverage() {
    let files = vec![
        (
            "crates/coset/src/ghost.rs".to_string(),
            include_str!("../fixtures/oracle_encoder.rs").to_string(),
        ),
        (
            "crates/coset/tests/fixture_oracle.rs".to_string(),
            include_str!("../fixtures/oracle_test_noref.rs").to_string(),
        ),
    ];
    let findings = lint_files(files, &Config::default());
    assert_eq!(rules_of(&findings), ["ORACLE01"], "{findings:?}");
    assert!(findings[0].message.contains("GhostEncoder"));
}

#[test]
fn oracle01_accepts_encoder_referenced_from_tests() {
    let files = vec![
        (
            "crates/coset/src/ghost.rs".to_string(),
            include_str!("../fixtures/oracle_encoder.rs").to_string(),
        ),
        (
            "crates/coset/tests/fixture_oracle.rs".to_string(),
            include_str!("../fixtures/oracle_test_ref.rs").to_string(),
        ),
    ];
    let findings = lint_files(files, &Config::default());
    assert_clean(&findings);
}

#[test]
fn oracle01_flags_stale_markers() {
    let files = vec![
        (
            "crates/coset/src/marker.rs".to_string(),
            include_str!("../fixtures/oracle_marker_bad.rs").to_string(),
        ),
        (
            "crates/coset/tests/fixture_oracle.rs".to_string(),
            include_str!("../fixtures/oracle_test_noref.rs").to_string(),
        ),
    ];
    let findings = lint_files(files, &Config::default());
    // One marker names a missing file; the other's fn is never referenced.
    assert_eq!(
        rules_of(&findings),
        ["ORACLE01", "ORACLE01"],
        "{findings:?}"
    );
}

#[test]
fn oracle01_accepts_live_markers() {
    let files = vec![
        (
            "crates/coset/src/marker.rs".to_string(),
            include_str!("../fixtures/oracle_marker_ok.rs").to_string(),
        ),
        (
            "crates/coset/tests/fixture_oracle.rs".to_string(),
            include_str!("../fixtures/oracle_test_ref.rs").to_string(),
        ),
    ];
    let findings = lint_files(files, &Config::default());
    assert_clean(&findings);
}

// ---------------------------------------------------------------- DET03

#[test]
fn det03_flags_sources_reachable_from_sinks() {
    let findings = lint_files(
        vec![(
            "crates/workload/src/stats.rs".to_string(),
            include_str!("../fixtures/det03_bad.rs").to_string(),
        )],
        &Config::default(),
    );
    assert_eq!(rules_of(&findings), ["DET03", "DET03"], "{findings:?}");
    // Every finding carries a witnessing call path rooted at the sink.
    for f in &findings {
        assert!(
            f.call_path.iter().any(|s| s.contains("merge")),
            "witness path should name the sink: {f:?}"
        );
    }
}

#[test]
fn det03_accepts_annotated_and_unreachable_sources() {
    let findings = lint_files(
        vec![(
            "crates/workload/src/stats.rs".to_string(),
            include_str!("../fixtures/det03_ok.rs").to_string(),
        )],
        &Config::default(),
    );
    assert_clean(&findings);
}

#[test]
fn det03_defers_hash_sources_to_det01_in_scoped_crates() {
    // In a DET01-scoped crate the hash-iteration source is DET01's finding;
    // DET03 still reports the wall-clock source it alone can see.
    let cfg = Config {
        det01_crates: vec!["workload".into()],
        ..Config::default()
    };
    let findings = lint_files(
        vec![(
            "crates/workload/src/stats.rs".to_string(),
            include_str!("../fixtures/det03_bad.rs").to_string(),
        )],
        &cfg,
    );
    assert_eq!(rules_of(&findings), ["DET01", "DET03"], "{findings:?}");
}

// ---------------------------------------------------------------- LOCK01

#[test]
fn lock01_flags_both_orders_including_cross_fn() {
    let cfg = Config {
        lock01_crates: vec!["engine".into()],
        ..Config::default()
    };
    let findings = lint_files(
        vec![(
            "crates/engine/src/pair.rs".to_string(),
            include_str!("../fixtures/lock01_bad.rs").to_string(),
        )],
        &cfg,
    );
    assert_eq!(rules_of(&findings), ["LOCK01"], "{findings:?}");
    let f = &findings[0];
    assert!(
        f.message.contains("engine::Pair::a") && f.message.contains("engine::Pair::b"),
        "{f:?}"
    );
    // The witness shows both acquisition orders.
    assert!(!f.call_path.is_empty(), "{f:?}");
}

#[test]
fn lock01_accepts_consistent_order_and_lock_ok() {
    let cfg = Config {
        lock01_crates: vec!["engine".into()],
        ..Config::default()
    };
    let findings = lint_files(
        vec![(
            "crates/engine/src/pair.rs".to_string(),
            include_str!("../fixtures/lock01_ok.rs").to_string(),
        )],
        &cfg,
    );
    assert_clean(&findings);
}

#[test]
fn lock01_is_scoped_to_configured_crates() {
    let cfg = Config {
        lock01_crates: vec!["service".into()],
        ..Config::default()
    };
    let findings = lint_files(
        vec![(
            "crates/engine/src/pair.rs".to_string(),
            include_str!("../fixtures/lock01_bad.rs").to_string(),
        )],
        &cfg,
    );
    assert_clean(&findings);
}

// ---------------------------------------------------------------- PANIC02

#[test]
fn panic02_flags_sites_reachable_from_catch_unwind() {
    let cfg = Config {
        panic02_crates: vec!["engine".into()],
        ..Config::default()
    };
    let findings = lint_files(
        vec![(
            "crates/engine/src/sup.rs".to_string(),
            include_str!("../fixtures/panic02_bad.rs").to_string(),
        )],
        &cfg,
    );
    assert_eq!(rules_of(&findings), ["PANIC02", "PANIC02"], "{findings:?}");
    // Witness chains start at the supervision boundary.
    for f in &findings {
        assert!(f.call_path.iter().any(|s| s.contains("supervise")), "{f:?}");
    }
}

#[test]
fn panic02_accepts_annotated_and_unsupervised_sites() {
    let cfg = Config {
        panic02_crates: vec!["engine".into()],
        ..Config::default()
    };
    let findings = lint_files(
        vec![(
            "crates/engine/src/sup.rs".to_string(),
            include_str!("../fixtures/panic02_ok.rs").to_string(),
        )],
        &cfg,
    );
    assert_clean(&findings);
}

// ---------------------------------------------------------------- ANN01

#[test]
fn ann01_flags_stale_markers() {
    let findings = lint_files(
        vec![(
            "crates/workload/src/ann.rs".to_string(),
            include_str!("../fixtures/ann01_bad.rs").to_string(),
        )],
        &Config::default(),
    );
    assert_eq!(rules_of(&findings), ["ANN01", "ANN01"], "{findings:?}");
}

#[test]
fn ann01_accepts_consumed_prose_and_test_markers() {
    let cfg = Config {
        det01_crates: vec!["engine".into()],
        ..Config::default()
    };
    let findings = lint_files(
        vec![(
            "crates/engine/src/tally.rs".to_string(),
            include_str!("../fixtures/ann01_ok.rs").to_string(),
        )],
        &cfg,
    );
    assert_clean(&findings);
}

// ------------------------------------------------------------ end to end

/// The workspace itself must lint clean with its own `detlint.toml` — the
/// same invocation CI runs.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = detlint::load_config(&root).expect("detlint.toml parses");
    let findings = detlint::run_check(&root, &cfg).expect("workspace walk succeeds");
    assert_clean(&findings);
}

/// The real binary exits nonzero (and reports in JSON) on a seeded
/// mini-workspace containing one violation of each per-file rule.
#[test]
fn binary_exits_nonzero_on_seeded_violations() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded_workspace");
    let src = root.join("crates/engine/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        root.join("detlint.toml"),
        "[det01]\ncrates = [\"engine\"]\n\
         [det02]\ncrates = [\"engine\"]\n\
         [swar01]\npaths = [\"crates/engine/src/row.rs\"]\n\
         [lock01]\ncrates = [\"engine\"]\n\
         [panic02]\ncrates = [\"engine\"]\n",
    )
    .expect("write config");
    std::fs::write(
        src.join("tally.rs"),
        include_str!("../fixtures/det01_bad.rs"),
    )
    .expect("write fixture");
    std::fs::write(src.join("acc.rs"), include_str!("../fixtures/det02_bad.rs"))
        .expect("write fixture");
    std::fs::write(
        src.join("row.rs"),
        include_str!("../fixtures/swar01_bad.rs"),
    )
    .expect("write fixture");
    std::fs::write(
        src.join("simd.rs"),
        include_str!("../fixtures/unsafe01_bad.rs"),
    )
    .expect("write fixture");
    std::fs::write(
        src.join("parse.rs"),
        include_str!("../fixtures/panic01_bad.rs"),
    )
    .expect("write fixture");
    std::fs::write(
        src.join("pair.rs"),
        include_str!("../fixtures/lock01_bad.rs"),
    )
    .expect("write fixture");
    std::fs::write(
        src.join("sup.rs"),
        include_str!("../fixtures/panic02_bad.rs"),
    )
    .expect("write fixture");
    // DET03's hash source defers to DET01 inside det01-scoped crates, so its
    // seeded fixture lives in a second (unscoped) crate; ANN01 rides along.
    let wsrc = root.join("crates/workload/src");
    std::fs::create_dir_all(&wsrc).expect("mkdir");
    std::fs::write(
        wsrc.join("stats.rs"),
        include_str!("../fixtures/det03_bad.rs"),
    )
    .expect("write fixture");
    std::fs::write(
        wsrc.join("ann.rs"),
        include_str!("../fixtures/ann01_bad.rs"),
    )
    .expect("write fixture");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["check", "--json", "--root"])
        .arg(&root)
        .output()
        .expect("run detlint binary");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = String::from_utf8(out.stdout).expect("utf8 json");
    for rule in [
        "DET01", "DET02", "SWAR01", "UNSAFE01", "PANIC01", "DET03", "LOCK01", "PANIC02", "ANN01",
    ] {
        assert!(
            json.contains(&format!("\"{rule}\"")),
            "JSON report missing {rule}:\n{json}"
        );
    }
    assert!(json.contains("\"total\":"), "{json}");
}

/// The binary exits 0 and prints `no findings` on a clean tree.
#[test]
fn binary_exits_zero_on_clean_tree() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clean_workspace");
    let src = root.join("crates/engine/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        root.join("detlint.toml"),
        "[det01]\ncrates = [\"engine\"]\n",
    )
    .expect("write config");
    std::fs::write(
        src.join("tally.rs"),
        include_str!("../fixtures/det01_ok.rs"),
    )
    .expect("write fixture");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["check", "--root"])
        .arg(&root)
        .output()
        .expect("run detlint binary");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8 report");
    assert!(text.contains("no findings"), "{text}");
}
