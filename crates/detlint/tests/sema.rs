//! Unit pins for the semantic layer: symbol-table construction and call
//! resolution over a two-crate mini-workspace fixture. These pin the
//! *resolution policy* (own-crate-first for bare calls, qualified `Type::`
//! and `Self::` dispatch, explicit cross-crate paths) rather than any one
//! rule built on top of it.

use detlint::config::Config;
use detlint::file::FileCtx;
use detlint::sema::Workspace;

fn mini_workspace() -> Vec<FileCtx> {
    vec![
        FileCtx::new(
            "crates/engine/src/lib.rs".to_string(),
            include_str!("../fixtures/sema_engine.rs"),
        ),
        FileCtx::new(
            "crates/workload/src/lib.rs".to_string(),
            include_str!("../fixtures/sema_workload.rs"),
        ),
    ]
}

fn callee_names(ws: &Workspace, display: &str) -> Vec<String> {
    let id = ws.fn_id(display).unwrap_or_else(|| {
        panic!(
            "fn {display} not in symbol table; have: {:?}",
            ws.symbols
                .fns
                .iter()
                .map(|f| f.display())
                .collect::<Vec<_>>()
        )
    });
    let mut names: Vec<String> = ws.graph.callees[id]
        .iter()
        .map(|&c| ws.symbols.fns[c].display())
        .collect();
    names.sort();
    names
}

#[test]
fn symbol_table_records_fns_methods_and_tests() {
    let ctxs = mini_workspace();
    let ws = Workspace::build(&ctxs, &Config::default());

    // Free fns and methods from both crates, with impl types attached.
    for display in [
        "engine::Engine::run",
        "engine::Engine::step",
        "engine::normalize",
        "engine::bump",
        "workload::Trace::size",
        "workload::normalize",
    ] {
        assert!(ws.fn_id(display).is_some(), "missing {display}");
    }
    let run = &ws.symbols.fns[ws.fn_id("engine::Engine::run").unwrap()];
    assert_eq!(run.impl_type.as_deref(), Some("Engine"));
    assert_eq!(run.crate_name, "engine");
    assert!(!run.is_test);

    // Fns inside `#[cfg(test)] mod tests` are marked as test code.
    let test_fn = ws
        .symbols
        .fns
        .iter()
        .find(|f| f.name == "test_fn_is_marked")
        .expect("test fn present");
    assert!(test_fn.is_test);

    // `use workload::Trace;` registers a crate-granularity import.
    let engine_file = 0;
    assert!(ws.symbols.imports[engine_file].contains("workload"));
}

#[test]
fn bare_calls_resolve_own_crate_first() {
    let ctxs = mini_workspace();
    let ws = Workspace::build(&ctxs, &Config::default());

    // `normalize(trace)` inside engine::Engine::run resolves to the engine
    // free fn only, even though workload exports a fn of the same name.
    let callees = callee_names(&ws, "engine::Engine::run");
    assert!(
        callees.contains(&"engine::normalize".to_string()),
        "{callees:?}"
    );
    assert!(
        !callees.contains(&"workload::normalize".to_string()),
        "bare call must not leak to the imported crate: {callees:?}"
    );
}

#[test]
fn qualified_and_self_calls_dispatch_by_type() {
    let ctxs = mini_workspace();
    let ws = Workspace::build(&ctxs, &Config::default());

    // `Trace::size(trace)` resolves cross-crate through by_type_method, and
    // `self.step()` resolves to the method on the surrounding impl type.
    let run = callee_names(&ws, "engine::Engine::run");
    assert!(
        run.contains(&"workload::Trace::size".to_string()),
        "{run:?}"
    );
    assert!(run.contains(&"engine::Engine::step".to_string()), "{run:?}");

    // `Self::clear(self)` rewrites Self to the impl type.
    let reset = callee_names(&ws, "engine::Engine::reset");
    assert_eq!(reset, ["engine::Engine::clear"]);

    // Explicit `workload::normalize(7)` picks the named crate, not engine's
    // same-named free fn.
    let renorm = callee_names(&ws, "engine::renorm");
    assert_eq!(renorm, ["workload::normalize"]);
}

#[test]
fn call_edges_are_directional_and_callers_invert() {
    let ctxs = mini_workspace();
    let ws = Workspace::build(&ctxs, &Config::default());

    // step() calls the private free fn bump(); workload has no edge back
    // into engine.
    assert_eq!(callee_names(&ws, "engine::Engine::step"), ["engine::bump"]);
    assert_eq!(
        callee_names(&ws, "workload::Trace::size"),
        Vec::<String>::new()
    );

    // callers[] is the exact inverse of callees[].
    let normalize = ws.fn_id("engine::normalize").expect("normalize");
    let run = ws.fn_id("engine::Engine::run").expect("run");
    assert!(ws.graph.callers[normalize].contains(&run));
}

#[test]
fn sema_excluded_crates_stay_out_of_the_table() {
    let ctxs = mini_workspace();
    let cfg = Config {
        sema_exclude_crates: vec!["workload".into()],
        ..Config::default()
    };
    let ws = Workspace::build(&ctxs, &cfg);
    assert!(ws.fn_id("workload::Trace::size").is_none());
    assert!(ws.fn_id("engine::Engine::run").is_some());
}
