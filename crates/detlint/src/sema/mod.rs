//! The semantic layer: a workspace symbol table ([`symbols`]), a
//! conservative call graph ([`callgraph`]), and the three interprocedural
//! rules that run over them — DET03 (nondeterminism taint from sources to
//! merge/report sinks), LOCK01 (lock-order consistency), and PANIC02 (panic
//! reachability under `catch_unwind` supervision). Design notes and the
//! deliberate-imprecision contract live in `docs/INVARIANTS.md`.

pub mod callgraph;
pub mod det03;
pub mod lock01;
pub mod panic02;
pub mod symbols;

use crate::config::Config;
use crate::file::FileCtx;
use crate::report::Finding;

use callgraph::CallGraph;
use symbols::SymbolTable;

/// Symbol table + call graph bundled for the rules (and for tests).
pub struct Workspace {
    pub symbols: SymbolTable,
    pub graph: CallGraph,
}

impl Workspace {
    pub fn build(ctxs: &[FileCtx], cfg: &Config) -> Workspace {
        let symbols = SymbolTable::build(ctxs, cfg);
        let graph = CallGraph::build(ctxs, &symbols);
        Workspace { symbols, graph }
    }

    /// Fn id by display name (`crate::[Type::]name`), for tests.
    pub fn fn_id(&self, display: &str) -> Option<symbols::FnId> {
        self.symbols.fns.iter().position(|f| f.display() == display)
    }
}

/// Run the interprocedural rules over the lexed workspace.
pub fn check_workspace(ctxs: &[FileCtx], cfg: &Config, out: &mut Vec<Finding>) {
    let ws = Workspace::build(ctxs, cfg);
    det03::check(ctxs, &ws, cfg, out);
    lock01::check(ctxs, &ws, cfg, out);
    panic02::check(ctxs, &ws, cfg, out);
}
