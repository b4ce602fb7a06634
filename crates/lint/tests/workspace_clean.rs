//! The repo's own gate, as a test: the workspace must be lint-clean
//! with no baseline. This is what lets `ci.sh` treat any bct-lint
//! finding as a hard failure.

use std::path::Path;

use bct_lint::{check_workspace, render_text};

#[test]
fn workspace_has_zero_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rep = check_workspace(&root).expect("workspace scan");
    assert!(
        rep.violations.is_empty(),
        "bct-lint found violations:\n{}",
        render_text(&rep.violations)
    );
    // Sanity: the walker actually visited the workspace (all eleven
    // crates' src trees), not an empty directory.
    assert!(rep.files_scanned >= 70, "only {} files scanned", rep.files_scanned);
    // The audited panic/clock/float sites carry justified allows, and
    // the PR-9 transitive burn-down added chain-anchored a2/p2 allows.
    assert!(rep.allows_used >= 40, "only {} allows used", rep.allows_used);
}

/// The serve decision path is inside the graph: a2 and p2 check every
/// fn reachable from the `no_alloc` entry `Service::apply`, so that
/// set must include the engine loop the session runs on. Method calls
/// resolve only by a workspace-unique name (`submit`, `tick` and
/// `state_hash` are not), which is why `Service::apply` calls the
/// session by path.
#[test]
fn serve_apply_reaches_the_engine_loop() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let g = check_workspace(&root).expect("workspace scan").graph;
    let idx = |id: &str| {
        g.nodes
            .iter()
            .position(|n| n.id == id)
            .unwrap_or_else(|| panic!("no node {id}"))
    };
    let (from, to) = (idx("serve::service::Service::apply"), idx("sim::engine::RunLane::step"));
    let mut seen = vec![false; g.nodes.len()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(n) = stack.pop() {
        for &(_, callee) in g.edges.iter().filter(|&&(caller, _)| caller == n) {
            if !seen[callee] {
                seen[callee] = true;
                stack.push(callee);
            }
        }
    }
    let reached = seen.iter().filter(|&&s| s).count();
    assert!(
        seen[to],
        "Service::apply reaches {reached} fns, not RunLane::step"
    );
}
