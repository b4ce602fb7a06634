//! The repo's own gate, as a test: the workspace must be lint-clean
//! with no baseline. This is what lets `ci.sh` treat any bct-lint
//! finding as a hard failure.

use std::path::Path;

use bct_lint::{check_workspace, render_text, Graph};

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

/// Every fn reachable from `from` along the graph's edges.
fn reach(g: &Graph, from: &str) -> Vec<bool> {
    let from = idx(g, from);
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
    seen
}

fn idx(g: &Graph, id: &str) -> usize {
    g.nodes
        .iter()
        .position(|n| n.id == id)
        .unwrap_or_else(|| panic!("no node {id}"))
}

fn workspace_graph() -> Graph {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    check_workspace(&root).expect("workspace scan").graph
}

/// The serve decision path is inside the graph: a2 and p2 check every
/// fn reachable from the `no_alloc` entry `Service::apply`, so that
/// set must include the engine loop the session runs on. Method calls
/// resolve only by a workspace-unique name (`submit`, `tick` and
/// `state_hash` are not), which is why `Service::apply` calls the
/// session by path.
#[test]
fn serve_apply_reaches_the_engine_loop() {
    let g = workspace_graph();
    let seen = reach(&g, "serve::service::Service::apply");
    let reached = seen.iter().filter(|&&s| s).count();
    assert!(
        seen[idx(&g, "sim::engine::RunLane::step")],
        "Service::apply reaches {reached} fns, not RunLane::step"
    );
}

/// The engine loop's two hot structures are inside the graph too, so
/// a2 and p2 check the event queue and the queue aggregates. `push`,
/// `pop`, `insert` and `remove` are std method names the resolver
/// never follows, which is why the engine calls them by path.
#[test]
fn engine_step_reaches_the_event_queue_and_aggregates() {
    let g = workspace_graph();
    let seen = reach(&g, "sim::engine::RunLane::step");
    let reached = seen.iter().filter(|&&s| s).count();
    for target in ["sim::evq::EventQueue::push", "sim::agg::FlatAggregates::insert"] {
        assert!(seen[idx(&g, target)], "RunLane::step reaches {reached} fns, not {target}");
    }
}

/// Production dispatch never scans: both greedy decisions reach the
/// queue aggregates' prefix query and no scan oracle of
/// `prio::naive`, and the unrelated rule reaches `F'`'s fractional
/// count. Free fns resolve by module path, which keeps each
/// `prio` query apart from its `naive` twin of the same name.
#[test]
fn greedy_assign_reaches_the_aggregates_and_no_scan() {
    let g = workspace_graph();
    for (entry, needs) in [
        (
            "sched::greedy::GreedyIdentical::assign",
            "sim::agg::FlatAggregates::before",
        ),
        (
            "sched::greedy::GreedyUnrelated::assign",
            "policies::prio::frac_count_larger",
        ),
    ] {
        let seen = reach(&g, entry);
        let reached = seen.iter().filter(|&&s| s).count();
        for target in ["sim::agg::FlatAggregates::before", needs] {
            assert!(
                seen[idx(&g, target)],
                "{entry} reaches {reached} fns, not {target}"
            );
        }
        let scans: Vec<&str> = g
            .nodes
            .iter()
            .zip(&seen)
            .filter(|&(n, &s)| s && n.id.starts_with("policies::prio::naive::"))
            .map(|(n, _)| n.id.as_str())
            .collect();
        assert!(
            scans.is_empty(),
            "{entry} reaches the scan oracle: {scans:?}"
        );
    }
}
