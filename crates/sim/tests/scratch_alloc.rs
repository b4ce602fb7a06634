//! The zero-allocation contract of `Simulation::run_with_scratch`:
//! once a `SimScratch` has been warmed by one run over a topology
//! shape (and the outcome recycled), the next run must not touch the
//! global allocator at all — and must produce byte-identical results
//! to a fresh-buffer run.
//!
//! The phases share one counting allocator: an aggregate-free
//! round-robin run (covers the calendar event queue's bucket reuse —
//! re-bucketing must keep each bucket's capacity attached to its slot),
//! an aggregate-driven greedy run (covers the flat aggregate layout's
//! in-place block rebuilds on every admit/materialize/remove), a
//! dynamic-topology run (mutations may allocate, the intervals between
//! them may not), and a run after a failed one (an errored run must
//! hand every buffer back, so the scratch stays warm).
//!
//! This lives in its own integration binary with exactly one `#[test]`
//! so the counting global allocator sees no interference from parallel
//! tests in the same process.

use bct_core::tree::TreeBuilder;
use bct_core::{Instance, Job, JobId, NodeId, TreeMutation};
use bct_sim::engine::SimError;
use bct_sim::policy::{NoProbe, Probe};
use bct_sim::{
    AssignmentPolicy, KeyCtx, NodePolicy, PolicyKey, SimConfig, SimScratch, SimView, Simulation,
    StatefulPolicy, TopoMutation,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// SJF on original size — the paper's node rule.
struct Sjf;

impl NodePolicy for Sjf {
    fn name(&self) -> &'static str {
        "sjf"
    }
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        let p = ctx.instance.p(ctx.job, ctx.node);
        let r = ctx.instance.job(ctx.job).release;
        PolicyKey::new(p, r, ctx.job.0)
    }
}

/// Aggregate-driven assignment: first-strict-minimum of the fast-path
/// queries over the leaves. Turns `track_aggs` on so the warm run
/// exercises the flat layout's insert/remove/set_rem block rebuilds
/// inside the measured region (no allocations of its own: it only
/// walks the instance's leaf slice).
struct AggGreedy;

impl AssignmentPolicy for AggGreedy {
    fn name(&self) -> &'static str {
        "agg-greedy"
    }
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        let inst = view.instance();
        let leaves = inst.tree().leaves();
        let release = inst.job(job).release;
        let mut best = leaves[0];
        let mut best_score = f64::INFINITY;
        for &v in leaves {
            let p = inst.p(job, v);
            let score = view.volume_before(v, p, release, job.0)
                + view.count_larger(v, p) as f64;
            if score < best_score {
                best_score = score;
                best = v;
            }
        }
        best
    }
    fn needs_aggregates(&self) -> bool {
        true
    }
}

/// Cycle through the *live* leaves — the epoch-aware round robin a
/// dynamic run needs (a fixed leaf list would dispatch to tombstones).
/// Reads the view's leaf slice in place: no allocations of its own.
struct DynRoundRobin {
    next: usize,
}

impl AssignmentPolicy for DynRoundRobin {
    fn name(&self) -> &'static str {
        "dyn-round-robin"
    }
    fn assign(&mut self, view: &SimView<'_>, _job: JobId) -> NodeId {
        let leaves = view.tree().leaves();
        let leaf = leaves[self.next % leaves.len()];
        self.next += 1;
        leaf
    }
    fn needs_aggregates(&self) -> bool {
        false
    }
}

/// Meters heap traffic *between* topology mutations: every inter-event
/// interval that stays within one tree epoch is charged to `between`;
/// intervals that cross an epoch bump (the mutation being applied,
/// including its drain/redispatch work) are excluded — mutations are
/// allowed to allocate, the steady state in between is not. Scalar
/// fields only, so the probe itself never touches the allocator.
#[derive(Default)]
struct EpochAllocProbe {
    last_epoch: Option<u64>,
    last_mark: u64,
    between: u64,
    bumps: u64,
}

impl Probe for EpochAllocProbe {
    fn on_event(&mut self, view: &SimView<'_>) {
        let now = ALLOCATED.load(Ordering::SeqCst);
        let epoch = view.tree().epoch();
        match self.last_epoch {
            Some(e) if e == epoch => self.between += now - self.last_mark,
            Some(_) => self.bumps += 1,
            None => {}
        }
        self.last_epoch = Some(epoch);
        self.last_mark = now;
    }
    fn needs_aggregates(&self) -> bool {
        false
    }
}

/// Cycle through the leaves.
struct RoundRobin {
    leaves: Vec<NodeId>,
    next: usize,
}

impl AssignmentPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }
    fn assign(&mut self, _view: &SimView<'_>, _job: JobId) -> NodeId {
        let leaf = self.leaves[self.next % self.leaves.len()];
        self.next += 1;
        leaf
    }
    fn needs_aggregates(&self) -> bool {
        false
    }
}

/// 8 routers x 8 leaves under the root, 2000 jobs with staggered
/// releases and power-of-two sizes — enough traffic to exercise
/// preemption, treap churn, and multi-hop queues.
fn fixture() -> Instance {
    let mut b = TreeBuilder::new();
    for _ in 0..8 {
        let r = b.add_child(NodeId::ROOT);
        for _ in 0..8 {
            b.add_child(r);
        }
    }
    let tree = b.build().unwrap();
    let jobs: Vec<Job> = (0..2000u32)
        .map(|i| {
            // Deterministic pseudo-random sizes/gaps from a splitmix walk.
            let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            let size = [1.0, 2.0, 4.0, 8.0][(z % 4) as usize];
            let release = i as f64 * 0.11;
            Job::identical(i, release, size)
        })
        .collect();
    Instance::new(tree, jobs).unwrap()
}

fn leaves(inst: &Instance) -> Vec<NodeId> {
    inst.tree().leaves().to_vec()
}

/// Fresh baseline, one warming run, then a measured steady-state run:
/// the warm run must allocate zero bytes and reproduce the fresh bytes.
/// The assignment is rebuilt per run via `mk` so its own allocations
/// stay outside the measured region.
fn assert_steady_state_zero_alloc(
    label: &str,
    inst: &Instance,
    cfg: &SimConfig,
    mut mk: impl FnMut() -> Box<dyn StatefulPolicy>,
) {
    // Fresh-buffer baseline.
    let fresh = Simulation::run(inst, &Sjf, mk().as_mut(), &mut NoProbe, cfg).unwrap();
    assert_eq!(fresh.unfinished, 0, "{label}: fixture must complete");
    let fresh_json = serde_json::to_string(&fresh).unwrap();

    // Run 1 warms the scratch; recycling the outcome returns its
    // buffers to the pool.
    let mut scratch = SimScratch::new();
    let warm =
        Simulation::run_with_scratch(&mut scratch, inst, &Sjf, mk().as_mut(), &mut NoProbe, cfg)
            .unwrap();
    assert_eq!(
        serde_json::to_string(&warm).unwrap(),
        fresh_json,
        "{label}: scratch-backed run diverged from fresh buffers"
    );
    scratch.recycle(warm);

    // Run 2 on the warm scratch: zero heap allocations, same bytes out.
    let mut policy = mk();
    let before = ALLOCATED.load(Ordering::SeqCst);
    let steady = Simulation::run_with_scratch(
        &mut scratch,
        inst,
        &Sjf,
        policy.as_mut(),
        &mut NoProbe,
        cfg,
    )
    .unwrap();
    let allocated = ALLOCATED.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "{label}: steady-state run on a warm scratch allocated {allocated} bytes"
    );
    assert_eq!(
        serde_json::to_string(&steady).unwrap(),
        fresh_json,
        "{label}: steady-state run diverged from fresh buffers"
    );
}

#[test]
fn second_scratch_run_allocates_nothing_and_matches_fresh() {
    let inst = fixture();
    let cfg = SimConfig::unit();

    // Aggregate-free round robin: the default calendar event queue
    // carries the whole event load; its warm run proves bucket reuse
    // (re-bucketing keeps capacities attached to their slots).
    assert_steady_state_zero_alloc("round-robin/calendar", &inst, &cfg, || {
        Box::new(RoundRobin { leaves: leaves(&inst), next: 0 })
    });

    // Aggregate-driven greedy: every admit/materialize/remove now also
    // churns the flat aggregate layout's blocked sums in place.
    assert_steady_state_zero_alloc("agg-greedy/flat", &inst, &cfg, || Box::new(AggGreedy));

    // Same greedy under the compat structures (binary heap + treap):
    // the oracle configuration keeps its zero-alloc contract too.
    assert_steady_state_zero_alloc(
        "agg-greedy/compat",
        &inst,
        &cfg.clone().compat_structures(),
        || Box::new(AggGreedy),
    );

    // Dynamic topologies: mutations may allocate (arena growth, node
    // tables for added ids), but every event interval *between* them
    // must stay off the allocator once the scratch is warm.
    let at = |t: f64, change: TreeMutation| TopoMutation { at: t, change };
    let cfg_dyn = SimConfig::unit().with_mutations(vec![
        at(20.0, TreeMutation::RemoveLeaf { leaf: NodeId(2) }),
        at(50.0, TreeMutation::AddLeaf { parent: NodeId(1) }),
        at(80.0, TreeMutation::SetSpeed { node: NodeId(11), factor: 2.0 }),
        at(120.0, TreeMutation::RemoveLeaf { leaf: NodeId(12) }),
        at(160.0, TreeMutation::AddLeaf { parent: NodeId(10) }),
    ]);
    let fresh = Simulation::run(
        &inst,
        &Sjf,
        &mut DynRoundRobin { next: 0 },
        &mut NoProbe,
        &cfg_dyn,
    )
    .unwrap();
    assert_eq!(fresh.unfinished, 0, "dynamic fixture must complete");
    let fresh_json = serde_json::to_string(&fresh).unwrap();

    let mut scratch = SimScratch::new();
    let warm = Simulation::run_with_scratch(
        &mut scratch,
        &inst,
        &Sjf,
        &mut DynRoundRobin { next: 0 },
        &mut NoProbe,
        &cfg_dyn,
    )
    .unwrap();
    scratch.recycle(warm);

    let mut probe = EpochAllocProbe::default();
    let steady = Simulation::run_with_scratch(
        &mut scratch,
        &inst,
        &Sjf,
        &mut DynRoundRobin { next: 0 },
        &mut probe,
        &cfg_dyn,
    )
    .unwrap();
    assert_eq!(probe.bumps, 5, "all five mutations must apply");
    assert_eq!(
        probe.between, 0,
        "dynamic: steady state between mutations allocated {} bytes",
        probe.between
    );
    assert_eq!(
        serde_json::to_string(&steady).unwrap(),
        fresh_json,
        "dynamic: warm scratch run diverged from fresh buffers"
    );

    // A failed run keeps the scratch warm: a run that exceeds its
    // one-event budget must hand every buffer back, so the next run on
    // the same scratch allocates nothing and matches fresh buffers.
    let mk = || RoundRobin { leaves: leaves(&inst), next: 0 };
    let fresh = Simulation::run(&inst, &Sjf, &mut mk(), &mut NoProbe, &cfg).unwrap();
    let fresh_json = serde_json::to_string(&fresh).unwrap();
    let mut scratch = SimScratch::new();
    let warm =
        Simulation::run_with_scratch(&mut scratch, &inst, &Sjf, &mut mk(), &mut NoProbe, &cfg)
            .unwrap();
    scratch.recycle(warm);
    let mut starved = cfg.clone();
    starved.max_events = 1;
    let err =
        Simulation::run_with_scratch(&mut scratch, &inst, &Sjf, &mut mk(), &mut NoProbe, &starved)
            .unwrap_err();
    assert!(matches!(err, SimError::EventBudgetExceeded(1)), "{err}");
    let mut policy = mk();
    let before = ALLOCATED.load(Ordering::SeqCst);
    let after_error =
        Simulation::run_with_scratch(&mut scratch, &inst, &Sjf, &mut policy, &mut NoProbe, &cfg)
            .unwrap();
    let allocated = ALLOCATED.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "after an error: run on the same scratch allocated {allocated} bytes"
    );
    assert_eq!(
        serde_json::to_string(&after_error).unwrap(),
        fresh_json,
        "after an error: run on the same scratch diverged from fresh buffers"
    );
}
