//! Capacity-aware stateful assignment policies.
//!
//! Unlike the baselines in [`crate::assign`], these track their own
//! commitments across calls via the [`AssignmentPolicy`] hooks: work
//! committed to a leaf is charged at dispatch, credited back when the
//! job completes there ([`AssignmentPolicy::on_complete`]), and also
//! credited back when a topology mutation drains the job off the leaf
//! ([`AssignmentPolicy::on_drain`]) — so the books stay balanced through
//! leaf churn.
//!
//! All three policies share a [`CapacityTracker`] with an optional
//! per-leaf capacity: the maximum outstanding committed work a leaf may
//! hold. The capacity is *soft* — when no leaf fits, the policy falls
//! back to its uncapacitated rule instead of refusing (the engine has
//! no reject path; a saturated system degrades to load balancing).

use bct_core::{JobId, NodeId};
use bct_sim::{AssignmentPolicy, SimView};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-leaf commitment ledger shared by the stateful policies.
///
/// Indexed by node id; mutation-added leaves grow the tables on first
/// sight. Tombstoned leaves keep their (drained-to-zero) slots, so ids
/// never shift.
#[derive(Clone, Debug)]
pub struct CapacityTracker {
    /// Max outstanding committed work per leaf; `None` = unbounded.
    capacity: Option<f64>,
    /// Work committed to each leaf and not yet completed or drained.
    used: Vec<f64>,
    /// Number of in-flight jobs committed to each leaf.
    active: Vec<u32>,
}

impl CapacityTracker {
    /// A ledger with the given per-leaf capacity (`None` = unbounded).
    pub fn new(capacity: Option<f64>) -> CapacityTracker {
        if let Some(c) = capacity {
            assert!(c > 0.0 && c.is_finite(), "capacity must be positive");
        }
        CapacityTracker { capacity, used: Vec::new(), active: Vec::new() }
    }

    /// The configured per-leaf capacity.
    pub fn capacity(&self) -> Option<f64> {
        self.capacity
    }

    /// Outstanding committed work at `leaf`.
    pub fn used(&self, leaf: NodeId) -> f64 {
        self.used.get(leaf.as_usize()).copied().unwrap_or(0.0)
    }

    /// In-flight jobs committed to `leaf`.
    pub fn active(&self, leaf: NodeId) -> u32 {
        self.active.get(leaf.as_usize()).copied().unwrap_or(0)
    }

    /// Would `size` more work at `leaf` stay within capacity?
    // bct-lint: no_alloc
    pub fn fits(&self, leaf: NodeId, size: f64) -> bool {
        match self.capacity {
            None => true,
            Some(c) => self.used(leaf) + size <= c,
        }
    }

    fn grow(&mut self, n: usize) {
        if self.used.len() < n {
            self.used.resize(n, 0.0);
            self.active.resize(n, 0);
        }
    }

    /// Charge `size` units at `leaf`.
    // bct-lint: no_alloc
    pub fn commit(&mut self, leaf: NodeId, size: f64) {
        self.grow(leaf.as_usize() + 1);
        self.used[leaf.as_usize()] += size;
        self.active[leaf.as_usize()] += 1;
    }

    /// Credit `size` units back at `leaf` (completion or drain).
    // bct-lint: no_alloc
    pub fn release(&mut self, leaf: NodeId, size: f64) {
        self.grow(leaf.as_usize() + 1);
        let u = &mut self.used[leaf.as_usize()];
        *u = (*u - size).max(0.0);
        let a = &mut self.active[leaf.as_usize()];
        *a = a.saturating_sub(1);
    }

    /// Deterministic FNV-1a digest of the ledger. Trailing all-zero
    /// slots are skipped, so a ledger that merely grew (without any
    /// commitment) digests the same as one that never saw the leaf —
    /// `grow` is bookkeeping, not state.
    // bct-lint: no_alloc
    pub fn digest(&self) -> u64 {
        let mut h = bct_core::Fnv64::new();
        match self.capacity {
            None => h.write_bool(false),
            Some(c) => {
                h.write_bool(true);
                h.write_f64(c);
            }
        }
        let live = self
            .used
            .iter()
            .zip(&self.active)
            // bct-lint: allow(d3) -- 0.0 is the exact never-touched sentinel, not a computed value
            .rposition(|(&u, &a)| u != 0.0 || a != 0)
            .map_or(0, |i| i + 1);
        h.write_usize(live);
        for i in 0..live {
            h.write_f64(self.used[i]);
            h.write_u32(self.active[i]);
        }
        h.finish()
    }
}

/// The work `job` would put on `leaf` (its leaf-hop requirement).
fn size_at(view: &SimView<'_>, job: JobId, leaf: NodeId) -> f64 {
    view.instance().p(job, leaf)
}

/// Best-fit on residual capacity: among leaves with room, commit to the
/// one whose remaining headroom after placement is smallest (the
/// classic bin-packing rule — keeps leaves tightly packed and preserves
/// large contiguous headroom elsewhere). Ties by id. With no capacity
/// configured — or no leaf fitting — it degrades to least-used.
#[derive(Clone, Debug)]
pub struct BestFit {
    tracker: CapacityTracker,
}

impl BestFit {
    /// Best-fit with the given per-leaf capacity (`None` = unbounded,
    /// i.e. pure least-used).
    pub fn new(capacity: Option<f64>) -> BestFit {
        BestFit { tracker: CapacityTracker::new(capacity) }
    }

    /// Read access to the ledger (for probes and tests).
    pub fn tracker(&self) -> &CapacityTracker {
        &self.tracker
    }
}

impl AssignmentPolicy for BestFit {
    // bct-lint: no_alloc
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        let mut best: Option<NodeId> = None;
        let mut best_used = f64::NEG_INFINITY; // maximize used among fitting
        let mut least: Option<NodeId> = None;
        let mut least_used = f64::INFINITY; // fallback: minimize used
        for &v in view.tree().leaves() {
            let size = size_at(view, job, v);
            let used = self.tracker.used(v);
            if self.tracker.capacity().is_some() && self.tracker.fits(v, size) && used > best_used
            {
                best_used = used;
                best = Some(v);
            }
            if used < least_used {
                least_used = used;
                least = Some(v);
            }
        }
        // bct-lint: allow(p1) -- invariant: the engine guarantees trees have at least one leaf
        let leaf = best.or(least).expect("tree has leaves");
        self.tracker.commit(leaf, size_at(view, job, leaf));
        leaf
    }

    fn needs_aggregates(&self) -> bool {
        false
    }

    fn on_complete(&mut self, view: &SimView<'_>, job: JobId, leaf: NodeId) {
        self.tracker.release(leaf, size_at(view, job, leaf));
    }

    fn on_drain(&mut self, view: &SimView<'_>, job: JobId, old_leaf: NodeId) {
        self.tracker.release(old_leaf, size_at(view, job, old_leaf));
    }

    fn state_digest(&self) -> u64 {
        self.tracker.digest()
    }
}

/// Commit to the leaf with the fewest in-flight committed jobs (ties by
/// id), preferring leaves with capacity headroom when a capacity is
/// configured — minimizes the number of simultaneously busy machines'
/// queues in a churn-heavy system.
#[derive(Clone, Debug)]
pub struct MinActive {
    tracker: CapacityTracker,
}

impl MinActive {
    /// Min-active with the given per-leaf capacity (`None` = unbounded).
    pub fn new(capacity: Option<f64>) -> MinActive {
        MinActive { tracker: CapacityTracker::new(capacity) }
    }

    /// Read access to the ledger (for probes and tests).
    pub fn tracker(&self) -> &CapacityTracker {
        &self.tracker
    }
}

impl AssignmentPolicy for MinActive {
    // bct-lint: no_alloc
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        let pick = |require_fit: bool, tracker: &CapacityTracker| -> Option<NodeId> {
            let mut best: Option<(u32, NodeId)> = None;
            for &v in view.tree().leaves() {
                if require_fit && !tracker.fits(v, size_at(view, job, v)) {
                    continue;
                }
                let key = (tracker.active(v), v);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            best.map(|(_, v)| v)
        };
        let leaf = pick(true, &self.tracker)
            .or_else(|| pick(false, &self.tracker))
            // bct-lint: allow(p1) -- invariant: the engine guarantees trees have at least one leaf
            .expect("tree has leaves");
        self.tracker.commit(leaf, size_at(view, job, leaf));
        leaf
    }

    fn needs_aggregates(&self) -> bool {
        false
    }

    fn on_complete(&mut self, view: &SimView<'_>, job: JobId, leaf: NodeId) {
        self.tracker.release(leaf, size_at(view, job, leaf));
    }

    fn on_drain(&mut self, view: &SimView<'_>, job: JobId, old_leaf: NodeId) {
        self.tracker.release(old_leaf, size_at(view, job, old_leaf));
    }

    fn state_digest(&self) -> u64 {
        self.tracker.digest()
    }
}

/// Uniformly random leaf among those with capacity headroom (all leaves
/// when uncapacitated or none fit), deterministic per seed. The
/// randomized control for the capacity-aware rules.
#[derive(Clone, Debug)]
pub struct RandomFeasible {
    tracker: CapacityTracker,
    rng: ChaCha8Rng,
    /// Scratch for the feasible set; reused across calls.
    feasible: Vec<NodeId>,
}

impl RandomFeasible {
    /// Seeded random-feasible with the given per-leaf capacity.
    pub fn new(capacity: Option<f64>, seed: u64) -> RandomFeasible {
        RandomFeasible {
            tracker: CapacityTracker::new(capacity),
            rng: ChaCha8Rng::seed_from_u64(seed),
            feasible: Vec::new(),
        }
    }

    /// Read access to the ledger (for probes and tests).
    pub fn tracker(&self) -> &CapacityTracker {
        &self.tracker
    }
}

impl AssignmentPolicy for RandomFeasible {
    // bct-lint: no_alloc
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        self.feasible.clear();
        self.feasible.extend(
            view.tree()
                .leaves()
                .iter()
                .copied()
                .filter(|&v| self.tracker.fits(v, size_at(view, job, v))),
        );
        let pool: &[NodeId] = if self.feasible.is_empty() {
            view.tree().leaves()
        } else {
            &self.feasible
        };
        let leaf = pool[self.rng.gen_range(0..pool.len())];
        self.tracker.commit(leaf, size_at(view, job, leaf));
        leaf
    }

    fn needs_aggregates(&self) -> bool {
        false
    }

    fn on_complete(&mut self, view: &SimView<'_>, job: JobId, leaf: NodeId) {
        self.tracker.release(leaf, size_at(view, job, leaf));
    }

    fn on_drain(&mut self, view: &SimView<'_>, job: JobId, old_leaf: NodeId) {
        self.tracker.release(old_leaf, size_at(view, job, old_leaf));
    }

    fn state_digest(&self) -> u64 {
        let mut h = bct_core::Fnv64::new();
        h.write_u64(self.tracker.digest());
        // The RNG stream position is policy state too: two replicas
        // whose ledgers agree but whose streams diverged would
        // otherwise desync undetected on the next draw.
        h.write_u64(self.rng.word_pos());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Instance, Job, SpeedProfile, TreeMutation};
    use bct_sim::policy::NoProbe;
    use bct_sim::{SimConfig, Simulation, TopoMutation};

    /// root -> r1 -> leaf3, root -> r2 -> leaf4.
    fn two_leaves() -> bct_core::Tree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r1);
        b.add_child(r2);
        b.build().unwrap()
    }

    fn run(inst: &Instance, policy: &mut dyn AssignmentPolicy) -> bct_sim::SimOutcome {
        Simulation::run(
            inst,
            &crate::node::Sjf::new(),
            policy,
            &mut NoProbe,
            &SimConfig::with_speeds(SpeedProfile::unit()),
        )
        .unwrap()
    }

    #[test]
    fn best_fit_packs_tightly_within_capacity() {
        // Capacity 3, sizes 2 then 1: best-fit stacks both on leaf 3
        // (1 unit of headroom beats opening leaf 4).
        let inst = Instance::new(
            two_leaves(),
            vec![Job::identical(0u32, 0.0, 2.0), Job::identical(1u32, 0.0, 1.0)],
        )
        .unwrap();
        let out = run(&inst, &mut BestFit::new(Some(3.0)));
        assert_eq!(out.assignments[0], Some(NodeId(3)));
        assert_eq!(out.assignments[1], Some(NodeId(3)), "1 fits beside 2 under cap 3");
        assert_eq!(out.unfinished, 0);
    }

    #[test]
    fn best_fit_overflows_to_the_empty_leaf() {
        // Capacity 3, sizes 2 then 2: the second job no longer fits on
        // leaf 3 and must open leaf 4.
        let inst = Instance::new(
            two_leaves(),
            vec![Job::identical(0u32, 0.0, 2.0), Job::identical(1u32, 0.0, 2.0)],
        )
        .unwrap();
        let out = run(&inst, &mut BestFit::new(Some(3.0)));
        assert_eq!(out.assignments[0], Some(NodeId(3)));
        assert_eq!(out.assignments[1], Some(NodeId(4)));
    }

    #[test]
    fn completions_return_capacity() {
        // Capacity 2, three size-2 jobs spaced out: each completion
        // frees the leaf for the next, so best-fit never overflows to
        // leaf 4. Job 1 arrives while job 0 still runs (its router hop
        // busy until t=4) → goes to leaf 4; job 2 arrives after job 0
        // completed → leaf 3 is free again.
        let inst = Instance::new(
            two_leaves(),
            vec![
                Job::identical(0u32, 0.0, 2.0),
                Job::identical(1u32, 1.0, 2.0),
                Job::identical(2u32, 10.0, 2.0),
            ],
        )
        .unwrap();
        let out = run(&inst, &mut BestFit::new(Some(2.0)));
        assert_eq!(out.assignments[0], Some(NodeId(3)));
        assert_eq!(out.assignments[1], Some(NodeId(4)), "leaf 3 full while job 0 lives");
        assert_eq!(out.assignments[2], Some(NodeId(3)), "freed by job 0's completion");
    }

    #[test]
    fn min_active_spreads_then_reuses() {
        let inst = Instance::new(
            two_leaves(),
            vec![
                Job::identical(0u32, 0.0, 1.0),
                Job::identical(1u32, 0.0, 1.0),
                Job::identical(2u32, 0.0, 1.0),
            ],
        )
        .unwrap();
        let out = run(&inst, &mut MinActive::new(None));
        assert_eq!(out.assignments[0], Some(NodeId(3)));
        assert_eq!(out.assignments[1], Some(NodeId(4)), "spread to the idle leaf");
        assert_eq!(out.assignments[2], Some(NodeId(3)), "tie broken by id");
    }

    #[test]
    fn random_feasible_is_deterministic_and_respects_capacity() {
        let jobs: Vec<Job> = (0..8u32).map(|i| Job::identical(i, 0.0, 1.0)).collect();
        let inst = Instance::new(two_leaves(), jobs).unwrap();
        let a = run(&inst, &mut RandomFeasible::new(Some(4.0), 7)).assignments;
        let b = run(&inst, &mut RandomFeasible::new(Some(4.0), 7)).assignments;
        assert_eq!(a, b, "same seed, same stream");
        // Capacity 4 and 8 unit jobs released at once: neither leaf can
        // exceed 4 outstanding commitments while all 8 are in flight.
        for v in [NodeId(3), NodeId(4)] {
            assert!(a.iter().filter(|&&x| x == Some(v)).count() <= 4, "{a:?}");
        }
    }

    #[test]
    fn drain_credits_the_dead_leaf_and_books_stay_balanced() {
        // root -> r1 -> a -> {leaf3, leaf4}: deep enough that removing
        // leaf 3 keeps its parent a router. Both jobs committed to
        // leaf 3 (capacity 4); removing it mid-flight must credit the
        // ledger via on_drain and re-commit on the survivor — final
        // state: everything completed, zero outstanding work anywhere.
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let a = b.add_child(r1);
        b.add_child(a); // leaf 3
        b.add_child(a); // leaf 4
        let inst = Instance::new(
            b.build().unwrap(),
            vec![Job::identical(0u32, 0.0, 2.0), Job::identical(1u32, 0.0, 2.0)],
        )
        .unwrap();
        let mut policy = BestFit::new(Some(4.0));
        let cfg = SimConfig::with_speeds(SpeedProfile::unit()).with_mutations(vec![
            TopoMutation { at: 1.0, change: TreeMutation::RemoveLeaf { leaf: NodeId(3) } },
        ]);
        let out = Simulation::run(
            &inst,
            &crate::node::Sjf::new(),
            &mut policy,
            &mut NoProbe,
            &cfg,
        )
        .unwrap();
        assert_eq!(out.unfinished, 0);
        assert_eq!(policy.tracker().used(NodeId(3)), 0.0, "drain credited the dead leaf");
        assert_eq!(policy.tracker().used(NodeId(4)), 0.0, "completions credited the survivor");
        assert_eq!(policy.tracker().active(NodeId(4)), 0);
    }
}
