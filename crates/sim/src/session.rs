//! Online dispatch sessions: the engine's event loop, suspended between
//! commands.
//!
//! [`crate::Simulation`] consumes a complete [`Instance`] and runs it to
//! quiescence. A [`SimSession`] instead *owns* a growing instance and
//! advances the very same state machine one command at a time — submit
//! a job, apply a topology mutation, advance the clock — so a network
//! service (bct-serve) can drive the simulator from a socket while
//! keeping every determinism guarantee the offline engine has.
//!
//! A session is a suspended [`RunLane`], the loop
//! [`crate::Simulation::run_with_scratch`] drives. Under
//! `#![forbid(unsafe_code)]` a self-referential "lane that owns its
//! instance" is impossible, so between commands the lane lives
//! disassembled: its buffers in a [`SimScratch`], its scalars in a small
//! record. Each command appends to the instance, resumes the lane over
//! it ([`RunLane::resume`]: `mem::take` per buffer — no copying, no
//! allocation), runs it with [`RunLane::run_until`] to the command's
//! time, and suspends it again ([`RunLane::suspend`]). Feeding a session
//! the commands of an offline run reproduces that run's schedule
//! exactly; the differential tests below pin that.
//!
//! Event-ordering contract, the offline engine's by construction:
//! commands execute in arrival order at non-decreasing times; within one
//! command, pending hop completions at times `≤ t` run first
//! (completions before arrivals at equal times), then the command's own
//! effect. A mutation command applies at the session's current time,
//! after any completions already processed — the one (documented)
//! divergence from offline runs, where a mutation scheduled at `t`
//! precedes completions at `t`.

use crate::engine::{RunLane, SimConfig, SimError, SuspendedLane};
use crate::policy::{AssignmentPolicy, NoProbe, NodePolicy};
use crate::scratch::SimScratch;
use bct_core::{CoreError, Instance, JobId, NodeId, SpeedProfile, Time, Tree, TreeMutation};
use std::fmt;

/// Errors an online session can report.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// An engine-level failure (bad speeds, non-leaf assignment,
    /// invalid mutation).
    Sim(SimError),
    /// The job being submitted failed instance validation.
    Core(CoreError),
    /// A command carried a time before the session's current time.
    TimeRegression {
        /// The session clock.
        now: Time,
        /// The offending command time.
        at: Time,
    },
    /// A command carried a non-finite or negative time.
    BadTime(Time),
    /// The session was configured with a feature it does not support.
    Unsupported(&'static str),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sim(e) => write!(f, "{e}"),
            SessionError::Core(e) => write!(f, "invalid job: {e}"),
            SessionError::TimeRegression { now, at } => {
                write!(f, "command time {at} is before the session clock {now}")
            }
            SessionError::BadTime(t) => write!(f, "non-finite or negative command time {t}"),
            SessionError::Unsupported(what) => write!(f, "sessions do not support {what}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// An online simulation session: the live counterpart of one
/// [`crate::Simulation::run`], advanced command by command.
///
/// All commands take the policies as arguments (rather than owning
/// them) so a caller can keep policy state — capacity ledgers and the
/// like — inspectable between commands; passing different policies to
/// different commands of one session is a caller bug the session cannot
/// detect.
pub struct SimSession {
    instance: Instance,
    scratch: SimScratch,
    saved: SuspendedLane,
    cfg: SimConfig,
}

impl SimSession {
    /// Open a session on `tree` with no jobs yet, its nodes running at
    /// `speeds`. Jobs enter only via [`SimSession::submit`], so the
    /// session always runs in the identical-endpoint, root-released
    /// setting (the only one whose lookup tables survive topology
    /// mutations — the same restriction offline runs with a mutation
    /// schedule have). [`SpeedProfile::Explicit`] is rejected: a
    /// mutation may add nodes the table cannot cover.
    pub fn new(tree: Tree, speeds: SpeedProfile) -> Result<SimSession, SessionError> {
        if matches!(speeds, SpeedProfile::Explicit(_)) {
            return Err(SessionError::Unsupported(
                "explicit speed tables (a mutation may add nodes the table cannot cover)",
            ));
        }
        let instance = Instance::new(tree, Vec::new()).map_err(SessionError::Core)?;
        // Sessions have no event budget.
        let cfg = SimConfig {
            max_events: u64::MAX,
            ..SimConfig::with_speeds(speeds)
        };
        let mut scratch = SimScratch::new();
        // Aggregates are always tracked (any policy may query them), and
        // the lane is dynamic: it owns a mutable topology from the start.
        let saved = RunLane::start(&mut scratch, &instance, true, true, &cfg)
            .map_err(SessionError::Sim)?
            .suspend(&mut scratch);
        Ok(SimSession {
            instance,
            scratch,
            saved,
            cfg,
        })
    }

    /// Resume the suspended lane, run `f` on it, and suspend it again,
    /// whatever `f` returns.
    fn with_lane<R>(&mut self, f: impl FnOnce(&mut RunLane<'_>, &SimConfig) -> R) -> R {
        let mut lane = RunLane::resume(&mut self.scratch, &self.instance, true, &self.saved);
        let r = f(&mut lane, &self.cfg);
        self.saved = lane.suspend(&mut self.scratch);
        r
    }

    /// Submit a job released at `release` (≥ the session clock) with
    /// processing requirement `size`: the lane runs to `release`, so
    /// pending completions up to then go first and the assignment
    /// policy picks a leaf against the settled queues — exactly an
    /// offline run's arrival. Returns the job's id and assigned leaf.
    ///
    /// On [`SimError::AssignmentNotALeaf`] the job stays registered but
    /// never admitted (deterministically reproduced by a replay); all
    /// other errors leave the session untouched.
    pub fn submit(
        &mut self,
        release: Time,
        size: Time,
        node_policy: &dyn NodePolicy,
        assignment: &mut dyn AssignmentPolicy,
    ) -> Result<(JobId, NodeId), SessionError> {
        if release < self.saved.now {
            return Err(SessionError::TimeRegression {
                now: self.saved.now,
                at: release,
            });
        }
        let job = self
            .instance
            .push_job(release, size)
            .map_err(SessionError::Core)?;
        self.with_lane(|lane, cfg| {
            lane.run_until(Some(release), node_policy, assignment, &mut NoProbe, cfg)
                .map_err(SessionError::Sim)?;
            // bct-lint: allow(p1) -- invariant: running to `release` processes the arrival of the job released then, which admits it
            let leaf = lane.state().view().assigned_leaf(job).expect("the arrival ran");
            Ok((job, leaf))
        })
    }

    /// Advance the session clock to `t`, running every pending hop
    /// completion at times `≤ t` and integrating the objectives.
    pub fn tick(
        &mut self,
        t: Time,
        node_policy: &dyn NodePolicy,
        assignment: &mut dyn AssignmentPolicy,
    ) -> Result<(), SessionError> {
        if !(t.is_finite() && t >= 0.0) {
            return Err(SessionError::BadTime(t));
        }
        if t < self.saved.now {
            return Err(SessionError::TimeRegression {
                now: self.saved.now,
                at: t,
            });
        }
        self.with_lane(|lane, cfg| {
            lane.run_until(Some(t), node_policy, assignment, &mut NoProbe, cfg)
                .map_err(SessionError::Sim)
        })
    }

    /// Apply a topology mutation at the session's current time. The
    /// mutation is validated against a staged copy of the tree first,
    /// so a rejected mutation leaves the session untouched (unlike an
    /// offline run, whose mid-run mutation failures abort the whole
    /// run). Returns the new topology epoch.
    ///
    /// In-flight jobs whose leaf disappears are drained and
    /// re-dispatched through `assignment`, exactly as in an offline
    /// run's mutation event; a non-leaf re-assignment surfaces as
    /// [`SimError::AssignmentNotALeaf`] and leaves the session in the
    /// partially redispatched (but still deterministic) state.
    pub fn mutate(
        &mut self,
        change: TreeMutation,
        node_policy: &dyn NodePolicy,
        assignment: &mut dyn AssignmentPolicy,
    ) -> Result<u64, SessionError> {
        {
            // bct-lint: allow(a2) -- mutation staging validates on a throwaway copy; mutations are rare control events, not `Service::apply`'s steady state
            let mut staged = self.tree().clone();
            staged.queue_mutation(change);
            staged
                .apply_mutations()
                .map_err(|e| SessionError::Sim(SimError::BadMutation(e)))?;
        }
        self.with_lane(|lane, cfg| {
            lane.apply_mutation(change, node_policy, assignment, &mut NoProbe, cfg)
                .map(|()| lane.state().tree().epoch())
                .map_err(SessionError::Sim)
        })
    }

    /// Deterministic FNV-1a digest of the complete live state (topology
    /// structure, clock, objective accumulators, every job column,
    /// per-node scheduling state, queue memberships, speeds). Two
    /// sessions that fed the same commands to the same policies fold
    /// the same digest at every point — the serve layer's replay
    /// verifier is built on this. Allocation-free.
    pub fn state_hash(&mut self) -> u64 {
        self.with_lane(|lane, _| lane.state().state_digest())
    }

    /// Pre-reserve the pooled buffers for `jobs` more submissions whose
    /// root→leaf paths have at most `max_hops` nodes, so steady-state
    /// decisions allocate nothing. The job table takes `jobs` rows and
    /// `jobs·max_hops` hop slots. Each node's queue-membership list,
    /// waiting heap and aggregates take the node's share of the jobs,
    /// `⌈jobs·|L(v)|/|L|⌉` for the `L(v)` leaves below it: the shares
    /// sum to about `jobs` times the mean path length, not `jobs·|V|`.
    /// A queue that outgrows its share grows on demand.
    pub fn reserve(&mut self, jobs: usize, max_hops: usize) {
        self.instance.reserve_jobs(jobs);
        self.scratch.jobs.reserve_rows(jobs, max_hops);
        let tree = self.tree();
        let mut below = vec![0usize; tree.len()];
        for &leaf in tree.leaves() {
            for &v in tree.leaf_path(leaf) {
                below[v.as_usize()] += 1;
            }
        }
        let leaves = tree.num_leaves().max(1);
        for (v, &n) in below.iter().enumerate() {
            let share = (jobs * n).div_ceil(leaves);
            self.scratch.q_members[v].reserve(share);
            self.scratch.nodes[v].heap.reserve(share);
            self.scratch.aggs.reserve(v, share);
        }
        // Pending finish events are bounded by busy nodes, but stale
        // (version-superseded) entries linger until popped; give them
        // headroom proportional to the tree.
        self.scratch.evq.reserve(4 * self.scratch.nodes.len().max(16));
    }

    /// The tree the session currently schedules against (reflecting
    /// every applied mutation).
    pub fn tree(&self) -> &Tree {
        match &self.scratch.topo {
            Some(t) => t,
            // Unreachable in practice: a suspended lane always owns its
            // topology. The instance's epoch-0 tree is the safe fallback.
            None => self.instance.tree(),
        }
    }

    /// Current topology epoch.
    pub fn epoch(&self) -> u64 {
        self.tree().epoch()
    }

    /// The session clock: the time of the latest command effect.
    pub fn now(&self) -> Time {
        self.saved.now
    }

    /// Jobs submitted so far (including any rejected by assignment).
    pub fn jobs_submitted(&self) -> usize {
        self.instance.n()
    }

    /// Jobs that completed their leaf hop.
    pub fn completed(&self) -> usize {
        self.saved.completed
    }

    /// Admitted jobs not yet complete.
    pub fn unfinished(&self) -> usize {
        self.saved.unfinished
    }

    /// Accumulated fractional-flow integral up to the session clock.
    pub fn fractional_flow(&self) -> f64 {
        self.saved.frac_integral
    }

    /// Accumulated `∫ #unfinished dt` up to the session clock.
    pub fn count_integral(&self) -> f64 {
        self.saved.count_integral
    }

    /// Completion time of `job`, if it has finished.
    pub fn completion(&self, job: JobId) -> Option<Time> {
        self.scratch.jobs.completion_time(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation, TopoMutation};
    use crate::policy::{AssignmentPolicy, KeyCtx, PolicyKey, Probe};
    use crate::state::SimView;
    use bct_core::tree::TreeBuilder;
    use bct_core::Job;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    struct Sjf;
    impl NodePolicy for Sjf {
        fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
            PolicyKey::new(
                ctx.instance.p(ctx.job, ctx.node),
                ctx.instance.job(ctx.job).release,
                ctx.job.0,
            )
        }
    }

    /// Deterministic stateless spreader: job id modulo the live leaf list.
    struct RoundLeaf;
    impl AssignmentPolicy for RoundLeaf {
        fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
            let leaves = view.tree().leaves();
            leaves[job.as_usize() % leaves.len()]
        }
        fn needs_aggregates(&self) -> bool {
            false
        }
    }

    fn two_level_tree() -> Tree {
        // root -> {r1, r2}; r1 -> {a, b}; r2 -> {c}; a,b,c leaves.
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r1);
        b.add_child(r1);
        b.add_child(r2);
        b.build().unwrap()
    }

    fn batch_jobs() -> Vec<Job> {
        (0..40u32)
            .map(|i| Job::identical(i, f64::from(i) * 0.7, 1.0 + f64::from(i % 5)))
            .collect()
    }

    /// Records each arrival's leaf in an offline run.
    struct Arrivals(Vec<Option<NodeId>>);
    impl Probe for Arrivals {
        fn on_arrival(&mut self, _: &SimView<'_>, job: JobId, leaf: NodeId) {
            self.0[job.as_usize()] = Some(leaf);
        }
        fn needs_aggregates(&self) -> bool {
            false
        }
    }

    /// Feed `jobs` and `muts` to a session as a client would — before
    /// each submit, tick to and apply every mutation due by its release
    /// — and assert that it reproduces the offline run of the same
    /// instance and schedule bit for bit: every arrival's leaf, every
    /// completion, both objective integrals. Returns the epoch reached.
    fn assert_session_matches_run<A: AssignmentPolicy>(
        tree: Tree,
        speeds: SpeedProfile,
        jobs: &[Job],
        muts: &[TopoMutation],
        policy: impl Fn() -> A,
    ) -> u64 {
        let inst = Instance::new(tree.clone(), jobs.to_vec()).unwrap();
        let cfg = SimConfig::with_speeds(speeds.clone()).with_mutations(muts.to_vec());
        let mut arrivals = Arrivals(vec![None; jobs.len()]);
        let out = Simulation::run(&inst, &Sjf, &mut policy(), &mut arrivals, &cfg).unwrap();

        let mut s = SimSession::new(tree, speeds).unwrap();
        let mut asg = policy();
        let mut pending = muts.iter().peekable();
        for j in jobs {
            while let Some(tm) = pending.next_if(|tm| tm.at <= j.release) {
                s.tick(tm.at, &Sjf, &mut asg).unwrap();
                s.mutate(tm.change, &Sjf, &mut asg).unwrap();
            }
            let (id, leaf) = s.submit(j.release, j.size, &Sjf, &mut asg).unwrap();
            assert_eq!(Some(leaf), arrivals.0[id.as_usize()], "job {id}'s leaf");
        }
        for tm in pending {
            s.tick(tm.at, &Sjf, &mut asg).unwrap();
            s.mutate(tm.change, &Sjf, &mut asg).unwrap();
        }
        // Advance to exactly the offline run's end so the objective
        // integrals cover the same interval (a residual frac_sum of a
        // few ulps integrates over any extra time).
        s.tick(out.makespan, &Sjf, &mut asg).unwrap();
        for (i, c) in out.completions.iter().enumerate() {
            assert_eq!(s.completion(JobId(i as u32)), *c, "job {i}");
        }
        assert_eq!(s.unfinished(), out.unfinished);
        assert_eq!(s.completed(), jobs.len() - out.unfinished);
        assert_eq!(s.fractional_flow().to_bits(), out.fractional_flow.to_bits());
        assert_eq!(s.count_integral().to_bits(), out.count_integral.to_bits());
        assert_eq!(s.epoch(), muts.len() as u64, "every scheduled mutation applies");
        s.epoch()
    }

    #[test]
    fn session_matches_batch_run_exactly() {
        let tree = two_level_tree();
        let epoch =
            assert_session_matches_run(tree, SpeedProfile::unit(), &batch_jobs(), &[], || RoundLeaf);
        assert_eq!(epoch, 0);
    }

    #[test]
    fn session_matches_batch_run_with_mutations() {
        // Mutation times chosen off every event time so the offline
        // tie-rule (mutations before completions at equal times) and
        // the session's command ordering coincide.
        let muts = [
            TopoMutation {
                at: 3.1415,
                change: TreeMutation::AddLeaf { parent: NodeId(2) },
            },
            TopoMutation {
                at: 7.7182,
                change: TreeMutation::RemoveLeaf { leaf: NodeId(3) },
            },
            TopoMutation {
                at: 11.0101,
                change: TreeMutation::SetSpeed {
                    node: NodeId(4),
                    factor: 2.5,
                },
            },
        ];
        let tree = two_level_tree();
        let epoch =
            assert_session_matches_run(tree, SpeedProfile::unit(), &batch_jobs(), &muts, || RoundLeaf);
        assert_eq!(epoch, 3);
    }

    /// Tree shapes for the random session-vs-run cases.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// `routers` root-adjacent nodes with `leaves` machines each.
        Star(usize, usize),
        /// Three levels: `a` routers, `b` children each, `c` machines
        /// under each child.
        FatTree(usize, usize, usize),
        /// 1–3 routers with a machine each, then 0–7 nodes hung under
        /// random non-root nodes.
        Random(u64),
    }

    impl Shape {
        fn build(self) -> Tree {
            let mut b = TreeBuilder::new();
            match self {
                Shape::Star(routers, leaves) => {
                    for _ in 0..routers {
                        let r = b.add_child(NodeId::ROOT);
                        for _ in 0..leaves {
                            b.add_child(r);
                        }
                    }
                }
                Shape::FatTree(a, bb, c) => {
                    for _ in 0..a {
                        let r = b.add_child(NodeId::ROOT);
                        for _ in 0..bb {
                            let m = b.add_child(r);
                            for _ in 0..c {
                                b.add_child(m);
                            }
                        }
                    }
                }
                Shape::Random(seed) => {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut nodes = Vec::new();
                    for _ in 0..rng.gen_range(1..4) {
                        let r = b.add_child(NodeId::ROOT);
                        nodes.extend([r, b.add_child(r)]);
                    }
                    for _ in 0..rng.gen_range(0..8) {
                        let p = nodes[rng.gen_range(0..nodes.len())];
                        nodes.push(b.add_child(p));
                    }
                }
            }
            b.build().unwrap()
        }
    }

    /// Least-loaded leaf: the work queued ahead of the job at its entry
    /// node (an aggregate query when `aggs`, else the entry queue's
    /// length) plus the leaf's queue length; ties to the lowest id.
    /// Every decision reads live queue state.
    struct LeastLoaded {
        aggs: bool,
    }
    impl AssignmentPolicy for LeastLoaded {
        fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
            let j = view.instance().job(job);
            let score = |leaf: NodeId| {
                let entry = view.entry_node(job, leaf);
                let ahead = if self.aggs {
                    view.volume_before(entry, j.size, j.release, job.0)
                } else {
                    view.q_len(entry) as f64
                };
                ahead + view.q_len(leaf) as f64
            };
            let leaves = view.tree().leaves().iter().copied();
            leaves.min_by(|&a, &b| score(a).total_cmp(&score(b)).then(a.cmp(&b))).unwrap()
        }
        fn needs_aggregates(&self) -> bool {
            self.aggs
        }
    }

    const PARETO_ALPHA: f64 = 2.2;

    /// One random session-vs-run case: Poisson arrivals at load `rho`
    /// over `pow:2,4` (sizes 1–16) or Pareto(2.2, 1) sizes, and up to
    /// six mutations at uniform random times (so never at an event
    /// time), each kept only if it applies to the tree as mutated so
    /// far.
    #[derive(Debug)]
    struct Case {
        shape: Shape,
        speed: f64,
        aggs: bool,
        jobs: Vec<Job>,
        muts: Vec<TopoMutation>,
    }

    fn case_strategy() -> impl Strategy<Value = Case> {
        (
            (0usize..3, 1usize..4, 1usize..4, 1usize..3),
            (0usize..3, any::<bool>(), any::<bool>(), any::<bool>()),
            (any::<u64>(), 1usize..50, 0usize..7),
        )
            .prop_map(|((kind, a, b, c), (rho, pareto, fast, aggs), (seed, n, n_muts))| {
                let shape = match kind {
                    0 => Shape::Star(a, b),
                    1 => Shape::FatTree(a, b, c),
                    _ => Shape::Random(seed),
                };
                let tree = shape.build();
                let rho = [0.5, 0.95, 2.0][rho];
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mean = if pareto { PARETO_ALPHA / (PARETO_ALPHA - 1.0) } else { 6.2 };
                let rate = rho * tree.root_adjacent().len() as f64 / mean;
                let mut t = 0.0;
                let jobs = (0..n as u32)
                    .map(|i| {
                        t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
                        let size = if pareto {
                            (1.0 - rng.gen_range(0.0..1.0f64)).powf(-1.0 / PARETO_ALPHA)
                        } else {
                            f64::from(1u32 << rng.gen_range(0..5))
                        };
                        Job::identical(i, t, size)
                    })
                    .collect();
                let mut times: Vec<f64> =
                    (0..n_muts).map(|_| rng.gen_range(0.0..1.2 * t)).collect();
                times.sort_by(f64::total_cmp);
                let mut stage = tree.clone();
                let mut muts = Vec::new();
                for at in times {
                    let live: Vec<NodeId> =
                        stage.nodes().filter(|&v| v != NodeId::ROOT && stage.is_alive(v)).collect();
                    let pick =
                        |pool: &[NodeId], rng: &mut ChaCha8Rng| pool[rng.gen_range(0..pool.len())];
                    let change = match rng.gen_range(0..4) {
                        0 => {
                            let routers: Vec<NodeId> =
                                live.iter().copied().filter(|&v| stage.is_router(v)).collect();
                            TreeMutation::AddLeaf { parent: pick(&routers, &mut rng) }
                        }
                        1 => TreeMutation::RemoveLeaf { leaf: pick(stage.leaves(), &mut rng) },
                        2 => TreeMutation::SetSpeed {
                            node: pick(&live, &mut rng),
                            factor: [0.5, 1.5, 2.5][rng.gen_range(0..3)],
                        },
                        _ => TreeMutation::FailNode { node: pick(&live, &mut rng) },
                    };
                    stage.queue_mutation(change);
                    if stage.apply_mutations().is_ok() {
                        muts.push(TopoMutation { at, change });
                    }
                }
                Case {
                    shape,
                    speed: if fast { 1.5 } else { 1.0 },
                    aggs,
                    jobs,
                    muts,
                }
            })
    }

    const CASES: u32 = 128;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// A session fed an offline run's arrivals and mutations, on
        /// random trees, sizes, loads and speeds, reproduces the run.
        #[test]
        fn session_matches_offline_run_on_random_inputs(case in case_strategy()) {
            assert_session_matches_run(
                case.shape.build(),
                SpeedProfile::Uniform(case.speed),
                &case.jobs,
                &case.muts,
                || LeastLoaded { aggs: case.aggs },
            );
        }
    }

    /// Guard on the property above: most of its cases apply at least
    /// one mutation (the property asserts every scheduled one applies).
    #[test]
    fn most_random_cases_apply_a_mutation() {
        let strategy = case_strategy();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mutated = (0..CASES).filter(|_| !strategy.generate(&mut rng).muts.is_empty()).count();
        assert!(2 * mutated > CASES as usize, "{mutated} of {CASES} cases mutate");
    }

    #[test]
    fn state_hash_is_deterministic_and_sensitive() {
        let run = |n: u32| {
            let mut s = SimSession::new(two_level_tree(), SpeedProfile::unit()).unwrap();
            let mut asg = RoundLeaf;
            for i in 0..n {
                s.submit(f64::from(i) * 0.5, 2.0, &Sjf, &mut asg).unwrap();
            }
            s.state_hash()
        };
        assert_eq!(run(10), run(10), "same commands, same hash");
        assert_ne!(run(10), run(11), "extra command moves the hash");

        // The hash is a pure read: probing twice changes nothing.
        let mut s = SimSession::new(two_level_tree(), SpeedProfile::unit()).unwrap();
        let mut asg = RoundLeaf;
        s.submit(0.0, 2.0, &Sjf, &mut asg).unwrap();
        assert_eq!(s.state_hash(), s.state_hash());
        s.tick(100.0, &Sjf, &mut asg).unwrap();
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn rejects_time_regressions_and_bad_jobs() {
        let mut s = SimSession::new(two_level_tree(), SpeedProfile::unit()).unwrap();
        let mut asg = RoundLeaf;
        s.submit(5.0, 1.0, &Sjf, &mut asg).unwrap();
        let h = s.state_hash();
        assert!(matches!(
            s.submit(4.0, 1.0, &Sjf, &mut asg),
            Err(SessionError::TimeRegression { .. })
        ));
        assert!(matches!(
            s.tick(1.0, &Sjf, &mut asg),
            Err(SessionError::TimeRegression { .. })
        ));
        assert!(matches!(
            s.submit(6.0, -1.0, &Sjf, &mut asg),
            Err(SessionError::Core(_))
        ));
        assert!(matches!(
            s.tick(f64::NAN, &Sjf, &mut asg),
            Err(SessionError::BadTime(_))
        ));
        assert_eq!(s.state_hash(), h, "rejected commands leave state untouched");
    }

    #[test]
    fn failed_mutation_leaves_session_untouched() {
        let mut s = SimSession::new(two_level_tree(), SpeedProfile::unit()).unwrap();
        let mut asg = RoundLeaf;
        s.submit(0.0, 3.0, &Sjf, &mut asg).unwrap();
        let h = s.state_hash();
        // Adding under a leaf is invalid; so is removing the root.
        assert!(matches!(
            s.mutate(TreeMutation::AddLeaf { parent: NodeId(3) }, &Sjf, &mut asg),
            Err(SessionError::Sim(SimError::BadMutation(_)))
        ));
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.state_hash(), h);
    }

    /// `reserve` sizes each node's queue list, waiting heap and
    /// aggregates for the node's share of the jobs: the summed capacity
    /// of each is `O(jobs·hops + |V|)`, not `jobs·|V|`, and a node never
    /// gets less than its share.
    #[test]
    fn reserve_sizes_node_queues_by_leaf_share() {
        let tree = Shape::FatTree(4, 4, 4).build();
        let (nodes, leaves) = (tree.len(), tree.num_leaves());
        let (jobs, hops) = (1000, 3);
        let mut s = SimSession::new(tree.clone(), SpeedProfile::unit()).unwrap();
        s.reserve(jobs, hops);
        let sc = &s.scratch;
        let bound = 2 * (jobs * hops + nodes);
        let total = |cap: &dyn Fn(usize) -> usize| (0..nodes).map(cap).sum::<usize>();
        let sums = [
            ("queue lists", total(&|v| sc.q_members[v].capacity())),
            ("heaps", total(&|v| sc.nodes[v].heap.capacity())),
            ("aggregates", total(&|v| sc.aggs.capacity(v))),
        ];
        for (what, sum) in sums {
            assert!(
                sum <= bound,
                "{what}: {sum} slots for {jobs} jobs x {hops} hops"
            );
        }
        let entries = tree.root_adjacent().iter().map(|&r| (r, jobs / 4));
        let ends = tree.leaves().iter().map(|&l| (l, jobs.div_ceil(leaves)));
        for (v, share) in entries.chain(ends) {
            let v = v.as_usize();
            assert!(sc.q_members[v].capacity() >= share, "queue list of {v}");
            assert!(sc.nodes[v].heap.capacity() >= share, "heap of {v}");
            assert!(sc.aggs.capacity(v) >= share, "aggregates of {v}");
        }
    }

    #[test]
    fn explicit_speeds_rejected() {
        assert!(matches!(
            SimSession::new(two_level_tree(), SpeedProfile::Explicit(vec![1.0; 6])),
            Err(SessionError::Unsupported(_))
        ));
    }
}
