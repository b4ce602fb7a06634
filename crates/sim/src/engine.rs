//! The event-driven engine.

use crate::agg::AggLayout;
use crate::evq::{EventQueue, EventQueueKind, FinishEv};
use crate::outcome::{HopFinishes, SimOutcome};
use crate::policy::{NodePolicy, Probe, StatefulPolicy};
use crate::scratch::SimScratch;
use crate::state::SimState;
use crate::trace::{Trace, TraceKind};
use bct_core::{
    ClassRounding, CoreError, Instance, JobId, NodeId, Setting, SpeedProfile, Time, TreeMutation,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::mem;

/// Sentinel node id carried by topology-mutation events in the pending
/// queue. Real node ids are dense from zero, so `u32::MAX` can never
/// collide with one; the event's `version` field holds the mutation's
/// schedule index instead of a node version.
const TOPO_NODE: NodeId = NodeId(u32::MAX);

/// A scheduled topology mutation: apply `change` to the run's owned
/// tree at time `at`. At equal times, mutations are processed before
/// hop completions and arrivals, in schedule order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopoMutation {
    /// When the mutation takes effect.
    pub at: Time,
    /// What changes.
    pub change: TreeMutation,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-node speeds (resource augmentation over the adversary).
    pub speeds: SpeedProfile,
    /// Record a full [`Trace`] in the outcome.
    pub record_trace: bool,
    /// Stop at this time, leaving later work unfinished.
    pub horizon: Option<Time>,
    /// Hard cap on processed events (runaway guard).
    pub max_events: u64,
    /// Class rounding the per-node queue aggregates are keyed by
    /// (`None` = raw sizes). Dispatch policies whose own rounding
    /// matches get `O(log)` scoring queries instead of queue scans.
    pub dispatch_rounding: Option<ClassRounding>,
    /// Pending-event queue implementation. The calendar queue (default)
    /// and the binary heap pop in the same order, so outputs are
    /// byte-identical; the heap is kept as the differential oracle.
    pub event_queue: EventQueueKind,
    /// Queue-aggregate layout. The flat layout (default) and the treap
    /// answer queries in different float-summation orders, so greedy
    /// scores may differ in final bits on non-dyadic sizes; the treap
    /// is kept as the differential oracle.
    pub aggregates: AggLayout,
    /// Topology mutation schedule, sorted by time. Empty (the default)
    /// keeps the run fully static on the instance's tree — the
    /// pre-dynamic code path, byte-identical outputs included. A
    /// non-empty schedule requires root-released jobs and identical
    /// endpoints, and rejects [`SpeedProfile::Explicit`] when the
    /// schedule adds leaves (the table cannot cover nodes that don't
    /// exist yet).
    pub mutations: Vec<TopoMutation>,
}

impl SimConfig {
    /// Unit speeds, no trace, no horizon.
    pub fn unit() -> SimConfig {
        SimConfig::with_speeds(SpeedProfile::unit())
    }

    /// Given speeds, no trace, no horizon.
    pub fn with_speeds(speeds: SpeedProfile) -> SimConfig {
        SimConfig {
            speeds,
            record_trace: false,
            horizon: None,
            max_events: 1 << 34,
            dispatch_rounding: None,
            event_queue: EventQueueKind::default(),
            aggregates: AggLayout::default(),
            mutations: Vec::new(),
        }
    }

    /// Enable trace recording.
    pub fn traced(mut self) -> SimConfig {
        self.record_trace = true;
        self
    }

    /// Key the queue aggregates by class index under `rounding`.
    pub fn with_dispatch_rounding(mut self, rounding: ClassRounding) -> SimConfig {
        self.dispatch_rounding = Some(rounding);
        self
    }

    /// Select the pending-event queue implementation.
    pub fn with_event_queue(mut self, kind: EventQueueKind) -> SimConfig {
        self.event_queue = kind;
        self
    }

    /// Select the queue-aggregate layout.
    pub fn with_aggregates(mut self, layout: AggLayout) -> SimConfig {
        self.aggregates = layout;
        self
    }

    /// Schedule topology mutations (must be sorted by time; validated
    /// at run start).
    pub fn with_mutations(mut self, mutations: Vec<TopoMutation>) -> SimConfig {
        self.mutations = mutations;
        self
    }

    /// Compat mode: the binary event heap and the treap aggregates —
    /// the oracle configuration the differential suite compares the
    /// defaults against.
    pub fn compat_structures(self) -> SimConfig {
        self.with_event_queue(EventQueueKind::BinaryHeap)
            .with_aggregates(AggLayout::Treap)
    }
}

/// Errors the engine can report.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// Invalid speed profile for the instance's tree.
    BadSpeeds(CoreError),
    /// The assignment policy returned a non-leaf node.
    AssignmentNotALeaf {
        /// The offending job.
        job: JobId,
        /// What the policy returned.
        node: NodeId,
    },
    /// `max_events` exceeded — almost certainly an engine or policy bug.
    EventBudgetExceeded(u64),
    /// A scheduled topology mutation failed to apply mid-run.
    BadMutation(CoreError),
    /// The configuration combines a mutation schedule with a feature
    /// the dynamic-topology engine does not support.
    DynamicUnsupported(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadSpeeds(e) => write!(f, "bad speed profile: {e}"),
            SimError::AssignmentNotALeaf { job, node } => {
                write!(f, "assignment policy sent {job} to non-leaf {node}")
            }
            SimError::EventBudgetExceeded(n) => write!(f, "exceeded event budget of {n}"),
            SimError::BadMutation(e) => write!(f, "topology mutation failed: {e}"),
            SimError::DynamicUnsupported(what) => {
                write!(f, "mutation schedules do not support {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The simulator. Stateless handle; [`Simulation::run`] owns a run.
///
/// ```
/// use bct_core::tree::TreeBuilder;
/// use bct_core::{Instance, Job, NodeId};
/// use bct_sim::policy::{NoProbe, NodePolicy, AssignmentPolicy, KeyCtx, PolicyKey};
/// use bct_sim::{SimConfig, SimView, Simulation};
///
/// // root -> router -> machine, one job of size 2.
/// let mut b = TreeBuilder::new();
/// let r = b.add_child(NodeId::ROOT);
/// let leaf = b.add_child(r);
/// let inst = Instance::new(b.build()?, vec![Job::identical(0u32, 0.0, 2.0)])?;
///
/// struct Sjf;
/// impl NodePolicy for Sjf {
///     fn name(&self) -> &'static str { "sjf" }
///     fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
///         PolicyKey::new(ctx.instance.p(ctx.job, ctx.node),
///                        ctx.instance.job(ctx.job).release, ctx.job.0)
///     }
/// }
/// struct ToLeaf(NodeId);
/// impl AssignmentPolicy for ToLeaf {
///     fn name(&self) -> &'static str { "fixed" }
///     fn assign(&mut self, _: &SimView<'_>, _: bct_core::JobId) -> NodeId { self.0 }
/// }
///
/// let out = Simulation::run(&inst, &Sjf, &mut ToLeaf(leaf), &mut NoProbe,
///                           &SimConfig::unit())?;
/// assert_eq!(out.completions[0], Some(4.0)); // 2 on the router + 2 at the leaf
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulation;

impl Simulation {
    /// Simulate `instance` under the given node policy and assignment
    /// policy, observing with `probe`.
    ///
    /// One-shot convenience over [`Simulation::run_with_scratch`] with a
    /// throwaway [`SimScratch`].
    pub fn run<N: NodePolicy + ?Sized, A: StatefulPolicy + ?Sized, P: Probe + ?Sized>(
        instance: &Instance,
        node_policy: &N,
        assignment: &mut A,
        probe: &mut P,
        cfg: &SimConfig,
    ) -> Result<SimOutcome, SimError> {
        let mut scratch = SimScratch::new();
        Self::run_with_scratch(&mut scratch, instance, node_policy, assignment, probe, cfg)
    }

    /// [`Simulation::run`], reusing `scratch`'s buffers. Repeated runs
    /// over the same topology shape are allocation-free in steady state
    /// (pair with [`SimScratch::recycle`] to also reuse the outcome
    /// vectors). Results are bit-identical to a fresh run — the
    /// aggregate treap re-seeds its priority stream on reset.
    pub fn run_with_scratch<N: NodePolicy + ?Sized, A: StatefulPolicy + ?Sized, P: Probe + ?Sized>(
        scratch: &mut SimScratch,
        instance: &Instance,
        node_policy: &N,
        assignment: &mut A,
        probe: &mut P,
        cfg: &SimConfig,
    ) -> Result<SimOutcome, SimError> {
        // Queue aggregates only answer view queries; skip maintaining
        // them when nobody in this run will ask.
        let track_aggs = assignment.needs_aggregates() || probe.needs_aggregates();
        let dynamic = !cfg.mutations.is_empty();
        let mut lane = RunLane::start(scratch, instance, track_aggs, dynamic, cfg)?;
        match lane.run_until(cfg.horizon, node_policy, assignment, probe, cfg) {
            Ok(()) => Ok(lane.finish(scratch)),
            Err(e) => {
                lane.abort(scratch);
                Err(e)
            }
        }
    }

    /// Check a mutation schedule against the engine's dynamic-topology
    /// restrictions before any buffer is touched.
    fn validate_dynamic(instance: &Instance, cfg: &SimConfig) -> Result<(), SimError> {
        if instance.has_origins() {
            return Err(SimError::DynamicUnsupported(
                "origin-released jobs (their path caches are per-epoch)",
            ));
        }
        if instance.setting() == Setting::Unrelated {
            return Err(SimError::DynamicUnsupported(
                "unrelated endpoints (leaf-size tables cannot cover a changing leaf set)",
            ));
        }
        let mut prev = 0.0;
        for tm in &cfg.mutations {
            if !(tm.at >= 0.0 && tm.at.is_finite()) {
                return Err(SimError::DynamicUnsupported(
                    "non-finite or negative mutation times",
                ));
            }
            if tm.at < prev {
                return Err(SimError::DynamicUnsupported(
                    "unsorted mutation schedules (sort by time first)",
                ));
            }
            prev = tm.at;
            if matches!(tm.change, TreeMutation::AddLeaf { .. })
                && matches!(cfg.speeds, SpeedProfile::Explicit(_))
            {
                return Err(SimError::DynamicUnsupported(
                    "explicit speed tables together with AddLeaf (the table cannot cover \
                     nodes that do not exist yet)",
                ));
            }
        }
        Ok(())
    }

    /// Offer `job` to `node`; if the node's current job changed,
    /// trace the preemption/start and (re-)schedule the finish event.
    // bct-lint: no_alloc
    fn offer<N: NodePolicy + ?Sized>(
        st: &mut SimState<'_>,
        node: NodeId,
        job: JobId,
        node_policy: &N,
        trace: &mut Option<Trace>,
        evq: &mut EventQueue,
    ) {
        let prev = st.view().current_job(node);
        let changed = st.enqueue(node, job, node_policy);
        if changed {
            if let (Some(tr), Some(p)) = (trace.as_mut(), prev) {
                tr.push(st.view().now(), node, p, TraceKind::Preempt);
            }
            Self::schedule_current(st, node, trace, evq);
        }
    }

    /// Trace the start of `node`'s current job and push its finish event.
    // bct-lint: no_alloc
    fn schedule_current(
        st: &mut SimState<'_>,
        node: NodeId,
        trace: &mut Option<Trace>,
        evq: &mut EventQueue,
    ) {
        let now = st.view().now();
        let (Some(j), Some(t_fin)) = (st.view().current_job(node), st.predicted_finish(node))
        else {
            debug_assert!(false, "schedule_current called on an idle node");
            return;
        };
        if let Some(tr) = trace.as_mut() {
            tr.push(now, node, j, TraceKind::Start);
        }
        let version = st.node_version(node);
        evq.push(t_fin.max(now), node, version);
    }

    /// Assemble the outcome from the pooled buffers, then hand the
    /// state's buffers back to `scratch`.
    fn collect(
        st: SimState<'_>,
        scratch: &mut SimScratch,
        trace: Option<Trace>,
        events: u64,
    ) -> SimOutcome {
        let n = st.view().instance().n();
        let mut completions = mem::take(&mut scratch.completions);
        completions.clear();
        let mut assignments = mem::take(&mut scratch.assignments);
        assignments.clear();
        let mut offsets = mem::take(&mut scratch.hop_offsets);
        offsets.clear();
        let mut times = mem::take(&mut scratch.hop_times);
        times.clear();
        offsets.push(0);
        for j in 0..n as u32 {
            let j = JobId(j);
            completions.push(st.view().completion(j));
            assignments.push(st.view().assigned_leaf(j));
            times.extend_from_slice(st.hop_finishes_of(j));
            offsets.push(times.len() as u32);
        }
        let mut node_busy = mem::take(&mut scratch.node_busy);
        st.node_busy_into(&mut node_busy);
        let unfinished = completions.iter().filter(|c| c.is_none()).count();
        let fractional_flow = st.frac_integral();
        let count_integral = st.count_integral();
        let makespan = st.view().now();
        st.release_into(scratch);
        SimOutcome {
            completions,
            assignments,
            hop_finishes: HopFinishes::from_parts(offsets, times),
            fractional_flow,
            count_integral,
            node_busy,
            events,
            makespan,
            unfinished,
            trace,
        }
    }
}

/// What a suspended [`RunLane`] keeps outside the pooled buffers it
/// hands back to [`SimScratch`]: the clock, the objective accumulators,
/// the job counters, the arrival cursor and the event count.
/// [`RunLane::suspend`] saves them, [`RunLane::resume`] restores them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SuspendedLane {
    pub now: Time,
    frac_sum: f64,
    frac_rate: f64,
    pub frac_integral: f64,
    pub count_integral: f64,
    pub unfinished: usize,
    pub completed: usize,
    next_arrival: usize,
    events: u64,
}

/// The engine's one event loop: the state a run threads through its
/// events, reified so the loop can stop at any time and go on later.
/// [`RunLane::start`] takes the scratch's buffers and
/// [`RunLane::run_until`] processes every event up to a time, one
/// [`RunLane::step`] at a time. [`Simulation::run_with_scratch`] runs
/// a lane to its horizon, then [`RunLane::finish`] (or
/// [`RunLane::abort`] after an error) hands every buffer back. A
/// [`crate::SimSession`] instead [`RunLane::suspend`]s its lane between
/// commands and [`RunLane::resume`]s it for the next one.
pub(crate) struct RunLane<'a> {
    instance: &'a Instance,
    st: SimState<'a>,
    evq: EventQueue,
    trace: Option<Trace>,
    /// Cursor into `instance.jobs()` (releases are validated
    /// non-decreasing, so arrivals never need the event queue).
    next_arrival: usize,
    events: u64,
    // Mutation-event work lists, held out of the scratch for the lane's
    // lifetime so `step` never needs the `SimScratch` itself.
    drained: Vec<(JobId, NodeId)>,
    freed: Vec<NodeId>,
    doomed: Vec<NodeId>,
}

impl<'a> RunLane<'a> {
    /// Validate the configuration and set up the lane's state from the
    /// scratch's pooled buffers. `dynamic` lanes own a mutable copy of
    /// the instance's tree. On error the scratch is left intact.
    pub(crate) fn start(
        scratch: &mut SimScratch,
        instance: &'a Instance,
        track_aggs: bool,
        dynamic: bool,
        cfg: &SimConfig,
    ) -> Result<RunLane<'a>, SimError> {
        if dynamic {
            Simulation::validate_dynamic(instance, cfg)?;
        }
        cfg.speeds
            .materialize_into(instance.tree(), &mut scratch.speeds)
            .map_err(SimError::BadSpeeds)?;
        let st = SimState::from_scratch(
            instance,
            cfg.dispatch_rounding,
            track_aggs,
            cfg.aggregates,
            dynamic,
            scratch,
        );
        let trace = cfg.record_trace.then(Trace::default);
        let mut evq = mem::take(&mut scratch.evq);
        evq.reset(cfg.event_queue);
        // Topology mutations ride the pending-event queue as sentinel
        // events (node = TOPO_NODE, version = schedule index). Pushed
        // first, they take the smallest sequence numbers, so at equal
        // times a mutation pops before any hop completion — and the
        // finish-before-arrival tie rule then puts it before arrivals
        // too: mutations > completions > arrivals at one instant.
        for (i, tm) in cfg.mutations.iter().enumerate() {
            evq.push(tm.at, TOPO_NODE, i as u64);
        }
        Ok(RunLane {
            instance,
            st,
            evq,
            trace,
            next_arrival: 0,
            events: 0,
            drained: mem::take(&mut scratch.drained),
            freed: mem::take(&mut scratch.freed),
            doomed: mem::take(&mut scratch.doomed),
        })
    }

    /// Re-animate a suspended dynamic lane over `instance`: take the
    /// buffers back out of `scratch` *without* resetting them, grow the
    /// job table for jobs appended to the instance since the suspend,
    /// and restore the scalars. The live topology is taken from
    /// `scratch.topo` as-is, never re-cloned from the instance, whose
    /// tree is frozen at the epoch the lane started. Suspended lanes
    /// record no trace.
    // bct-lint: no_alloc
    pub(crate) fn resume(
        scratch: &mut SimScratch,
        instance: &'a Instance,
        track_aggs: bool,
        cfg: &SimConfig,
        saved: &SuspendedLane,
    ) -> RunLane<'a> {
        let mut jobs = mem::take(&mut scratch.jobs);
        for job in &instance.jobs()[jobs.len()..] {
            jobs.push_job(job);
        }
        let topo = scratch.topo.take();
        debug_assert!(topo.is_some(), "a suspended lane always owns its topology");
        let st = SimState {
            instance,
            topo,
            speeds: mem::take(&mut scratch.speeds),
            now: saved.now,
            nodes: mem::take(&mut scratch.nodes),
            jobs,
            q_members: mem::take(&mut scratch.q_members),
            aggs: mem::take(&mut scratch.aggs),
            rounding: cfg.dispatch_rounding,
            track_aggs,
            identical: instance.setting() == Setting::Identical,
            frac_sum: saved.frac_sum,
            frac_rate: saved.frac_rate,
            frac_integral: saved.frac_integral,
            count_integral: saved.count_integral,
            unfinished: saved.unfinished,
            completed: saved.completed,
        };
        RunLane {
            instance,
            st,
            evq: mem::take(&mut scratch.evq),
            trace: None,
            next_arrival: saved.next_arrival,
            events: saved.events,
            drained: mem::take(&mut scratch.drained),
            freed: mem::take(&mut scratch.freed),
            doomed: mem::take(&mut scratch.doomed),
        }
    }

    /// Suspend the lane: save its scalars for [`RunLane::resume`] and
    /// hand every buffer back to `scratch` untouched.
    // bct-lint: no_alloc
    pub(crate) fn suspend(self, scratch: &mut SimScratch) -> SuspendedLane {
        let st = &self.st;
        let saved = SuspendedLane {
            now: st.now,
            frac_sum: st.frac_sum,
            frac_rate: st.frac_rate,
            frac_integral: st.frac_integral,
            count_integral: st.count_integral,
            unfinished: st.unfinished,
            completed: st.completed,
            next_arrival: self.next_arrival,
            events: self.events,
        };
        self.abort(scratch);
        saved
    }

    /// The lane's live state, read-only.
    pub(crate) fn state(&self) -> &SimState<'a> {
        &self.st
    }

    /// Process every event at or before `until` (every event, if
    /// `None`), then advance the clock to `until`, integrating the
    /// objectives over the idle tail. After an `Err` an offline run's
    /// lane must be retired with [`RunLane::abort`].
    // bct-lint: no_alloc
    pub(crate) fn run_until<N: NodePolicy + ?Sized, A: StatefulPolicy + ?Sized, P: Probe + ?Sized>(
        &mut self,
        until: Option<Time>,
        node_policy: &N,
        assignment: &mut A,
        probe: &mut P,
        cfg: &SimConfig,
    ) -> Result<(), SimError> {
        while self.step(until, node_policy, assignment, probe, cfg)? {}
        if let Some(h) = until {
            if self.st.view().now() < h {
                self.st.advance(h);
            }
        }
        Ok(())
    }

    /// Apply one topology mutation at the current time: drain every
    /// in-flight job whose leaf disappears (deterministically, in job-id
    /// order), mutate the owned tree, grow the node tables for added
    /// ids, let freed survivors pick new work, then redispatch the
    /// drained jobs through the assignment policy.
    pub(crate) fn apply_mutation<N: NodePolicy + ?Sized, A: StatefulPolicy + ?Sized>(
        &mut self,
        change: TreeMutation,
        node_policy: &N,
        assignment: &mut A,
        cfg: &SimConfig,
    ) -> Result<(), SimError> {
        let RunLane { st, trace, evq, drained, freed, doomed, .. } = self;
        let speeds = &cfg.speeds;
        let now = st.view().now();
        // 1. Which nodes disappear, and which in-flight jobs lose their
        //    leaf? (Computed before mutating — the subtree walk needs
        //    the pre-mutation children lists.)
        doomed.clear();
        match change {
            TreeMutation::RemoveLeaf { leaf } => doomed.push(leaf),
            TreeMutation::FailNode { node } => st.tree().subtree_into(node, doomed),
            TreeMutation::AddLeaf { .. } | TreeMutation::SetSpeed { .. } => {}
        }
        st.affected_jobs_into(doomed, drained);
        // 2. Drain them, remembering which live nodes lost their
        //    current job.
        freed.clear();
        for &(j, old_leaf) in drained.iter() {
            if let Some(v) = st.drain_job(j) {
                freed.push(v);
                // The node genuinely stopped processing; record it so
                // the trace's mutual-exclusion story stays closed.
                if let Some(tr) = trace.as_mut() {
                    tr.push(now, v, j, TraceKind::Preempt);
                }
            }
            assignment.on_drain(&st.view(), j, old_leaf);
        }
        // 3. Mutate the owned tree (incremental path-table recompute
        //    lives in bct-core). A failed mutation aborts the run.
        let receipt = {
            // bct-lint: allow(p1) -- invariant: mutations reach only dynamic lanes (a mutation schedule or a session), whose from_scratch installs topo
            let t = st.topo.as_mut().expect("topo events require a dynamic run");
            t.queue_mutation(change);
            t.apply_mutations()
        }
        .map_err(SimError::BadMutation)?;
        // 4. Cover added node ids: effective speeds (profile × factor),
        //    node states, queue memberships, aggregates.
        for &v in &receipt.added {
            debug_assert_eq!(st.speeds.len(), v.as_usize(), "added ids are dense");
            let s = speeds.speed_of(st.tree(), v);
            st.speeds.push(s);
        }
        st.grow_for_added();
        // 5. A speed change reprices the node's in-flight job: stale
        //    finish event out (version bump), fresh prediction in. No
        //    Start/Preempt trace — the job never stopped.
        if let TreeMutation::SetSpeed { node, .. } = change {
            let s = speeds.speed_of(st.tree(), node);
            if st.apply_speed_change(node, s) {
                // bct-lint: allow(p1) -- invariant: apply_speed_change returns true iff the node has a current job, which predicted_finish requires
                let t_fin = st.predicted_finish(node).expect("current implies a finish");
                evq.push(t_fin.max(now), node, st.node_version(node));
            }
        }
        // 6. Surviving nodes that lost their current job to the drain
        //    pull the next waiting job, in id order.
        freed.sort_unstable();
        for &v in freed.iter() {
            if st.tree().is_alive(v) && st.view().current_job(v).is_none() && st.pick_next(v) {
                Simulation::schedule_current(st, v, trace, evq);
            }
        }
        // 7. Tell the policy about the new epoch, then redispatch the
        //    drained jobs in id order. Each restarts from the root on
        //    its new path; partially processed work is forfeited.
        assignment.on_topo(&st.view());
        for &(j, _) in drained.iter() {
            let leaf = assignment.assign(&st.view(), j);
            if !st.tree().is_leaf(leaf) {
                return Err(SimError::AssignmentNotALeaf { job: j, node: leaf });
            }
            st.readmit(j, leaf);
            if let Some(tr) = trace.as_mut() {
                tr.push(now, leaf, j, TraceKind::Redispatch);
            }
            let first = st.view().path(j)[0];
            Simulation::offer(st, first, j, node_policy, trace, evq);
        }
        Ok(())
    }

    /// Process the next event (hop completion, arrival, or topology
    /// mutation) if it falls at or before `until`. Returns `Ok(true)` if
    /// an event was processed, `Ok(false)` when none is left by then.
    // bct-lint: no_alloc
    fn step<N: NodePolicy + ?Sized, A: StatefulPolicy + ?Sized, P: Probe + ?Sized>(
        &mut self,
        until: Option<Time>,
        node_policy: &N,
        assignment: &mut A,
        probe: &mut P,
        cfg: &SimConfig,
    ) -> Result<bool, SimError> {
        let jobs_list = self.instance.jobs();
        let fin_t = self.evq.peek_time();
        let arr_t = jobs_list.get(self.next_arrival).map(|j| j.release);
        // At equal times, hop completions run before arrivals so
        // dispatch decisions see settled queues.
        let (take_finish, t) = match (fin_t, arr_t) {
            (None, None) => return Ok(false),
            (Some(ft), None) => (true, ft),
            (None, Some(at)) => (false, at),
            (Some(ft), Some(at)) if ft <= at => (true, ft),
            (Some(_), Some(at)) => (false, at),
        };
        if until.is_some_and(|h| t > h) {
            return Ok(false);
        }
        self.events += 1;
        if self.events > cfg.max_events {
            return Err(SimError::EventBudgetExceeded(cfg.max_events));
        }
        self.st.advance(t);
        if take_finish {
            let Some(FinishEv { node, version, .. }) = self.evq.pop() else {
                debug_assert!(false, "take_finish implies a peeked event");
                return Ok(false);
            };
            if node == TOPO_NODE {
                // A scheduled topology mutation; `version` is its
                // schedule index. Must be checked before the
                // node_version lookup — the sentinel id is out of
                // bounds for the node tables.
                let change = cfg.mutations[version as usize].change;
                self.apply_mutation(change, node_policy, assignment, cfg)?;
                probe.on_event(&self.st.view());
                return Ok(true);
            }
            match self.handle_finish(node, version, node_policy, assignment) {
                // Stale: the node's job changed since scheduling. (No
                // `on_event` either — the solo loop `continue`d here.)
                None => return Ok(true),
                Some(job) => probe.on_hop_complete(&self.st.view(), job, node),
            }
        } else {
            let job = jobs_list[self.next_arrival].id;
            self.next_arrival += 1;
            let leaf = assignment.assign(&self.st.view(), job);
            if !self.st.tree().is_leaf(leaf) {
                return Err(SimError::AssignmentNotALeaf { job, node: leaf });
            }
            self.st.admit(job, leaf);
            if let Some(tr) = self.trace.as_mut() {
                tr.push(t, leaf, job, TraceKind::Arrive);
            }
            let first = self.st.view().path(job)[0];
            Simulation::offer(&mut self.st, first, job, node_policy, &mut self.trace, &mut self.evq);
            probe.on_arrival(&self.st.view(), job, leaf);
        }
        probe.on_event(&self.st.view());
        Ok(true)
    }

    /// Process one popped finish event: skip it if stale (the node's
    /// current job changed since it was scheduled), otherwise finish
    /// the hop, forward or complete the job, and let the node pull its
    /// next waiting job. Returns the job whose hop finished, `None` on
    /// a stale event.
    // bct-lint: no_alloc
    fn handle_finish<N: NodePolicy + ?Sized, A: StatefulPolicy + ?Sized>(
        &mut self,
        node: NodeId,
        version: u64,
        node_policy: &N,
        assignment: &mut A,
    ) -> Option<JobId> {
        let RunLane { st, trace, evq, .. } = self;
        if st.node_version(node) != version {
            return None;
        }
        let t = st.view().now();
        let job = st.finish_current_hop(node);
        if let Some(tr) = trace.as_mut() {
            tr.push(t, node, job, TraceKind::FinishHop);
            if st.view().completion(job).is_some() {
                tr.push(t, node, job, TraceKind::Complete);
            }
        }
        if st.view().completion(job).is_none() {
            match st.view().current_node_of(job) {
                Some(next) => Simulation::offer(st, next, job, node_policy, trace, evq),
                None => debug_assert!(false, "unfinished job must be in flight"),
            }
        } else {
            assignment.on_complete(&st.view(), job, node);
        }
        if st.pick_next(node) {
            Simulation::schedule_current(st, node, trace, evq);
        }
        Some(job)
    }

    /// Close out a finished lane: assemble the outcome and hand every
    /// buffer back to `scratch`.
    pub(crate) fn finish(self, scratch: &mut SimScratch) -> SimOutcome {
        scratch.drained = self.drained;
        scratch.freed = self.freed;
        scratch.doomed = self.doomed;
        let out = Simulation::collect(self.st, scratch, self.trace, self.events);
        scratch.evq = self.evq;
        out
    }

    /// Retire an errored lane, returning its buffers to `scratch` so the
    /// scratch stays reusable after a failed run.
    pub(crate) fn abort(self, scratch: &mut SimScratch) {
        self.st.release_into(scratch);
        scratch.evq = self.evq;
        scratch.drained = self.drained;
        scratch.freed = self.freed;
        scratch.doomed = self.doomed;
    }
}
