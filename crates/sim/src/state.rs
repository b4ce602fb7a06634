//! Live simulation state and the read-only [`SimView`] handed to
//! policies and probes.
//!
//! Progress is materialized lazily: each node's in-flight job stores its
//! remaining work as of a timestamp (`rem`, `rem_as_of`); the true
//! remaining at time `t` is `rem − s_v·(t − rem_as_of)`. Nothing is
//! touched until the node's state changes, so the engine never pays
//! `O(m)` per event.
//!
//! Job state is struct-of-arrays: scalar columns indexed by job id plus
//! two CSR arenas (`q_pos`, `hop_finish`) spanned per job at admission.
//! Paths are never copied — a job stores only its assigned leaf, and
//! every path/hop lookup borrows the instance's precomputed per-leaf
//! dispatch tables ([`Instance::path_of`], [`Instance::node_hops_of`]).
//! Together with [`crate::scratch::SimScratch`] this makes a steady-state
//! run allocation-free.
//!
//! The paper's queue notation maps onto this module as follows, for an
//! algorithm `A` at time `t`:
//!
//! * `Q_v^A(t)` — jobs released by `t`, routed through `v`, not yet done
//!   at `v` → [`SimView::q`].
//! * `p_{j,v}^A(t)` — remaining processing of `j` at `v` (full size if
//!   `j` hasn't reached `v` yet, 0 if past it) → [`SimView::remaining_at`].
//! * `S_{v,j}^A(t)` — the higher-priority prefix of `Q_v^A(t)` under the
//!   node policy, including `j` itself → assembled by callers from
//!   [`SimView::q`] plus the policy key.

use crate::agg::{AggLayout, AggStore, QueueKey};
use crate::policy::{KeyCtx, NodePolicy, PolicyKey};
use crate::scratch::SimScratch;
use bct_core::instance::Setting;
use bct_core::time::{approx_le, snap_nonneg};
use bct_core::{ClassRounding, Instance, Job, JobId, NodeId, Time, Tree};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::mem;

/// Sentinel leaf id marking a job as not yet released/assigned.
const UNASSIGNED: NodeId = NodeId(u32::MAX);

/// Struct-of-arrays job state: one column per scalar, indexed by job id,
/// plus CSR arenas for the per-hop values. Shrinking `JobRun` from a
/// struct of three Vecs to a row across these columns removed all
/// per-admit allocations.
#[derive(Debug, Default)]
pub(crate) struct JobTable {
    /// Assigned leaf; [`UNASSIGNED`] until admitted.
    leaf: Vec<NodeId>,
    /// Node of the current hop (valid while released and incomplete).
    cur_node: Vec<NodeId>,
    /// Index into the path of the node the job currently needs; equals
    /// the path length once complete.
    hop: Vec<u32>,
    /// Remaining work at the current hop, as of `rem_as_of`.
    rem: Vec<Time>,
    /// Timestamp at which `rem` was last materialized.
    rem_as_of: Vec<Time>,
    /// True while the current hop's node is actively processing the job.
    working: Vec<bool>,
    /// When the job became available at its current hop.
    hop_arrival: Vec<Time>,
    /// Completion time; `+∞` until finished at the leaf.
    completion: Vec<Time>,
    /// Release times copied from the instance (hot in queue keys; one
    /// cache line of column beats a pointer chase into `Job`).
    release: Vec<Time>,
    /// Job sizes copied from the instance (identical-setting `p_{j,v}`).
    size: Vec<Time>,
    /// `(offset, len)` per job into the CSR arenas below, assigned at
    /// admission; `len` equals the job's path length.
    span: Vec<(u32, u32)>,
    /// Position of the job inside `q_members[path[h]]` per hop `h`
    /// (kept in sync by swap-removal).
    q_pos: Vec<u32>,
    /// Finish time per hop; `hop_finish[off + h]` is valid for `h < hop`.
    hop_finish: Vec<Time>,
}

impl JobTable {
    /// Size every column for `jobs`, clearing previous contents but
    /// keeping capacity.
    pub(crate) fn reset(&mut self, jobs: &[Job]) {
        let n = jobs.len();
        self.leaf.clear();
        self.leaf.resize(n, UNASSIGNED);
        self.cur_node.clear();
        self.cur_node.resize(n, UNASSIGNED);
        self.hop.clear();
        self.hop.resize(n, 0);
        self.rem.clear();
        self.rem.resize(n, 0.0);
        self.rem_as_of.clear();
        self.rem_as_of.resize(n, 0.0);
        self.working.clear();
        self.working.resize(n, false);
        self.hop_arrival.clear();
        self.hop_arrival.resize(n, 0.0);
        self.completion.clear();
        self.completion.resize(n, f64::INFINITY);
        self.release.clear();
        self.release.extend(jobs.iter().map(|j| j.release));
        self.size.clear();
        self.size.extend(jobs.iter().map(|j| j.size));
        self.span.clear();
        self.span.resize(n, (0, 0));
        self.q_pos.clear();
        self.hop_finish.clear();
    }

    /// Number of job rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.leaf.len()
    }

    /// Append one fresh row for an online-ingested job — the same
    /// defaults [`JobTable::reset`] gives every row, without touching
    /// the existing rows. `RunLane::resume` calls this for the jobs a
    /// session pushed onto its instance since the last suspend.
    // bct-lint: no_alloc
    pub(crate) fn push_job(&mut self, job: &Job) {
        self.leaf.push(UNASSIGNED);
        self.cur_node.push(UNASSIGNED);
        self.hop.push(0);
        self.rem.push(0.0);
        self.rem_as_of.push(0.0);
        self.working.push(false);
        self.hop_arrival.push(0.0);
        self.completion.push(f64::INFINITY);
        self.release.push(job.release);
        self.size.push(job.size);
        self.span.push((0, 0));
    }

    /// Pre-reserve capacity for `rows` more jobs with paths of up to
    /// `hops` nodes, so a steady-state ingest loop never grows a column
    /// or arena mid-decision.
    pub(crate) fn reserve_rows(&mut self, rows: usize, hops: usize) {
        self.leaf.reserve(rows);
        self.cur_node.reserve(rows);
        self.hop.reserve(rows);
        self.rem.reserve(rows);
        self.rem_as_of.reserve(rows);
        self.working.reserve(rows);
        self.hop_arrival.reserve(rows);
        self.completion.reserve(rows);
        self.release.reserve(rows);
        self.size.reserve(rows);
        self.span.reserve(rows);
        self.q_pos.reserve(rows * hops);
        self.hop_finish.reserve(rows * hops);
    }

    /// Completion time of `j`, if finished (suspended-session read).
    #[inline]
    pub(crate) fn completion_time(&self, j: JobId) -> Option<Time> {
        let c = self.completion[j.as_usize()];
        c.is_finite().then_some(c)
    }

    #[inline]
    fn released(&self, j: usize) -> bool {
        self.leaf[j] != UNASSIGNED
    }

    #[inline]
    fn completed(&self, j: usize) -> bool {
        self.completion[j].is_finite()
    }

}

/// Per-node dynamic state.
#[derive(Debug)]
pub(crate) struct NodeState {
    /// Waiting jobs (not the one being processed), min-key first.
    pub heap: BinaryHeap<Reverse<(PolicyKey, JobId)>>,
    /// The job being processed, with the key it was last ranked at.
    pub current: Option<(JobId, PolicyKey)>,
    /// Bumped whenever `current` changes; stale finish events are
    /// recognized by version mismatch.
    pub version: u64,
    /// Accumulated busy time.
    pub busy: Time,
    /// Start of the current busy stretch (valid while `current.is_some()`).
    pub busy_since: Time,
}

impl NodeState {
    fn new() -> NodeState {
        NodeState {
            heap: BinaryHeap::new(),
            current: None,
            version: 0,
            busy: 0.0,
            busy_since: 0.0,
        }
    }

    /// Back to the initial state, keeping the heap's capacity.
    fn reset(&mut self) {
        self.heap.clear();
        self.current = None;
        self.version = 0;
        self.busy = 0.0;
        self.busy_since = 0.0;
    }
}

/// The complete mutable simulation state.
pub struct SimState<'a> {
    pub(crate) instance: &'a Instance,
    /// Owned topology for dynamic runs (`Some` iff the config carries a
    /// mutation schedule): a clone of the instance's tree that the
    /// engine mutates in place. `None` on static runs, which then read
    /// the instance's tree directly — the pre-refactor path, so static
    /// outputs stay byte-identical.
    pub(crate) topo: Option<Tree>,
    pub(crate) speeds: Vec<f64>,
    pub(crate) now: Time,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) jobs: JobTable,
    /// `Q_v(t)` membership: `(job, hop index of v in the job's path)`.
    pub(crate) q_members: Vec<Vec<(JobId, u32)>>,
    /// Order-statistic aggregates over each `Q_v(t)`, keyed by SJF
    /// priority under `rounding`, in the layout the config selected.
    pub(crate) aggs: AggStore,
    /// The class rounding the aggregates are keyed by (`None` = raw
    /// sizes); dispatch policies with a matching configuration get
    /// `O(log)` scoring queries.
    pub(crate) rounding: Option<ClassRounding>,
    /// Whether the aggregates are maintained this run. They only serve
    /// [`SimView`]'s range queries, so when neither the assignment
    /// policy nor the probe declares a need for them, every treap
    /// update is skipped — outputs are bit-identical either way.
    pub(crate) track_aggs: bool,
    /// Identical-node setting: `p_{j,v} = p_j` everywhere, so the size
    /// column answers every requirement lookup.
    pub(crate) identical: bool,
    // --- exact objective accounting ---
    pub(crate) frac_sum: f64,
    pub(crate) frac_rate: f64,
    pub(crate) frac_integral: f64,
    pub(crate) count_integral: f64,
    pub(crate) unfinished: usize,
    pub(crate) completed: usize,
}

impl<'a> SimState<'a> {
    /// Fresh state with owned buffers (unit-test convenience);
    /// [`SimState::from_scratch`] is the reusable-buffer path.
    #[cfg(test)]
    pub(crate) fn new(
        instance: &'a Instance,
        speeds: Vec<f64>,
        rounding: Option<ClassRounding>,
    ) -> SimState<'a> {
        let mut scratch = SimScratch::new();
        scratch.speeds = speeds;
        SimState::from_scratch(instance, rounding, true, AggLayout::default(), false, &mut scratch)
    }

    /// Build state for a run by *taking* the buffers out of `scratch`
    /// and resetting them to fit `instance` — `clear()`/`resize()` only,
    /// so a scratch warmed on the same topology shape reallocates
    /// nothing. `scratch.speeds` must already hold the materialized
    /// per-node speed table. [`SimState::release_into`] returns the
    /// buffers when the run is over.
    ///
    /// `track_aggs` controls whether the per-node queue aggregates are
    /// maintained; aggregates only serve the three [`SimView`] range
    /// queries (they never influence the schedule itself), so runs
    /// whose policies and probe declare they won't query can skip every
    /// treap update without changing a single output bit.
    ///
    /// `dynamic` runs get an owned clone of the instance's tree to
    /// mutate (pooled in `scratch.topo`, so a warm rerun only
    /// `clone_from`s into retained capacity). Node-indexed buffers are
    /// never truncated below their warm length — a dynamic rerun that
    /// re-adds the same leaves then reuses the high slots' capacity
    /// instead of reallocating mid-run.
    pub(crate) fn from_scratch(
        instance: &'a Instance,
        rounding: Option<ClassRounding>,
        track_aggs: bool,
        layout: AggLayout,
        dynamic: bool,
        scratch: &mut SimScratch,
    ) -> SimState<'a> {
        let m = instance.tree().len();
        let mut nodes = mem::take(&mut scratch.nodes);
        for ns in &mut nodes {
            ns.reset();
        }
        while nodes.len() < m {
            nodes.push(NodeState::new());
        }
        let mut q_members = mem::take(&mut scratch.q_members);
        for q in &mut q_members {
            q.clear();
        }
        while q_members.len() < m {
            q_members.push(Vec::new());
        }
        let mut aggs = mem::take(&mut scratch.aggs);
        aggs.reset(layout, m);
        let mut jobs = mem::take(&mut scratch.jobs);
        jobs.reset(instance.jobs());
        let topo = if dynamic {
            Some(match scratch.topo.take() {
                Some(mut t) => {
                    t.clone_from(instance.tree());
                    t
                }
                None => instance.tree().clone(),
            })
        } else {
            None
        };
        SimState {
            instance,
            topo,
            speeds: mem::take(&mut scratch.speeds),
            now: 0.0,
            nodes,
            jobs,
            q_members,
            aggs,
            rounding,
            track_aggs,
            identical: instance.setting() == Setting::Identical,
            frac_sum: 0.0,
            frac_rate: 0.0,
            frac_integral: 0.0,
            count_integral: 0.0,
            unfinished: 0,
            completed: 0,
        }
    }

    /// Hand every buffer back to `scratch` for the next run.
    pub(crate) fn release_into(self, scratch: &mut SimScratch) {
        scratch.nodes = self.nodes;
        scratch.q_members = self.q_members;
        scratch.aggs = self.aggs;
        scratch.jobs = self.jobs;
        scratch.speeds = self.speeds;
        // A static run leaves any pooled tree from an earlier dynamic
        // run in place.
        if self.topo.is_some() {
            scratch.topo = self.topo;
        }
    }

    /// Deterministic FNV-1a digest over the complete semantic state:
    /// topology structure, clock and objective accumulators, every job
    /// column, recorded hop finishes, per-node scheduling state, queue
    /// memberships, and effective speeds. Two runs that fold equal
    /// digests at an epoch are bit-for-bit in the same state — the
    /// serve layer's replay verifier and desync detector build on this.
    ///
    /// Heap *contents* are deliberately excluded (BinaryHeap iteration
    /// order is unspecified); heap membership is exactly the node's
    /// queue membership minus its current job and jobs still upstream,
    /// all of which are folded, so divergence cannot hide there.
    // bct-lint: no_alloc
    pub(crate) fn state_digest(&self) -> u64 {
        let mut h = bct_core::Fnv64::new();
        let m = self.tree().len();
        h.write_u64(self.tree().structure_digest());
        h.write_f64(self.now);
        h.write_f64(self.frac_sum);
        h.write_f64(self.frac_rate);
        h.write_f64(self.frac_integral);
        h.write_f64(self.count_integral);
        h.write_usize(self.unfinished);
        h.write_usize(self.completed);
        h.write_usize(m);
        for &s in &self.speeds[..m] {
            h.write_f64(s);
        }
        let n = self.jobs.len();
        h.write_usize(n);
        for ji in 0..n {
            h.write_u32(self.jobs.leaf[ji].0);
            h.write_u32(self.jobs.cur_node[ji].0);
            h.write_u32(self.jobs.hop[ji]);
            h.write_f64(self.jobs.rem[ji]);
            h.write_f64(self.jobs.rem_as_of[ji]);
            h.write_bool(self.jobs.working[ji]);
            h.write_f64(self.jobs.hop_arrival[ji]);
            h.write_f64(self.jobs.completion[ji]);
            h.write_f64(self.jobs.release[ji]);
            h.write_f64(self.jobs.size[ji]);
            let (off, _) = self.jobs.span[ji];
            for hop in 0..self.jobs.hop[ji] as usize {
                h.write_f64(self.jobs.hop_finish[off as usize + hop]);
            }
        }
        for ns in &self.nodes[..m] {
            h.write_u32(ns.current.map_or(u32::MAX, |(j, _)| j.0));
            h.write_u64(ns.version);
            h.write_f64(ns.busy);
            h.write_bool(ns.current.is_some());
            h.write_usize(ns.heap.len());
        }
        for q in &self.q_members[..m] {
            h.write_usize(q.len());
            for &(j, hop) in q {
                h.write_u32(j.0);
                h.write_u32(hop);
            }
        }
        h.finish()
    }

    /// The tree this run schedules against: the owned mutable clone on
    /// dynamic runs, the instance's tree otherwise.
    #[inline]
    pub(crate) fn tree(&self) -> &Tree {
        match &self.topo {
            Some(t) => t,
            None => self.instance.tree(),
        }
    }

    /// Advance the clock to `t`, integrating both objectives exactly
    /// (the fractional sum is linear between events, so its integral is
    /// the closed-form quadrature below).
    // bct-lint: no_alloc
    pub(crate) fn advance(&mut self, t: Time) {
        debug_assert!(approx_le(self.now, t), "time went backwards: {} -> {t}", self.now);
        let dt = (t - self.now).max(0.0);
        if dt > 0.0 {
            self.frac_integral += self.frac_sum * dt - 0.5 * self.frac_rate * dt * dt;
            self.frac_sum = snap_nonneg(self.frac_sum - self.frac_rate * dt);
            self.count_integral += self.unfinished as f64 * dt;
            self.now = t;
        }
    }

    /// Speed of node `v`.
    #[inline]
    pub(crate) fn speed(&self, v: NodeId) -> f64 {
        self.speeds[v.as_usize()]
    }

    /// `p_{j,v}` through the identical-setting fast path (one column
    /// load) or the instance's full lookup.
    #[inline]
    pub(crate) fn p_at(&self, j: JobId, v: NodeId) -> Time {
        if self.identical {
            self.jobs.size[j.as_usize()]
        } else {
            self.instance.p(j, v)
        }
    }

    /// The root→leaf path to `leaf` for job `j`, borrowed from the
    /// owned tree's tables on dynamic runs and the instance's otherwise
    /// (dynamic runs reject origin jobs, so the tree's root-based
    /// tables always apply there).
    #[inline]
    pub(crate) fn path_to(&self, j: JobId, leaf: NodeId) -> &[NodeId] {
        match &self.topo {
            Some(t) => t.leaf_path(leaf),
            None => self.instance.path_of(j, leaf),
        }
    }

    /// The job's processing path; empty until released.
    #[inline]
    pub(crate) fn path_of(&self, j: JobId) -> &[NodeId] {
        let leaf = self.jobs.leaf[j.as_usize()];
        if leaf == UNASSIGNED {
            &[]
        } else {
            self.path_to(j, leaf)
        }
    }

    /// The job's hop index at node `v`, if `v` is on its path — a binary
    /// search of the node-sorted dispatch table.
    #[inline]
    fn hop_at(&self, j: JobId, v: NodeId) -> Option<usize> {
        let leaf = self.jobs.leaf[j.as_usize()];
        debug_assert!(leaf != UNASSIGNED);
        let hops = match &self.topo {
            Some(t) => t.leaf_hops(leaf),
            None => self.instance.node_hops_of(j, leaf),
        };
        hops.binary_search_by_key(&v, |&(u, _)| u)
            .ok()
            .map(|i| hops[i].1 as usize)
    }

    /// Bring the node's in-flight job's `rem` up to `now`, keeping the
    /// node's queue aggregate in sync.
    // bct-lint: no_alloc
    pub(crate) fn materialize_current(&mut self, v: NodeId) {
        if let Some((j, _)) = self.nodes[v.as_usize()].current {
            let s = self.speed(v);
            let ji = j.as_usize();
            debug_assert!(self.jobs.working[ji]);
            if self.now > self.jobs.rem_as_of[ji] {
                let rem = snap_nonneg(self.jobs.rem[ji] - s * (self.now - self.jobs.rem_as_of[ji]));
                self.jobs.rem[ji] = rem;
                self.jobs.rem_as_of[ji] = self.now;
                if self.track_aggs {
                    let key = self.queue_key(v, j);
                    self.aggs.set_rem(v.as_usize(), &key, rem);
                }
            }
        }
    }

    /// The SJF aggregate key of `j` at `v`: class index when rounding is
    /// configured, raw `p_{j,v}` otherwise, with (release, id)
    /// tie-breaks — the exact order of `sjf_precedes_or_eq`.
    #[inline]
    // bct-lint: no_alloc
    pub(crate) fn queue_key(&self, v: NodeId, j: JobId) -> QueueKey {
        let p = self.p_at(j, v);
        QueueKey {
            eff: match &self.rounding {
                Some(r) => f64::from(r.class_of(p)),
                None => p,
            },
            release: self.jobs.release[j.as_usize()],
            id: j.0,
        }
    }

    /// Live remaining work of job `j` at its current hop.
    // bct-lint: no_alloc
    pub(crate) fn live_rem(&self, j: JobId) -> Time {
        let ji = j.as_usize();
        if self.jobs.working[ji] {
            let v = self.jobs.cur_node[ji];
            snap_nonneg(self.jobs.rem[ji] - self.speed(v) * (self.now - self.jobs.rem_as_of[ji]))
        } else {
            self.jobs.rem[ji]
        }
    }

    /// Register a freshly released job: record its leaf, span the CSR
    /// arenas, and enter it into `Q_v` for every hop. Does not enqueue
    /// it anywhere yet. Allocation-free once the arenas are warm.
    // bct-lint: no_alloc
    pub(crate) fn admit(&mut self, j: JobId, leaf: NodeId) {
        debug_assert!(!self.jobs.released(j.as_usize()), "job admitted twice");
        self.place(j, leaf);
        self.frac_sum += 1.0;
        self.unfinished += 1;
    }

    /// Re-admit a drained job at a fresh leaf after a topology
    /// mutation: a new CSR span, hop 0, the full requirement again.
    /// [`SimState::drain_job`] already restored the job's fractional
    /// mass to 1, and the job never left the unfinished count, so
    /// neither is touched here.
    // bct-lint: no_alloc
    pub(crate) fn readmit(&mut self, j: JobId, leaf: NodeId) {
        let ji = j.as_usize();
        debug_assert!(
            self.jobs.released(ji) && !self.jobs.completed(ji),
            "readmit outside a drain"
        );
        self.place(j, leaf);
    }

    /// Shared placement: span the CSR arenas at the end (an old span
    /// simply becomes a dead hole on redispatch), register queue
    /// membership and aggregates for every hop, and stage the job at
    /// the first hop of its new path.
    // bct-lint: no_alloc
    fn place(&mut self, j: JobId, leaf: NodeId) {
        // Field-precise borrow (not `path_to`): `path` must only hold
        // `self.topo` so the column writes below stay legal.
        let path: &[NodeId] = match &self.topo {
            Some(t) => t.leaf_path(leaf),
            None => self.instance.path_of(j, leaf),
        };
        debug_assert!(!path.is_empty());
        let ji = j.as_usize();
        let off = self.jobs.q_pos.len() as u32;
        self.jobs.span[ji] = (off, path.len() as u32);
        self.jobs.leaf[ji] = leaf;
        for (h, &v) in path.iter().enumerate() {
            self.jobs.q_pos.push(self.q_members[v.as_usize()].len() as u32);
            self.q_members[v.as_usize()].push((j, h as u32));
        }
        self.jobs
            .hop_finish
            .resize(self.jobs.hop_finish.len() + path.len(), 0.0);
        if self.track_aggs {
            for &v in path {
                let key = self.queue_key(v, j);
                self.aggs.insert(v.as_usize(), key, self.p_at(j, v));
            }
        }
        self.jobs.hop[ji] = 0;
        self.jobs.cur_node[ji] = path[0];
        self.jobs.rem[ji] = self.p_at(j, path[0]);
        self.jobs.rem_as_of[ji] = self.now;
        self.jobs.hop_arrival[ji] = self.now;
        self.jobs.working[ji] = false;
    }

    /// Make `j` available at node `v` (its current hop) and resolve
    /// preemption. Returns `true` iff the node's current job changed
    /// (caller must bump scheduling).
    // bct-lint: no_alloc
    pub(crate) fn enqueue<N: NodePolicy + ?Sized>(&mut self, v: NodeId, j: JobId, policy: &N) -> bool {
        let key = self.key_of(policy, v, j, self.live_rem(j));
        let vi = v.as_usize();
        match self.nodes[vi].current {
            None => {
                self.start(v, j, key);
                true
            }
            Some((cur, _)) => {
                // Recompute the incumbent's key on its live remaining so
                // dynamic policies (SRPT) compare fairly.
                self.materialize_current(v);
                let cur_rem = self.jobs.rem[cur.as_usize()];
                let cur_key = self.key_of(policy, v, cur, cur_rem);
                self.nodes[vi].current = Some((cur, cur_key));
                if key < cur_key {
                    self.stop_current(v);
                    self.nodes[vi].heap.push(Reverse((cur_key, cur)));
                    self.start(v, j, key);
                    true
                } else {
                    self.nodes[vi].heap.push(Reverse((key, j)));
                    false
                }
            }
        }
    }

    fn key_of<N: NodePolicy + ?Sized>(&self, policy: &N, v: NodeId, j: JobId, remaining: Time) -> PolicyKey {
        policy.key(&KeyCtx {
            instance: self.instance,
            node: v,
            job: j,
            now: self.now,
            remaining,
            arrived_at_node: self.jobs.hop_arrival[j.as_usize()],
        })
    }

    /// Begin processing `j` on `v` (which must be idle).
    // bct-lint: no_alloc
    fn start(&mut self, v: NodeId, j: JobId, key: PolicyKey) {
        let vi = v.as_usize();
        debug_assert!(self.nodes[vi].current.is_none());
        self.nodes[vi].current = Some((j, key));
        self.nodes[vi].version += 1;
        self.nodes[vi].busy_since = self.now;
        let ji = j.as_usize();
        debug_assert!(!self.jobs.working[ji] && self.jobs.cur_node[ji] == v);
        self.jobs.working[ji] = true;
        self.jobs.rem_as_of[ji] = self.now;
        if self.tree().leaf_index(v).is_some() {
            self.frac_rate += self.speed(v) / self.p_at(j, v);
        }
    }

    /// Stop processing the node's current job (for preemption or hop
    /// completion); leaves `current = None`. The job's `rem` must
    /// already be materialized.
    // bct-lint: no_alloc
    fn stop_current(&mut self, v: NodeId) {
        let vi = v.as_usize();
        // bct-lint: allow(p1) -- engine only stops nodes it saw busy; harness catch_unwind converts violations to Failed rows
        let (j, _) = self.nodes[vi].current.take().expect("stopping an idle node");
        self.nodes[vi].version += 1;
        self.nodes[vi].busy += self.now - self.nodes[vi].busy_since;
        let ji = j.as_usize();
        debug_assert!(self.jobs.working[ji]);
        self.jobs.working[ji] = false;
        if self.tree().leaf_index(v).is_some() {
            self.frac_rate = snap_nonneg(self.frac_rate - self.speed(v) / self.p_at(j, v));
        }
    }

    /// Finish the current job's hop at `v`. Returns the job, which is
    /// afterwards either complete or waiting to be enqueued at the next
    /// hop by the caller.
    // bct-lint: no_alloc
    pub(crate) fn finish_current_hop(&mut self, v: NodeId) -> JobId {
        // Materialize the scalar columns only: the aggregate entry is
        // removed below, and removal rebuilds ancestor sums from the
        // surviving entries, so writing the (dead) entry's remainder
        // first would be a wasted treap walk.
        // bct-lint: allow(p1) -- finish events carry a version check; a stale node is skipped before this call
        let (j, _) = self.nodes[v.as_usize()].current.expect("finishing an idle node");
        let ji = j.as_usize();
        debug_assert!(self.jobs.working[ji]);
        debug_assert!(
            snap_nonneg(self.jobs.rem[ji] - self.speed(v) * (self.now - self.jobs.rem_as_of[ji]))
                < 1e-4,
            "finish fired with {} work left",
            snap_nonneg(self.jobs.rem[ji] - self.speed(v) * (self.now - self.jobs.rem_as_of[ji]))
        );
        self.jobs.rem[ji] = 0.0;
        self.jobs.rem_as_of[ji] = self.now;
        self.stop_current(v);
        self.remove_from_q(v, j);
        let (off, len) = self.jobs.span[ji];
        let hop = self.jobs.hop[ji] as usize;
        self.jobs.hop_finish[off as usize + hop] = self.now;
        self.jobs.hop[ji] = (hop + 1) as u32;
        if hop + 1 == len as usize {
            self.jobs.completion[ji] = self.now;
            self.unfinished -= 1;
            self.completed += 1;
        } else {
            let next = self.path_of(j)[hop + 1];
            self.jobs.cur_node[ji] = next;
            self.jobs.hop_arrival[ji] = self.now;
            self.jobs.rem[ji] = self.p_at(j, next);
            self.jobs.rem_as_of[ji] = self.now;
        }
        j
    }

    /// Pull the next job (if any) from `v`'s waiting heap and start it.
    /// Returns `true` if a job was started.
    // bct-lint: no_alloc
    pub(crate) fn pick_next(&mut self, v: NodeId) -> bool {
        let vi = v.as_usize();
        debug_assert!(self.nodes[vi].current.is_none());
        if let Some(Reverse((key, j))) = self.nodes[vi].heap.pop() {
            self.start(v, j, key);
            true
        } else {
            false
        }
    }

    /// Drop `j` from `Q_v` at the job's *current* hop (the hop index is
    /// the job's hop column — no dispatch-table binary search needed).
    // bct-lint: no_alloc
    fn remove_from_q(&mut self, v: NodeId, j: JobId) {
        let h = self.jobs.hop[j.as_usize()] as usize;
        debug_assert_eq!(
            self.hop_at(j, v),
            Some(h),
            "remove_from_q called off the job's current hop"
        );
        self.remove_from_q_at(v, j, h);
    }

    /// Drop `j` from `Q_v` at hop `h` of its path, with position-tracked
    /// swap removal, and from the node's aggregate.
    // bct-lint: no_alloc
    fn remove_from_q_at(&mut self, v: NodeId, j: JobId, h: usize) {
        let ji = j.as_usize();
        let off = self.jobs.span[ji].0 as usize;
        let pos = self.jobs.q_pos[off + h] as usize;
        let q = &mut self.q_members[v.as_usize()];
        debug_assert_eq!(q[pos].0, j);
        q.swap_remove(pos);
        if pos < q.len() {
            let (moved, moved_hop) = q[pos];
            let moved_off = self.jobs.span[moved.as_usize()].0 as usize;
            self.jobs.q_pos[moved_off + moved_hop as usize] = pos as u32;
        }
        if self.track_aggs {
            let key = self.queue_key(v, j);
            self.aggs.remove(v.as_usize(), &key);
            debug_assert_eq!(
                self.aggs.totals(v.as_usize()).cnt as usize,
                self.q_members[v.as_usize()].len(),
                "aggregate and queue membership diverged at {v}"
            );
        }
    }

    // --- dynamic-topology support -------------------------------------
    //
    // Everything below runs only at mutation events; steady state
    // between mutations never enters these paths.

    /// Collect the unfinished jobs routed through any node in `doomed`
    /// into `out` as `(job, assigned leaf)`, sorted by job id and
    /// deduplicated. Every such job is in `Q_leaf` of a doomed leaf
    /// (its leaf hop is last to finish), so scanning the doomed nodes'
    /// queue memberships covers the full set.
    pub(crate) fn affected_jobs_into(&self, doomed: &[NodeId], out: &mut Vec<(JobId, NodeId)>) {
        out.clear();
        for &v in doomed {
            for &(j, _) in &self.q_members[v.as_usize()] {
                out.push((j, self.jobs.leaf[j.as_usize()]));
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Pull `j` out of the system entirely ahead of a topology
    /// mutation: stop or dequeue it at its current hop, drop it from
    /// `Q_v` of every remaining hop, and restore its fractional mass to
    /// a full unit (redispatch restarts the job, so partial leaf
    /// progress is forfeited). Returns the node that was actively
    /// processing `j`, if any, so the caller can offer it new work once
    /// the mutation settles. The job stays released and unfinished;
    /// [`SimState::readmit`] completes the hand-off.
    pub(crate) fn drain_job(&mut self, j: JobId) -> Option<NodeId> {
        let ji = j.as_usize();
        debug_assert!(
            self.jobs.released(ji) && !self.jobs.completed(ji),
            "draining a job that is not in flight"
        );
        let v = self.jobs.cur_node[ji];
        let freed = if self.jobs.working[ji] {
            self.materialize_current(v);
            self.stop_current(v);
            Some(v)
        } else {
            // Waiting in its current hop's heap.
            self.nodes[v.as_usize()].heap.retain(|&Reverse((_, jj))| jj != j);
            None
        };
        let (_, len) = self.jobs.span[ji];
        let hop = self.jobs.hop[ji] as usize;
        if hop + 1 == len as usize {
            // At the leaf hop the job's unit of fractional mass has
            // partially drained; top it back up to 1.
            let leaf = self.jobs.leaf[ji];
            let frac = self.jobs.rem[ji] / self.p_at(j, leaf);
            self.frac_sum += 1.0 - frac;
        }
        for h in hop..len as usize {
            let u = self.path_of(j)[h];
            self.remove_from_q_at(u, j, h);
        }
        freed
    }

    /// Install a changed effective speed at `v`: materialize the
    /// in-flight job at the old speed first, fix the fractional drain
    /// rate, and bump the node's version so the previously scheduled
    /// finish event goes stale. Returns `true` when the node has a
    /// current job — the caller must then push a fresh finish event at
    /// [`SimState::predicted_finish`].
    pub(crate) fn apply_speed_change(&mut self, v: NodeId, new_speed: f64) -> bool {
        self.materialize_current(v);
        let vi = v.as_usize();
        let old = self.speeds[vi];
        self.speeds[vi] = new_speed;
        if let Some((j, _)) = self.nodes[vi].current {
            if self.tree().leaf_index(v).is_some() {
                let p = self.p_at(j, v);
                self.frac_rate = snap_nonneg(self.frac_rate - old / p + new_speed / p);
            }
            self.nodes[vi].version += 1;
            true
        } else {
            false
        }
    }

    /// Grow the node-indexed tables to cover nodes a mutation just
    /// added. Slots retained from an earlier (warm) run keep their
    /// capacity; genuinely new slots allocate here, at the mutation
    /// event — never in the steady state between mutations.
    pub(crate) fn grow_for_added(&mut self) {
        let m = self.tree().len();
        while self.nodes.len() < m {
            self.nodes.push(NodeState::new());
        }
        while self.q_members.len() < m {
            // bct-lint: allow(a2) -- allocates at the mutation event only; see doc above
            self.q_members.push(Vec::new());
        }
        self.aggs.grow_nodes(m);
    }

    /// Predicted finish time of `v`'s current job at its speed.
    pub(crate) fn predicted_finish(&self, v: NodeId) -> Option<Time> {
        let (j, _) = self.nodes[v.as_usize()].current?;
        let ji = j.as_usize();
        Some(self.jobs.rem_as_of[ji] + self.jobs.rem[ji] / self.speed(v))
    }

    /// Read-only view for policies and probes.
    pub fn view(&self) -> SimView<'_> {
        SimView { state: self }
    }

    /// Scheduling version of a node (bumped on every current-job change).
    pub(crate) fn node_version(&self, v: NodeId) -> u64 {
        self.nodes[v.as_usize()].version
    }

    /// Hop finish times recorded for a job so far.
    pub(crate) fn hop_finishes_of(&self, j: JobId) -> &[Time] {
        let ji = j.as_usize();
        let off = self.jobs.span[ji].0 as usize;
        &self.jobs.hop_finish[off..off + self.jobs.hop[ji] as usize]
    }

    /// Accumulated fractional-flow integral.
    pub(crate) fn frac_integral(&self) -> Time {
        self.frac_integral
    }

    /// Accumulated `∫ #unfinished dt`.
    pub(crate) fn count_integral(&self) -> Time {
        self.count_integral
    }

    /// Busy time per node into `out` (cleared first), counting
    /// in-progress stretches up to `now`. One entry per node id of the
    /// final tree — the node buffers themselves may be longer when a
    /// warm scratch carried slots from an earlier, larger run.
    pub(crate) fn node_busy_into(&self, out: &mut Vec<Time>) {
        out.clear();
        out.extend(self.nodes[..self.tree().len()].iter().map(|ns| {
            if ns.current.is_some() {
                ns.busy + (self.now - ns.busy_since)
            } else {
                ns.busy
            }
        }));
    }
}

/// Read-only window onto a running simulation — the interface the
/// paper's assignment rule, the Lemma-bound calculators, and the
/// dual-fitting verifier all consume.
#[derive(Clone, Copy)]
pub struct SimView<'s> {
    state: &'s SimState<'s>,
}

impl<'s> SimView<'s> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.state.now
    }

    /// The instance being simulated.
    #[inline]
    pub fn instance(&self) -> &'s Instance {
        self.state.instance
    }

    /// The tree the run is currently scheduling against: the live
    /// mutable topology on dynamic runs (reflecting every mutation
    /// applied so far), the instance's static tree otherwise. Policies
    /// must route all leaf/path lookups through this — or through
    /// [`SimView::path_for`] / [`SimView::entry_node`] /
    /// [`SimView::eta_via`] — never through `instance().tree()`, which
    /// is frozen at epoch 0.
    #[inline]
    pub fn tree(&self) -> &'s Tree {
        match &self.state.topo {
            Some(t) => t,
            None => self.state.instance.tree(),
        }
    }

    /// The root→leaf path job `j` would take if dispatched to `leaf`,
    /// under the current epoch's topology. Equals
    /// [`Instance::path_of`] on static runs bit-for-bit.
    #[inline]
    pub fn path_for(&self, j: JobId, leaf: NodeId) -> &'s [NodeId] {
        match &self.state.topo {
            Some(t) => t.leaf_path(leaf),
            None => self.state.instance.path_of(j, leaf),
        }
    }

    /// The root-adjacent node `j` would enter through if dispatched to
    /// `leaf`, under the current epoch's topology.
    #[inline]
    pub fn entry_node(&self, j: JobId, leaf: NodeId) -> NodeId {
        match &self.state.topo {
            Some(t) => t.r_node(leaf),
            None => self.state.instance.entry_node(j, leaf),
        }
    }

    /// `η_{j,leaf}`: total processing `j` would require along its path
    /// to `leaf`, under the current epoch's topology. Identical
    /// summation order to [`Instance::eta_via`] on static runs.
    pub fn eta_via(&self, j: JobId, leaf: NodeId) -> Time {
        self.path_for(j, leaf)
            .iter()
            .map(|&v| self.state.p_at(j, v))
            .sum()
    }

    /// Speed of node `v`.
    #[inline]
    pub fn speed(&self, v: NodeId) -> f64 {
        self.state.speed(v)
    }

    /// `Q_v(t)`: jobs released by now, routed through `v`, not yet
    /// finished at `v` (includes jobs still upstream of `v`).
    pub fn q(&self, v: NodeId) -> impl Iterator<Item = JobId> + '_ {
        self.state.q_members[v.as_usize()].iter().map(|&(j, _)| j)
    }

    /// Size of `Q_v(t)`.
    pub fn q_len(&self, v: NodeId) -> usize {
        self.state.q_members[v.as_usize()].len()
    }

    /// `p^A_{j,v}(t)`: remaining processing of `j` at `v` — the full
    /// requirement if `j` hasn't reached `v`, the live remainder if it
    /// is at `v`, and 0 if it already finished there (or isn't routed
    /// through `v` / isn't released).
    pub fn remaining_at(&self, j: JobId, v: NodeId) -> Time {
        let ji = j.as_usize();
        if !self.state.jobs.released(ji) {
            return 0.0;
        }
        let hop = self.state.jobs.hop[ji] as usize;
        match self.state.hop_at(j, v) {
            None => 0.0,
            Some(h) if h < hop => 0.0,
            Some(h) if h == hop => self.state.live_rem(j),
            Some(_) => self.state.p_at(j, v),
        }
    }

    /// The leaf `j` was dispatched to, if released.
    pub fn assigned_leaf(&self, j: JobId) -> Option<NodeId> {
        let leaf = self.state.jobs.leaf[j.as_usize()];
        (leaf != UNASSIGNED).then_some(leaf)
    }

    /// The job's root→leaf path (empty if unreleased), borrowed from the
    /// instance's per-leaf path tables.
    pub fn path(&self, j: JobId) -> &'s [NodeId] {
        self.state.path_of(j)
    }

    /// Index of the hop the job currently needs (== path len if done).
    pub fn hop(&self, j: JobId) -> usize {
        self.state.jobs.hop[j.as_usize()] as usize
    }

    /// The node the job is currently available at, if in flight.
    pub fn current_node_of(&self, j: JobId) -> Option<NodeId> {
        let ji = j.as_usize();
        if self.state.jobs.released(ji) && !self.state.jobs.completed(ji) {
            Some(self.state.jobs.cur_node[ji])
        } else {
            None
        }
    }

    /// When the job became available at its current hop.
    pub fn hop_arrival(&self, j: JobId) -> Time {
        self.state.jobs.hop_arrival[j.as_usize()]
    }

    /// True once released and dispatched.
    pub fn released(&self, j: JobId) -> bool {
        self.state.jobs.released(j.as_usize())
    }

    /// Completion time, if finished.
    pub fn completion(&self, j: JobId) -> Option<Time> {
        let c = self.state.jobs.completion[j.as_usize()];
        c.is_finite().then_some(c)
    }

    /// The job a node is processing right now.
    pub fn current_job(&self, v: NodeId) -> Option<JobId> {
        self.state.nodes[v.as_usize()].current.map(|(j, _)| j)
    }

    /// Number of incomplete released jobs.
    pub fn unfinished(&self) -> usize {
        self.state.unfinished
    }

    /// The running fractional-flow integral (the algorithm's fractional
    /// cost so far).
    pub fn fractional_flow_so_far(&self) -> Time {
        self.state.frac_integral
    }

    /// The instantaneous fractional queue mass
    /// `Σ_j p^A_{j,leaf_j}(t)/p_{j,leaf_j}` over unfinished jobs.
    pub fn frac_sum(&self) -> f64 {
        self.state.frac_sum
    }

    // --- O(log |Q_v|) aggregate queries over the node queues ---
    //
    // Each stored remainder is as of the node's last materialization;
    // only the node's `current` job drains between events, so its live
    // deficit (`live − stored ≤ 0`) is folded in at query time when its
    // key lies in the queried range.

    /// The class rounding the queue aggregates are keyed by. Policies
    /// must only use the fast queries below when their own rounding
    /// matches this (same effective-size order), else fall back to
    /// scanning [`SimView::q`].
    #[inline]
    pub fn dispatch_rounding(&self) -> Option<ClassRounding> {
        self.state.rounding
    }

    /// The aggregate queries below are only valid when the run is
    /// maintaining aggregates; a policy/probe that queries despite
    /// declaring `needs_aggregates() == false` is a contract bug, and
    /// silently returning empty-treap answers would corrupt schedules.
    #[inline]
    fn assert_aggs(&self) {
        assert!(
            self.state.track_aggs,
            "aggregate query on a run whose policies declared needs_aggregates() == false"
        );
    }

    /// `Σ p^A_{i,v}(t)` over queued jobs `i` whose SJF key
    /// `(eff, release, id)` is strictly before the probe key — the
    /// higher-priority volume a job with that key would wait behind at
    /// `v`. A queued job with the probe's exact id is excluded.
    pub fn volume_before(&self, v: NodeId, eff: f64, release: Time, id: u32) -> Time {
        self.assert_aggs();
        let bound = QueueKey { eff, release, id };
        let vi = v.as_usize();
        let mut sum = self.state.aggs.before(vi, &bound).sum_rem;
        if let Some((c, _)) = self.state.nodes[vi].current {
            if self.state.queue_key(v, c).cmp(&bound) == Ordering::Less {
                let stored = self.state.jobs.rem[c.as_usize()];
                sum += self.state.live_rem(c) - stored;
            }
        }
        sum
    }

    /// `|{i ∈ Q_v(t) : eff_i > eff}|` — queued jobs of strictly larger
    /// effective size.
    pub fn count_larger(&self, v: NodeId, eff: f64) -> usize {
        self.assert_aggs();
        self.state.aggs.above_eff(v.as_usize(), eff).cnt as usize
    }

    /// `Σ p^A_{i,v}(t)/p_{i,v}` over queued jobs of strictly larger
    /// effective size — the fractional analogue of [`Self::count_larger`].
    pub fn frac_volume_larger(&self, v: NodeId, eff: f64) -> f64 {
        self.assert_aggs();
        let vi = v.as_usize();
        let mut sum = self.state.aggs.above_eff(vi, eff).sum_frac;
        if let Some((c, _)) = self.state.nodes[vi].current {
            if self.state.queue_key(v, c).eff > eff {
                let stored = self.state.jobs.rem[c.as_usize()];
                sum += (self.state.live_rem(c) - stored) / self.state.p_at(c, v);
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NodePolicy;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Instance, Job};

    struct SizeOrder;

    impl NodePolicy for SizeOrder {
        fn name(&self) -> &'static str {
            "size"
        }
        fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
            PolicyKey::new(
                ctx.instance.p(ctx.job, ctx.node),
                ctx.instance.job(ctx.job).release,
                ctx.job.0,
            )
        }
    }

    fn fixture() -> Instance {
        // root -> r(1) -> leaf(2)
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        b.add_child(r);
        Instance::new(
            b.build().unwrap(),
            vec![
                Job::identical(0u32, 0.0, 4.0),
                Job::identical(1u32, 0.0, 2.0),
            ],
        )
        .unwrap()
    }

    fn state(inst: &Instance) -> SimState<'_> {
        SimState::new(inst, vec![1.0; inst.tree().len()], None)
    }

    #[test]
    fn admit_registers_queue_membership() {
        let inst = fixture();
        let mut st = state(&inst);
        st.admit(JobId(0), NodeId(2));
        assert_eq!(st.view().q_len(NodeId(1)), 1);
        assert_eq!(st.view().q_len(NodeId(2)), 1);
        assert_eq!(st.view().remaining_at(JobId(0), NodeId(1)), 4.0);
        assert_eq!(st.view().remaining_at(JobId(0), NodeId(2)), 4.0);
        assert_eq!(st.view().unfinished(), 1);
        assert_eq!(st.view().frac_sum(), 1.0);
    }

    #[test]
    fn enqueue_preempts_on_smaller_key() {
        let inst = fixture();
        let mut st = state(&inst);
        st.admit(JobId(0), NodeId(2));
        assert!(st.enqueue(NodeId(1), JobId(0), &SizeOrder), "idle node starts");
        st.admit(JobId(1), NodeId(2));
        // Smaller job (size 2) preempts the size-4 incumbent.
        assert!(st.enqueue(NodeId(1), JobId(1), &SizeOrder));
        assert_eq!(st.view().current_job(NodeId(1)), Some(JobId(1)));
    }

    #[test]
    fn lazy_remaining_materializes_on_advance() {
        let inst = fixture();
        let mut st = state(&inst);
        st.admit(JobId(0), NodeId(2));
        st.enqueue(NodeId(1), JobId(0), &SizeOrder);
        st.advance(1.5);
        // View computes live remaining without mutation.
        assert!((st.view().remaining_at(JobId(0), NodeId(1)) - 2.5).abs() < 1e-9);
        // Downstream hop is untouched.
        assert_eq!(st.view().remaining_at(JobId(0), NodeId(2)), 4.0);
    }

    #[test]
    fn finish_hop_moves_the_job_and_updates_queues() {
        let inst = fixture();
        let mut st = state(&inst);
        st.admit(JobId(0), NodeId(2));
        st.enqueue(NodeId(1), JobId(0), &SizeOrder);
        st.advance(4.0);
        let j = st.finish_current_hop(NodeId(1));
        assert_eq!(j, JobId(0));
        assert_eq!(st.view().q_len(NodeId(1)), 0, "left the router's queue");
        assert_eq!(st.view().q_len(NodeId(2)), 1, "still queued at the leaf");
        assert_eq!(st.view().current_node_of(JobId(0)), Some(NodeId(2)));
        assert_eq!(st.view().hop(JobId(0)), 1);
        assert!(st.view().completion(JobId(0)).is_none());
    }

    #[test]
    fn completion_bookkeeping() {
        let inst = fixture();
        let mut st = state(&inst);
        st.admit(JobId(0), NodeId(2));
        st.enqueue(NodeId(1), JobId(0), &SizeOrder);
        st.advance(4.0);
        st.finish_current_hop(NodeId(1));
        st.enqueue(NodeId(2), JobId(0), &SizeOrder);
        st.advance(8.0);
        st.finish_current_hop(NodeId(2));
        assert_eq!(st.view().completion(JobId(0)), Some(8.0));
        assert_eq!(st.view().unfinished(), 0);
        assert!(st.view().frac_sum().abs() < 1e-9);
        // Fractional integral: 1.0 for 4 time units + linear 1→0 over 4 = 6.
        assert!((st.frac_integral() - 6.0).abs() < 1e-9, "{}", st.frac_integral());
    }

    #[test]
    fn predicted_finish_accounts_for_speed() {
        let inst = fixture();
        let mut st = SimState::new(&inst, vec![1.0, 2.0, 1.0], None);
        st.admit(JobId(0), NodeId(2));
        st.enqueue(NodeId(1), JobId(0), &SizeOrder);
        assert_eq!(st.predicted_finish(NodeId(1)), Some(2.0)); // 4 work at speed 2
        assert_eq!(st.predicted_finish(NodeId(2)), None);
    }

    #[test]
    fn node_versions_bump_on_changes() {
        let inst = fixture();
        let mut st = state(&inst);
        let v0 = st.node_version(NodeId(1));
        st.admit(JobId(0), NodeId(2));
        st.enqueue(NodeId(1), JobId(0), &SizeOrder);
        let v1 = st.node_version(NodeId(1));
        assert!(v1 > v0, "start bumps the version");
        st.admit(JobId(1), NodeId(2));
        st.enqueue(NodeId(1), JobId(1), &SizeOrder);
        assert!(st.node_version(NodeId(1)) > v1, "preemption bumps twice");
    }

    #[test]
    fn scratch_round_trip_resets_cleanly() {
        let inst = fixture();
        let mut scratch = SimScratch::new();
        scratch.speeds = vec![1.0; inst.tree().len()];
        let mut st = SimState::from_scratch(&inst, None, true, AggLayout::Flat, false, &mut scratch);
        st.admit(JobId(0), NodeId(2));
        st.enqueue(NodeId(1), JobId(0), &SizeOrder);
        st.advance(4.0);
        st.finish_current_hop(NodeId(1));
        st.release_into(&mut scratch);
        // A state rebuilt from the used scratch starts pristine.
        scratch.speeds = vec![1.0; inst.tree().len()];
        let st2 = SimState::from_scratch(&inst, None, true, AggLayout::Flat, false, &mut scratch);
        assert_eq!(st2.now, 0.0);
        assert_eq!(st2.view().q_len(NodeId(1)), 0);
        assert!(!st2.view().released(JobId(0)));
        assert_eq!(st2.view().completion(JobId(0)), None);
        assert_eq!(st2.view().unfinished(), 0);
        assert_eq!(st2.node_version(NodeId(1)), 0);
    }
}
