//! A complete problem instance: tree + online job sequence.

use crate::error::CoreError;
use crate::ids::{JobId, NodeId};
use crate::job::{Job, LeafSizes};
use crate::time::Time;
use crate::tree::Tree;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};

/// Which of the paper's two settings an instance belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Setting {
    /// §2 "identical node" setting: `p_{j,v} = p_j` everywhere.
    Identical,
    /// §2 "unrelated endpoint" setting: routers identical, leaves
    /// unrelated.
    Unrelated,
}

/// Precomputed processing paths for jobs with non-root origins, so
/// [`Instance::path_of`] and [`Instance::entry_node`] never walk the
/// tree or allocate at dispatch time.
///
/// Rows are the distinct origins appearing in the job sequence, columns
/// the tree's leaves; cell `(row, leaf)` holds an arena span for the
/// full origin→leaf processing path plus its first node. Root-origin
/// jobs don't need a row — their paths live in the tree's own leaf-path
/// arena.
#[derive(Clone, Debug, Default)]
struct PathCache {
    /// `row_of[v]` = row index of origin `v`, or `u32::MAX` if no job
    /// originates there.
    row_of: Vec<u32>,
    /// Number of rows (distinct non-root origins).
    rows: u32,
    /// `(offset, len)` into `arena`, indexed by `row * num_leaves + leaf_index`.
    spans: Vec<(u32, u32)>,
    /// First processing node per `(row, leaf_index)`.
    entries: Vec<NodeId>,
    arena: Vec<NodeId>,
    /// Node-sorted `(node, hop)` pairs per span — the dispatch table the
    /// simulator binary-searches instead of sorting a per-job index.
    /// Shares `spans` with `arena`.
    hops_arena: Vec<(NodeId, u32)>,
}

impl PathCache {
    fn build(tree: &Tree, jobs: &[Job]) -> PathCache {
        let mut cache = PathCache {
            row_of: vec![u32::MAX; tree.len()],
            ..PathCache::default()
        };
        let mut origins: Vec<NodeId> = Vec::new();
        for o in jobs.iter().filter_map(|j| j.origin) {
            if cache.row_of[o.as_usize()] == u32::MAX {
                cache.row_of[o.as_usize()] = cache.rows;
                cache.rows += 1;
                origins.push(o);
            }
        }
        cache.spans.reserve(origins.len() * tree.num_leaves());
        cache.entries.reserve(origins.len() * tree.num_leaves());
        for &o in &origins {
            for &l in tree.leaves() {
                let path = tree.path_between(o, l);
                cache.entries.push(path[0]);
                cache
                    .spans
                    .push((cache.arena.len() as u32, path.len() as u32));
                let start = cache.hops_arena.len();
                cache
                    .hops_arena
                    .extend(path.iter().enumerate().map(|(h, &v)| (v, h as u32)));
                cache.hops_arena[start..].sort_unstable_by_key(|&(v, _)| v);
                cache.arena.extend_from_slice(&path);
            }
        }
        cache
    }
}

/// A validated scheduling instance.
///
/// Jobs are stored in release order; `jobs[i].id == JobId(i)`.
///
/// Serialization carries only `(tree, jobs, setting)`; the path cache is
/// rebuilt — and the whole instance re-validated through
/// [`Instance::new`] — on deserialize.
#[derive(Clone, Debug, Serialize)]
pub struct Instance {
    tree: Tree,
    jobs: Vec<Job>,
    setting: Setting,
    #[serde(skip)]
    paths: PathCache,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        // The cache is a pure function of (tree, jobs).
        self.tree == other.tree && self.jobs == other.jobs && self.setting == other.setting
    }
}

impl<'de> Deserialize<'de> for Instance {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Instance, D::Error> {
        #[derive(Deserialize)]
        struct InstanceData {
            tree: Tree,
            jobs: Vec<Job>,
            setting: Setting,
        }
        let data = InstanceData::deserialize(deserializer)?;
        let inst = Instance::new(data.tree, data.jobs)
            .map_err(|e| D::Error::custom(format!("invalid instance: {e}")))?;
        if inst.setting != data.setting {
            return Err(D::Error::custom(format!(
                "invalid instance: stored setting {:?} does not match jobs ({:?})",
                data.setting, inst.setting
            )));
        }
        Ok(inst)
    }
}

impl Instance {
    /// Validate and build an instance.
    ///
    /// Requirements: dense ids in vector order, non-decreasing release
    /// times, positive sizes, origins at live non-root nodes, and (in
    /// the unrelated setting) leaf-size tables matching the tree's leaf
    /// count with positive entries. The tree may carry an applied
    /// mutation history: construction is the one route from a mutated
    /// tree to an instance, so these checks cover it.
    /// Identical and unrelated jobs may not be mixed; the instance
    /// setting is unrelated iff any job is.
    pub fn new(tree: Tree, jobs: Vec<Job>) -> Result<Instance, CoreError> {
        let num_leaves = tree.num_leaves();
        let mut setting = Setting::Identical;
        let mut last_release = f64::NEG_INFINITY;
        for (i, j) in jobs.iter().enumerate() {
            if j.id.as_usize() != i {
                return Err(CoreError::BadJobIds);
            }
            if !(j.size > 0.0 && j.size.is_finite()) {
                return Err(CoreError::NonPositiveSize(j.id));
            }
            if !(j.release >= 0.0 && j.release.is_finite()) {
                return Err(CoreError::NegativeRelease(j.id));
            }
            if j.release < last_release {
                return Err(CoreError::BadJobIds);
            }
            last_release = j.release;
            if !(j.weight > 0.0 && j.weight.is_finite()) {
                return Err(CoreError::NonPositiveSize(j.id));
            }
            if let Some(origin) = j.origin {
                if origin.as_usize() >= tree.len()
                    || origin == NodeId::ROOT
                    || !tree.is_alive(origin)
                {
                    return Err(CoreError::BadJobIds);
                }
            }
            match &j.leaf_sizes {
                LeafSizes::Identical => {}
                LeafSizes::Unrelated(sizes) => {
                    if sizes.len() != num_leaves {
                        return Err(CoreError::LeafSizeArity {
                            job: j.id,
                            got: sizes.len(),
                            want: num_leaves,
                        });
                    }
                    for &p in sizes {
                        if !(p > 0.0 && p.is_finite()) {
                            return Err(CoreError::NonPositiveSize(j.id));
                        }
                    }
                    setting = Setting::Unrelated;
                }
            }
        }
        if setting == Setting::Unrelated && jobs.iter().any(|j| !j.is_unrelated()) {
            return Err(CoreError::BadJobIds);
        }
        let paths = PathCache::build(&tree, &jobs);
        Ok(Instance { tree, jobs, setting, paths })
    }

    /// The tree topology.
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// All jobs in release order.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.jobs.len()
    }

    /// Look up a job by id.
    #[inline]
    pub fn job(&self, j: JobId) -> &Job {
        &self.jobs[j.as_usize()]
    }

    /// The instance's setting (identical vs unrelated endpoints).
    #[inline]
    pub fn setting(&self) -> Setting {
        self.setting
    }

    /// `p_{j,v}`: processing requirement of job `j` at node `v`.
    ///
    /// Routers always take the data size `p_j`; leaves take the
    /// setting-dependent leaf size. The root processes nothing.
    #[inline]
    pub fn p(&self, j: JobId, v: NodeId) -> Time {
        debug_assert!(v != NodeId::ROOT, "the root does not process jobs");
        let job = &self.jobs[j.as_usize()];
        match self.tree.leaf_index(v) {
            Some(idx) => job.leaf_size(idx),
            None => job.size,
        }
    }

    /// `η_{j,v}` = `P_{v,j}`: total processing job `j` requires on all
    /// nodes on the path **from the root** to `v` (inclusive). For a
    /// leaf `v` this is a lower bound on `j`'s flow time if assigned
    /// there (at unit speeds) in the paper's root-origin model; see
    /// [`Instance::eta_via`] for the origin-aware generalization.
    pub fn eta(&self, j: JobId, v: NodeId) -> Time {
        let job = &self.jobs[j.as_usize()];
        let d = self.tree.d_v(v) as Time;
        match self.tree.leaf_index(v) {
            Some(idx) => (d - 1.0) * job.size + job.leaf_size(idx),
            None => d * job.size,
        }
    }

    /// The processing path of job `j` if assigned to `leaf`: from its
    /// origin (the root unless the job sets one) through the LCA down
    /// to the leaf, excluding origin and root.
    ///
    /// Returns a borrowed slice of a precomputed path — `O(1)`, no
    /// allocation, no tree walk — so dispatch-time scoring can consult
    /// paths for every candidate leaf cheaply.
    ///
    /// # Panics
    /// Panics if `leaf` is not a leaf of the tree.
    #[inline]
    pub fn path_of(&self, j: JobId, leaf: NodeId) -> &[NodeId] {
        match self.jobs[j.as_usize()].origin {
            None => self.tree.leaf_path(leaf),
            Some(o) => {
                let cell = self.cache_cell(o, leaf);
                let (off, len) = self.paths.spans[cell];
                &self.paths.arena[off as usize..(off + len) as usize]
            }
        }
    }

    /// The node-sorted `(node, hop)` dispatch table for job `j`'s path
    /// to `leaf`: the same nodes as [`Instance::path_of`], ordered by
    /// node id with each node's hop position on the path. `O(1)`
    /// borrowed; lets the simulator binary-search "which hop is `v`?"
    /// without copying or re-sorting the path per job.
    #[inline]
    pub fn node_hops_of(&self, j: JobId, leaf: NodeId) -> &[(NodeId, u32)] {
        match self.jobs[j.as_usize()].origin {
            None => self.tree.leaf_hops(leaf),
            Some(o) => {
                let cell = self.cache_cell(o, leaf);
                let (off, len) = self.paths.spans[cell];
                &self.paths.hops_arena[off as usize..(off + len) as usize]
            }
        }
    }

    /// First node job `j` would be processed on if assigned to `leaf`
    /// (the root-adjacent node `R(leaf)` in the root-origin model).
    /// `O(1)` via the path cache.
    #[inline]
    pub fn entry_node(&self, j: JobId, leaf: NodeId) -> NodeId {
        match self.jobs[j.as_usize()].origin {
            None => self.tree.r_node(leaf),
            Some(o) => self.paths.entries[self.cache_cell(o, leaf)],
        }
    }

    /// Cache index of `(origin, leaf)`; both are validated at
    /// construction, so a missing row or a non-leaf target is a bug.
    #[inline]
    fn cache_cell(&self, origin: NodeId, leaf: NodeId) -> usize {
        let row = self.paths.row_of[origin.as_usize()];
        debug_assert!(row != u32::MAX, "origin {origin} has no cache row");
        let li = self
            .tree
            .leaf_index(leaf)
            // bct-lint: allow(p2) -- assignments are leaf-validated at construction; see doc above
            .unwrap_or_else(|| panic!("path_of target {leaf} is not a leaf"));
        row as usize * self.tree.num_leaves() + li
    }

    /// Origin-aware `η`: total processing along `j`'s actual path to
    /// `leaf`. Equals [`Instance::eta`] for root-origin jobs.
    pub fn eta_via(&self, j: JobId, leaf: NodeId) -> Time {
        self.path_of(j, leaf)
            .iter()
            .map(|&v| self.p(j, v))
            .sum()
    }

    /// True if any job uses the arbitrary-origin extension.
    pub fn has_origins(&self) -> bool {
        self.jobs.iter().any(|j| j.origin.is_some())
    }

    /// The smallest possible flow time of job `j` at unit speeds:
    /// `min_{v ∈ L} η` along its actual path. Bit-identical to
    /// [`Instance::min_eta_naive`]; see
    /// [`Instance::trivial_flow_lower_bound`] for when it avoids the path
    /// walks.
    pub fn min_eta(&self, j: JobId) -> Time {
        self.min_eta_with(j, self.shallowest_path_len())
    }

    /// Sum over jobs of [`Instance::min_eta`] — a crude but valid lower
    /// bound on the optimal total flow time at unit speeds.
    ///
    /// Bit-identical to [`Instance::trivial_flow_lower_bound_naive`],
    /// which walks every leaf's path for every job (`O(n·|L|·d)`). A
    /// root-origin, identical-setting job's `η` at leaf `v` is the
    /// left-to-right sum of `d_v` copies of `p_j`. Adding a positive
    /// `p_j` never lowers a rounded sum, so `η` is monotone in `d_v` and
    /// its minimum over the leaves is the sum at the shallowest live
    /// leaf, found once per call: `O(|L| + n·d_min)`. Unrelated-setting
    /// and origin jobs walk their paths ([`Instance::min_eta_naive`]).
    pub fn trivial_flow_lower_bound(&self) -> Time {
        let shallowest = self.shallowest_path_len();
        (0..self.n() as u32)
            .map(|j| self.min_eta_with(JobId(j), shallowest))
            .sum()
    }

    /// Path-walking [`Instance::min_eta`], `O(|L|·d)`: the differential
    /// oracle for the fast form, and its fallback for unrelated-setting
    /// and origin jobs.
    pub fn min_eta_naive(&self, j: JobId) -> Time {
        self.tree
            .leaves()
            .iter()
            .map(|&v| self.eta_via(j, v))
            .fold(f64::INFINITY, f64::min)
    }

    /// Path-walking [`Instance::trivial_flow_lower_bound`], `O(n·|L|·d)`:
    /// the differential oracle for the fast form.
    pub fn trivial_flow_lower_bound_naive(&self) -> Time {
        (0..self.n() as u32)
            .map(|j| self.min_eta_naive(JobId(j)))
            .sum()
    }

    /// Node count of the shortest live root→leaf path (`min_v d_v`), or
    /// `None` for a leafless tree.
    fn shallowest_path_len(&self) -> Option<usize> {
        self.tree
            .leaves()
            .iter()
            .map(|&v| self.tree.leaf_path(v).len())
            .min()
    }

    /// [`Instance::min_eta`] given the shallowest path length.
    fn min_eta_with(&self, j: JobId, shallowest: Option<usize>) -> Time {
        let job = &self.jobs[j.as_usize()];
        if job.origin.is_some() || job.is_unrelated() {
            return self.min_eta_naive(j);
        }
        shallowest.map_or(f64::INFINITY, |d| std::iter::repeat_n(job.size, d).sum())
    }

    /// Total work volume released (router copies not counted): `Σ_j p_j`.
    pub fn total_size(&self) -> Time {
        self.jobs.iter().map(|j| j.size).sum()
    }

    /// Largest release time.
    pub fn last_release(&self) -> Time {
        self.jobs.last().map(|j| j.release).unwrap_or(0.0)
    }

    /// Append one identical-setting, root-origin job to the online
    /// sequence, returning its id. This is the online-ingest path used
    /// by the dispatch service: the same per-job validation as
    /// [`Instance::new`], restricted to the shapes an online stream can
    /// produce (release times non-decreasing, no custom origin, no
    /// per-leaf size table — so the origin path cache needs no rebuild).
    ///
    /// Appending to an unrelated-setting instance is rejected: leaf-size
    /// arity would tie the new job to one topology epoch.
    pub fn push_job(&mut self, release: Time, size: Time) -> Result<JobId, CoreError> {
        let id = JobId(self.jobs.len() as u32);
        if self.setting == Setting::Unrelated {
            return Err(CoreError::BadJobIds);
        }
        if !(size > 0.0 && size.is_finite()) {
            return Err(CoreError::NonPositiveSize(id));
        }
        if !(release >= 0.0 && release.is_finite()) {
            return Err(CoreError::NegativeRelease(id));
        }
        if self.jobs.last().is_some_and(|j| release < j.release) {
            return Err(CoreError::BadJobIds);
        }
        self.jobs.push(Job::identical(id.0, release, size));
        Ok(id)
    }

    /// Pre-reserve capacity for `additional` more [`Instance::push_job`]
    /// appends, so a steady-state ingest loop never reallocates the job
    /// vector mid-decision.
    pub fn reserve_jobs(&mut self, additional: usize) {
        self.jobs.reserve(additional);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::TreeMutation;
    use crate::tree::TreeBuilder;

    fn tree() -> Tree {
        // root -> r(1) -> {m(2) -> leaf(4), leaf(3)}  (leaf 3 at depth 2, leaf 4 at depth 3)
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        let m = b.add_child(r);
        b.add_child(r);
        b.add_child(m);
        b.build().unwrap()
    }

    #[test]
    fn valid_identical_instance() {
        let inst = Instance::new(
            tree(),
            vec![Job::identical(0u32, 0.0, 1.0), Job::identical(1u32, 0.5, 2.0)],
        )
        .unwrap();
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.setting(), Setting::Identical);
    }

    #[test]
    fn p_routers_vs_leaves() {
        let inst = Instance::new(
            tree(),
            vec![Job::unrelated(0u32, 0.0, 2.0, vec![7.0, 3.0])],
        )
        .unwrap();
        // leaves are v3 (index 0) and v4 (index 1)
        assert_eq!(inst.p(JobId(0), NodeId(1)), 2.0); // router
        assert_eq!(inst.p(JobId(0), NodeId(2)), 2.0); // router
        assert_eq!(inst.p(JobId(0), NodeId(3)), 7.0); // leaf idx 0
        assert_eq!(inst.p(JobId(0), NodeId(4)), 3.0); // leaf idx 1
        assert_eq!(inst.setting(), Setting::Unrelated);
    }

    #[test]
    fn eta_sums_the_path() {
        let inst = Instance::new(
            tree(),
            vec![Job::unrelated(0u32, 0.0, 2.0, vec![7.0, 3.0])],
        )
        .unwrap();
        // v3: path r(1), v3 -> 2 + 7 = 9
        assert_eq!(inst.eta(JobId(0), NodeId(3)), 9.0);
        // v4: path r(1), m(2), v4 -> 2 + 2 + 3 = 7
        assert_eq!(inst.eta(JobId(0), NodeId(4)), 7.0);
        assert_eq!(inst.min_eta(JobId(0)), 7.0);
    }

    #[test]
    fn eta_identical_is_d_v_times_p() {
        let inst = Instance::new(tree(), vec![Job::identical(0u32, 0.0, 3.0)]).unwrap();
        assert_eq!(inst.eta(JobId(0), NodeId(3)), 6.0); // d=2
        assert_eq!(inst.eta(JobId(0), NodeId(4)), 9.0); // d=3
        assert_eq!(inst.eta(JobId(0), NodeId(2)), 6.0); // router at depth 2
    }

    #[test]
    fn rejects_bad_ids_and_ordering() {
        let r = Instance::new(tree(), vec![Job::identical(1u32, 0.0, 1.0)]);
        assert_eq!(r.unwrap_err(), CoreError::BadJobIds);
        let r = Instance::new(
            tree(),
            vec![Job::identical(0u32, 1.0, 1.0), Job::identical(1u32, 0.5, 1.0)],
        );
        assert_eq!(r.unwrap_err(), CoreError::BadJobIds);
    }

    #[test]
    fn rejects_bad_sizes() {
        let r = Instance::new(tree(), vec![Job::identical(0u32, 0.0, 0.0)]);
        assert_eq!(r.unwrap_err(), CoreError::NonPositiveSize(JobId(0)));
        let r = Instance::new(tree(), vec![Job::identical(0u32, -1.0, 1.0)]);
        assert_eq!(r.unwrap_err(), CoreError::NegativeRelease(JobId(0)));
        let r = Instance::new(
            tree(),
            vec![Job::unrelated(0u32, 0.0, 1.0, vec![1.0, -2.0])],
        );
        assert_eq!(r.unwrap_err(), CoreError::NonPositiveSize(JobId(0)));
    }

    #[test]
    fn rejects_wrong_leaf_arity() {
        let r = Instance::new(tree(), vec![Job::unrelated(0u32, 0.0, 1.0, vec![1.0])]);
        assert!(matches!(r.unwrap_err(), CoreError::LeafSizeArity { .. }));
    }

    #[test]
    fn rejects_mixed_settings() {
        let r = Instance::new(
            tree(),
            vec![
                Job::unrelated(0u32, 0.0, 1.0, vec![1.0, 1.0]),
                Job::identical(1u32, 1.0, 1.0),
            ],
        );
        assert_eq!(r.unwrap_err(), CoreError::BadJobIds);
    }

    #[test]
    fn origin_paths_and_eta() {
        // tree(): root -> r(1) -> {m(2) -> leaf(4), leaf(3)}
        let inst = Instance::new(
            tree(),
            vec![
                Job::identical(0u32, 0.0, 2.0).with_origin(NodeId(3)),
                Job::identical(1u32, 1.0, 2.0),
            ],
        )
        .unwrap();
        assert!(inst.has_origins());
        // From leaf v3 to leaf v4: up to r(1), down m(2), v4.
        assert_eq!(
            inst.path_of(JobId(0), NodeId(4)),
            vec![NodeId(1), NodeId(2), NodeId(4)]
        );
        assert_eq!(inst.entry_node(JobId(0), NodeId(4)), NodeId(1));
        assert_eq!(inst.eta_via(JobId(0), NodeId(4)), 6.0);
        // Origin == destination: only the leaf processing remains.
        assert_eq!(inst.path_of(JobId(0), NodeId(3)), vec![NodeId(3)]);
        assert_eq!(inst.eta_via(JobId(0), NodeId(3)), 2.0);
        assert_eq!(inst.min_eta(JobId(0)), 2.0);
        // Root-origin job matches the classic accessors.
        assert_eq!(inst.path_of(JobId(1), NodeId(4)), inst.tree().path_from_root(NodeId(4)));
        assert_eq!(inst.eta_via(JobId(1), NodeId(4)), inst.eta(JobId(1), NodeId(4)));
        assert_eq!(inst.entry_node(JobId(1), NodeId(3)), NodeId(1));
    }

    #[test]
    fn node_hops_match_paths_for_all_origins() {
        let inst = Instance::new(
            tree(),
            vec![
                Job::identical(0u32, 0.0, 2.0).with_origin(NodeId(3)),
                Job::identical(1u32, 1.0, 2.0),
            ],
        )
        .unwrap();
        for j in [JobId(0), JobId(1)] {
            for &l in inst.tree().leaves() {
                let path = inst.path_of(j, l);
                let hops = inst.node_hops_of(j, l);
                assert_eq!(hops.len(), path.len());
                assert!(hops.windows(2).all(|w| w[0].0 < w[1].0));
                for &(v, h) in hops {
                    assert_eq!(path[h as usize], v);
                }
            }
        }
    }

    #[test]
    fn rejects_bad_origins() {
        let r = Instance::new(
            tree(),
            vec![Job::identical(0u32, 0.0, 1.0).with_origin(NodeId::ROOT)],
        );
        assert_eq!(r.unwrap_err(), CoreError::BadJobIds);
        let r = Instance::new(
            tree(),
            vec![Job::identical(0u32, 0.0, 1.0).with_origin(NodeId(99))],
        );
        assert_eq!(r.unwrap_err(), CoreError::BadJobIds);
    }

    #[test]
    fn origin_serde_is_backward_compatible() {
        // Old JSON without the origin field must still parse.
        let j: Job = serde_json::from_str(
            r#"{"id":0,"release":0.0,"size":1.0,"leaf_sizes":"Identical"}"#,
        )
        .unwrap();
        assert_eq!(j.origin, None);
        // And origin jobs round-trip.
        let j = Job::identical(0u32, 0.0, 1.0).with_origin(NodeId(2));
        let s = serde_json::to_string(&j).unwrap();
        let back: Job = serde_json::from_str(&s).unwrap();
        assert_eq!(back.origin, Some(NodeId(2)));
    }

    /// `tree()` with `m` applied.
    fn mutated(m: TreeMutation) -> Tree {
        let mut t = tree();
        t.queue_mutation(m);
        t.apply_mutations().unwrap();
        t
    }

    #[test]
    fn instances_on_a_mutated_tree_cover_its_paths() {
        // tree(): root -> r(1) -> {m(2) -> leaf(4), leaf(3)}
        let t = mutated(TreeMutation::AddLeaf { parent: NodeId(2) });
        assert_eq!(t.epoch(), 1);
        let inst =
            Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0).with_origin(NodeId(3))]).unwrap();
        // The origin path cache covers the added leaf.
        assert_eq!(
            inst.path_of(JobId(0), NodeId(5)),
            vec![NodeId(1), NodeId(2), NodeId(5)]
        );
        assert_eq!(inst.entry_node(JobId(0), NodeId(5)), NodeId(1));
    }

    #[test]
    fn tombstoning_a_job_origin_is_rejected() {
        let t = mutated(TreeMutation::RemoveLeaf { leaf: NodeId(3) });
        assert!(!t.is_alive(NodeId(3)));
        let r = Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0).with_origin(NodeId(3))]);
        assert_eq!(r.unwrap_err(), CoreError::BadJobIds);
    }

    #[test]
    fn push_job_appends_online() {
        let mut inst = Instance::new(tree(), vec![Job::identical(0u32, 0.0, 1.0)]).unwrap();
        let id = inst.push_job(2.0, 3.0).unwrap();
        assert_eq!(id, JobId(1));
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.job(id).size, 3.0);
        assert_eq!(inst.last_release(), 2.0);
        // Regressing release times, bad sizes, and unrelated instances
        // are all rejected without mutating the sequence.
        assert_eq!(inst.push_job(1.0, 1.0).unwrap_err(), CoreError::BadJobIds);
        assert!(matches!(inst.push_job(3.0, 0.0), Err(CoreError::NonPositiveSize(_))));
        assert!(matches!(inst.push_job(-1.0, 1.0), Err(CoreError::NegativeRelease(_))));
        assert_eq!(inst.n(), 2);
        let mut unrel =
            Instance::new(tree(), vec![Job::unrelated(0u32, 0.0, 2.0, vec![7.0, 3.0])]).unwrap();
        assert_eq!(unrel.push_job(1.0, 1.0).unwrap_err(), CoreError::BadJobIds);
    }

    #[test]
    fn push_job_into_empty_instance() {
        let mut inst = Instance::new(tree(), vec![]).unwrap();
        assert_eq!(inst.push_job(5.0, 1.0).unwrap(), JobId(0));
        assert_eq!(inst.setting(), Setting::Identical);
        assert_eq!(inst.n(), 1);
    }

    #[test]
    fn aggregates() {
        let inst = Instance::new(
            tree(),
            vec![Job::identical(0u32, 0.0, 1.0), Job::identical(1u32, 2.0, 2.0)],
        )
        .unwrap();
        assert_eq!(inst.total_size(), 3.0);
        assert_eq!(inst.last_release(), 2.0);
        // min_eta: both leaves give d=2 -> 2p or d=3 -> 3p; min is 2p.
        assert_eq!(inst.trivial_flow_lower_bound(), 2.0 + 4.0);
    }
}
