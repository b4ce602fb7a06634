//! Per-node priority-indexed queue aggregates.
//!
//! Every node `v` keeps its live queue `Q_v(t)` indexed by SJF priority
//! (size `p_{j,v}`, release, id). Each entry stores the job's remaining
//! work at `v` and its *fractional* remainder `rem/p`, and range sums
//! `(count, Σrem, Σrem/p)` are maintained so the §3.4 assignment-cost
//! terms reduce to two sub-linear prefix queries per node instead of an
//! `O(|Q_v|)` scan per candidate leaf:
//!
//! * `S`-volume: sum of `rem` over keys strictly before the job's key;
//! * larger-count / larger-fraction: the suffix at `eff > p_j`.
//!
//! [`FlatAggregates`] keeps, per node, three parallel sorted arrays plus
//! fixed-width block summaries ([`BLOCK`] entries per block).
//! Inserts/removals are a binary search plus a memmove and a suffix of
//! block recomputations; point updates recompute one block; queries sum
//! whole-block summaries plus a partial block of entries, always left to
//! right. Block boundaries — and therefore the float summation order —
//! are a function of the *current* contents only, never of operation
//! history, so a warm rerun answers every query with a fresh run's bits.
//!
//! Stored remainders are *as of the node's last materialization*; the
//! one continuously-draining job per node (its `current`) is corrected
//! at query time by [`crate::state::SimState`], which knows its live
//! remainder. The layout is pooled in [`crate::SimScratch`], so per-node
//! queues cost no allocations after warm-up.

use bct_core::Time;
use std::cmp::Ordering;

/// SJF priority key of a queued job at a node, ascending = served
/// earlier: the job's raw size `p_{j,v}` at the node, then release
/// time, then job id — the one order dispatch scoring asks for. All
/// components are finite, so the ordering is total.
#[derive(Clone, Copy, Debug)]
pub struct QueueKey {
    /// The job's size `p_{j,v}` at the node.
    pub eff: f64,
    /// Release time (tie-break).
    pub release: Time,
    /// Job id (final tie-break; makes keys unique).
    pub id: u32,
}

impl Ord for QueueKey {
    /// Total order matching `prio::sjf_precedes_or_eq`.
    #[inline]
    fn cmp(&self, other: &QueueKey) -> Ordering {
        self.eff
            .total_cmp(&other.eff)
            .then_with(|| self.release.total_cmp(&other.release))
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for QueueKey {
    #[inline]
    fn partial_cmp(&self, other: &QueueKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QueueKey {
    #[inline]
    fn eq(&self, other: &QueueKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueueKey {}

/// Running sums over a key range.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AggSums {
    /// Number of queued jobs.
    pub cnt: u32,
    /// `Σ rem` (remaining work at the node, as last materialized).
    pub sum_rem: f64,
    /// `Σ rem / p` (fractional remainders).
    pub sum_frac: f64,
}

impl AggSums {
    #[inline]
    fn add(&mut self, other: AggSums) {
        self.cnt += other.cnt;
        self.sum_rem += other.sum_rem;
        self.sum_frac += other.sum_frac;
    }

    /// Fold one `(rem, p)` entry into the sums.
    #[inline]
    fn add_raw(&mut self, rem: f64, p: f64) {
        self.cnt += 1;
        self.sum_rem += rem;
        self.sum_frac += rem / p;
    }
}

/// Entries per summary block of the flat layout. Small enough that a
/// partial-block scan is a handful of cache-resident adds, large
/// enough that whole-queue queries touch `|Q|/16` summaries.
const BLOCK: usize = 16;

/// One node's queue in the flat layout: parallel arrays sorted by
/// [`QueueKey`], plus one [`AggSums`] per fixed-width block of entries.
#[derive(Debug, Default)]
struct FlatNode {
    keys: Vec<QueueKey>,
    rem: Vec<f64>,
    p: Vec<f64>,
    sums: Vec<AggSums>,
}

impl FlatNode {
    fn clear(&mut self) {
        self.keys.clear();
        self.rem.clear();
        self.p.clear();
        self.sums.clear();
    }

    /// Index of `key`, or where it would insert.
    #[inline]
    fn find(&self, key: &QueueKey) -> Result<usize, usize> {
        self.keys.binary_search_by(|k| k.cmp(key))
    }

    /// Pre-size for `entries` simultaneous entries.
    fn reserve(&mut self, entries: usize) {
        self.keys.reserve(entries.saturating_sub(self.keys.len()));
        self.rem.reserve(entries.saturating_sub(self.rem.len()));
        self.p.reserve(entries.saturating_sub(self.p.len()));
        let blocks = entries.div_ceil(BLOCK);
        self.sums.reserve(blocks.saturating_sub(self.sums.len()));
    }

    /// Recompute the summary of block `b` from its entries, summing
    /// left to right — the canonical order every query also uses.
    // bct-lint: no_alloc
    fn rebuild_block(&mut self, b: usize) {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(self.keys.len());
        let mut s = AggSums::default();
        for i in lo..hi {
            s.add_raw(self.rem[i], self.p[i]);
        }
        self.sums[b] = s;
    }

    /// Resize the summary vector and recompute blocks `b0..` — every
    /// block whose entry window shifted under an insert/remove at an
    /// index inside block `b0`.
    fn rebuild_from(&mut self, b0: usize) {
        let nblocks = self.keys.len().div_ceil(BLOCK);
        self.sums.resize(nblocks, AggSums::default());
        for b in b0..nblocks {
            self.rebuild_block(b);
        }
    }
}

/// The engine's queue aggregates: one [`FlatNode`] per tree node. An
/// absent key in `remove` or `set_rem` is an engine bug and panics.
#[derive(Debug, Default)]
pub(crate) struct FlatAggregates {
    nodes: Vec<FlatNode>,
}

impl FlatAggregates {
    /// Fresh aggregates over `num_nodes` queues (test convenience).
    #[cfg(test)]
    pub fn new(num_nodes: usize) -> FlatAggregates {
        let mut agg = FlatAggregates::default();
        agg.reset(num_nodes);
        agg
    }

    /// Clear all queues, keeping every buffer's capacity. Nodes beyond
    /// `num_nodes` from an earlier larger reset are kept (cleared) so
    /// their capacities survive alternating topologies.
    pub fn reset(&mut self, num_nodes: usize) {
        for n in &mut self.nodes {
            n.clear();
        }
        self.grow_nodes(num_nodes);
    }

    /// Extend to `num_nodes` queues without touching existing ones —
    /// called when a topology mutation adds nodes mid-run, so any
    /// allocation lands at the mutation event, never in the steady
    /// state between mutations.
    pub fn grow_nodes(&mut self, num_nodes: usize) {
        if self.nodes.len() < num_nodes {
            self.nodes.resize_with(num_nodes, FlatNode::default);
        }
    }

    /// Pre-size queue `v` for `entries` simultaneous entries.
    pub fn reserve(&mut self, v: usize, entries: usize) {
        self.nodes[v].reserve(entries);
    }

    /// Entries queue `v` holds without reallocating.
    #[cfg(test)]
    pub fn capacity(&self, v: usize) -> usize {
        self.nodes[v].keys.capacity()
    }

    /// Insert a job entering `Q_v` with full requirement `p` remaining.
    pub fn insert(&mut self, v: usize, key: QueueKey, p: f64) {
        let n = &mut self.nodes[v];
        let idx = match n.find(&key) {
            Err(i) => i,
            Ok(_) => {
                debug_assert!(false, "duplicate queue key (job ids are unique)");
                return;
            }
        };
        n.keys.insert(idx, key);
        n.rem.insert(idx, p);
        n.p.insert(idx, p);
        n.rebuild_from(idx / BLOCK);
    }

    /// Remove the entry with exactly `key` from `Q_v`.
    pub fn remove(&mut self, v: usize, key: &QueueKey) {
        let n = &mut self.nodes[v];
        let Ok(idx) = n.find(key) else {
            // bct-lint: allow(p1) -- an absent key is an engine bug; harness catch_unwind fault-isolates
            panic!("removing a job that is not in the queue");
        };
        n.keys.remove(idx);
        n.rem.remove(idx);
        n.p.remove(idx);
        n.rebuild_from(idx / BLOCK);
    }

    /// Update the stored remainder of the entry with `key` in `Q_v`.
    /// Only that entry's block summary is recomputed.
    // bct-lint: no_alloc
    pub fn set_rem(&mut self, v: usize, key: &QueueKey, rem: f64) {
        let n = &mut self.nodes[v];
        let Ok(idx) = n.find(key) else {
            // bct-lint: allow(p1) -- an absent key is an engine bug; harness catch_unwind fault-isolates
            panic!("updating a job that is not in the queue");
        };
        n.rem[idx] = rem;
        n.rebuild_block(idx / BLOCK);
    }

    /// Aggregates over all of `Q_v`: the block summaries left to right.
    // bct-lint: no_alloc
    pub fn totals(&self, v: usize) -> AggSums {
        let n = &self.nodes[v];
        let mut acc = AggSums::default();
        for s in &n.sums {
            acc.add(*s);
        }
        acc
    }

    /// Aggregates over entries with key strictly before `key`: whole
    /// blocks first, then the partial block entry by entry — all left
    /// to right.
    // bct-lint: no_alloc
    pub fn before(&self, v: usize, key: &QueueKey) -> AggSums {
        let n = &self.nodes[v];
        let idx = n.keys.partition_point(|k| k.cmp(key) == Ordering::Less);
        let full = idx / BLOCK;
        let mut acc = AggSums::default();
        for b in 0..full {
            acc.add(n.sums[b]);
        }
        for i in full * BLOCK..idx {
            acc.add_raw(n.rem[i], n.p[i]);
        }
        acc
    }

    /// Aggregates over entries with size strictly greater than `eff`
    /// (any release / id) — a key-order suffix. Summed
    /// directly (leading partial block entry by entry, then whole
    /// blocks), never as `totals − prefix`, so no cancellation error
    /// sneaks in.
    // bct-lint: no_alloc
    pub fn above_eff(&self, v: usize, eff: f64) -> AggSums {
        let n = &self.nodes[v];
        let len = n.keys.len();
        let start = n.keys.partition_point(|k| k.eff <= eff);
        let first_full = start.div_ceil(BLOCK);
        let mut acc = AggSums::default();
        for i in start..(first_full * BLOCK).min(len) {
            acc.add_raw(n.rem[i], n.p[i]);
        }
        for b in first_full..n.sums.len() {
            acc.add(n.sums[b]);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(eff: f64, id: u32) -> QueueKey {
        QueueKey {
            eff,
            release: 0.0,
            id,
        }
    }

    /// Brute-force mirror of one node's queue.
    #[derive(Default)]
    struct Mirror(Vec<(QueueKey, f64, f64)>);

    impl Mirror {
        fn before(&self, k: &QueueKey) -> AggSums {
            self.sums(|e| e.cmp(k) == Ordering::Less)
        }
        fn above(&self, eff: f64) -> AggSums {
            self.sums(|e| e.eff > eff)
        }
        fn sums(&self, f: impl Fn(&QueueKey) -> bool) -> AggSums {
            let mut s = AggSums::default();
            for (k, rem, p) in &self.0 {
                if f(k) {
                    s.cnt += 1;
                    s.sum_rem += rem;
                    s.sum_frac += rem / p;
                }
            }
            s
        }
    }

    #[test]
    fn flat_empty_queue_yields_zero() {
        let agg = FlatAggregates::new(3);
        assert_eq!(agg.totals(2), AggSums::default());
        assert_eq!(agg.before(2, &key(1.0, 0)), AggSums::default());
        assert_eq!(agg.above_eff(2, 0.0), AggSums::default());
    }

    #[test]
    #[should_panic(expected = "not in the queue")]
    fn flat_removing_missing_entry_panics() {
        let mut agg = FlatAggregates::new(1);
        agg.insert(0, key(1.0, 0), 1.0);
        agg.remove(0, &key(2.0, 1));
    }

    #[test]
    #[should_panic(expected = "not in the queue")]
    fn flat_updating_missing_entry_panics() {
        let mut agg = FlatAggregates::new(1);
        agg.set_rem(0, &key(1.0, 0), 0.5);
    }

    /// Exercise every block-boundary case: queue sizes spanning one
    /// block, exactly one block, and multiple blocks, with inserts and
    /// removals landing in first/middle/last blocks.
    #[test]
    fn flat_block_boundaries_match_brute_force() {
        for n in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, 3 * BLOCK + 7] {
            let mut agg = FlatAggregates::new(1);
            let mut mir = Mirror::default();
            for i in 0..n as u32 {
                let p = f64::powi(2.0, (i % 4) as i32);
                let k = key(((i * 7) % 16) as f64 * 0.5, i);
                agg.insert(0, k, p);
                mir.0.push((k, p, p));
            }
            // Remove from the front, middle, and back blocks.
            for victim in [0u32, (n as u32) / 2, n as u32 - 1] {
                if let Some(pos) = mir.0.iter().position(|(k, _, _)| k.id == victim) {
                    let (k, _, _) = mir.0.swap_remove(pos);
                    agg.remove(0, &k);
                }
            }
            for probe_eff in 0..17 {
                let probe = key(probe_eff as f64 * 0.5, u32::MAX);
                assert_eq!(agg.before(0, &probe), mir.before(&probe), "n={n}");
                assert_eq!(agg.above_eff(0, probe.eff), mir.above(probe.eff), "n={n}");
            }
            assert_eq!(agg.totals(0), mir.sums(|_| true), "n={n}");
        }
    }

    /// The engine contract test: the flat layout against the
    /// brute-force mirror of each queue, fed a randomized
    /// admit/materialize/remove stream over two queues, answers every
    /// query bit-exactly on dyadic sizes (where float sums are
    /// association-free, so the two summation orders cannot diverge).
    #[test]
    fn flat_matches_brute_force_on_dyadic_stream() {
        let mut flat = FlatAggregates::new(2);
        let mut mir: [Mirror; 2] = Default::default();
        let mut x = 99u64;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..600u32 {
            let v = (step() % 2) as usize;
            let live = &mut mir[v].0;
            match step() % 4 {
                0 | 1 => {
                    let p = f64::powi(2.0, (step() % 5) as i32 - 2);
                    let k = QueueKey {
                        eff: (step() % 8) as f64 * 0.5,
                        release: (step() % 4) as f64 * 0.25,
                        id: i,
                    };
                    flat.insert(v, k, p);
                    live.push((k, p, p));
                }
                2 if !live.is_empty() => {
                    let idx = (step() as usize) % live.len();
                    let (k, _, _) = live.swap_remove(idx);
                    flat.remove(v, &k);
                }
                _ if !live.is_empty() => {
                    // Materialization: shrink a stored remainder to a
                    // dyadic fraction of p.
                    let idx = (step() as usize) % live.len();
                    let (k, _, p) = live[idx];
                    let rem = p * 0.25 * (step() % 5) as f64;
                    live[idx].1 = rem;
                    flat.set_rem(v, &k, rem);
                }
                _ => {}
            }
            for (q, mir) in mir.iter().enumerate() {
                let probe = QueueKey {
                    eff: (step() % 8) as f64 * 0.5,
                    release: (step() % 4) as f64 * 0.25,
                    id: step() as u32 % 700,
                };
                assert_eq!(flat.totals(q), mir.sums(|_| true), "step {i}");
                assert_eq!(flat.before(q, &probe), mir.before(&probe), "step {i}");
                assert_eq!(flat.above_eff(q, probe.eff), mir.above(probe.eff), "step {i}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        /// Proptest-driven version of the dyadic agreement contract:
        /// seeded random admit/materialize/remove interleavings over
        /// two queues, flat vs brute force, every query bit-exact after
        /// every op.
        #[test]
        fn flat_matches_brute_force_on_proptest_interleavings(seed in 0u64..1_000_000) {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut step = move || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 33
            };
            let mut flat = FlatAggregates::new(2);
            let mut mir: [Mirror; 2] = Default::default();
            let n_ops = 20 + (step() % 180) as u32;
            for i in 0..n_ops {
                let v = (step() % 2) as usize;
                let live = &mut mir[v].0;
                match step() % 4 {
                    0 | 1 => {
                        let p = f64::powi(2.0, (step() % 5) as i32 - 2);
                        let k = QueueKey {
                            eff: (step() % 8) as f64 * 0.5,
                            release: (step() % 4) as f64 * 0.25,
                            id: i,
                        };
                        flat.insert(v, k, p);
                        live.push((k, p, p));
                    }
                    2 if !live.is_empty() => {
                        let idx = (step() as usize) % live.len();
                        let (k, _, _) = live.swap_remove(idx);
                        flat.remove(v, &k);
                    }
                    _ if !live.is_empty() => {
                        let idx = (step() as usize) % live.len();
                        let (k, _, p) = live[idx];
                        let rem = p * 0.25 * (step() % 5) as f64;
                        live[idx].1 = rem;
                        flat.set_rem(v, &k, rem);
                    }
                    _ => {}
                }
                let probe = QueueKey {
                    eff: (step() % 8) as f64 * 0.5,
                    release: (step() % 4) as f64 * 0.25,
                    id: step() as u32 % 500,
                };
                for (q, mir) in mir.iter().enumerate() {
                    proptest::prop_assert_eq!(flat.totals(q), mir.sums(|_| true));
                    proptest::prop_assert_eq!(flat.before(q, &probe), mir.before(&probe));
                    proptest::prop_assert_eq!(flat.above_eff(q, probe.eff), mir.above(probe.eff));
                }
            }
        }
    }

    #[test]
    fn flat_reset_matches_fresh_construction() {
        let mut used = FlatAggregates::new(2);
        for i in 0..100 {
            used.insert(0, key((i % 7) as f64, i), 2.0);
        }
        for i in 0..50 {
            used.remove(0, &key((i % 7) as f64, i));
        }
        used.reset(2);
        let mut fresh = FlatAggregates::new(2);
        for agg in [&mut used, &mut fresh] {
            for i in 0..200 {
                agg.insert(0, key((i % 13) as f64, i), f64::powi(2.0, (i % 3) as i32));
            }
            for i in (0..200).step_by(3) {
                agg.remove(0, &key((i % 13) as f64, i));
            }
        }
        for probe in 0..13 {
            let k = key(probe as f64, 1000);
            assert_eq!(used.before(0, &k), fresh.before(0, &k));
            assert_eq!(used.above_eff(0, probe as f64), fresh.above_eff(0, probe as f64));
        }
        assert_eq!(used.totals(0), fresh.totals(0));
    }
}
