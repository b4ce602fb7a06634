//! The result of a simulation run.

use bct_core::{JobId, NodeId, Time};
use serde::{Deserialize, Serialize};
use std::ops::Index;

/// Per-job hop finish times in CSR layout: one flat `times` arena plus
/// `n + 1` offsets. Row `j` (`finishes[j]` or [`HopFinishes::row`]) is
/// the finish time at each hop of job `j`'s root→leaf path, same
/// indexing as the path, truncated to the hops actually completed.
///
/// Serializes as the two flat vectors (the engine's golden artifacts
/// store rows separately, so this never appears in checked-in JSON).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HopFinishes {
    /// `offsets[j]..offsets[j + 1]` spans job `j`'s row in `times`.
    offsets: Vec<u32>,
    /// All rows, concatenated in job-id order.
    times: Vec<Time>,
}

impl Default for HopFinishes {
    fn default() -> HopFinishes {
        HopFinishes {
            offsets: vec![0],
            times: Vec::new(),
        }
    }
}

impl HopFinishes {
    /// Build from raw CSR parts. `offsets` must be non-decreasing,
    /// start at 0, and end at `times.len()`.
    pub(crate) fn from_parts(offsets: Vec<u32>, times: Vec<Time>) -> HopFinishes {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().copied(), Some(times.len() as u32));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        HopFinishes { offsets, times }
    }

    /// Disassemble into the raw CSR vectors (for buffer recycling).
    pub(crate) fn into_parts(self) -> (Vec<u32>, Vec<Time>) {
        (self.offsets, self.times)
    }

    /// Build from one row per job (test/fixture convenience).
    pub fn from_rows<I, R>(rows: I) -> HopFinishes
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Time]>,
    {
        let mut out = HopFinishes::default();
        for row in rows {
            out.times.extend_from_slice(row.as_ref());
            out.offsets.push(out.times.len() as u32);
        }
        out
    }

    /// Number of jobs (rows).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Job `j`'s hop finish times (empty if it never started).
    #[inline]
    pub fn row(&self, j: usize) -> &[Time] {
        &self.times[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }

    /// Iterate rows in job-id order.
    pub fn iter(&self) -> impl Iterator<Item = &[Time]> + '_ {
        (0..self.len()).map(|j| self.row(j))
    }
}

impl Index<usize> for HopFinishes {
    type Output = [Time];

    fn index(&self, j: usize) -> &[Time] {
        self.row(j)
    }
}

/// Everything measured during a run.
///
/// Vectors are indexed by job id; entries are `None` for jobs that had
/// not completed when the run stopped. The event-by-event record is not
/// part of the outcome: a run that wants one passes a [`crate::Trace`]
/// as its probe.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Completion time `C_j` per job.
    pub completions: Vec<Option<Time>>,
    /// Leaf each job was dispatched to.
    pub assignments: Vec<Option<NodeId>>,
    /// Per job, the finish time at each hop of its root→leaf path
    /// (same indexing as the path; last entry equals `C_j`).
    pub hop_finishes: HopFinishes,
    /// Exact fractional flow time (§2): `∫ Σ_j p^A_{j,leaf}(t)/p_{j,leaf} dt`.
    pub fractional_flow: Time,
    /// Exact `∫ #unfinished(t) dt`; equals total flow time when all
    /// jobs complete.
    pub count_integral: Time,
    /// Busy time per node.
    pub node_busy: Vec<Time>,
    /// Number of engine events processed.
    pub events: u64,
    /// Final simulation time.
    pub makespan: Time,
    /// Number of jobs not finished when the run stopped.
    pub unfinished: usize,
}

impl SimOutcome {
    /// Flow time `C_j − r_j` of one job, if it completed.
    pub fn flow_time(&self, j: JobId, release: Time) -> Option<Time> {
        self.completions[j.as_usize()].map(|c| c - release)
    }

    /// Total flow time `Σ_j (C_j − r_j)`.
    ///
    /// # Panics
    /// Panics if any job is unfinished.
    pub fn total_flow(&self, releases: &[Time]) -> Time {
        assert_eq!(self.unfinished, 0, "total flow undefined with unfinished jobs");
        self.completions
            .iter()
            .zip(releases)
            // bct-lint: allow(p1) -- documented `# Panics` API; the assert above already guarantees finiteness
            .map(|(c, r)| c.expect("all finished") - r)
            .sum()
    }

    /// Mean flow time.
    pub fn mean_flow(&self, releases: &[Time]) -> Time {
        self.total_flow(releases) / releases.len().max(1) as f64
    }

    /// Maximum flow time over all jobs.
    pub fn max_flow(&self, releases: &[Time]) -> Time {
        self.completions
            .iter()
            .zip(releases)
            // bct-lint: allow(p1) -- documented `# Panics` API; the assert above already guarantees finiteness
            .map(|(c, r)| c.expect("all finished") - r)
            .fold(0.0, f64::max)
    }

    /// Weighted total flow time `Σ_j w_j·(C_j − r_j)` — the objective
    /// of the weighted-flow literature the paper builds on (refs
    /// \[3,13\]). Equals [`SimOutcome::total_flow`] at unit weights.
    pub fn weighted_total_flow(&self, releases: &[Time], weights: &[Time]) -> Time {
        assert_eq!(self.unfinished, 0, "weighted flow undefined with unfinished jobs");
        assert_eq!(releases.len(), weights.len());
        self.completions
            .iter()
            .zip(releases.iter().zip(weights))
            // bct-lint: allow(p1) -- documented `# Panics` API; the assert above already guarantees finiteness
            .map(|(c, (r, w))| w * (c.expect("all finished") - r))
            .sum()
    }

    /// The `ℓ_k` norm of flow times, `(Σ_j F_j^k)^{1/k}` — one of the
    /// paper's suggested follow-on objectives.
    pub fn lk_norm_flow(&self, releases: &[Time], k: f64) -> Time {
        assert!(k >= 1.0, "ℓ_k norms need k ≥ 1");
        let sum: f64 = self
            .completions
            .iter()
            .zip(releases)
            // bct-lint: allow(p1) -- documented `# Panics` API; the assert above already guarantees finiteness
            .map(|(c, r)| (c.expect("all finished") - r).powf(k))
            .sum();
        sum.powf(1.0 / k)
    }

    /// True iff every job completed.
    pub fn all_finished(&self) -> bool {
        self.unfinished == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> SimOutcome {
        SimOutcome {
            completions: vec![Some(4.0), Some(10.0)],
            assignments: vec![Some(NodeId(2)), Some(NodeId(2))],
            hop_finishes: HopFinishes::from_rows([[2.0, 4.0], [6.0, 10.0]]),
            fractional_flow: 7.0,
            count_integral: 13.0,
            node_busy: vec![0.0, 8.0, 8.0],
            events: 9,
            makespan: 10.0,
            unfinished: 0,
        }
    }

    #[test]
    fn flow_aggregates() {
        let o = outcome();
        let releases = [0.0, 1.0];
        assert_eq!(o.total_flow(&releases), 4.0 + 9.0);
        assert_eq!(o.mean_flow(&releases), 6.5);
        assert_eq!(o.max_flow(&releases), 9.0);
        assert_eq!(o.flow_time(JobId(0), 0.0), Some(4.0));
        assert!(o.all_finished());
    }

    #[test]
    fn lk_norm_interpolates_sum_and_max() {
        let o = outcome();
        let releases = [0.0, 1.0];
        let l1 = o.lk_norm_flow(&releases, 1.0);
        assert!((l1 - 13.0).abs() < 1e-9);
        let l_big = o.lk_norm_flow(&releases, 50.0);
        assert!((l_big - 9.0).abs() < 0.5, "high k approaches max: {l_big}");
    }

    #[test]
    fn weighted_flow_generalizes_total_flow() {
        let o = outcome();
        let releases = [0.0, 1.0];
        assert_eq!(o.weighted_total_flow(&releases, &[1.0, 1.0]), 13.0);
        assert_eq!(o.weighted_total_flow(&releases, &[2.0, 0.5]), 8.0 + 4.5);
    }

    #[test]
    #[should_panic(expected = "unfinished")]
    fn total_flow_rejects_partial_runs() {
        let mut o = outcome();
        o.unfinished = 1;
        o.total_flow(&[0.0, 1.0]);
    }
}
