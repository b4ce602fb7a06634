//! Cheap combinatorial lower bounds on the optimal total flow time,
//! for instances too large for the LP of [`crate::model`].
//!
//! Both bounds are near-linear, and each returns the same `f64`, bit
//! for bit, as the scan it replaced (kept as the differential oracle):
//!
//! * **Pooled SRPT**, `O(n log n)` (the scan,
//!   [`naive::srpt_single_machine`], is `O(n²)`). The scan picks the
//!   running job as the first minimum, in job-index order, of the
//!   remaining work (`total_cmp`) over the released, unfinished jobs.
//!   Here those jobs sit in a binary heap keyed by `(remaining, job
//!   index)`, whose minimum is that same job. Between two decisions
//!   only the running job's remaining work changes, and it goes through
//!   the same float operations in the same order (finish time, work
//!   done up to the horizon, `≤ 1e-9` done test, `+1e-12` admission
//!   test), so every intermediate value and the returned total match.
//! * **η path work**, `O(|L| + n·d_min)` for root-origin jobs in the
//!   identical setting (the scan,
//!   [`Instance::trivial_flow_lower_bound_naive`], walks every leaf's
//!   path for every job, `O(n·|L|·d)`); see
//!   [`Instance::trivial_flow_lower_bound`]. Unrelated-setting and
//!   origin jobs still walk their paths.

use bct_core::{Instance, Time};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Path-work bound: every job's flow time is at least the total work on
/// its cheapest root→leaf path, so `Σ_j min_v η_{j,v} / s_max ≤ OPT`.
pub fn eta_bound(inst: &Instance, adversary_speed: f64) -> Time {
    inst.trivial_flow_lower_bound() / adversary_speed
}

/// Pooled-machine SRPT bound.
///
/// Every job must be fully processed on its root-adjacent node at rate
/// at most `s`. Pooling the whole root-adjacent layer into one
/// *fractional* machine of speed `s·|R|` (which may split its speed
/// arbitrarily, in particular run one job at full pooled speed) only
/// enlarges the set of feasible schedules, and SRPT minimizes total
/// flow time on such a machine. Hence the SRPT total flow time on the
/// pooled machine lower-bounds the optimal total flow time on the tree.
pub fn pooled_srpt_bound(inst: &Instance, adversary_speed: f64) -> Time {
    if inst.has_origins() {
        // Origin jobs need not cross the root-adjacent layer at all, so
        // the pooled relaxation is not valid for them.
        return 0.0;
    }
    let speed = adversary_speed * inst.tree().root_adjacent().len() as f64;
    srpt_single_machine(
        &inst.jobs().iter().map(|j| j.release).collect::<Vec<_>>(),
        &inst.jobs().iter().map(|j| j.size).collect::<Vec<_>>(),
        speed,
    )
}

/// A released, unfinished job on the pooled machine. The order is
/// reversed so that `BinaryHeap`, a max-heap, pops the least remaining
/// work first and, among equal remaining work, the lowest job index.
struct Pending {
    rem: Time,
    job: usize,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .rem
            .total_cmp(&self.rem)
            .then_with(|| other.job.cmp(&self.job))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Pending {}

/// Total flow time of SRPT on one machine of the given speed; `releases`
/// must be sorted. Used by [`pooled_srpt_bound`] and by tests.
///
/// A job whose finish time rounds back to `now` (a residue above the
/// `1e-9` done test, at `now` around `1e6` or later) counts as done then:
/// no step could move the clock for it.
pub fn srpt_single_machine(releases: &[Time], sizes: &[Time], speed: f64) -> Time {
    assert_eq!(releases.len(), sizes.len());
    assert!(speed > 0.0);
    let n = releases.len();
    let mut heap = BinaryHeap::new();
    let mut next_arrival = 0usize;
    let mut now = 0.0;
    let mut total_flow = 0.0;
    loop {
        while next_arrival < n && releases[next_arrival] <= now + 1e-12 {
            heap.push(Pending {
                rem: sizes[next_arrival],
                job: next_arrival,
            });
            next_arrival += 1;
        }
        let Some(mut cur) = heap.peek_mut() else {
            if next_arrival >= n {
                break;
            }
            now = releases[next_arrival];
            continue;
        };
        let finish = now + cur.rem / speed;
        // A residue too small to move the clock: done now.
        let stalled = finish <= now;
        let horizon = if next_arrival < n {
            releases[next_arrival].min(finish)
        } else {
            finish
        };
        // Remaining work only shrinks, so an unfinished job stays on top.
        cur.rem -= speed * (horizon - now);
        now = horizon;
        if cur.rem <= 1e-9 || stalled {
            total_flow += now - releases[cur.job];
            PeekMut::pop(cur);
        }
    }
    total_flow
}

/// The best available cheap lower bound.
pub fn combined_bound(inst: &Instance, adversary_speed: f64) -> Time {
    eta_bound(inst, adversary_speed).max(pooled_srpt_bound(inst, adversary_speed))
}

/// Both cheap bounds and the larger of them, `(η, pooled SRPT, max)`,
/// so a caller can see which one binds.
pub fn bound_report(inst: &Instance, adversary_speed: f64) -> (Time, Time, Time) {
    let e = eta_bound(inst, adversary_speed);
    let p = pooled_srpt_bound(inst, adversary_speed);
    (e, p, e.max(p))
}

/// The `O(n²)` SRPT scan the heap replaced, straight from the
/// definition. Differential-test oracle and benchmark baseline only:
/// [`srpt_single_machine`] must equal it bit for bit. (The η
/// scan is [`Instance::trivial_flow_lower_bound_naive`].)
pub mod naive {
    use bct_core::Time;

    /// Scan-based [`super::srpt_single_machine`]: rescans every job for
    /// the shortest remaining one at each arrival and completion.
    pub fn srpt_single_machine(releases: &[Time], sizes: &[Time], speed: f64) -> Time {
        assert_eq!(releases.len(), sizes.len());
        assert!(speed > 0.0);
        let n = releases.len();
        let mut rem: Vec<Time> = sizes.to_vec();
        let mut done = vec![false; n];
        let mut next_arrival = 0usize; // releases are sorted by construction
        let mut now = 0.0;
        let mut total_flow = 0.0;
        let mut released = vec![false; n];
        loop {
            while next_arrival < n && releases[next_arrival] <= now + 1e-12 {
                released[next_arrival] = true;
                next_arrival += 1;
            }
            // Shortest remaining among released, unfinished.
            let cur = (0..n)
                .filter(|&j| released[j] && !done[j])
                .min_by(|&a, &b| rem[a].total_cmp(&rem[b]));
            match cur {
                Some(j) => {
                    let finish = now + rem[j] / speed;
                    // A residue too small to move the clock: done now.
                    let stalled = finish <= now;
                    let horizon = if next_arrival < n {
                        releases[next_arrival].min(finish)
                    } else {
                        finish
                    };
                    rem[j] -= speed * (horizon - now);
                    now = horizon;
                    if rem[j] <= 1e-9 || stalled {
                        done[j] = true;
                        total_flow += now - releases[j];
                    }
                }
                None => {
                    if next_arrival >= n {
                        break;
                    }
                    now = releases[next_arrival];
                }
            }
        }
        total_flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Job, NodeId};

    fn star2() -> bct_core::Tree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r1);
        b.add_child(r2);
        b.build().unwrap()
    }

    #[test]
    fn srpt_single_job() {
        assert!((srpt_single_machine(&[0.0], &[4.0], 1.0) - 4.0).abs() < 1e-9);
        assert!((srpt_single_machine(&[0.0], &[4.0], 2.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn srpt_prefers_short_jobs() {
        // sizes 4 then 1 at t=0,0: SRPT runs the 1 first: flows 1 and 5.
        let f = srpt_single_machine(&[0.0, 0.0], &[4.0, 1.0], 1.0);
        assert!((f - 6.0).abs() < 1e-9);
    }

    #[test]
    fn srpt_preempts_on_arrival() {
        // size 10 at t=0, size 1 at t=1: flows 1 (small) and 11 (big).
        let f = srpt_single_machine(&[0.0, 1.0], &[10.0, 1.0], 1.0);
        assert!((f - 12.0).abs() < 1e-9);
    }

    #[test]
    fn srpt_idles_between_arrivals() {
        let f = srpt_single_machine(&[0.0, 100.0], &[1.0, 1.0], 1.0);
        assert!((f - 2.0).abs() < 1e-9);
    }

    #[test]
    fn srpt_finishes_a_residue_too_small_to_move_the_clock() {
        // At now = 1e6 + 9.861/24 the job's 1.36e-9 residue is above the
        // done test, but `now + residue / 24` rounds back to `now`.
        let f = srpt_single_machine(&[1e6], &[9.861], 24.0);
        assert!((f - 9.861 / 24.0).abs() < 1e-9, "{f}");
        let oracle = naive::srpt_single_machine(&[1e6], &[9.861], 24.0);
        assert_eq!(f.to_bits(), oracle.to_bits());
    }

    #[test]
    fn eta_bound_counts_cheapest_paths() {
        let inst = Instance::new(
            star2(),
            vec![Job::identical(0u32, 0.0, 3.0), Job::identical(1u32, 1.0, 1.0)],
        )
        .unwrap();
        // Both leaves at d=2: η = 2p each.
        assert!((eta_bound(&inst, 1.0) - 8.0).abs() < 1e-9);
        assert!((eta_bound(&inst, 2.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_never_exceed_a_real_schedule() {
        use bct_policies::{FixedAssignment, Sjf};
        use bct_sim::policy::NoProbe;
        use bct_sim::{SimConfig, Simulation};
        let t = star2();
        let inst = Instance::new(
            t.clone(),
            vec![
                Job::identical(0u32, 0.0, 2.0),
                Job::identical(1u32, 0.1, 1.0),
                Job::identical(2u32, 0.2, 4.0),
                Job::identical(3u32, 3.0, 1.0),
            ],
        )
        .unwrap();
        let lb = combined_bound(&inst, 1.0);
        // Exhaust all 16 assignments and take the best realized flow.
        let leaves = t.leaves().to_vec();
        let mut best = f64::INFINITY;
        for mask in 0..16u32 {
            let asg: Vec<NodeId> = (0..4).map(|i| leaves[((mask >> i) & 1) as usize]).collect();
            let out = Simulation::run(
                &inst,
                &Sjf::new(),
                &mut FixedAssignment(asg),
                &mut NoProbe,
                &SimConfig::unit(),
            )
            .unwrap();
            let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
            best = best.min(out.total_flow(&releases));
        }
        assert!(lb <= best + 1e-6, "bound {lb} exceeds best schedule {best}");
        assert!(lb > 0.0);
    }

    #[test]
    fn pooled_bound_beats_eta_under_congestion() {
        // A burst of many equal jobs on a small tree: the pooled-machine
        // queueing term dominates the per-job path work.
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::identical(i as u32, i as f64 * 1e-6, 4.0))
            .collect();
        let inst = Instance::new(star2(), jobs).unwrap();
        let (e, p, c) = bound_report(&inst, 1.0);
        assert!(p > e, "pooled {p} should beat eta {e} under a burst");
        assert_eq!(c, p);
    }
}
