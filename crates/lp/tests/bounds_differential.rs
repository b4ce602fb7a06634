//! Differential tests: the near-linear OPT lower bounds must return
//! exactly the bits of the scans they replaced — `bct_lp::bounds::naive`
//! for the SRPT run behind the pooled bound, `Instance::*_naive` for the
//! η path-work bound.
//!
//! Equality is asserted on `to_bits()`, never with a tolerance. The
//! SRPT inputs mix dyadic sizes (equal remaining work, so the heap's
//! `(remaining, index)` tie-break decides which job runs) with
//! continuous releases (so running tied jobs in another order changes
//! the rounded total), bursts of equal release times, releases inside
//! the `1e-12` admission tolerance, idle gaps, and late releases, where
//! a residue can be too small to move the clock. The η inputs cover
//! uniform-depth trees (star, fat tree), mixed-depth trees (broomstick,
//! random), trees reshaped by `AddLeaf`/`RemoveLeaf`, and the two kinds
//! of job that take the path-walk fallback: unrelated-setting jobs and
//! jobs with leaf origins.

use bct_core::{Instance, Job, JobId, NodeId, Tree, TreeMutation};
use bct_lp::bounds::{self, naive};
use bct_workloads::jobs::with_random_leaf_origins;
use bct_workloads::topo;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const DYADIC: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Sorted releases: bursts of equal times, steps inside the admission
/// tolerance, idle gaps, and ordinary steps (quarter-integers when
/// `dyadic`, continuous otherwise).
fn releases(rng: &mut ChaCha8Rng, n: usize, dyadic: bool) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += match rng.gen_range(0..10) {
                0..=2 => 0.0,
                3 => 5e-13,
                4 if dyadic => 16.0,
                4 => rng.gen_range(10.0..40.0),
                _ if dyadic => 0.25 * rng.gen_range(1..8) as f64,
                _ => rng.gen_range(0.0..2.0),
            };
            t
        })
        .collect()
}

fn size(rng: &mut ChaCha8Rng, dyadic: bool) -> f64 {
    if dyadic {
        DYADIC[rng.gen_range(0..DYADIC.len())]
    } else {
        rng.gen_range(0.01..10.0)
    }
}

/// One SRPT case: releases, sizes and a speed of 1, 1.5 or `1.5·|R|`
/// for a pooled layer of 2–16 machines. A quarter of the cases start
/// at `1e7`, where a residue above the `1e-9` done test can be too
/// small to move the clock.
fn srpt_case(seed: u64, dyadic_sizes: bool, dyadic_releases: bool) -> (Vec<f64>, Vec<f64>, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(1..=60);
    let mut r = releases(&mut rng, n, dyadic_releases);
    if rng.gen_bool(0.25) {
        r.iter_mut().for_each(|t| *t += 1e7);
    }
    let p = (0..n).map(|_| size(&mut rng, dyadic_sizes)).collect();
    let speed = match rng.gen_range(0..3) {
        0 => 1.0,
        1 => 1.5,
        _ => 1.5 * rng.gen_range(2..=16) as f64,
    };
    (r, p, speed)
}

/// Decisions of the SRPT scan at which two or more released,
/// unfinished jobs share the least remaining work (the decisions the
/// tie-break settles), and completions of a residue too small to move
/// the clock. Follows `naive::srpt_single_machine` step for step.
fn scan_events(releases: &[f64], sizes: &[f64], speed: f64) -> (usize, usize) {
    let n = releases.len();
    let mut rem = sizes.to_vec();
    let mut live = vec![false; n];
    let (mut next, mut now, mut ties, mut stalls) = (0, 0.0, 0, 0);
    loop {
        while next < n && releases[next] <= now + 1e-12 {
            live[next] = true;
            next += 1;
        }
        let Some(j) = (0..n)
            .filter(|&j| live[j])
            .min_by(|&a, &b| rem[a].total_cmp(&rem[b]))
        else {
            if next >= n {
                return (ties, stalls);
            }
            now = releases[next];
            continue;
        };
        if (0..n)
            .filter(|&i| live[i] && rem[i].total_cmp(&rem[j]).is_eq())
            .count()
            > 1
        {
            ties += 1;
        }
        let finish = now + rem[j] / speed;
        let stalled = finish <= now;
        let horizon = if next < n {
            releases[next].min(finish)
        } else {
            finish
        };
        rem[j] -= speed * (horizon - now);
        now = horizon;
        if rem[j] <= 1e-9 || stalled {
            live[j] = false;
            stalls += usize::from(stalled && rem[j] > 1e-9);
        }
    }
}

/// Trees with uniform leaf depth (`star`, `fat-tree`), mixed depth
/// (`broomstick`, `random`).
fn tree(rng: &mut ChaCha8Rng, family: usize) -> Tree {
    match family {
        0 => topo::star(rng.gen_range(2..=4), rng.gen_range(1..=4)),
        1 => topo::broomstick(
            rng.gen_range(1..=3),
            rng.gen_range(2..=4),
            rng.gen_range(1..=3),
        ),
        2 => topo::fat_tree(
            rng.gen_range(2..=4),
            rng.gen_range(1..=3),
            rng.gen_range(1..=3),
        ),
        _ => {
            let (routers, leaves) = (rng.gen_range(2..=10), rng.gen_range(2..=12));
            topo::random_tree(rng, routers, leaves)
        }
    }
}

/// An instance on a tree of `family`: identical or unrelated jobs,
/// dyadic or continuous data.
fn eta_instance(seed: u64, family: usize, unrelated: bool, dyadic: bool) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t = tree(&mut rng, family);
    let n = rng.gen_range(1..=40);
    let r = releases(&mut rng, n, dyadic);
    let jobs = (0..n)
        .map(|i| {
            let p = size(&mut rng, dyadic);
            if unrelated {
                let leaf = (0..t.num_leaves())
                    .map(|_| size(&mut rng, dyadic))
                    .collect();
                Job::unrelated(i as u32, r[i], p, leaf)
            } else {
                Job::identical(i as u32, r[i], p)
            }
        })
        .collect();
    Instance::new(t, jobs).unwrap()
}

/// Reshape an identical-setting instance's tree with a few `AddLeaf`s
/// under random routers and `RemoveLeaf`s of random leaves (which may
/// promote a router to a machine). Batches the tree rejects leave the
/// instance as it was. Returns how many batches applied.
fn reshape(inst: &mut Instance, seed: u64) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mut applied = 0;
    for _ in 0..rng.gen_range(1..=6) {
        let t = inst.tree();
        let m = if rng.gen_bool(0.5) {
            let routers: Vec<NodeId> = t.non_root_nodes().filter(|&v| t.is_router(v)).collect();
            TreeMutation::AddLeaf {
                parent: routers[rng.gen_range(0..routers.len())],
            }
        } else {
            TreeMutation::RemoveLeaf {
                leaf: t.leaves()[rng.gen_range(0..t.num_leaves())],
            }
        };
        inst.queue_mutation(m);
        applied += usize::from(inst.apply_tree_mutations().is_ok());
    }
    applied
}

/// Each job's `min_eta` and the summed η bound against their path
/// walks, bit for bit.
fn assert_eta_matches(inst: &Instance) -> Result<(), TestCaseError> {
    for j in 0..inst.n() as u32 {
        let j = JobId(j);
        prop_assert_eq!(
            inst.min_eta(j).to_bits(),
            inst.min_eta_naive(j).to_bits(),
            "min_eta of {}",
            j
        );
    }
    prop_assert_eq!(
        inst.trivial_flow_lower_bound().to_bits(),
        inst.trivial_flow_lower_bound_naive().to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The heap-driven SRPT returns the scan's total flow bit for bit.
    #[test]
    fn srpt_matches_scan(
        seed in 0u64..1_000_000,
        dyadic_sizes in any::<bool>(),
        dyadic_releases in any::<bool>(),
    ) {
        let (r, p, speed) = srpt_case(seed, dyadic_sizes, dyadic_releases);
        prop_assert_eq!(
            bounds::srpt_single_machine(&r, &p, speed).to_bits(),
            naive::srpt_single_machine(&r, &p, speed).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Root-origin instances, identical or unrelated, on every tree
    /// family.
    #[test]
    fn eta_matches_scan(
        seed in 0u64..1_000_000,
        family in 0usize..4,
        unrelated in any::<bool>(),
        dyadic in any::<bool>(),
    ) {
        assert_eta_matches(&eta_instance(seed, family, unrelated, dyadic))?;
    }

    /// Identical-setting instances whose tree was reshaped by leaf
    /// additions and removals after construction.
    #[test]
    fn eta_matches_scan_after_leaf_churn(
        seed in 0u64..1_000_000,
        family in 0usize..4,
        dyadic in any::<bool>(),
    ) {
        let mut inst = eta_instance(seed, family, false, dyadic);
        reshape(&mut inst, seed);
        assert_eta_matches(&inst)?;
    }

    /// Instances where some jobs start at a leaf: those jobs take the
    /// path-walk fallback, the rest the fast forms.
    #[test]
    fn eta_matches_scan_with_origins(
        seed in 0u64..1_000_000,
        family in 0usize..4,
        unrelated in any::<bool>(),
        dyadic in any::<bool>(),
    ) {
        let inst = eta_instance(seed, family, unrelated, dyadic);
        assert_eta_matches(&with_random_leaf_origins(&inst, 0.5, seed))?;
    }
}

/// The SRPT generator must reach the tie-break and the stall: most
/// dyadic-size cases have decisions where several jobs share the least
/// remaining work, and some cases finish a residue that cannot move the
/// clock.
#[test]
fn srpt_cases_contain_ties_and_stalls() {
    let seeds = 64u64;
    let (mut tied, mut stalled) = (0, 0);
    for seed in 0..seeds {
        let (r, p, speed) = srpt_case(seed, true, false);
        tied += u64::from(scan_events(&r, &p, speed).0 > 0);
        let (r, p, speed) = srpt_case(seed, false, false);
        stalled += u64::from(scan_events(&r, &p, speed).1 > 0);
    }
    assert!(
        2 * tied > seeds,
        "{tied}/{seeds} dyadic-size cases hit a tie"
    );
    assert!(stalled > 0, "no continuous case stalled");
}

/// The η generators must separate the shallowest leaf from the others
/// (mixed-depth trees), and reshaping must really apply mutations.
#[test]
fn eta_cases_have_mixed_depths_and_churn() {
    let seeds = 64u64;
    let mut mixed = 0;
    let mut churned = 0;
    for seed in 0..seeds {
        let mut inst = eta_instance(seed, (seed % 4) as usize, false, true);
        let t = inst.tree();
        let depths = t.leaves().iter().map(|&v| t.d_v(v));
        mixed += u64::from(depths.clone().min() != depths.max());
        churned += u64::from(reshape(&mut inst, seed) > 0);
    }
    assert!(
        4 * mixed > seeds,
        "{mixed}/{seeds} trees have mixed leaf depths"
    );
    assert!(
        2 * churned > seeds,
        "{churned}/{seeds} reshapes applied a batch"
    );
}

/// The origin cases must matter: some origin job's cheapest path is
/// strictly cheaper than its root-origin `η`, so a fast form applied to
/// it would return a different bound.
#[test]
fn origin_cases_differ_from_root_origin_eta() {
    let differing = (0..64u64)
        .filter(|&seed| {
            let inst = with_random_leaf_origins(
                &eta_instance(seed, (seed % 4) as usize, false, true),
                0.5,
                seed,
            );
            (0..inst.n() as u32).map(JobId).any(|j| {
                let root_eta = inst
                    .tree()
                    .leaves()
                    .iter()
                    .map(|&v| inst.eta(j, v))
                    .fold(f64::INFINITY, f64::min);
                inst.min_eta_naive(j) < root_eta - 1e-9
            })
        })
        .count();
    assert!(differing > 32, "{differing}/64 origin instances differ");
}
