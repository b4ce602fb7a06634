//! The serve path's byte-compared golden: a small seeded command
//! stream run through a journaling `Service` must write exactly the
//! bytes of `specs/golden_serve.log`, and every hash probe in that file
//! must verify on replay.
//!
//! The stream: `fat-tree:2,2,2` under `sjf+greedy:0.5` at `uniform:1`,
//! 1,000 Poisson ρ = 0.9 `pow:2,4` submits, a topology mutation from
//! `sweep::churn_schedule` (AddLeaf, RemoveLeaf, SetSpeed, AddLeaf)
//! after every 250 submits, a `HashProbe` after every 100, then a
//! `Tick` past the last release, a final `HashProbe` and `Shutdown`.
//! The journal embeds every live probe hash, so the golden pins the
//! session's complete state at 11 points, not only its assignments.

use bct_harness::spec;
use bct_harness::sweep::{churn_schedule, ChurnCfg};
use bct_serve::{parse_log, replay_parsed, Command, Reply, ServeConfig, Service};
use bct_workloads::jobs::WorkloadSpec;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/golden_serve.log");
const JOBS: usize = 1_000;
const MUTATE_EVERY: usize = 250;
const PROBE_EVERY: usize = 100;
const SEED: u64 = 7;

fn config() -> ServeConfig {
    ServeConfig {
        topo: "fat-tree:2,2,2".into(),
        topo_seed: SEED,
        policy: "sjf+greedy:0.5".into(),
        speeds: "uniform:1".into(),
        capacity: None,
    }
}

/// Run the golden stream through a journaling service and return the
/// journal bytes. Every command must be accepted.
fn journal() -> Vec<u8> {
    let cfg = config();
    let tree = spec::parse_topology(&cfg.topo, cfg.topo_seed).unwrap();
    let sizes = spec::parse_sizes("pow:2,4").unwrap();
    let arrivals = WorkloadSpec::poisson_identical(JOBS, 0.9, sizes, &tree).generate(&tree, SEED);
    let horizon = arrivals.last().map_or(0.0, |j| j.release);
    let churn = churn_schedule(&tree, &ChurnCfg { events: JOBS / MUTATE_EVERY }, SEED, horizon);
    assert_eq!(churn.len(), JOBS / MUTATE_EVERY, "every churn pick applies");
    let mut mutations = churn.iter().map(|m| m.change);

    let mut svc = Service::with_log(cfg, Vec::new()).unwrap();
    let apply = |svc: &mut Service<Vec<u8>>, cmd: Command| {
        let reply = svc.apply(&cmd).unwrap();
        assert!(!matches!(reply, Reply::Err(_)), "{cmd:?} rejected: {reply:?}");
    };
    for (i, job) in arrivals.iter().enumerate() {
        apply(&mut svc, Command::Submit { release: job.release, size: job.size });
        if (i + 1) % MUTATE_EVERY == 0 {
            apply(&mut svc, Command::Mutate(mutations.next().unwrap()));
        }
        if (i + 1) % PROBE_EVERY == 0 {
            apply(&mut svc, Command::HashProbe { expect: None });
        }
    }
    apply(&mut svc, Command::Tick { t: horizon + 1e4 });
    apply(&mut svc, Command::HashProbe { expect: None });
    apply(&mut svc, Command::Shutdown);
    assert_eq!(svc.session().completed(), JOBS, "the final tick drains every job");
    svc.into_log().unwrap().unwrap()
}

#[test]
fn journal_regenerates_byte_for_byte() {
    let golden = std::fs::read(GOLDEN).unwrap();
    let fresh = journal();
    assert_eq!(fresh.len(), golden.len(), "journal length differs from {GOLDEN}");
    if let Some(at) = fresh.iter().zip(&golden).position(|(a, b)| a != b) {
        panic!("journal differs from {GOLDEN} at byte {at}");
    }
}

#[test]
fn golden_replays_with_every_probe_verified() {
    let golden = std::fs::read(GOLDEN).unwrap();
    let parsed = parse_log(&golden).unwrap();
    assert!(parsed.clean_shutdown);
    let outcome = replay_parsed(&parsed).unwrap();
    assert_eq!(outcome.probes, JOBS / PROBE_EVERY + 1);
    assert!(outcome.verified(), "mismatches: {:?}", outcome.mismatches);
}
