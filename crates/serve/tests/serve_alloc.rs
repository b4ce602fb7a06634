//! The zero-allocation contract of the serve warm path: once the
//! session buffers are reserved and warmed, a steady-state decision —
//! `Submit` through drain, assignment, dispatch, and journal append —
//! plus the interleaved `Tick`s and `HashProbe`s must not touch the
//! global allocator at all.
//!
//! The warm phase submits the first quarter of the workload so every
//! buffer (job columns, the event heap, node heaps, queue-membership
//! lists, the journal's encode scratch, `BufWriter`'s block) reaches
//! its steady-state footprint; the measured phase then drives the
//! remaining commands and asserts zero allocated bytes.
//!
//! Lives in its own integration binary with exactly one `#[test]` so
//! the counting global allocator sees no interference from parallel
//! tests in the same process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufWriter;
use std::sync::atomic::{AtomicU64, Ordering};

use bct_serve::protocol::{Command, Reply};
use bct_serve::replay::replay_file;
use bct_serve::service::{ServeConfig, Service};

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const JOBS: usize = 10_000;
const WARM: usize = JOBS / 4;

fn splitmix(i: usize) -> u64 {
    let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn submit<W: std::io::Write>(svc: &mut Service<W>, i: usize) {
    let release = i as f64 * 0.6;
    let size = [1.0, 2.0, 4.0, 8.0][(splitmix(i) % 4) as usize];
    let reply = svc
        .apply(&Command::Submit { release, size })
        .expect("journal append");
    assert!(matches!(reply, Reply::Assigned { .. }), "submit {i}: {reply:?}");
}

#[test]
fn steady_state_decisions_allocate_nothing() {
    let dir = std::env::temp_dir().join("bct_serve_alloc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("decisions.log");
    let cfg = ServeConfig {
        topo: "star:8,8".into(),
        topo_seed: 0,
        policy: "sjf+greedy:0.5".into(),
        speeds: "uniform:1".into(),
        capacity: None,
    };
    let file = std::fs::File::create(&log_path).unwrap();
    let mut svc = Service::with_log(cfg, BufWriter::new(file)).unwrap();
    svc.reserve(JOBS);

    // Warm phase: grow everything to steady-state footprint.
    for i in 0..WARM {
        submit(&mut svc, i);
        if i % 500 == 499 {
            svc.apply(&Command::HashProbe { expect: None }).unwrap();
        }
    }

    // Measured phase: the remaining 7.5k decisions plus periodic ticks
    // and probes must be allocation-free.
    let before = ALLOCATED.load(Ordering::SeqCst);
    for i in WARM..JOBS {
        submit(&mut svc, i);
        if i % 500 == 499 {
            let reply = svc.apply(&Command::HashProbe { expect: None }).unwrap();
            assert!(matches!(reply, Reply::Hash(_)));
        }
        if i % 1000 == 999 {
            let reply = svc.apply(&Command::Tick { t: i as f64 * 0.6 }).unwrap();
            assert!(matches!(reply, Reply::Ok));
        }
    }
    let allocated = ALLOCATED.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "steady-state serve decisions allocated {allocated} bytes over {} commands",
        JOBS - WARM
    );

    // Seal and verify: the log this run produced replays bit for bit.
    svc.apply(&Command::Tick { t: 1e9 }).unwrap();
    svc.apply(&Command::HashProbe { expect: None }).unwrap();
    let live = svc.state_hash();
    assert_eq!(svc.session().completed(), JOBS, "fixture must complete");
    svc.apply(&Command::Shutdown).unwrap();
    svc.into_log().unwrap().unwrap();
    let outcome = replay_file(&log_path).unwrap();
    assert!(outcome.verified(), "replay mismatches: {:?}", outcome.mismatches);
    assert_eq!(outcome.final_hash, live, "replay final hash diverged");
    std::fs::remove_file(&log_path).ok();
}
