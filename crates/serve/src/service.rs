//! The dispatch service: a live [`SimSession`] plus its policies,
//! answering commands and journaling the accepted ones.
//!
//! Determinism contract: the service's observable behaviour is a pure
//! function of its [`ServeConfig`] and the accepted command stream.
//! Policies are built from spec strings (so a replay constructs the
//! *same* policies, including seeded RNG state), the session engine is
//! deterministic by the workspace-wide contract, and the epoch state
//! hash folds both the session state and the assignment policy's own
//! digest — a replica that diverges in either is caught at the next
//! probe.

use std::io::Write;

use bct_core::{Fnv64, Time};
use bct_harness::spec;
use bct_sim::policy::{AssignmentPolicy, NodePolicy};
use bct_sim::engine::SimError;
use bct_sim::{SessionError, SimSession};
use serde::{Deserialize, Serialize};

use crate::log::LogWriter;
use crate::protocol::{Command, Reply};

/// Everything needed to reconstruct a service bit for bit: spec
/// strings, not built objects, so the log header stays small and the
/// replay side rebuilds identical policies (seeds included).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Topology spec (`bct_harness::spec::parse_topology` grammar).
    pub topo: String,
    /// Seed for randomized topology generators.
    #[serde(default)]
    pub topo_seed: u64,
    /// Policy spec (`NODE+ASSIGN` grammar), e.g. `"sjf+greedy:0.5"`.
    pub policy: String,
    /// Speed-profile spec, e.g. `"uniform:1.5"`. `explicit:` profiles
    /// are rejected by the session (mutations can outgrow the table).
    pub speeds: String,
    /// Per-endpoint capacity for the capacity-aware assignment kinds.
    #[serde(default)]
    pub capacity: Option<f64>,
}

/// The live pieces a [`ServeConfig`] describes: the session plus the
/// node and assignment policies driving it.
type LiveParts = (SimSession, Box<dyn NodePolicy>, Box<dyn AssignmentPolicy>);

impl ServeConfig {
    /// Build the three live pieces this config describes.
    fn build(&self) -> Result<LiveParts, String> {
        let tree = spec::parse_topology(&self.topo, self.topo_seed)?;
        let combo = spec::parse_policy(&self.policy)?;
        let speeds = spec::parse_speeds(&self.speeds)?;
        let session = SimSession::new(tree, speeds)
            .map_err(|e| format!("session: {e}"))?;
        Ok((session, combo.node.build(), combo.assign.build(self.capacity)))
    }
}

/// The service state machine. Generic over the log sink so tests can
/// journal into memory; pass [`std::io::Sink`] (via
/// [`Service::without_log`]) to disable journaling entirely.
pub struct Service<W: Write> {
    cfg: ServeConfig,
    session: SimSession,
    node_policy: Box<dyn NodePolicy>,
    assignment: Box<dyn AssignmentPolicy>,
    log: Option<LogWriter<W>>,
    commands: u64,
    shutdown: bool,
}

/// Counters exposed by `Snapshot`, also usable programmatically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Session clock.
    pub now: Time,
    /// Topology epoch (mutations applied).
    pub epoch: u64,
    /// Jobs submitted (accepted) so far.
    pub jobs: usize,
    /// Jobs fully completed.
    pub completed: usize,
    /// Jobs in flight.
    pub unfinished: usize,
    /// Fractional flow-time integral so far.
    pub fractional_flow: f64,
    /// Commands accepted (state-changing + probes + shutdown).
    pub commands: u64,
    /// The epoch state hash at snapshot time.
    pub state_hash: u64,
}

impl Service<std::io::Sink> {
    /// A service with journaling disabled (replay replicas, tests).
    pub fn without_log(cfg: ServeConfig) -> Result<Service<std::io::Sink>, String> {
        Service::build(cfg, None)
    }
}

impl<W: Write> Service<W> {
    /// A journaling service: the log header is written immediately.
    pub fn with_log(cfg: ServeConfig, sink: W) -> Result<Service<W>, String> {
        let log = LogWriter::new(sink, &cfg)?;
        Service::build(cfg, Some(log))
    }

    fn build(cfg: ServeConfig, log: Option<LogWriter<W>>) -> Result<Service<W>, String> {
        let (session, node_policy, assignment) = cfg.build()?;
        Ok(Service {
            cfg,
            session,
            node_policy,
            assignment,
            log,
            commands: 0,
            shutdown: false,
        })
    }

    /// Pre-size session buffers for an expected number of jobs so the
    /// warm path stays allocation-free (see the counting-allocator
    /// test). The per-job hop bound comes from the service's own tree:
    /// every dispatch path is a root→leaf path, so its length is at
    /// most the deepest leaf.
    pub fn reserve(&mut self, jobs: usize) {
        let hops = self.session.tree().max_leaf_depth() as usize + 1;
        self.session.reserve(jobs, hops);
    }

    /// The configuration this service was built from.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Read access to the underlying session.
    pub fn session(&self) -> &SimSession {
        &self.session
    }

    /// Whether a `Shutdown` command has been accepted.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown
    }

    /// Commands accepted so far (= log records when journaling).
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// The epoch state hash: session state digest folded with the
    /// assignment policy's own digest. Two services agree here iff
    /// their entire observable state agrees.
    // bct-lint: no_alloc
    pub fn state_hash(&mut self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(SimSession::state_hash(&mut self.session));
        h.write_u64(self.assignment.state_digest());
        h.finish()
    }

    /// Current counters (what `Snapshot` serializes).
    pub fn snapshot(&mut self) -> SnapshotInfo {
        let state_hash = self.state_hash();
        SnapshotInfo {
            now: self.session.now(),
            epoch: self.session.epoch(),
            jobs: self.session.jobs_submitted(),
            completed: self.session.completed(),
            unfinished: self.session.unfinished(),
            fractional_flow: self.session.fractional_flow(),
            commands: self.commands,
            state_hash,
        }
    }

    fn journal(&mut self, cmd: &Command) -> Result<(), String> {
        self.commands += 1;
        match &mut self.log {
            Some(log) => log.append(cmd),
            None => Ok(()),
        }
    }

    /// Apply one command. Command-level rejections come back as
    /// [`Reply::Err`] with the session untouched (or, for a non-leaf
    /// dispatch, deterministically parked — which is why that case *is*
    /// journaled); the outer `Err` is reserved for journal I/O
    /// failures, which must stop the service rather than silently
    /// desync the log.
    ///
    /// The session is called by path (`SimSession::submit(&mut …)`):
    /// `submit`, `tick` and `state_hash` are also `net::Client` and
    /// `Service` methods, and bct-lint resolves a method call only by a
    /// workspace-unique name, so a `.submit(..)` call would hide the
    /// whole decision path from rules a2 and p2.
    // bct-lint: no_alloc
    pub fn apply(&mut self, cmd: &Command) -> Result<Reply, String> {
        if self.shutdown {
            return Ok(Reply::Err("service is shut down".into()));
        }
        match *cmd {
            Command::Submit { release, size } => {
                match SimSession::submit(
                    &mut self.session,
                    release,
                    size,
                    self.node_policy.as_ref(),
                    self.assignment.as_mut(),
                ) {
                    Ok((job, leaf)) => {
                        self.journal(cmd)?;
                        Ok(Reply::Assigned { job: job.0, leaf: leaf.0 })
                    }
                    Err(e) => {
                        if state_changed(&e) {
                            self.journal(cmd)?;
                        }
                        Ok(Reply::Err(e.to_string()))
                    }
                }
            }
            Command::Mutate(m) => {
                match SimSession::mutate(
                    &mut self.session,
                    m,
                    self.node_policy.as_ref(),
                    self.assignment.as_mut(),
                ) {
                    Ok(epoch) => {
                        self.journal(cmd)?;
                        Ok(Reply::Epoch(epoch))
                    }
                    Err(e) => {
                        if state_changed(&e) {
                            self.journal(cmd)?;
                        }
                        Ok(Reply::Err(e.to_string()))
                    }
                }
            }
            Command::Tick { t } => {
                match SimSession::tick(
                    &mut self.session,
                    t,
                    self.node_policy.as_ref(),
                    self.assignment.as_mut(),
                ) {
                    Ok(()) => {
                        self.journal(cmd)?;
                        Ok(Reply::Ok)
                    }
                    Err(e) => Ok(Reply::Err(e.to_string())),
                }
            }
            Command::HashProbe { .. } => {
                // Journal the hash we answer with: replay recomputes it
                // at this exact point and diffs.
                let h = self.state_hash();
                self.journal(&Command::HashProbe { expect: Some(h) })?;
                Ok(Reply::Hash(h))
            }
            Command::Snapshot => {
                let info = self.snapshot();
                // bct-lint: allow(p1) -- SnapshotInfo has no map keys; serialization is infallible
                let json = serde_json::to_string(&info).expect("snapshot serializes");
                Ok(Reply::Snapshot(json))
            }
            Command::Shutdown => {
                self.journal(cmd)?;
                if let Some(log) = &mut self.log {
                    log.flush()?;
                }
                self.shutdown = true;
                Ok(Reply::Ok)
            }
        }
    }

    /// Flush the journal (no-op without one).
    pub fn flush(&mut self) -> Result<(), String> {
        match &mut self.log {
            Some(log) => log.flush(),
            None => Ok(()),
        }
    }

    /// Tear down, returning the journal sink if journaling was on.
    pub fn into_log(self) -> Option<Result<W, String>> {
        self.log.map(LogWriter::into_inner)
    }
}

/// Did this error leave observable session state behind? Only the
/// non-leaf dispatch does: the job stays registered (and, during a
/// mutation, earlier redispatches stand). Everything else is rejected
/// before any state is touched.
fn state_changed(e: &SessionError) -> bool {
    matches!(e, SessionError::Sim(SimError::AssignmentNotALeaf { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::{NodeId, TreeMutation};

    pub(crate) fn test_config() -> ServeConfig {
        ServeConfig {
            topo: "star:3,2".into(),
            topo_seed: 5,
            policy: "sjf+greedy:0.5".into(),
            speeds: "uniform:1".into(),
            capacity: None,
        }
    }

    #[test]
    fn submits_assign_leaves_and_advance_the_clock() {
        let mut svc = Service::without_log(test_config()).unwrap();
        let r = svc.apply(&Command::Submit { release: 0.5, size: 2.0 }).unwrap();
        let Reply::Assigned { job, leaf } = r else {
            panic!("expected assignment, got {r:?}")
        };
        assert_eq!(job, 0);
        assert!(svc.session().tree().is_leaf(NodeId(leaf)));
        svc.apply(&Command::Tick { t: 100.0 }).unwrap();
        let snap = svc.snapshot();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.unfinished, 0);
        assert_eq!(snap.commands, 2);
    }

    #[test]
    fn rejected_commands_leave_the_hash_alone() {
        let mut svc = Service::without_log(test_config()).unwrap();
        svc.apply(&Command::Tick { t: 5.0 }).unwrap();
        let before = svc.state_hash();
        let r = svc.apply(&Command::Submit { release: 1.0, size: 1.0 }).unwrap();
        assert!(matches!(r, Reply::Err(_)), "time regression must be rejected");
        let r = svc
            .apply(&Command::Mutate(TreeMutation::RemoveLeaf { leaf: NodeId(999) }))
            .unwrap();
        assert!(matches!(r, Reply::Err(_)));
        assert_eq!(svc.state_hash(), before);
        assert_eq!(svc.commands(), 1, "rejections are not journaled");
    }

    #[test]
    fn mutations_bump_the_epoch() {
        let mut svc = Service::without_log(test_config()).unwrap();
        // star:3,2 — root-adjacent routers with machine children; add
        // a machine under the first router.
        let parent = svc.session().tree().root_adjacent()[0];
        let r = svc
            .apply(&Command::Mutate(TreeMutation::AddLeaf { parent }))
            .unwrap();
        assert_eq!(r, Reply::Epoch(1));
    }

    #[test]
    fn shutdown_refuses_further_commands() {
        let mut svc = Service::without_log(test_config()).unwrap();
        assert_eq!(svc.apply(&Command::Shutdown).unwrap(), Reply::Ok);
        assert!(svc.is_shut_down());
        let r = svc.apply(&Command::Tick { t: 1.0 }).unwrap();
        assert!(matches!(r, Reply::Err(_)));
    }

    #[test]
    fn snapshot_json_parses_back() {
        let mut svc = Service::without_log(test_config()).unwrap();
        svc.apply(&Command::Submit { release: 0.0, size: 1.0 }).unwrap();
        let Reply::Snapshot(json) = svc.apply(&Command::Snapshot).unwrap() else {
            panic!("expected snapshot")
        };
        let info: SnapshotInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(info.jobs, 1);
        assert_eq!(info.state_hash, svc.state_hash());
    }

    #[test]
    fn bad_configs_fail_to_build() {
        let mut cfg = test_config();
        cfg.policy = "sjf+warp".into();
        assert!(Service::without_log(cfg).is_err());
        let mut cfg = test_config();
        cfg.topo = "blob:9".into();
        assert!(Service::without_log(cfg).is_err());
    }
}
