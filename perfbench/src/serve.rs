//! The `serve-socket` workload: a journaling `Service` behind
//! `net::serve_unix`, built as `bct serve --unix` builds it, driven by
//! one closed-loop client connection, then the journal replayed as
//! `bct replay` replays it.
//!
//! The traced session swaps in timing wrappers through the crate's own
//! generic parameters — the socket handed to `serve_connection`
//! (`Read + Write`) and the journal sink handed to `Service::with_log`
//! (`Write`) — so no program code changes.

use std::cell::Cell;
use std::fs;
use std::io::{BufWriter, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bct_harness::spec;
use bct_harness::sweep::{churn_schedule, ChurnCfg};
use bct_serve::protocol::{
    decode_command, decode_reply, encode_command, encode_reply, next_record,
};
use bct_serve::{
    read_log, replay_parsed, serve_connection, Client, Command, Reply, ServeConfig, Service,
    SnapshotInfo,
};
use bct_workloads::jobs::WorkloadSpec;

use crate::trace::{self, Span, NO_ID, NO_PARENT};

/// Submits per session. A session (build, serve, drain, shut down,
/// replay) takes about two seconds, so a run measures several.
pub const JOBS: usize = 10_000;
const PROBE_EVERY: usize = 1_000;
const MUTATE_EVERY: usize = 5_000;
/// Replays of each session's journal.
pub const REPLAYS_PER_SESSION: usize = 2;

pub fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        topo: "fat-tree:16,8,8".into(),
        topo_seed: seed,
        policy: "sjf+greedy:0.5".into(),
        speeds: "uniform:1".into(),
        capacity: None,
    }
}

/// The client's command stream for `seed`: Poisson ρ = 0.9 `pow:2,4`
/// submits; after every 5,000 a `Mutate` drawn from
/// `sweep::churn_schedule`; after every 1,000 a `HashProbe` and a
/// `Snapshot`; then `Tick` past the last release, `HashProbe`,
/// `Shutdown`.
pub fn command_stream(cfg: &ServeConfig, seed: u64) -> Result<Vec<Command>, String> {
    let tree = spec::parse_topology(&cfg.topo, cfg.topo_seed)?;
    let sizes = spec::parse_sizes("pow:2,4")?;
    let arrivals = WorkloadSpec::poisson_identical(JOBS, 0.9, sizes, &tree).generate(&tree, seed);
    let horizon = arrivals.last().map_or(0.0, |j| j.release);
    let churn = churn_schedule(
        &tree,
        &ChurnCfg {
            events: JOBS / MUTATE_EVERY,
        },
        seed,
        horizon,
    );
    let mut mutations = churn.iter().map(|m| m.change);
    let mut cmds = Vec::with_capacity(JOBS + 3 * JOBS / PROBE_EVERY + 3);
    for (i, job) in arrivals.iter().enumerate() {
        cmds.push(Command::Submit {
            release: job.release,
            size: job.size,
        });
        if (i + 1) % MUTATE_EVERY == 0 {
            if let Some(m) = mutations.next() {
                cmds.push(Command::Mutate(m));
            }
        }
        if (i + 1) % PROBE_EVERY == 0 {
            cmds.push(Command::HashProbe { expect: None });
            cmds.push(Command::Snapshot);
        }
    }
    cmds.push(Command::Tick { t: horizon + 1e7 });
    cmds.push(Command::HashProbe { expect: None });
    cmds.push(Command::Shutdown);
    Ok(cmds)
}

/// What one session measured and checked.
#[derive(Default)]
pub struct Session {
    /// Wall times. Service built, reserved and bound, until `connect`
    /// returns.
    pub setup: Duration,
    /// First submit sent → last submit-phase reply (probes, snapshots
    /// and mutations included).
    pub submit: Duration,
    pub submits: u64,
    /// Submit round trips at the client, send to reply decoded, in
    /// nanoseconds.
    pub latency_ns: Vec<u32>,
    /// The submit phase cut at every `Snapshot` reply: each window is
    /// `PROBE_EVERY` submits (plus a `Mutate`, if one falls there) and
    /// the `HashProbe` and `Snapshot` after them.
    pub windows: Vec<Window>,
    pub live_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mutations: u64,
    pub commands: u64,
    /// `read_log` and `replay_parsed` wall seconds, summed over the
    /// session's replays; `replays_s` covers both, per replay.
    pub replay_read_s: f64,
    pub replay_apply_s: f64,
    pub replays_s: Vec<f64>,
    /// Journal records replayed, summed over the session's replays.
    pub replay_records: u64,
    /// Traced sessions only: server and client spans, journal bytes.
    pub spans: Vec<Span>,
    pub log_bytes: u64,
    pub errors: Vec<String>,
}

/// One window of the submit phase.
pub struct Window {
    /// The previous window's end (or the first send) → the closing
    /// `Snapshot`'s reply decoded.
    pub wall: Duration,
    pub submits: usize,
}

thread_local! {
    /// Index of the command the traced server is handling; the journal
    /// wrapper tags its appends with it.
    static CUR_CMD: Cell<u64> = const { Cell::new(NO_ID) };
}

/// One full session over a fresh Unix socket and journal.
pub fn session(
    cfg: &ServeConfig,
    cmds: &[Command],
    sock: &Path,
    log: &Path,
    traced: bool,
    epoch: Instant,
) -> Result<Session, String> {
    let mut s = Session::default();
    let started = Instant::now();
    let server = {
        let (cfg, sock, log) = (cfg.clone(), sock.to_path_buf(), log.to_path_buf());
        std::thread::spawn(move || serve_thread(cfg, &sock, &log, traced, epoch))
    };
    let stream = loop {
        match UnixStream::connect(sock) {
            Ok(st) => break st,
            // Yield rather than sleep, so the wait ends as soon as the
            // server listens instead of when this core is woken.
            Err(_) if !server.is_finished() => std::thread::yield_now(),
            Err(e) => {
                let why = server
                    .join()
                    .map_err(|_| "server thread panicked".to_string())?
                    .err();
                return Err(format!("connect: {e}; server: {}", why.unwrap_or_default()));
            }
        }
    };
    s.setup = started.elapsed();
    if traced {
        trace::start(epoch);
    }
    let res = drive(&mut s, cmds, stream, traced);
    let client_spans = if traced { trace::finish() } else { Vec::new() };
    let served = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    res?;
    let (server_spans, log_bytes) = served?;
    s.spans = server_spans;
    s.spans.extend(client_spans);
    s.log_bytes = log_bytes;

    // Replay, as `bct replay --log` runs it, several times over: one
    // replay is half a second, and more of them make the replay rate a
    // figure over more of the run.
    let journaled = s.commands - cmds.iter().filter(|c| **c == Command::Snapshot).count() as u64;
    for _ in 0..REPLAYS_PER_SESSION {
        let started = Instant::now();
        let parsed = read_log(log)?;
        let read = started.elapsed();
        let outcome = replay_parsed(&parsed)?;
        let took = started.elapsed();
        s.replay_read_s += read.as_secs_f64();
        s.replay_apply_s += (took - read).as_secs_f64();
        s.replays_s.push(took.as_secs_f64());
        s.replay_records += outcome.commands as u64;
        s.attempted += outcome.commands as u64;
        let mut fail = |why: String| {
            s.failed += 1;
            s.errors.push(why);
        };
        if !outcome.verified() {
            fail(format!(
                "replay: {} of {} probes diverged",
                outcome.mismatches.len(),
                outcome.probes
            ));
        }
        if outcome.final_hash != s.live_hash {
            fail(format!(
                "replay ended on {:#018x}, live hash {:#018x}",
                outcome.final_hash, s.live_hash
            ));
        }
        if !outcome.clean_shutdown {
            fail("journal does not end with a clean shutdown".into());
        }
        if outcome.commands as u64 != journaled {
            fail(format!(
                "journal holds {} records for {journaled} journaled commands",
                outcome.commands
            ));
        }
    }
    Ok(s)
}

type Served = Result<(Vec<Span>, u64), String>;

fn serve_thread(cfg: ServeConfig, sock: &Path, log: &Path, traced: bool, epoch: Instant) -> Served {
    let file = fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    if !traced {
        let mut svc = Service::with_log(cfg, BufWriter::new(file))?;
        svc.reserve(JOBS);
        bct_serve::net::serve_unix(&mut svc, sock)?;
        svc.into_log().transpose()?;
        return Ok((Vec::new(), 0));
    }
    trace::start(epoch);
    CUR_CMD.with(|c| c.set(NO_ID));
    let mut svc = Service::with_log(
        cfg,
        TimedLog {
            inner: BufWriter::new(file),
            bytes: 0,
        },
    )?;
    svc.reserve(JOBS);
    let res = serve_unix_traced(&mut svc, sock);
    let log = svc.into_log().transpose();
    let spans = trace::finish();
    res?;
    let bytes = log?.map_or(0, |l| l.bytes);
    Ok((spans, bytes))
}

/// `net::serve_unix`, with the accepted socket wrapped for timing.
fn serve_unix_traced<W: Write>(svc: &mut Service<W>, path: &Path) -> Result<(), String> {
    let _ = fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("bind: {e}"))?;
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept: {e}"))?;
        if serve_connection(svc, TimedStream::new(stream))? {
            let _ = fs::remove_file(path);
            return Ok(());
        }
    }
    Ok(())
}

/// The closed-loop client: send each command, wait for its reply, check
/// it.
fn drive(
    s: &mut Session,
    cmds: &[Command],
    stream: UnixStream,
    traced: bool,
) -> Result<(), String> {
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("client socket: {e}"))?;
    let mut client = Client::over(PollingStream(stream));
    s.latency_ns.reserve(JOBS);
    let t0 = Instant::now();
    let mut window = (t0, 0);
    let mut last_probe = None;
    for (i, cmd) in cmds.iter().enumerate() {
        let t = Instant::now();
        let reply = if traced {
            trace::span("client.call", i as u64, || client.call(cmd))?
        } else {
            client.call(cmd)?
        };
        let done = Instant::now();
        let ns = |d: Duration| u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
        s.attempted += 1;
        s.commands += 1;
        let ok = match (cmd, &reply) {
            (Command::Submit { .. }, Reply::Assigned { .. }) => {
                s.submits += 1;
                s.latency_ns.push(ns(done - t));
                true
            }
            (Command::Mutate(_), Reply::Epoch(_)) => {
                s.mutations += 1;
                true
            }
            (Command::HashProbe { .. }, Reply::Hash(h)) => {
                last_probe = Some(*h);
                s.live_hash = *h;
                true
            }
            (Command::Snapshot, Reply::Snapshot(json)) => {
                serde_json::from_str::<SnapshotInfo>(json)
                    .map(|info| Some(info.state_hash) == last_probe)
                    .unwrap_or(false)
            }
            (Command::Tick { .. } | Command::Shutdown, Reply::Ok) => true,
            _ => false,
        };
        if !ok {
            s.failed += 1;
            s.errors
                .push(format!("command {i} ({cmd:?}) answered {reply:?}"));
        }
        if !matches!(cmd, Command::Tick { .. } | Command::Shutdown) {
            s.submit = done - t0;
        }
        if *cmd == Command::Snapshot {
            s.windows.push(Window {
                wall: done - window.0,
                submits: s.latency_ns.len() - window.1,
            });
            window = (done, s.latency_ns.len());
        }
    }
    Ok(())
}

/// The client's end of the socket, non-blocking, read by polling with
/// `yield_now` between tries: the client's core never idles, so a reply
/// is picked up without waiting for that core to be woken.
struct PollingStream(UnixStream);

impl Read for PollingStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.0.read(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                other => return other,
            }
        }
    }
}

impl Write for PollingStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.0.write(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// Timing `Read + Write` wrapper around the served socket. Per command
/// it records the wait for the command's bytes (`serve.net.read`), the
/// server's time from the command fully read to its reply write
/// (`serve.busy`, which adopts the journal appends made meanwhile), and
/// the reply write (`serve.net.write`). All three carry the command's
/// index as their id.
struct TimedStream<S> {
    inner: S,
    cmd: u64,
    reading: bool,
    read_start: u64,
    read_end: u64,
    adopt_from: usize,
    write: Option<(u64, u64)>,
}

impl<S> TimedStream<S> {
    fn new(inner: S) -> TimedStream<S> {
        TimedStream {
            inner,
            cmd: 0,
            reading: false,
            read_start: 0,
            read_end: 0,
            adopt_from: 0,
            write: None,
        }
    }

    fn close_write(&mut self) {
        if let Some((start, end)) = self.write.take() {
            trace::record("serve.net.write", self.cmd, NO_PARENT, start, end);
            self.cmd += 1;
        }
    }

    fn begin_write(&mut self) {
        let now = trace::now();
        if self.reading {
            self.reading = false;
            trace::record(
                "serve.net.read",
                self.cmd,
                NO_PARENT,
                self.read_start,
                self.read_end,
            );
            if let Some(busy) = trace::record("serve.busy", self.cmd, NO_PARENT, self.read_end, now)
            {
                trace::adopt(self.adopt_from, busy);
            }
            self.write = Some((now, now));
        }
    }

    fn end_write(&mut self) {
        let now = trace::now();
        if let Some((_, end)) = &mut self.write {
            *end = now;
        }
    }
}

impl<S: Read> Read for TimedStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let start = trace::now();
        if !self.reading {
            self.close_write();
            self.reading = true;
            self.read_start = start;
            CUR_CMD.with(|c| c.set(self.cmd));
        }
        let n = self.inner.read(buf)?;
        self.read_end = trace::now();
        self.adopt_from = trace::len();
        Ok(n)
    }
}

impl<S: Write> Write for TimedStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.begin_write();
        let n = self.inner.write(buf)?;
        self.end_write();
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.begin_write();
        self.inner.write_all(buf)?;
        self.end_write();
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.begin_write();
        self.inner.flush()?;
        self.end_write();
        Ok(())
    }
}

impl<S> Drop for TimedStream<S> {
    fn drop(&mut self) {
        self.close_write();
    }
}

/// Timing `Write` wrapper around the journal sink: one
/// `serve.log.append` span per record (`LogWriter::append` is one
/// `write_all`), tagged with the command being served.
struct TimedLog<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for TimedLog<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let start = trace::now();
        self.inner.write_all(buf)?;
        self.bytes += buf.len() as u64;
        let id = CUR_CMD.with(Cell::get);
        trace::record("serve.log.append", id, NO_PARENT, start, trace::now());
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let start = trace::now();
        self.inner.flush()?;
        let id = CUR_CMD.with(Cell::get);
        trace::record("serve.log.flush", id, NO_PARENT, start, trace::now());
        Ok(())
    }
}

/// Server-side split of one traced session, over submit commands.
pub struct ServerSplit {
    pub read_wait_us: Vec<f64>,
    pub write_us: Vec<f64>,
    pub busy_us: Vec<f64>,
    pub append_us: Vec<f64>,
    pub records: u64,
}

pub fn server_split(spans: &[Span], cmds: &[Command]) -> ServerSplit {
    let is_submit = |id: u64| matches!(cmds.get(id as usize), Some(Command::Submit { .. }));
    let mut out = ServerSplit {
        read_wait_us: Vec::new(),
        write_us: Vec::new(),
        busy_us: Vec::new(),
        append_us: Vec::new(),
        records: 0,
    };
    for s in spans {
        let us = s.dur() as f64 / 1e3;
        match s.name {
            "serve.log.append" if s.id != NO_ID => {
                out.records += 1;
                out.append_us.push(us);
            }
            "serve.net.read" if is_submit(s.id) => out.read_wait_us.push(us),
            "serve.net.write" if is_submit(s.id) => out.write_us.push(us),
            "serve.busy" if is_submit(s.id) => out.busy_us.push(us),
            _ => {}
        }
    }
    out
}

/// In-process `Service::apply` on the same stream, journal on, timed
/// per command kind; returns the replies for the codec pass.
pub struct InProcess {
    pub submit_us: Vec<f64>,
    pub hash_us: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub mutate_us: Vec<f64>,
    pub replies: Vec<Reply>,
    pub final_hash: Option<u64>,
}

pub fn in_process(cfg: &ServeConfig, cmds: &[Command], log: &Path) -> Result<InProcess, String> {
    let file = fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    let mut svc = Service::with_log(cfg.clone(), BufWriter::new(file))?;
    svc.reserve(JOBS);
    let mut r = InProcess {
        submit_us: Vec::with_capacity(JOBS),
        hash_us: Vec::new(),
        snapshot_us: Vec::new(),
        mutate_us: Vec::new(),
        replies: Vec::with_capacity(cmds.len()),
        final_hash: None,
    };
    for cmd in cmds {
        let t = Instant::now();
        let reply = svc.apply(cmd)?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        match cmd {
            Command::Submit { .. } => r.submit_us.push(us),
            Command::HashProbe { .. } => r.hash_us.push(us),
            Command::Snapshot => r.snapshot_us.push(us),
            Command::Mutate(_) => r.mutate_us.push(us),
            Command::Tick { .. } | Command::Shutdown => {}
        }
        if let Reply::Hash(h) = reply {
            r.final_hash = Some(h);
        }
        r.replies.push(reply);
    }
    svc.into_log().transpose()?;
    Ok(r)
}

/// Mean nanoseconds per command for `encode_command` +
/// `decode_command` + `encode_reply` + `decode_reply` over the stream;
/// every decode must give back what was encoded.
pub fn codec_ns(cmds: &[Command], replies: &[Reply]) -> Result<f64, String> {
    let mut buf = Vec::with_capacity(256);
    let payload = |buf: &[u8]| -> Result<std::ops::Range<usize>, String> {
        match next_record(buf) {
            Ok(Some((range, _))) => Ok(range),
            other => Err(format!("encoded record does not frame: {other:?}")),
        }
    };
    let t = Instant::now();
    for (cmd, reply) in cmds.iter().zip(replies) {
        buf.clear();
        encode_command(cmd, &mut buf);
        let back = decode_command(&buf[payload(&buf)?]).map_err(|e| e.to_string())?;
        if back != *cmd {
            return Err(format!(
                "command codec round trip changed {cmd:?} into {back:?}"
            ));
        }
        buf.clear();
        encode_reply(reply, &mut buf);
        let back = decode_reply(&buf[payload(&buf)?]).map_err(|e| e.to_string())?;
        if back != *reply {
            return Err(format!(
                "reply codec round trip changed {reply:?} into {back:?}"
            ));
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / cmds.len().max(1) as f64)
}

/// A short relative socket path (Unix socket paths are limited to 108
/// bytes, and the checkout may sit deep).
pub fn socket_path(work: &Path, k: usize) -> PathBuf {
    work.join(format!("s{k}.sock"))
}
