//! Durable, resumable run directories: the on-disk format that lets a
//! sweep be killed at any instant and resumed — by the same process,
//! a different one, or several at once — with output byte-identical to
//! a fresh one-shot run.
//!
//! ## Layout
//!
//! ```text
//! RUN_DIR/
//!   MANIFEST.json                 # spec hash, cell count, chunk layout
//!   rows/chunk-00007.g1.jsonl     # checksummed rows, one file per
//!                                 #   (chunk, claim generation)
//!   claims/chunk-00007.claim      # live ownership (see crate::claim)
//!   claims/chunk-00007.done       # terminal marker
//! ```
//!
//! Each row line is `<cell> <fnv1a-16hex-of-json> <row-json>\n` — the
//! cell index and checksum prefix make every line independently
//! verifiable, so recovery is a pure scan. A torn trailing line (the
//! bct-serve journal pattern: a crash mid-append) is detected and
//! *physically truncated* on open; an invalid line followed by valid
//! data is corruption and a hard error. Because every row is the output
//! of the same deterministic cell function, duplicate rows from claim
//! races must be byte-identical — the merge verifies exactly that and
//! deduplicates.
//!
//! ## Resume invariants
//!
//! 1. The manifest pins the spec by content hash: resuming with a
//!    different spec is a hard error, never a silent mix.
//! 2. A checksum-valid row is never recomputed; everything else is.
//! 3. The merged output is the stored row bytes themselves, ordered by
//!    cell index — byte-identical to `SweepReport::sorted_jsonl` of a
//!    fresh run because both sides serialize with the same
//!    `serde_json::to_string` call (the golden-diff gates enforce this
//!    end to end).

use crate::agg::StreamingAgg;
use crate::claim::{Claim, ClaimDir, ClaimOutcome};
use crate::sink::RowSink;
use crate::sweep::{
    self, expand, CellTask, ProgressMode, RowOutcome, SweepOptions, SweepReport, SweepRow,
    SweepSpec,
};
use bct_core::fnv1a;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Manifest format tag.
pub const RUNDIR_FORMAT: &str = "bct-sweep-rundir";
/// Manifest format version.
pub const RUNDIR_VERSION: u32 = 1;

/// `MANIFEST.json`: the identity and layout of a run directory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Always [`RUNDIR_FORMAT`].
    pub format: String,
    /// Always [`RUNDIR_VERSION`].
    pub version: u32,
    /// Sweep name (diagnostics; the hash is the identity).
    pub name: String,
    /// [`spec_hash`] of the sweep spec, 16 hex digits.
    pub spec_hash: String,
    /// Total grid cells.
    pub cells: usize,
    /// Cells per claim chunk (the last chunk may be short).
    pub chunk_size: usize,
    /// Number of chunks.
    pub chunks: usize,
}

/// Content hash of a spec: FNV-1a over its canonical JSON
/// serialization, so two spec *files* with different whitespace but the
/// same grid hash identically.
pub fn spec_hash(spec: &SweepSpec) -> String {
    // bct-lint: allow(p1) -- SweepSpec serialization is infallible (no maps, no non-string keys)
    let canon = serde_json::to_string(spec).expect("specs always serialize");
    format!("{:016x}", fnv1a(canon.as_bytes()))
}

/// Default chunking: aim for 16 chunks (enough claim granularity for a
/// handful of cooperating processes), at least 1 and at most 16 cells
/// per chunk so heartbeats stay frequent relative to cell runtimes.
pub fn default_chunk_size(cells: usize) -> usize {
    cells.div_ceil(16).clamp(1, 16)
}

/// Encode one durable row line: `<cell> <fnv1a(json):016x} <json>\n`.
pub fn encode_row_line(cell: usize, json: &str) -> String {
    format!("{cell} {:016x} {json}\n", fnv1a(json.as_bytes()))
}

/// Decode and verify one row line. `None` means the line is torn or
/// corrupt (unparseable, checksum mismatch, or a cell prefix that
/// contradicts the row body) — the *position* of such a line decides
/// between tail truncation and a hard error, so this stays a pure
/// predicate.
pub fn parse_row_line(line: &str) -> Option<(usize, &str)> {
    let (cell_s, rest) = line.split_once(' ')?;
    let (check_s, json) = rest.split_once(' ')?;
    let cell: usize = cell_s.parse().ok()?;
    if check_s.len() != 16 {
        return None;
    }
    let check = u64::from_str_radix(check_s, 16).ok()?;
    if fnv1a(json.as_bytes()) != check {
        return None;
    }
    let row: SweepRow = serde_json::from_str(json).ok()?;
    if row.cell != cell {
        return None;
    }
    Some((cell, json))
}

/// Execution knobs of the run-dir path (the claim protocol's tunables;
/// cell execution itself is configured by [`SweepOptions`]).
#[derive(Clone, Copy, Debug)]
pub struct RunDirOptions {
    /// Cells per chunk; `None` uses [`default_chunk_size`] on creation
    /// and whatever the manifest records on resume. An explicit value
    /// that contradicts an existing manifest is a hard error.
    pub chunk_size: Option<usize>,
    /// Heartbeat staleness timeout for claim takeover.
    pub claim_timeout: Duration,
    /// Poll interval while waiting for chunks held by other workers.
    pub poll: Duration,
}

impl Default for RunDirOptions {
    fn default() -> Self {
        RunDirOptions {
            chunk_size: None,
            claim_timeout: Duration::from_secs(30),
            poll: Duration::from_millis(50),
        }
    }
}

/// An open run directory: validated manifest plus its claim dir.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
    manifest: Manifest,
    claims: ClaimDir,
}

/// Valid recovered state of one chunk: per-cell row JSON (indexed
/// relative to the chunk's range) and the highest row-file generation
/// seen on disk.
#[derive(Debug)]
pub struct RecoveredChunk {
    /// `rows[i]` is the stored JSON of cell `range.start + i`, if any.
    pub rows: Vec<Option<String>>,
    /// Highest generation with an existing row file (0 = none).
    pub max_gen: u64,
}

impl RunDir {
    /// Open `root`, creating and populating it on first use. An
    /// existing manifest must match the spec's content hash exactly —
    /// resuming a run dir with a different spec is refused, never
    /// silently mixed.
    pub fn open_or_create(
        root: &Path,
        spec: &SweepSpec,
        chunk_size: Option<usize>,
    ) -> Result<RunDir, String> {
        spec.validate()?;
        if let Some(c) = chunk_size {
            if c == 0 {
                return Err("chunk size must be ≥ 1".into());
            }
        }
        let rows_dir = root.join("rows");
        fs::create_dir_all(&rows_dir)
            .map_err(|e| format!("creating {}: {e}", rows_dir.display()))?;
        let claims = ClaimDir::new(&root.join("claims"))?;
        let hash = spec_hash(spec);
        let cells = spec.num_cells();
        let mpath = root.join("MANIFEST.json");
        let manifest = match fs::read_to_string(&mpath) {
            Ok(text) => {
                let m: Manifest = serde_json::from_str(&text)
                    .map_err(|e| format!("parsing {}: {e}", mpath.display()))?;
                if m.format != RUNDIR_FORMAT || m.version != RUNDIR_VERSION {
                    return Err(format!(
                        "{}: not a v{RUNDIR_VERSION} {RUNDIR_FORMAT} manifest \
                         (format '{}', version {})",
                        mpath.display(),
                        m.format,
                        m.version
                    ));
                }
                if m.spec_hash != hash {
                    return Err(format!(
                        "run dir {} belongs to sweep '{}' with spec hash {}, but this \
                         spec ('{}') hashes to {hash} — refusing to mix sweeps; resume \
                         with the original spec or use a fresh --run-dir",
                        root.display(),
                        m.name,
                        m.spec_hash,
                        spec.name
                    ));
                }
                if m.cells != cells || m.chunk_size == 0 || m.chunks != cells.div_ceil(m.chunk_size)
                {
                    return Err(format!("{}: inconsistent layout", mpath.display()));
                }
                if let Some(c) = chunk_size {
                    if c != m.chunk_size {
                        return Err(format!(
                            "--chunk-size {c} conflicts with the run dir's recorded \
                             chunk size {} — the layout is fixed at creation",
                            m.chunk_size
                        ));
                    }
                }
                m
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let chunk_size = chunk_size.unwrap_or_else(|| default_chunk_size(cells));
                let m = Manifest {
                    format: RUNDIR_FORMAT.to_string(),
                    version: RUNDIR_VERSION,
                    name: spec.name.clone(),
                    spec_hash: hash,
                    cells,
                    chunk_size,
                    chunks: cells.div_ceil(chunk_size),
                };
                // Atomic create: full content to a temp file, rename
                // into place. Two racing creators write identical bytes
                // (same spec, same flags), so last-rename-wins is fine.
                let tmp = root.join(format!("MANIFEST.tmp.{}", std::process::id()));
                let json = serde_json::to_string(&m)
                    .map_err(|e| format!("manifest serialize: {e}"))?;
                fs::write(&tmp, json).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
                fs::rename(&tmp, &mpath)
                    .map_err(|e| format!("renaming {}: {e}", tmp.display()))?;
                m
            }
            Err(e) => return Err(format!("reading {}: {e}", mpath.display())),
        };
        Ok(RunDir { root: root.to_path_buf(), manifest, claims })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The claim directory (exposed for benches and tests that drive
    /// the protocol directly).
    pub fn claims(&self) -> &ClaimDir {
        &self.claims
    }

    /// Cell range of `chunk`.
    pub fn chunk_range(&self, chunk: usize) -> Range<usize> {
        let start = chunk * self.manifest.chunk_size;
        start..(start + self.manifest.chunk_size).min(self.manifest.cells)
    }

    /// Row-file path of `(chunk, gen)`.
    pub fn rows_path(&self, chunk: usize, gen: u64) -> PathBuf {
        self.root.join("rows").join(format!("chunk-{chunk:05}.g{gen}.jsonl"))
    }

    /// Highest row-file generation present for `chunk` (0 = none).
    fn max_gen(&self, chunk: usize) -> Result<u64, String> {
        Ok(self.gens(chunk)?.last().copied().unwrap_or(0))
    }

    /// Sorted generations with existing row files for `chunk`.
    fn gens(&self, chunk: usize) -> Result<Vec<u64>, String> {
        let rows_dir = self.root.join("rows");
        let prefix = format!("chunk-{chunk:05}.g");
        let mut gens = Vec::new();
        let entries = fs::read_dir(&rows_dir)
            .map_err(|e| format!("listing {}: {e}", rows_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("listing {}: {e}", rows_dir.display()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else { continue };
            let Some(gen_s) = rest.strip_suffix(".jsonl") else { continue };
            if let Ok(gen) = gen_s.parse::<u64>() {
                gens.push(gen);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Recover every checksum-valid row of `chunk` across all of its
    /// generation files, truncating torn tails in place. Duplicate
    /// cells across generations (a takeover race) must be
    /// byte-identical — determinism makes them harmless — anything else
    /// is a hard error.
    pub fn recover_chunk(&self, chunk: usize) -> Result<RecoveredChunk, String> {
        let range = self.chunk_range(chunk);
        let mut rows: Vec<Option<String>> = vec![None; range.len()];
        let gens = self.gens(chunk)?;
        let max_gen = gens.last().copied().unwrap_or(0);
        for gen in gens {
            let path = self.rows_path(chunk, gen);
            for (cell, json) in recover_file(&path)? {
                if !range.contains(&cell) {
                    return Err(format!(
                        "{}: row for cell {cell} outside chunk range {}..{}",
                        path.display(),
                        range.start,
                        range.end
                    ));
                }
                match rows.get_mut(cell - range.start) {
                    Some(slot @ None) => *slot = Some(json),
                    Some(Some(prev)) if *prev == json => {} // takeover duplicate
                    Some(Some(_)) => {
                        return Err(format!(
                            "{}: cell {cell} has two non-identical rows — the \
                             determinism contract is broken, refusing to merge",
                            path.display()
                        ));
                    }
                    None => unreachable!("range.contains checked above"),
                }
            }
        }
        Ok(RecoveredChunk { rows, max_gen })
    }

    /// Merge a fully-done run dir into `(cell, row-json)` pairs for
    /// every cell, in index order, verifying completeness. The strings
    /// are the stored bytes verbatim — the byte-identity anchor.
    pub fn merge(&self) -> Result<Vec<String>, String> {
        let mut rows: Vec<Option<String>> = vec![None; self.manifest.cells];
        for chunk in 0..self.manifest.chunks {
            if !self.claims.is_done(chunk) {
                return Err(format!("chunk {chunk} is not finished; cannot merge"));
            }
            let range = self.chunk_range(chunk);
            let rec = self.recover_chunk(chunk)?;
            for (i, json) in rec.rows.into_iter().enumerate() {
                let cell = range.start + i;
                let Some(json) = json else {
                    return Err(format!(
                        "chunk {chunk} is marked done but cell {cell} has no row"
                    ));
                };
                if let Some(slot) = rows.get_mut(cell) {
                    *slot = Some(json);
                }
            }
        }
        rows.into_iter()
            .enumerate()
            .map(|(cell, json)| json.ok_or_else(|| format!("cell {cell} missing after merge")))
            .collect()
    }
}

/// Scan one row file: return its valid `(cell, json)` lines and
/// truncate any torn tail in place. Rules:
///
/// * trailing bytes with no newline — torn append, truncate;
/// * an invalid final line — torn append that happened to include the
///   newline, truncate;
/// * an invalid line *followed by* any valid line — corruption, hard
///   error (a torn tail can only ever be a tail).
fn recover_file(path: &Path) -> Result<Vec<(usize, String)>, String> {
    let data = fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    // Complete-line spans (start..end, newline excluded).
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    let trailing_partial = start < data.len();
    let mut rows: Vec<(usize, String)> = Vec::new();
    let mut valid_end = 0usize;
    let mut first_bad: Option<usize> = None;
    for &(s, e) in &spans {
        let parsed = data
            .get(s..e)
            .and_then(|bytes| std::str::from_utf8(bytes).ok())
            .and_then(parse_row_line);
        match (parsed, first_bad) {
            (Some((cell, json)), None) => {
                rows.push((cell, json.to_string()));
                valid_end = e + 1;
            }
            (None, None) => first_bad = Some(s),
            // Valid data after an invalid line: this is not a torn
            // tail, it is corruption mid-file.
            (Some(_), Some(bad_at)) => {
                return Err(format!(
                    "{}: corrupt row at byte {bad_at} followed by valid data — \
                     not a torn tail; refusing to resume from a damaged file",
                    path.display()
                ));
            }
            (None, Some(_)) => {}
        }
    }
    // Truncate the torn region (an invalid tail line and/or a partial
    // final line) so the file ends at a clean record boundary and the
    // next generation's reader sees only valid lines.
    if first_bad.is_some() || trailing_partial {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("opening {} for truncation: {e}", path.display()))?;
        f.set_len(valid_end as u64)
            .map_err(|e| format!("truncating {}: {e}", path.display()))?;
    }
    Ok(rows)
}

/// Durable row writer for one `(chunk, generation)` file. Every row is
/// flushed as soon as it is written — a killed worker loses at most
/// the row being appended, and that loss is exactly the torn tail the
/// recovery scan truncates.
pub struct ChunkWriter {
    w: fs::File,
}

impl ChunkWriter {
    /// Exclusively create the row file for `(chunk, gen)`; bumps the
    /// generation past collisions (a live prior owner racing us) and
    /// returns the generation actually acquired.
    fn create(dir: &RunDir, chunk: usize, mut gen: u64) -> Result<(ChunkWriter, u64), String> {
        loop {
            let path = dir.rows_path(chunk, gen);
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(f) => return Ok((ChunkWriter { w: f }, gen)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => gen += 1,
                Err(e) => return Err(format!("creating {}: {e}", path.display())),
            }
        }
    }
}

impl RowSink for ChunkWriter {
    fn write_row(&mut self, row: &SweepRow) -> std::io::Result<()> {
        let json = serde_json::to_string(row)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.w.write_all(encode_row_line(row.cell, &json).as_bytes())?;
        self.flush()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

/// Crash injection for the kill/resume differential tests:
/// `BCT_SWEEP_CRASH_AFTER_CELLS=k` aborts the process the moment it
/// has appended its k-th row (rows recovered from disk do not count);
/// `BCT_SWEEP_CRASH_TORN=1` additionally leaves a torn partial line,
/// exercising the truncation path. Reading the environment here is
/// deterministic: the hook either never fires or kills the process
/// before any further output.
struct CrashHook {
    after: Option<u64>,
    torn: bool,
    appended: u64,
}

impl CrashHook {
    fn from_env() -> CrashHook {
        CrashHook {
            after: std::env::var("BCT_SWEEP_CRASH_AFTER_CELLS").ok().and_then(|v| v.parse().ok()),
            torn: std::env::var("BCT_SWEEP_CRASH_TORN").is_ok(),
            appended: 0,
        }
    }

    fn tick(&mut self, w: &mut ChunkWriter) {
        if self.after.is_none() {
            return;
        }
        self.appended += 1;
        if self.after == Some(self.appended) {
            if self.torn {
                // A half-appended record: plausible prefix, wrong
                // checksum, no newline.
                let _ = w.w.write_all(b"999999 0123456789abcdef {\"cell\":999999,\"to");
                let _ = w.w.flush();
            }
            std::process::abort();
        }
    }
}

/// Run (or resume) a sweep against a durable run directory. Claims
/// chunks via the [`crate::claim`] protocol, recovers checksum-valid
/// rows instead of recomputing them, runs only what is missing, waits
/// for chunks held by other live workers (taking over stale ones), and
/// finally merges the directory into `(report, canonical_jsonl)` —
/// with `canonical_jsonl` byte-identical to
/// [`SweepReport::sorted_jsonl`] of a fresh one-shot run.
pub fn run_sweep_dir(
    spec: &SweepSpec,
    opts: &SweepOptions,
    rd_opts: &RunDirOptions,
    root: &Path,
) -> Result<(SweepReport, String), String> {
    if opts.shard.is_some() {
        return Err(
            "--shard cannot be combined with a run dir: the claim protocol already \
             partitions cells dynamically"
                .into(),
        );
    }
    // bct-lint: allow(d2) -- elapsed-time reporting only; never feeds a row or an aggregate
    let started = Instant::now();
    let dir = RunDir::open_or_create(root, spec, rd_opts.chunk_size)?;
    let tasks = expand(spec);
    let mut crash = CrashHook::from_env();
    let chunks = dir.manifest.chunks;
    let mut done = vec![false; chunks];
    loop {
        let mut progressed = false;
        for chunk in 0..chunks {
            if done.get(chunk).copied().unwrap_or(true) {
                continue;
            }
            if dir.claims.is_done(chunk) {
                if let Some(d) = done.get_mut(chunk) {
                    *d = true;
                }
                progressed = true;
                continue;
            }
            let min_gen = dir.max_gen(chunk)? + 1;
            match dir.claims.try_claim(chunk, min_gen, rd_opts.claim_timeout)? {
                ClaimOutcome::Done => {}
                ClaimOutcome::Busy => continue,
                ClaimOutcome::Claimed(claim) => {
                    run_chunk(&dir, &tasks, chunk, claim, spec, opts, &mut crash)?;
                }
            }
            if let Some(d) = done.get_mut(chunk) {
                *d = true;
            }
            progressed = true;
        }
        if done.iter().all(|&d| d) {
            break;
        }
        if !progressed {
            // Every unfinished chunk is held by a live worker; wait for
            // done markers (or for heartbeats to go stale).
            std::thread::sleep(rd_opts.poll);
        }
    }
    let merged = dir.merge()?;
    let mut jsonl = String::new();
    let mut rows: Vec<SweepRow> = Vec::with_capacity(merged.len());
    let mut agg = StreamingAgg::default();
    for json in &merged {
        jsonl.push_str(json);
        jsonl.push('\n');
        let row: SweepRow =
            serde_json::from_str(json).map_err(|e| format!("merged row reparse: {e}"))?;
        agg.observe(&row);
        rows.push(row);
    }
    let ok = rows.iter().filter(|r| matches!(r.outcome, RowOutcome::Ok(_))).count();
    let failed = rows.len() - ok;
    let report = SweepReport {
        name: spec.name.clone(),
        rows,
        agg,
        ok,
        failed,
        elapsed: started.elapsed(),
    };
    Ok((report, jsonl))
}

/// Run one claimed chunk: recover what exists, execute only the
/// missing cells into a fresh generation file, and mark the chunk
/// done. The claim is heartbeat on every finished row.
fn run_chunk(
    dir: &RunDir,
    tasks: &[CellTask],
    chunk: usize,
    mut claim: Claim,
    spec: &SweepSpec,
    opts: &SweepOptions,
    crash: &mut CrashHook,
) -> Result<(), String> {
    let range = dir.chunk_range(chunk);
    let rec = dir.recover_chunk(chunk)?;
    let missing: Vec<CellTask> = range
        .clone()
        .zip(rec.rows.iter())
        .filter(|(_, have)| have.is_none())
        .map(|(cell, _)| {
            tasks
                .get(cell)
                .cloned()
                .ok_or_else(|| format!("cell {cell} beyond the expanded grid"))
        })
        .collect::<Result<_, String>>()?;
    let recovered = range.len() - missing.len();
    if !missing.is_empty() {
        let (mut writer, _gen) = ChunkWriter::create(dir, chunk, claim.gen().max(rec.max_gen + 1))?;
        let mut sink_error: Option<String> = None;
        sweep::execute_tasks(&missing, spec.max_retries, opts.workers, |row| {
            if sink_error.is_none() {
                match writer.write_row(row) {
                    Ok(()) => {
                        crash.tick(&mut writer);
                        claim.heartbeat();
                    }
                    Err(e) => sink_error = Some(format!("appending row: {e}")),
                }
            }
        });
        if let Some(e) = sink_error {
            return Err(e);
        }
    }
    if opts.progress == ProgressMode::Stderr {
        eprintln!(
            "[sweep {}] chunk {}/{} done ({recovered} recovered, {} run)",
            spec.name,
            chunk + 1,
            dir.manifest.chunks,
            missing.len(),
        );
    }
    dir.claims.mark_done(chunk, range.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("bct_rundir_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "rundir-tiny".into(),
            root_seed: 7,
            replications: 2,
            max_retries: 0,
            topologies: vec!["star:3,2".into()],
            workloads: vec![crate::sweep::WorkloadCfg {
                jobs: 8,
                load: 0.7,
                sizes: "pow:2,3".into(),
                capacity: None,
                churn: None,
            }],
            policies: vec!["sjf+greedy:0.5".into(), "sjf+closest".into()],
            speeds: vec!["uniform:1.5".into()],
        }
    }

    #[test]
    fn row_lines_roundtrip_and_reject_damage() {
        let json = r#"{"cell":3,"topo":"t","workload":"w","policy":"p","speeds":"s","replication":0,"seed":9,"attempts":1,"outcome":{"Failed":{"panic_msg":"x"}}}"#;
        let line = encode_row_line(3, json);
        assert!(line.ends_with('\n'));
        let (cell, back) = parse_row_line(line.trim_end()).expect("valid line must parse");
        assert_eq!(cell, 3);
        assert_eq!(back, json);
        // Flip one payload byte: the checksum must catch it.
        let damaged = line.trim_end().replace("\"seed\":9", "\"seed\":8");
        assert!(parse_row_line(&damaged).is_none());
        // A cell prefix contradicting the body must be rejected.
        let relabel = encode_row_line(4, json);
        assert!(parse_row_line(relabel.trim_end()).is_none());
        assert!(parse_row_line("garbage").is_none());
        assert!(parse_row_line("").is_none());
    }

    #[test]
    fn manifest_pins_the_spec_hash() {
        let root = tmp_root("hash");
        let spec = tiny_spec();
        let dir = RunDir::open_or_create(&root, &spec, None).unwrap();
        assert_eq!(dir.manifest().cells, 4);
        // Reopening with the same spec is fine.
        RunDir::open_or_create(&root, &spec, None).unwrap();
        // A different grid is refused.
        let mut other = spec.clone();
        other.root_seed = 8;
        let err = RunDir::open_or_create(&root, &other, None).unwrap_err();
        assert!(err.contains("refusing to mix sweeps"), "{err}");
        // A conflicting explicit chunk size is refused.
        let err = RunDir::open_or_create(&root, &spec, Some(3)).unwrap_err();
        assert!(err.contains("chunk-size"), "{err}");
    }

    #[test]
    fn torn_tails_truncate_but_mid_file_corruption_is_fatal(
    ) {
        let root = tmp_root("torn");
        let spec = tiny_spec();
        let dir = RunDir::open_or_create(&root, &spec, Some(4)).unwrap();
        let json_a = r#"{"cell":0,"topo":"t","workload":"w","policy":"p","speeds":"s","replication":0,"seed":1,"attempts":1,"outcome":{"Failed":{"panic_msg":"a"}}}"#;
        let json_b = r#"{"cell":1,"topo":"t","workload":"w","policy":"p","speeds":"s","replication":1,"seed":2,"attempts":1,"outcome":{"Failed":{"panic_msg":"b"}}}"#;
        let path = dir.rows_path(0, 1);
        let mut body = encode_row_line(0, json_a);
        body.push_str(&encode_row_line(1, json_b));
        body.push_str("1 deadbeefdeadbeef {\"cell\":1,\"tor"); // torn, no newline
        fs::write(&path, &body).unwrap();
        let rec = dir.recover_chunk(0).unwrap();
        assert_eq!(rec.max_gen, 1);
        assert_eq!(rec.rows.iter().flatten().count(), 2);
        assert_eq!(rec.rows.first().unwrap().as_deref(), Some(json_a));
        // The torn tail was physically truncated.
        let on_disk = fs::read_to_string(&path).unwrap();
        assert!(on_disk.ends_with(&encode_row_line(1, json_b)));
        assert_eq!(on_disk.len(), encode_row_line(0, json_a).len() + encode_row_line(1, json_b).len());
        // Now corrupt the *first* line with valid data after it: fatal.
        let mut corrupt = encode_row_line(0, json_a);
        corrupt.replace_range(0..1, "9");
        corrupt.push_str(&encode_row_line(1, json_b));
        fs::write(&path, &corrupt).unwrap();
        let err = dir.recover_chunk(0).unwrap_err();
        assert!(err.contains("not a torn tail"), "{err}");
    }

    #[test]
    fn run_resume_and_merge_are_byte_identical_to_one_shot() {
        let root = tmp_root("resume");
        let spec = tiny_spec();
        let fresh = crate::sweep::run_sweep(
            &spec,
            &SweepOptions { workers: 2, ..Default::default() },
            &mut crate::sink::NullSink,
        )
        .unwrap()
        .sorted_jsonl();
        let opts = SweepOptions { workers: 2, ..Default::default() };
        let rd = RunDirOptions { chunk_size: Some(3), ..Default::default() };
        let (report, jsonl) = run_sweep_dir(&spec, &opts, &rd, &root).unwrap();
        assert_eq!(jsonl, fresh, "run-dir output must match the one-shot bytes");
        assert_eq!(report.ok, 4);
        assert_eq!(report.sorted_jsonl(), fresh, "reparse must roundtrip");
        // Resuming a finished dir recomputes nothing and reproduces the
        // same bytes.
        let (report2, jsonl2) = run_sweep_dir(&spec, &opts, &rd, &root).unwrap();
        assert_eq!(jsonl2, fresh);
        assert_eq!(report2.ok, 4);
    }

    #[test]
    fn shard_and_run_dir_are_mutually_exclusive() {
        let root = tmp_root("shardconflict");
        let opts = SweepOptions { shard: Some((0, 2)), ..Default::default() };
        let err =
            run_sweep_dir(&tiny_spec(), &opts, &RunDirOptions::default(), &root).unwrap_err();
        assert!(err.contains("claim protocol"), "{err}");
    }
}
