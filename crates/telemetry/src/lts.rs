//! Long-term stats: an embedded, append-only time-series store.
//!
//! The live registry answers "what is happening *now*"; everything in it
//! dies with the process. This module gives the monitor durable history:
//! per-series segment files holding counters, gauges, and sparse
//! log-bucket histogram states, downsampled through three resolutions
//! (`1s` raw → `1m` → `1h`) so a week of history stays queryable without
//! retaining raw samples.
//!
//! # Disk layout
//!
//! ```text
//! DIR/
//!   series.idx                  # JSONL: {"slug","name","kind"} per series
//!   1s/<slug>/open.bin          # append tail (mutable): v2 point records
//!   1s/<slug>/seg-A-B.bin       # sealed, immutable, covers [A, B] (codec v2)
//!   1m/<slug>/...               # same shape per resolution
//!   1h/<slug>/...
//! ```
//!
//! Every point on disk has one encoding, the delta-varint binary format
//! (codec v2, see [`encode_segment_v2`]). A sealed segment is a header
//! and its points' payloads, each against the point before it. The open
//! tail is the v2 prelude (magic, version, kind), then one *record* per
//! point: the point's payload against a zero predecessor (absolute time
//! and value), then a trailer holding the payload's length and a 32-bit
//! FNV-1a checksum of it, so a tail reads from either end and a record
//! cut short is told from a whole one. The writer keeps of each tail
//! only its *fold* — count, first and last time, the counter stats the
//! segment header needs — and the records of one flush period; a seal
//! reads the tail back once and transcodes each record into the
//! segment's payload, refusing a tail that does not read back as the
//! fold says it was appended.
//!
//! Stores from earlier releases are refused with
//! [`io::ErrorKind::InvalidData`] by every entry that lists their series
//! directories, never half-read: a sealed JSONL (codec v1) segment,
//! `seg-A-B.seg`, and a JSON-lines tail, `open.seg`.
//!
//! Points are stored as *interval* values, which is what makes
//! downsampling a pure merge: counters hold per-interval deltas (merge =
//! sum), gauges hold the sampled value (merge = last), histograms hold
//! per-interval delta [`HistogramState`]s (merge = bucket-wise fold, the
//! same associative merge [`Histogram::merge_from`] uses). A `1m` point
//! at `t = w` aggregates every `1s` point in `[w, w + 60)`; `1h` folds
//! `1m` points the same way. Only *complete* windows are written — a
//! window closes when a newer point at or past its end exists.
//!
//! # Crash safety
//!
//! Appends go to `open.bin`, one record per point. Sealing writes the
//! segment to `seal.tmp`, renames it to its immutable `seg-A-B.bin` name
//! — atomic on POSIX — and only then removes `open.bin`, so a crash
//! leaves the old tail, or the sealed file beside a stale tail that
//! [`LtsStore::open`] removes, never a half-sealed hybrid. On open, a
//! tail is cut at its first record that is cut short, fails its checksum
//! or does not decode to exactly its length (a crash mid-append), and
//! the cut is reported, never silently read. Sealed segments and the
//! index are rewritten only by [`compact_store`], always via
//! tmp-file-plus-rename.
//!
//! Queries ([`LtsReader`]) read exclusively from disk and canonicalize
//! (sort by time, first write wins), so the same store yields
//! byte-identical JSON before and after a restart or a compaction.

use crate::events::{EventSink, FieldValue, Level};
use crate::json::parse_json;
use crate::metrics::{bucket_high, bucket_low, quantile_of, BUCKETS};
use crate::{Counter, Gauge, HistogramState, Registry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// Storage resolutions, coarsest-last. Raw points land in `1s`; the
/// store folds completed windows into `1m` and `1h` on flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// Raw per-tick points (one simulated second per tick).
    Raw1s,
    /// 60-second windows.
    Min1,
    /// 3600-second windows.
    Hour1,
}

impl Resolution {
    /// All resolutions, finest first.
    pub const ALL: [Resolution; 3] = [Resolution::Raw1s, Resolution::Min1, Resolution::Hour1];

    /// Window width in seconds (1 for raw).
    pub fn window_secs(self) -> u64 {
        match self {
            Resolution::Raw1s => 1,
            Resolution::Min1 => 60,
            Resolution::Hour1 => 3600,
        }
    }

    /// On-disk directory name, also the `step=` query token.
    pub fn dir_name(self) -> &'static str {
        match self {
            Resolution::Raw1s => "1s",
            Resolution::Min1 => "1m",
            Resolution::Hour1 => "1h",
        }
    }

    /// Parses a `step=` token.
    pub fn parse(s: &str) -> Option<Resolution> {
        match s {
            "1s" => Some(Resolution::Raw1s),
            "1m" => Some(Resolution::Min1),
            "1h" => Some(Resolution::Hour1),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            Resolution::Raw1s => 0,
            Resolution::Min1 => 1,
            Resolution::Hour1 => 2,
        }
    }
}

/// What a series holds, fixed at first append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-interval deltas of a monotonic counter.
    Counter,
    /// Sampled instantaneous values.
    Gauge,
    /// Per-interval delta histogram states.
    Histogram,
}

impl SeriesKind {
    /// Stable on-disk token.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }

    /// Parses the on-disk token.
    pub fn parse(s: &str) -> Option<SeriesKind> {
        match s {
            "counter" => Some(SeriesKind::Counter),
            "gauge" => Some(SeriesKind::Gauge),
            "histogram" => Some(SeriesKind::Histogram),
            _ => None,
        }
    }
}

/// One sample's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum PointValue {
    /// Counter delta over the interval ending at the point's time.
    Counter(u64),
    /// Gauge value at the point's time.
    Gauge(i64),
    /// Histogram of samples recorded during the interval.
    Histogram(HistogramState),
}

impl PointValue {
    /// The series kind this value belongs to.
    pub fn kind(&self) -> SeriesKind {
        match self {
            PointValue::Counter(_) => SeriesKind::Counter,
            PointValue::Gauge(_) => SeriesKind::Gauge,
            PointValue::Histogram(_) => SeriesKind::Histogram,
        }
    }
}

/// A timestamped sample. `t` is unix seconds; for downsampled
/// resolutions it is the *window start*.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Unix seconds (window start for `1m`/`1h`).
    pub t: u64,
    /// The payload.
    pub value: PointValue,
}

/// Retention bounds, same shape as the flight recorder's
/// [`RetentionPolicy`](crate::RetentionPolicy): `0` disables a bound.
/// Only sealed segments are ever deleted — the open tail and the index
/// are spared — and age is measured against the newest point in the
/// store (data time), so replayed or simulated clocks work unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LtsRetention {
    /// Delete sealed segments whose newest point is older than this many
    /// seconds behind the store's newest point. `0` = keep forever.
    pub max_age_secs: u64,
    /// Total on-disk budget in bytes; oldest sealed segments are deleted
    /// first until the store fits. `0` = unlimited.
    pub max_bytes: u64,
}

impl Default for LtsRetention {
    fn default() -> Self {
        LtsRetention {
            max_age_secs: 7 * 24 * 3600,
            max_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Sealed-segment encoding: binary v2, the one sealed codec. It stays a
/// type, and [`LtsConfig::codec`] a field, only because the frozen
/// benchmark names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentCodec {
    /// Codec v2: delta-varint binary, `.bin` extension.
    Binary,
}

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct LtsConfig {
    /// Seal `open.bin` once it holds this many points.
    pub seal_points: usize,
    /// Age/size bounds enforced on every flush.
    pub retention: LtsRetention,
    /// Codec for sealed segments; see [`SegmentCodec`].
    pub codec: SegmentCodec,
}

impl Default for LtsConfig {
    fn default() -> Self {
        LtsConfig {
            seal_points: 4096,
            retention: LtsRetention::default(),
            codec: SegmentCodec::Binary,
        }
    }
}

/// The store's self-instrumentation handles. Registered into the live
/// registry by the monitor (where the sampler then records them into the
/// store itself); detached no-op-visible handles otherwise (CLI use).
#[derive(Clone)]
pub struct LtsCounters {
    /// `netqos_lts_segments` — segment files on disk (sealed + open).
    pub segments: Gauge,
    /// `netqos_lts_bytes_on_disk` — total store size in bytes.
    pub bytes_on_disk: Gauge,
    /// `netqos_lts_appends_total` — points accepted.
    pub appends: Counter,
    /// `netqos_lts_dropped_total` — points rejected (out-of-order
    /// timestamp or kind mismatch, or past a segment's worth held
    /// unwritten by a series whose last flush failed).
    pub dropped: Counter,
    /// `netqos_lts_compactions_total` — in-process compaction passes.
    pub compactions: Counter,
}

impl LtsCounters {
    /// Handles not attached to any registry.
    pub fn detached() -> Self {
        LtsCounters {
            segments: Gauge::new(),
            bytes_on_disk: Gauge::new(),
            appends: Counter::new(),
            dropped: Counter::new(),
            compactions: Counter::new(),
        }
    }

    /// Handles registered under the canonical `netqos_lts_*` names.
    pub fn register_in(r: &Registry) -> Self {
        LtsCounters {
            segments: r.gauge("netqos_lts_segments"),
            bytes_on_disk: r.gauge("netqos_lts_bytes_on_disk"),
            appends: r.counter("netqos_lts_appends_total"),
            dropped: r.counter("netqos_lts_dropped_total"),
            compactions: r.counter("netqos_lts_compactions_total"),
        }
    }
}

/// One segment deleted by retention.
#[derive(Debug, Clone)]
pub struct RetentionDeletion {
    /// Path relative to the store root.
    pub path: String,
    /// Size of the deleted file.
    pub bytes: u64,
    /// `"age"` or `"size"`.
    pub reason: &'static str,
}

/// What one [`LtsStore::flush`] did.
#[derive(Debug, Clone, Default)]
pub struct FlushReport {
    /// Raw points written to `1s` segments.
    pub points_written: u64,
    /// Downsampled points written to `1m`/`1h`.
    pub downsampled: u64,
    /// Open tails sealed into immutable segments.
    pub segments_sealed: u64,
    /// Sealed segments deleted by retention.
    pub deleted: Vec<RetentionDeletion>,
}

/// A flush that failed: the first error, and what the flush did all the
/// same. Every other series was flushed and retention ran; a series that
/// failed keeps what it had not written for the next flush.
#[derive(Debug)]
pub struct FlushError {
    /// The first series' failure, or retention's.
    pub error: io::Error,
    /// What the flush wrote, sealed and deleted.
    pub report: FlushReport,
}

impl std::fmt::Display for FlushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for FlushError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<FlushError> for io::Error {
    fn from(e: FlushError) -> io::Error {
        e.error
    }
}

/// One sealed segment the writer knows to be on disk; its file name
/// follows from the range. Ordered as retention deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SealedSegment {
    last: u64,
    first: u64,
    bytes: u64,
}

impl SealedSegment {
    fn of(f: &SegmentFile) -> SealedSegment {
        SealedSegment {
            last: f.last,
            first: f.first,
            bytes: file_len(&f.path),
        }
    }

    fn file_name(&self) -> String {
        segment_file_name(self.first, self.last)
    }
}

struct SeriesState {
    name: String,
    kind: SeriesKind,
    slug: String,
    /// Newest persisted point time per resolution.
    last_t: [Option<u64>; 3],
    /// The unsealed tail per resolution: the records not yet written
    /// and the fold of every tail point (recovery folds a tail found on
    /// open), never the points themselves.
    tails: [Unsealed; 3],
    /// The open `1m` and `1h` window: its start, before which every
    /// window is written, and what [`downsample`] gives the flushed finer
    /// points in it so far (raw points for `1m`, `1m` points for `1h`),
    /// `None` before the first.
    open_window: [(u64, Option<PointValue>); 2],
    /// Needs a `series.idx` line on next flush.
    new_to_index: bool,
    /// The last flush of this series failed: it holds what it could not
    /// write, up to a segment's worth of raw points.
    failed: bool,
    /// `DIR/<res>/<slug>/open.bin` per resolution; its parent is the
    /// series directory.
    open_path: [PathBuf; 3],
    /// Size of the open tail per resolution, `None` while there is no
    /// tail file.
    open_bytes: [Option<u64>; 3],
    /// The catalog: every sealed segment per resolution, in retention
    /// order (oldest `last` first).
    sealed: [Vec<SealedSegment>; 3],
}

/// One resolution's unsealed tail as the writer holds it: the records
/// of the points it has not written yet — the raw points appended since
/// the last flush, the `1m`/`1h` windows a flush closed (or recovery
/// found closed but unwritten) — and the header fold of every point in
/// the tail, written or not.
#[derive(Debug, Default)]
struct Unsealed {
    /// Tail records, as [`push_record`] writes them, not yet in
    /// `open.bin`.
    pending: Vec<u8>,
    /// Points in `pending`.
    points: u64,
    /// What the header of the segment the tail seals into says.
    fold: TailFold,
}

impl Unsealed {
    /// Adds `p`, newer than every point in the tail, as a pending record.
    fn push(&mut self, p: &Point) {
        push_record(&mut self.pending, p);
        self.points += 1;
        self.fold.push(p);
    }
}

impl SeriesState {
    fn new(root: &Path, name: String, kind: SeriesKind, slug: String, new_to_index: bool) -> Self {
        let open_path = Resolution::ALL.map(|res| {
            let mut p = root.join(res.dir_name());
            p.push(&slug);
            p.push(OPEN_TAIL);
            p
        });
        SeriesState {
            name,
            kind,
            slug,
            last_t: [None; 3],
            tails: Default::default(),
            open_window: [(0, None), (0, None)],
            new_to_index,
            failed: false,
            open_path,
            open_bytes: [None; 3],
            sealed: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    fn series_dir(&self, res: Resolution) -> &Path {
        dir_of(&self.open_path[res.index()])
    }

    /// Rebuilds the catalog and the tail sizes from the series'
    /// directories; returns what the scan found, per resolution.
    fn scan_disk(&mut self) -> io::Result<[Vec<SegmentFile>; 3]> {
        let mut found = [Vec::new(), Vec::new(), Vec::new()];
        for res in Resolution::ALL {
            let ri = res.index();
            found[ri] = segment_files(self.series_dir(res))?;
            self.sealed[ri] = found[ri].iter().map(SealedSegment::of).collect();
            self.sealed[ri].sort_unstable();
            self.open_bytes[ri] = fs::metadata(&self.open_path[ri]).ok().map(|m| m.len());
        }
        Ok(found)
    }

    /// Takes `value` at `t` as a pending raw point, unless it is out of
    /// order or of another kind, or the series' last flush failed with
    /// `seal_points` raw points unwritten: a tail that cannot be written
    /// does not grow the writer without bound.
    fn accept(&mut self, counters: &LtsCounters, seal_points: usize, t: u64, value: PointValue) {
        let raw = &mut self.tails[0];
        let newest = self.last_t[0].max(raw.fold.last());
        let held = self.failed && raw.points >= seal_points as u64;
        if held || self.kind != value.kind() || newest.is_some_and(|n| t <= n) {
            counters.dropped.inc();
            return;
        }
        raw.push(&Point { t, value });
        counters.appends.inc();
    }
}

/// Folds `p`, newer than every point folded before, into `window`, the
/// open window of `coarse`; a point past it first closes it into
/// `closed`, that resolution's unsealed tail. A point before the open
/// window is in a `coarse` window already written, and is not folded:
/// recovery regenerates such points when a crash cut a finer tail short
/// behind a coarser one.
fn fold_into_window(
    kind: SeriesKind,
    window: &mut (u64, Option<PointValue>),
    coarse: Resolution,
    p: &Point,
    closed: &mut Unsealed,
) {
    let secs = coarse.window_secs();
    let (start, fold) = window;
    if p.t < *start {
        return;
    }
    // A point past the open window closes it: the division is paid once
    // a window, not once a point.
    if p.t - *start >= secs {
        if let Some(value) = fold.take() {
            closed.push(&Point { t: *start, value });
        }
        *start = p.t / secs * secs;
    }
    fold_value(kind, fold, &p.value);
}

/// The writable store. Single-writer by design: the monitor owns one
/// `LtsStore` and flushes on its baseline-save cadence; readers go
/// through [`LtsReader`], which never touches writer state.
///
/// The writer keeps a catalog of what it has on disk — every sealed
/// segment's range and size, each open tail's size, the index's size —
/// built by the directory scan in [`LtsStore::open`] and kept current
/// where the writer seals, deletes and compacts, so a flush learns
/// nothing from the file system. That is sound because nothing else may
/// change a store a writer has open: a second writer or
/// [`compact_store`] against a live store were never supported.
/// Directories `series.idx` does not name are invisible to the writer
/// ([`verify_store`] reports them).
pub struct LtsStore {
    dir: PathBuf,
    index_path: PathBuf,
    /// Size of `series.idx`.
    index_bytes: u64,
    config: LtsConfig,
    counters: LtsCounters,
    series: BTreeMap<String, SeriesState>,
    warnings: Vec<String>,
    /// What the flush writes and reads besides the tails' own records.
    bufs: FlushBufs,
}

impl LtsStore {
    /// Opens (creating if absent) the store at `dir`, recovering from a
    /// torn final record in any open tail by truncating it away. Recovery
    /// notes are queued for [`LtsStore::take_warnings`].
    pub fn open(
        dir: impl Into<PathBuf>,
        config: LtsConfig,
        counters: LtsCounters,
    ) -> io::Result<LtsStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for res in Resolution::ALL {
            fs::create_dir_all(dir.join(res.dir_name()))?;
        }
        let mut store = LtsStore {
            index_path: dir.join("series.idx"),
            index_bytes: 0,
            dir,
            config,
            counters,
            series: BTreeMap::new(),
            warnings: Vec::new(),
            bufs: FlushBufs {
                write: Vec::new(),
                tail: Vec::new(),
                point: BLANK,
            },
        };
        store.load_index()?;
        for s in store.series.values_mut() {
            recover_series(s, &mut store.warnings)?;
        }
        store.update_disk_gauges();
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Drains recovery/consistency warnings accumulated so far.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    /// Newest flushed raw-resolution point time across every series —
    /// what [`LtsReader::newest_t`] reads off the disk, from memory.
    pub fn newest_t(&self) -> Option<u64> {
        self.series.values().filter_map(|s| s.last_t[0]).max()
    }

    fn load_index(&mut self) -> io::Result<()> {
        let text = match fs::read_to_string(&self.index_path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        self.index_bytes = text.len() as u64;
        let mut good = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                good += line.len() + 1;
                continue;
            }
            match parse_index_line(line) {
                Some((slug, name, kind)) => {
                    good += line.len() + 1;
                    if !self.series.contains_key(&name) {
                        let state = SeriesState::new(&self.dir, name.clone(), kind, slug, false);
                        self.series.insert(name, state);
                    }
                }
                None => {
                    // Torn or foreign tail: keep the good prefix only.
                    self.warnings.push(format!(
                        "series.idx: unparseable line at byte {good}; truncating index tail"
                    ));
                    truncate_file(&self.index_path, good as u64)?;
                    self.index_bytes = good as u64;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Appends one point. Points must arrive in strictly increasing time
    /// order per series and keep their first-seen kind; violations are
    /// counted in `netqos_lts_dropped_total` and discarded.
    pub fn append(&mut self, name: &str, t: u64, value: PointValue) {
        let seal_points = self.config.seal_points;
        if let Some(s) = self.series.get_mut(name) {
            return s.accept(&self.counters, seal_points, t, value);
        }
        let state = SeriesState::new(
            &self.dir,
            name.to_string(),
            value.kind(),
            slug_for(name),
            true,
        );
        let s = self.series.entry(name.to_string()).or_insert(state);
        s.accept(&self.counters, seal_points, t, value);
    }

    /// Writes buffered points to disk, folds completed `1m`/`1h`
    /// windows, seals oversized tails, and enforces retention.
    ///
    /// A series whose flush fails keeps what it had not written, for the
    /// next flush, and the [`FlushError`] carries the first such failure.
    /// The other series are flushed all the same, and retention runs
    /// whatever they returned: it deletes only sealed segments in the
    /// catalog, which a failed flush leaves as they were.
    pub fn flush(&mut self) -> Result<FlushReport, FlushError> {
        let mut report = FlushReport::default();
        let mut failed = None;
        for s in self.series.values_mut() {
            let flushed = self.bufs.index_line(&self.index_path, s).and_then(|added| {
                self.index_bytes += added;
                self.bufs.flush_series(&self.config, s, &mut report)
            });
            s.failed = flushed.is_err();
            if let Err(e) = flushed {
                failed.get_or_insert(e);
            }
        }
        let retained = self.enforce_retention(&mut report.deleted);
        self.update_disk_gauges();
        match failed.or(retained.err()) {
            None => Ok(report),
            Some(error) => Err(FlushError { error, report }),
        }
    }

    /// Deletes sealed segments past the age bound, then the oldest
    /// survivors while the store is over its size budget. The order is
    /// total and depends only on what was appended: ascending
    /// `(last, resolution, series name, first)`. Each deletion is pushed
    /// onto `deleted` as it is made.
    fn enforce_retention(&mut self, deleted: &mut Vec<RetentionDeletion>) -> io::Result<()> {
        let ret = self.config.retention;
        if ret.max_age_secs == 0 && ret.max_bytes == 0 {
            return Ok(());
        }
        let newest = self
            .series
            .values()
            .flat_map(|s| s.last_t.iter().flatten().copied())
            .max()
            .unwrap_or(0);
        let (_, mut total_bytes) = self.disk_usage();
        loop {
            // Every list is in retention order, so the next victim is
            // the smallest head; the series' rank stands for its name.
            let oldest = self
                .series
                .values()
                .enumerate()
                .flat_map(|(rank, s)| {
                    Resolution::ALL
                        .into_iter()
                        .filter_map(move |res| Some((s.sealed[res.index()].first()?, res, rank)))
                })
                .min_by_key(|&(seg, res, rank)| (seg.last, res, rank, seg.first))
                .map(|(seg, res, rank)| (*seg, res, rank));
            let Some((seg, res, rank)) = oldest else {
                break;
            };
            let reason =
                if ret.max_age_secs > 0 && newest.saturating_sub(seg.last) > ret.max_age_secs {
                    "age"
                } else if ret.max_bytes > 0 && total_bytes > ret.max_bytes {
                    "size"
                } else {
                    break;
                };
            let s = self
                .series
                .values_mut()
                .nth(rank)
                .expect("rank came from this map");
            let file = seg.file_name();
            match fs::remove_file(s.series_dir(res).join(&file)) {
                Ok(()) => deleted.push(RetentionDeletion {
                    path: format!("{}/{}/{file}", res.dir_name(), s.slug),
                    bytes: seg.bytes,
                    reason,
                }),
                // Already gone: nothing to report, only to forget.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            s.sealed[res.index()].remove(0);
            total_bytes -= seg.bytes;
        }
        Ok(())
    }

    /// In-process compaction: flushes buffered points, then rewrites
    /// every series/resolution as a single sealed segment (the
    /// [`compact_store`] pass) and resets the writer's open-tail state
    /// and catalog to match — the open tails were folded into the
    /// sealed segment and their files removed. Readers canonicalize, so
    /// answers are byte-identical before and after; only the layout
    /// changes. This is the safe form of [`compact_store`] for a store a
    /// writer has open. Its error, a segment that does not decode
    /// included, comes after the catalog is brought up to what is on
    /// disk; a tail compaction left in place keeps its points.
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        self.flush()?;
        let report = compact_store(&self.dir);
        self.index_bytes = file_len(&self.index_path);
        for s in self.series.values_mut() {
            s.scan_disk()?;
            for (tail, bytes) in s.tails.iter_mut().zip(s.open_bytes) {
                if bytes.is_none() {
                    tail.fold = TailFold::default();
                }
            }
        }
        self.counters.compactions.inc();
        self.update_disk_gauges();
        report
    }

    /// Segment files (sealed and open) and total bytes, index included,
    /// by the catalog.
    fn disk_usage(&self) -> (u64, u64) {
        let (mut files, mut bytes) = (0u64, self.index_bytes);
        for s in self.series.values() {
            for ri in 0..3 {
                files += s.sealed[ri].len() as u64 + u64::from(s.open_bytes[ri].is_some());
                bytes += s.sealed[ri].iter().map(|seg| seg.bytes).sum::<u64>()
                    + s.open_bytes[ri].unwrap_or(0);
            }
        }
        (files, bytes)
    }

    fn update_disk_gauges(&self) {
        let (files, bytes) = self.disk_usage();
        self.counters
            .segments
            .set(files.min(i64::MAX as u64) as i64);
        self.counters
            .bytes_on_disk
            .set(bytes.min(i64::MAX as u64) as i64);
    }
}

/// Brings one indexed series' state up from its directories on open:
/// the catalog, the tails (a torn final record truncated away, a stale
/// tail removed), the newest times and the open downsample windows.
fn recover_series(s: &mut SeriesState, warnings: &mut Vec<String>) -> io::Result<()> {
    let found = s.scan_disk()?;
    for res in Resolution::ALL {
        let ri = res.index();
        let sealed_last = found[ri].iter().map(|x| x.last).max();
        let mut last = sealed_last;
        let open = &s.open_path[ri];
        if s.open_bytes[ri].is_some() {
            let (pts, good_bytes, warn) = read_tail_recovering(open, s.kind)?;
            if let Some(w) = warn {
                warnings.push(w);
            }
            let stale = matches!(
                (pts.last(), sealed_last),
                (Some(p), Some(sl)) if p.t <= sl
            );
            if stale {
                // Leftover of a crash between sealing the tail and
                // removing it (binary seals copy then delete): the
                // sealed segment already holds every point.
                fs::remove_file(open)?;
                s.open_bytes[ri] = None;
                warnings.push(format!(
                    "{}: stale open tail from interrupted seal; removed",
                    open.display()
                ));
            } else {
                s.open_bytes[ri] = Some(good_bytes);
                (pts.iter()).for_each(|p| s.tails[ri].fold.push(p));
                if let Some(p) = pts.last() {
                    last = Some(last.map_or(p.t, |l: u64| l.max(p.t)));
                }
            }
        }
        s.last_t[ri] = last;
    }
    // Fold every finer point past the last written coarser window into
    // the open window; a window a later point closed is one a crash
    // left unwritten, and the next flush writes it.
    for (wi, coarse) in [Resolution::Min1, Resolution::Hour1]
        .into_iter()
        .enumerate()
    {
        // The finer resolution is the one at `wi`. The open window
        // starts where the written ones end.
        let cutoff = s.last_t[coarse.index()].map_or(0, |w| w + coarse.window_secs());
        s.open_window[wi].0 = cutoff;
        let (pts, _) = read_points(&found[wi], &s.open_path[wi], s.kind, cutoff, u64::MAX);
        for p in &pts {
            let window = &mut s.open_window[wi];
            fold_into_window(s.kind, window, coarse, p, &mut s.tails[wi + 1]);
        }
    }
    Ok(())
}

/// The series directory of a tail path (`DIR/<res>/<slug>/open.bin`).
fn dir_of(open: &Path) -> &Path {
    open.parent().expect("a tail path ends in <slug>/open.bin")
}

/// The buffers a flush reuses for every series: the bytes of one write,
/// the tail a seal reads back, and the point a record decodes into.
struct FlushBufs {
    write: Vec<u8>,
    tail: Vec<u8>,
    point: Point,
}

impl FlushBufs {
    /// Appends `s`'s line to the index at `index` if it has none yet;
    /// the bytes it added.
    fn index_line(&mut self, index: &Path, s: &mut SeriesState) -> io::Result<u64> {
        if !s.new_to_index {
            return Ok(0);
        }
        let line = &mut self.write;
        line.clear();
        push_index_line(line, &s.slug, &s.name, s.kind);
        let mut f = OpenOptions::new().create(true).append(true).open(index)?;
        f.write_all(line)?;
        s.new_to_index = false;
        Ok(line.len() as u64)
    }

    /// Writes one series' pending records, finest resolution first: each
    /// resolution's records, once written, are folded into the open
    /// window of the next, and a window they complete becomes one of its
    /// records. A resolution that fails keeps its records, and nothing
    /// coarser is written.
    fn flush_series(
        &mut self,
        config: &LtsConfig,
        s: &mut SeriesState,
        report: &mut FlushReport,
    ) -> io::Result<()> {
        for res in Resolution::ALL {
            let ri = res.index();
            let tail = &s.tails[ri];
            if tail.points == 0 {
                continue;
            }
            let (points, newest) = (tail.points, tail.fold.last_t);
            if tail.fold.count < config.seal_points as u64 {
                self.append_pending(s, res)?;
            } else {
                self.seal(s, res)?;
                report.segments_sealed += 1;
            }
            s.last_t[ri] = Some(newest);
            match res {
                Resolution::Raw1s => report.points_written += points,
                _ => report.downsampled += points,
            }
            let [raw, mins, hours] = &mut s.tails;
            let (written, closed) = match res {
                Resolution::Raw1s => (raw, Some(mins)),
                Resolution::Min1 => (mins, Some(hours)),
                Resolution::Hour1 => (hours, None),
            };
            if let Some(closed) = closed {
                let (window, coarse) = (&mut s.open_window[ri], Resolution::ALL[ri + 1]);
                let mut pos = 0;
                // The writer's own records, never out of memory: no
                // checksum to check.
                let (pending, point) = (&written.pending, &mut self.point);
                while let Some(()) =
                    read_point_into(pending, &mut pos, s.kind, &mut Prev::default(), point)
                {
                    pos += TRAILER;
                    fold_into_window(s.kind, window, coarse, point, closed);
                }
            }
            // Appends fill the raw tail between flushes. It keeps room
            // for half as many bytes again as it held, so a period like the
            // last, whose values may take a byte or two more, appends
            // without growing it, and any growth falls to a flush.
            let held = written.pending.len();
            written.pending.clear();
            let room = if ri == 0 { held + held / 2 } else { 0 };
            written.pending.reserve_exact(room);
            written.points = 0;
        }
        Ok(())
    }

    /// Writes the pending records of `s`'s tail at `res` into its
    /// `open.bin` at the tail's end as the catalog has it, beginning the
    /// file with the prelude its records are read against. A write that
    /// fails partway cuts the file back to that end; whatever a failed
    /// cut leaves past it is a torn final record, which the next write
    /// writes over, a seal never reads and recovery cuts away. So the
    /// first `open_bytes` of the file are always whole records.
    fn append_pending(&mut self, s: &mut SeriesState, res: Resolution) -> io::Result<()> {
        let ri = res.index();
        let open = &s.open_path[ri];
        let mut options = OpenOptions::new();
        options.create(true).write(true);
        let mut f = match options.open(open) {
            // The series' first write at this resolution.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::create_dir_all(dir_of(open))?;
                options.open(open)?
            }
            other => other?,
        };
        let end = s.open_bytes[ri].unwrap_or(0);
        // The file is there from now on, whatever the write does.
        s.open_bytes[ri] = Some(end);
        let prelude = prelude(s.kind);
        let head: &[u8] = if end == 0 { &prelude } else { &[] };
        let pending = &s.tails[ri].pending;
        let mut write = || {
            f.seek(SeekFrom::Start(end))?;
            f.write_all(head)?;
            f.write_all(pending)
        };
        match write() {
            Ok(()) => {
                s.open_bytes[ri] = Some(end + (head.len() + pending.len()) as u64);
                Ok(())
            }
            Err(e) => {
                let _ = f.set_len(end);
                Err(e)
            }
        }
    }

    /// Seals `s`'s tail at `res`: reads its `open.bin` back once and
    /// writes the segment the tail and the pending records make, each
    /// record transcoded into a delta against the point before it, under
    /// the header the writer folded as it appended. A tail whose records
    /// do not decode to what that fold says (a record that fails its
    /// checksum, a count or time or counter fold that differs) is not
    /// sealed: the call fails with [`io::ErrorKind::InvalidData`] naming
    /// it, and the store is as it was.
    ///
    /// Rename is atomic and the tail is removed only after the sealed
    /// file exists; a crash in between leaves both, which readers
    /// canonicalize and `open` cleans up as a stale tail.
    fn seal(&mut self, s: &mut SeriesState, res: Resolution) -> io::Result<()> {
        let ri = res.index();
        let (open, tail) = (&s.open_path[ri], &mut s.tails[ri]);
        let refuse = |what: String| {
            let what = format!("{}: {what}; not sealed", open.display());
            io::Error::new(io::ErrorKind::InvalidData, what)
        };
        self.tail.clear();
        if let Some(end) = s.open_bytes[ri] {
            // Only the records the writer wrote: not a torn write past them.
            File::open(open)?.take(end).read_to_end(&mut self.tail)?;
        }
        let mut seg = Transcoder {
            out: &mut self.write,
            prev: Prev::default(),
            fold: TailFold::default(),
            point: &mut self.point,
        };
        seg.out.clear();
        tail.fold.push_header(s.kind, seg.out);
        if !self.tail.is_empty() {
            if prelude_kind(&self.tail) != Ok(s.kind) {
                return Err(refuse("bad prelude at byte 0".into()));
            }
            let bad = seg.records(&self.tail, PRELUDE, s.kind);
            bad.map_err(|at| refuse(format!("bad record at byte {at}")))?;
        }
        let bad = seg.records(&tail.pending, 0, s.kind);
        bad.map_err(|at| refuse(format!("bad pending record at byte {at}")))?;
        let read = seg.fold;
        if read != tail.fold {
            let appended = tail.fold;
            return Err(refuse(format!("reads {read:?}, appended {appended:?}")));
        }
        let sdir = dir_of(open);
        let tmp = sdir.join("seal.tmp");
        if s.open_bytes[ri].is_none() {
            // Every point was pending: the series' first write here.
            fs::create_dir_all(sdir)?;
        }
        fs::write(&tmp, &self.write)?;
        let name = segment_file_name(read.first_t, read.last_t);
        fs::rename(&tmp, sdir.join(name))?;
        if s.open_bytes[ri].is_some() {
            fs::remove_file(open)?;
        }
        let seg = SealedSegment {
            last: read.last_t,
            first: read.first_t,
            bytes: self.write.len() as u64,
        };
        let at = s.sealed[ri].partition_point(|x| *x <= seg);
        s.sealed[ri].insert(at, seg);
        s.open_bytes[ri] = None;
        tail.fold = TailFold::default();
        Ok(())
    }
}

/// Folds one completed window of finer-resolution points into a single
/// coarser point, one point at a time as the writer folds each open
/// window: counters sum their deltas, gauges keep the last value,
/// histograms merge bucket-wise (count/sum add, min/max fold). Points
/// of another kind than `kind` are passed over; sums wrap. `None` for an
/// empty window and for a gauge window without a gauge.
pub fn downsample(kind: SeriesKind, window: &[Point]) -> Option<PointValue> {
    let mut acc = None;
    window
        .iter()
        .for_each(|p| fold_value(kind, &mut acc, &p.value));
    acc
}

/// Folds `value` into `acc`, a `kind` window's fold so far (`None`
/// before its first point, and while a gauge window has seen no gauge);
/// a value of another kind changes nothing. Counts and sums wrap, as
/// the codec's do.
fn fold_value(kind: SeriesKind, acc: &mut Option<PointValue>, value: &PointValue) {
    let acc = match (acc, kind, value) {
        (Some(acc), _, _) => acc,
        (acc, SeriesKind::Counter, _) => acc.insert(PointValue::Counter(0)),
        (acc, SeriesKind::Gauge, PointValue::Gauge(_)) => acc.insert(PointValue::Gauge(0)),
        (_, SeriesKind::Gauge, _) => return,
        (acc, SeriesKind::Histogram, _) => acc.insert(PointValue::Histogram(HistogramState {
            min: u64::MAX,
            ..HistogramState::default()
        })),
    };
    match (acc, value) {
        (PointValue::Counter(sum), PointValue::Counter(v)) => *sum = sum.wrapping_add(*v),
        (PointValue::Gauge(last), PointValue::Gauge(v)) => *last = *v,
        (PointValue::Histogram(merged), PointValue::Histogram(h)) => {
            for &(i, n) in &h.buckets {
                match merged.buckets.binary_search_by_key(&i, |&(j, _)| j) {
                    Ok(k) => merged.buckets[k].1 = merged.buckets[k].1.wrapping_add(n),
                    Err(k) => merged.buckets.insert(k, (i, n)),
                }
            }
            merged.count = merged.count.wrapping_add(h.count);
            merged.sum = merged.sum.wrapping_add(h.sum);
            merged.min = merged.min.min(h.min);
            merged.max = merged.max.max(h.max);
        }
        _ => {}
    }
}

/// Bridges the live [`Registry`] into an [`LtsStore`]: each call emits
/// one point per registered metric at time `t` — counters as deltas
/// since the previous call (a decrease is treated as a restart, so the
/// current value is the delta), gauges as-is, histograms as delta
/// states with min/max re-derived from the delta's occupied bucket
/// bounds.
///
/// Once every metric has been seen, a sample allocates one block per
/// histogram whose count moved (the delta point the store keeps) and
/// nothing else: the previous states and the one being read have room
/// for every bucket.
#[derive(Default)]
pub struct RegistrySampler {
    prev_counters: BTreeMap<String, u64>,
    prev_hists: BTreeMap<String, HistogramState>,
    /// The histogram state just read, reused for every histogram.
    current: HistogramState,
}

impl RegistrySampler {
    /// A sampler with no history (first sample emits full values).
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples every metric in `reg` into `store` at time `t`.
    pub fn sample(&mut self, reg: &Registry, store: &mut LtsStore, t: u64) {
        reg.visit_counters(|name, c| {
            let cur = c.get();
            let prev = match self.prev_counters.get_mut(name) {
                Some(prev) => std::mem::replace(prev, cur),
                None => {
                    self.prev_counters.insert(name.to_string(), cur);
                    0
                }
            };
            let delta = if cur >= prev { cur - prev } else { cur };
            store.append(name, t, PointValue::Counter(delta));
        });
        reg.visit_gauges(|name, g| store.append(name, t, PointValue::Gauge(g.get())));
        let cur = &mut self.current;
        cur.buckets.clear();
        cur.buckets.reserve_exact(BUCKETS);
        reg.visit_histograms(|name, h| {
            h.state_into(cur);
            let delta = match self.prev_hists.get_mut(name) {
                Some(prev) => {
                    let delta = hist_delta(Some(prev), cur);
                    copy_state(prev, cur);
                    delta
                }
                None => {
                    let mut prev = HistogramState {
                        buckets: Vec::with_capacity(BUCKETS),
                        ..HistogramState::default()
                    };
                    copy_state(&mut prev, cur);
                    self.prev_hists.insert(name.to_string(), prev);
                    cur.clone()
                }
            };
            store.append(name, t, PointValue::Histogram(delta));
        });
    }
}

/// Makes `dst` equal to `src` within `dst`'s own bucket vector.
fn copy_state(dst: &mut HistogramState, src: &HistogramState) {
    dst.buckets.clone_from(&src.buckets);
    (dst.count, dst.sum, dst.min, dst.max) = (src.count, src.sum, src.min, src.max);
}

/// The per-interval difference between two cumulative histogram states.
/// A count regression reads as a process restart: the current state *is*
/// the interval. Interval min/max are estimated from the occupied delta
/// buckets' bounds (within the histogram's ≤6.25% bucket error) since
/// cumulative extremes don't subtract.
pub fn hist_delta(prev: Option<&HistogramState>, cur: &HistogramState) -> HistogramState {
    let Some(prev) = prev else { return cur.clone() };
    if cur.count < prev.count {
        return cur.clone();
    }
    // Both bucket lists ascend: walk them together, once to size the
    // delta and once to fill it.
    let deltas = || {
        let mut before = prev.buckets.iter().peekable();
        cur.buckets.iter().filter_map(move |&(i, n)| {
            while before.next_if(|&&(j, _)| j < i).is_some() {}
            let was = before.next_if(|&&(j, _)| j == i).map_or(0, |&(_, m)| m);
            let d = n.saturating_sub(was);
            (d > 0).then_some((i, d))
        })
    };
    let mut buckets = Vec::with_capacity(deltas().count());
    buckets.extend(deltas());
    let count = cur.count - prev.count;
    let (min, max) = if count == 0 || buckets.is_empty() {
        (u64::MAX, 0)
    } else {
        (
            bucket_low(buckets[0].0 as usize),
            bucket_high(buckets[buckets.len() - 1].0 as usize),
        )
    };
    HistogramState {
        buckets,
        count,
        sum: cur.sum.saturating_sub(prev.sum),
        min,
        max,
    }
}

/// `*`-wildcard series selector: `*` matches any run of characters,
/// everything else is literal. `netqos_lts_*` matches the store's own
/// metrics; `*` matches everything. A mismatch backtracks only to the
/// latest `*`, so a match takes at most `|pattern| · |name|` steps.
pub fn selector_matches(pattern: &str, name: &str) -> bool {
    let (pat, s) = (pattern.as_bytes(), name.as_bytes());
    // Where the pattern and the name are read, and the latest `*` with
    // the first name byte it has not taken.
    let (mut pi, mut si, mut star) = (0, 0, None);
    while si < s.len() {
        match pat.get(pi) {
            Some(b'*') => (star, pi) = (Some((pi, si)), pi + 1),
            Some(&c) if c == s[si] => (pi, si) = (pi + 1, si + 1),
            _ => {
                // Let the latest `*` take one more byte.
                let Some((sp, ss)) = star else { return false };
                (star, pi, si) = (Some((sp, ss + 1)), sp + 1, ss + 1);
            }
        }
    }
    pat[pi..].iter().all(|&c| c == b'*')
}

/// A series the index knows about.
#[derive(Debug, Clone)]
pub struct SeriesInfo {
    /// Metric name (may embed a `{label="..."}` set).
    pub name: String,
    /// Fixed kind.
    pub kind: SeriesKind,
    /// Directory slug.
    pub slug: String,
}

/// Read-only, stateless view of a store directory. Safe to use from
/// HTTP handler threads while the monitor's [`LtsStore`] keeps writing:
/// every query re-reads from disk and canonicalizes, so results depend
/// only on persisted bytes.
#[derive(Clone)]
pub struct LtsReader {
    dir: PathBuf,
}

impl LtsReader {
    /// A reader over `dir` (which need not exist yet — queries over a
    /// missing store are empty, not errors).
    pub fn open(dir: impl Into<PathBuf>) -> LtsReader {
        LtsReader { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Newest raw-resolution point timestamp across every indexed
    /// series, reading only segment filenames (which encode their time
    /// range) and the last record of each open tail. `None` for an empty
    /// or missing store.
    pub fn newest_t(&self) -> Option<u64> {
        let index = self.index();
        index.iter().filter_map(|i| self.newest_of(&i.slug)).max()
    }

    /// [`LtsReader::newest_t`] of the one series stored under `slug`.
    pub(crate) fn newest_of(&self, slug: &str) -> Option<u64> {
        let sdir = self.dir.join(Resolution::Raw1s.dir_name()).join(slug);
        let sealed = segment_files(&sdir)
            .ok()
            .and_then(|segs| segs.iter().map(|s| s.last).max());
        // The walk ends at the tail's last whole record.
        let mut tail = None;
        walk_tail_back(&sdir.join(OPEN_TAIL), u64::MAX, |p| {
            tail = tail.max(Some(p.t))
        });
        sealed.max(tail)
    }

    /// Every indexed series, sorted by name, duplicates dropped
    /// (first index line wins). Unparseable lines are skipped.
    pub fn index(&self) -> Vec<SeriesInfo> {
        let Ok(text) = fs::read_to_string(self.dir.join("series.idx")) else {
            return Vec::new();
        };
        let mut seen: BTreeMap<String, SeriesInfo> = BTreeMap::new();
        for line in text.lines() {
            if let Some((slug, name, kind)) = parse_index_line(line) {
                seen.entry(name.clone())
                    .or_insert(SeriesInfo { name, kind, slug });
            }
        }
        seen.into_values().collect()
    }

    /// Canonical points for one series/resolution in `[start, end]`:
    /// sealed segments oldest-first, then the open tail, sorted by time,
    /// first write winning any duplicate timestamp. A sealed segment in
    /// the window that does not decode, or a JSON-lines file, fails it.
    pub fn series_points(
        &self,
        info: &SeriesInfo,
        res: Resolution,
        start: u64,
        end: u64,
    ) -> io::Result<Vec<Point>> {
        let sdir = self.dir.join(res.dir_name()).join(&info.slug);
        let segs = segment_files(&sdir)?;
        match read_points(&segs, &sdir.join(OPEN_TAIL), info.kind, start, end) {
            (_, Some(undecodable)) => Err(undecodable),
            (pts, None) => Ok(pts),
        }
    }

    /// The offline read behind `netqos lts query`: every indexed series
    /// matching `selector`, at resolution `step`, restricted to `[start,
    /// end]`. The output is deterministic — sorted by series name,
    /// canonical point order — so identical stores yield byte-identical
    /// JSON. Fails as [`LtsReader::series_points`] does.
    pub fn query(
        &self,
        selector: &str,
        start: u64,
        end: u64,
        step: Resolution,
    ) -> io::Result<String> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"start\":{start},\"end\":{end},\"step\":\"{}\",\"series\":[",
            step.dir_name()
        );
        let mut first = true;
        for info in self.index() {
            if !selector_matches(selector, &info.name) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"kind\":\"{}\",\"points\":[",
                json_escape(&info.name),
                info.kind.as_str()
            );
            let pts = self.series_points(&info, step, start, end)?;
            for (i, p) in pts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match &p.value {
                    PointValue::Counter(v) => {
                        let _ = write!(out, "[{},{}]", p.t, v);
                    }
                    PointValue::Gauge(v) => {
                        let _ = write!(out, "[{},{}]", p.t, v);
                    }
                    PointValue::Histogram(h) => {
                        let quantile =
                            |q| quantile_of(h.buckets.iter().copied(), h.count, h.max, q);
                        let _ = write!(
                            out,
                            "{{\"t\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
                            p.t,
                            h.count,
                            h.sum,
                            if h.min == u64::MAX { 0 } else { h.min },
                            h.max,
                            quantile(0.50),
                            quantile(0.99),
                        );
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        Ok(out)
    }
}

/// A parsed `range=<start>:<end>` pair (either side may be empty:
/// `range=100:` means "from 100 on", `range=:200` "up to 200").
pub fn parse_range(s: &str) -> Option<(u64, u64)> {
    let (a, b) = s.split_once(':')?;
    let start = if a.is_empty() { 0 } else { a.parse().ok()? };
    let end = if b.is_empty() {
        u64::MAX
    } else {
        b.parse().ok()?
    };
    (start <= end).then_some((start, end))
}

/// What [`verify_store`] found.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Indexed series.
    pub series: usize,
    /// Segment files scanned (sealed + open).
    pub segments: u64,
    /// Points parsed.
    pub points: u64,
    /// Bytes on disk.
    pub bytes: u64,
    /// Human-readable problems; empty means the store is sound.
    pub issues: Vec<String>,
}

/// Structural check of a store: the index parses, every sealed segment
/// decodes exactly, every tail's prelude names the indexed kind and each
/// of its records passes its checksum and decodes to exactly its length,
/// timestamps are strictly increasing within a file, and sealed
/// filenames match their contents' range. Issues come in the order of
/// `list_store`. A store holding a JSON-lines file (`refuse_v1`) is
/// refused ([`io::ErrorKind::InvalidData`]), not checked, and a directory
/// of it that cannot be read is an error, not an empty one.
pub fn verify_store(dir: &Path) -> io::Result<VerifyReport> {
    let mut rep = VerifyReport::default();
    if let Ok(text) = fs::read_to_string(dir.join("series.idx")) {
        rep.bytes += text.len() as u64;
        for (ln, line) in text.lines().enumerate() {
            if !line.trim().is_empty() && parse_index_line(line).is_none() {
                rep.issues
                    .push(format!("series.idx line {}: unparseable", ln + 1));
            }
        }
    }
    let index = LtsReader::open(dir).index();
    rep.series = index.len();
    let known: BTreeMap<&str, &SeriesInfo> = index.iter().map(|i| (i.slug.as_str(), i)).collect();
    for sd in list_store(dir)? {
        let Some(info) = known.get(sd.slug.as_str()) else {
            (rep.issues).push(format!("{}: not in series.idx", rel_path(dir, &sd.path)));
            continue;
        };
        for f in &sd.files {
            let at = rel_path(dir, &f.path);
            if f.role == FileRole::Other {
                rep.issues.push(format!("{at}: unexpected file"));
                continue;
            }
            rep.segments += 1;
            rep.bytes += file_len(&f.path);
            let buf = fs::read(&f.path)?;
            if let FileRole::Sealed { first: a, last: b } = f.role {
                // Sealed segments are immutable: decode strictly and
                // cross-check the header's fold against the points.
                match decode_segment_v2(&buf) {
                    Err(e) => rep.issues.push(format!("{at}: {e}")),
                    Ok((header, pts)) => {
                        rep.points += pts.len() as u64;
                        if header.kind != info.kind {
                            rep.issues.push(format!(
                                "{at}: kind mismatch (index says {})",
                                info.kind.as_str()
                            ));
                        }
                        if pts.windows(2).any(|w| w[1].t <= w[0].t) {
                            rep.issues.push(format!("{at}: time not increasing"));
                        }
                        let (first_t, last_t) = (pts.first().map(|p| p.t), pts.last().map(|p| p.t));
                        // The header's fold, as the writer folds the points.
                        let mut fold = TailFold::default();
                        pts.iter().for_each(|p| fold.push(p));
                        if header
                            .stats
                            .is_some_and(|hs| hs != fold.stats.unwrap_or_default())
                        {
                            rep.issues
                                .push(format!("{at}: header stats disagree with points"));
                        }
                        if first_t != Some(a) || last_t != Some(b) {
                            rep.issues.push(format!(
                                "{at}: name range [{a},{b}] != content range [{first_t:?},{last_t:?}]"
                            ));
                        }
                    }
                }
                continue;
            }
            let at = |off: usize| format!("{at} at byte {off}");
            let Some(mut records) = tail_records(&buf) else {
                if !buf.is_empty() {
                    rep.issues.push(format!("{}: bad prelude", at(0)));
                }
                continue;
            };
            if records.kind != info.kind {
                rep.issues.push(format!(
                    "{}: kind mismatch (index says {})",
                    at(0),
                    info.kind.as_str()
                ));
                continue;
            }
            let mut last_t: Option<u64> = None;
            let mut off = records.pos;
            while let Some(p) = records.next() {
                if last_t.is_some_and(|l| p.t <= l) {
                    rep.issues.push(format!("{}: time not increasing", at(off)));
                }
                last_t = Some(p.t);
                rep.points += 1;
                off = records.pos;
            }
            if off != buf.len() {
                rep.issues.push(format!("{}: bad record", at(off)));
            }
        }
    }
    Ok(rep)
}

/// What [`compact_store`] did.
#[derive(Debug, Clone, Default)]
pub struct CompactReport {
    /// Segment files before/after.
    pub segments_before: u64,
    /// Segment files after.
    pub segments_after: u64,
    /// Store bytes before.
    pub bytes_before: u64,
    /// Store bytes after.
    pub bytes_after: u64,
}

/// Rewrites every series/resolution as a single sealed segment holding
/// its canonical point sequence, and the index as one deduplicated,
/// sorted file — both via tmp-file-plus-rename. Because queries already
/// canonicalize, a query over the compacted store is byte-identical to
/// one over the original. A store holding a sealed v1 segment is refused
/// before anything is rewritten. A series/resolution holding a sealed
/// segment that does not decode is left as found while the rest is
/// compacted, and the call then fails with
/// [`io::ErrorKind::InvalidData`] naming the first such segment. Files
/// that are neither a segment nor a tail are neither counted nor
/// removed. Must not run while a writer has the store open (offline
/// maintenance only).
pub fn compact_store(dir: &Path) -> io::Result<CompactReport> {
    let mut rep = CompactReport::default();
    let index = LtsReader::open(dir).index();
    let listing = list_store(dir)?;
    (rep.segments_before, rep.bytes_before) = disk_files(dir, &listing);

    // Rewrite the index: sorted, deduplicated.
    if !index.is_empty() {
        let tmp = dir.join("series.idx.tmp");
        let mut body = Vec::new();
        for info in &index {
            push_index_line(&mut body, &info.slug, &info.name, info.kind);
        }
        fs::write(&tmp, body)?;
        fs::rename(&tmp, dir.join("series.idx"))?;
    }

    let kinds: BTreeMap<&str, SeriesKind> =
        index.iter().map(|i| (i.slug.as_str(), i.kind)).collect();
    let mut undecodable = None;
    for sd in &listing {
        let Some(&kind) = kinds.get(sd.slug.as_str()) else {
            continue;
        };
        let mut segs: Vec<SegmentFile> = (sd.files.iter())
            .filter_map(|f| as_sealed(f.path.clone(), f.role))
            .collect();
        segs.sort_by_key(|s| (s.first, s.last));
        let (pts, bad) = read_points(&segs, &sd.path.join(OPEN_TAIL), kind, 0, u64::MAX);
        if let Some(e) = bad {
            undecodable.get_or_insert(e);
            continue;
        }
        let mut old = (sd.files.iter())
            .filter(|f| f.role != FileRole::Other)
            .map(|f| &f.path);
        if pts.is_empty() {
            old.try_for_each(fs::remove_file)?;
            continue;
        }
        let dest = sd
            .path
            .join(segment_file_name(pts[0].t, pts[pts.len() - 1].t));
        let tmp = sd.path.join("compact.tmp");
        fs::write(&tmp, encode_segment_v2(kind, &pts))?;
        fs::rename(&tmp, &dest)?;
        old.filter(|p| **p != dest).try_for_each(fs::remove_file)?;
    }
    (rep.segments_after, rep.bytes_after) = disk_files(dir, &list_store(dir)?);
    undecodable.map_or(Ok(rep), Err)
}

/// Segment files (sealed and open) in `listing`, and their bytes with
/// the index's.
fn disk_files(dir: &Path, listing: &[SeriesDir]) -> (u64, u64) {
    let mut totals = (0, file_len(&dir.join("series.idx")));
    for f in listing.iter().flat_map(|sd| &sd.files) {
        if f.role != FileRole::Other {
            totals.0 += 1;
            totals.1 += file_len(&f.path);
        }
    }
    totals
}

/// Result of a segment-by-segment counter fold over a time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeFold {
    /// Points in the window.
    pub count: u64,
    /// Sum of the counter deltas in the window.
    pub sum: u64,
    /// Smallest delta (`u64::MAX` when the window is empty).
    pub min: u64,
    /// Largest delta.
    pub max: u64,
    /// Newest point timestamp ≤ the window end, if any.
    pub last_t: Option<u64>,
    /// Points actually decoded (partial segments + open tail). Fully
    /// covered binary segments fold from their header and add nothing
    /// here.
    pub points_scanned: u64,
    /// Segments folded from header stats alone.
    pub segments_folded: u64,
}

impl Default for RangeFold {
    fn default() -> Self {
        RangeFold {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            last_t: None,
            points_scanned: 0,
            segments_folded: 0,
        }
    }
}

/// Folds a counter series over the window `(after, upto]` — the same
/// half-open bound the query engine's windows use — without
/// materializing a point vector: fully covered binary segments
/// contribute their header fold in O(1), everything else streams. Gives
/// exactly the count/sum/min/max a scan of the canonical point sequence
/// would. Returns `None` when the fast path cannot be trusted and the
/// caller must take the general (materialize + canonicalize) path:
/// non-counter series, overlapping sealed segments, an open tail
/// overlapping the sealed range or out of order where the fold walked
/// it (`walk_tail_back`), or an undecodable segment.
pub fn fold_series_range(
    dir: &Path,
    slug: &str,
    kind: SeriesKind,
    res: Resolution,
    after: Option<u64>,
    upto: u64,
) -> Option<RangeFold> {
    if kind != SeriesKind::Counter {
        return None;
    }
    let low = after.map(|a| a.saturating_add(1)).unwrap_or(0);
    if low > upto {
        return Some(RangeFold::default());
    }
    let sdir = dir.join(res.dir_name()).join(slug);
    let segs = segment_files(&sdir).ok()?;
    // Overlap between sealed segments (or with the open tail) means
    // duplicate timestamps are possible and only the canonicalizing
    // path dedups them.
    if segs.windows(2).any(|w| w[1].first <= w[0].last) {
        return None;
    }
    let sealed_last = segs.last().map(|s| s.last);
    let mut fold = RangeFold::default();
    let add = |t: u64, v: u64, fold: &mut RangeFold| {
        if t >= low && t <= upto {
            fold.count += 1;
            fold.sum = fold.sum.saturating_add(v);
            fold.min = fold.min.min(v);
            fold.max = fold.max.max(v);
        }
        if t <= upto {
            fold.last_t = Some(fold.last_t.map_or(t, |l| l.max(t)));
        }
    };
    for seg in &segs {
        if seg.last < low {
            // Still the newest point below the window end so far.
            fold.last_t = Some(fold.last_t.map_or(seg.last, |l| l.max(seg.last)));
            continue;
        }
        if seg.first > upto {
            continue;
        }
        let covered = seg.first >= low && seg.last <= upto;
        if covered {
            let header = read_segment_header(&seg.path)?;
            let stats = header.stats?;
            if header.kind != kind {
                return None;
            }
            fold.count += header.count;
            fold.sum = fold.sum.saturating_add(stats.sum);
            if header.count > 0 {
                fold.min = fold.min.min(stats.min);
                fold.max = fold.max.max(stats.max);
                fold.last_t = Some(fold.last_t.map_or(header.last_t, |l| l.max(header.last_t)));
            }
            fold.segments_folded += 1;
            continue;
        }
        let pts = read_sealed_points(seg, kind).ok()?;
        fold.points_scanned += pts.len() as u64;
        for p in &pts {
            if let PointValue::Counter(v) = &p.value {
                add(p.t, *v, &mut fold);
            }
        }
    }
    let open = sdir.join(OPEN_TAIL);
    // A tail at or before the sealed range (crashed seal leftover)
    // would double-count: only the canonical path dedups. Its first
    // point is at the head of the file, wherever the window lies.
    if let (Some(sl), Some(first)) = (sealed_last, first_tail_point(&open, kind)) {
        if first.t <= sl {
            return None;
        }
    }
    let ordered = walk_tail_back(&open, low, |p| {
        if let PointValue::Counter(v) = p.value {
            fold.points_scanned += 1;
            add(p.t, v, &mut fold);
        }
    });
    ordered.then_some(fold)
}

/// Per-segment detail for [`store_stats`].
#[derive(Debug, Clone)]
pub struct SegmentStat {
    /// Path relative to the store root.
    pub path: String,
    /// `false` for open tails.
    pub sealed: bool,
    /// Points held.
    pub points: u64,
    /// File size.
    pub bytes: u64,
}

/// Per-resolution rollup for [`store_stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolutionStat {
    /// Segment files (sealed + open).
    pub segments: u64,
    /// Sealed segments.
    pub sealed: u64,
    /// Open tails.
    pub open_tails: u64,
    /// Bytes on disk.
    pub bytes: u64,
    /// Points held.
    pub points: u64,
}

/// What [`store_stats`] measured.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Rollup per resolution, finest first (indexable by
    /// [`Resolution::ALL`] order).
    pub resolutions: [ResolutionStat; 3],
    /// Every segment file, sorted by path.
    pub segments: Vec<SegmentStat>,
}

/// Measures on-disk layout per resolution and per segment: bytes and
/// point counts. Sealed point counts come from segment headers; an open
/// tail's are its whole records. A store holding a JSON-lines file
/// (`refuse_v1`) is refused ([`io::ErrorKind::InvalidData`]).
pub fn store_stats(dir: &Path) -> io::Result<StoreStats> {
    let mut stats = StoreStats::default();
    for sd in list_store(dir)? {
        let rs = &mut stats.resolutions[sd.res.index()];
        for f in &sd.files {
            let (sealed, points) = match f.role {
                FileRole::Sealed { .. } => {
                    (true, read_segment_header(&f.path).map_or(0, |h| h.count))
                }
                FileRole::Tail => {
                    let buf = fs::read(&f.path).unwrap_or_default();
                    (false, tail_records(&buf).map_or(0, |r| r.count() as u64))
                }
                _ => continue,
            };
            let bytes = file_len(&f.path);
            rs.segments += 1;
            rs.sealed += u64::from(sealed);
            rs.open_tails += u64::from(!sealed);
            rs.bytes += bytes;
            rs.points += points;
            stats.segments.push(SegmentStat {
                path: rel_path(dir, &f.path),
                sealed,
                points,
                bytes,
            });
        }
    }
    stats.segments.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(stats)
}

/// Emits one `lts` JSONL event per retention deletion and per recovery
/// warning, and bumps `retention_deleted` — the shared
/// `netqos_retention_deleted_total` counter.
pub fn report_flush(
    sink: &EventSink,
    retention_deleted: &Counter,
    report: &FlushReport,
    warnings: &[String],
) {
    for d in &report.deleted {
        retention_deleted.inc();
        sink.emit(Level::Info, "lts", "retention_delete", || {
            vec![
                ("path".to_string(), FieldValue::Str(d.path.clone())),
                ("bytes".to_string(), FieldValue::U64(d.bytes)),
                ("reason".to_string(), FieldValue::Str(d.reason.to_string())),
            ]
        });
    }
    for w in warnings {
        sink.emit(Level::Warn, "lts", "recovered", || {
            vec![("detail".to_string(), FieldValue::Str(w.clone()))]
        });
    }
}

// ---------------------------------------------------------------------
// Binary segment codec (v2)
// ---------------------------------------------------------------------
//
// Segment layout (all integers LEB128 varints unless noted):
//
// ```text
// magic   4 bytes  "NQS2"    ┐ the prelude, also the head
// version u8       2         │ of every open tail
// kind    u8       0 = counter, 1 = gauge, 2 = histogram
// count            points in the segment
// first_t          timestamp of the first point
// last_t           timestamp of the last point
// [counter only] sum, min_delta, max_delta   whole-segment fold (zeros
//                                            when count == 0) — lets a
//                                            fully-covered window be
//                                            folded from the header
//                                            without decoding points
// points  count ×:
//   dt             t - previous t (first point: t - first_t, i.e. 0)
//   counter:       zigzag(v - prev_v)          (prev starts at 0,
//                                              wrapping, lossless)
//   gauge:         zigzag(v - prev_v)          (same)
//   histogram:     count, sum,
//                  flag u8 (1 = min/max follow; an empty interval
//                  omits them), [min, max],
//                  n_buckets, then n × (index - prev_index, bucket
//                  count) with the first index absolute
// ```
//
// An open tail is the prelude, then one record per point:
//
// ```text
// payload          the point as above against a zero predecessor:
//                  dt = t, and zigzag(v) for counters and gauges
// length  u32 LE   the payload's bytes
// fnv     u32 LE   FNV-1a (32-bit) of the payload
// ```
//
// Deltas use wrapping arithmetic in both directions, so every `u64`
// round-trips exactly; zigzag keeps small negative deltas short.

const SEG_MAGIC: [u8; 4] = *b"NQS2";

/// Magic, version and kind: the first bytes of every v2 file.
const PRELUDE: usize = 6;

/// What follows a tail record's payload: its length and checksum.
const TRAILER: usize = 8;

/// The open tail's file name in a series directory.
const OPEN_TAIL: &str = "open.bin";

fn prelude(kind: SeriesKind) -> [u8; PRELUDE] {
    let [m0, m1, m2, m3] = SEG_MAGIC;
    [m0, m1, m2, m3, 2, kind_byte(kind)]
}

/// The kind a v2 prelude at the head of `buf` names.
fn prelude_kind(buf: &[u8]) -> Result<SeriesKind, String> {
    if buf.len() < PRELUDE {
        return Err("truncated header".to_string());
    }
    if buf[0..4] != SEG_MAGIC {
        return Err("bad magic".to_string());
    }
    if buf[4] != 2 {
        return Err(format!("unsupported codec version {}", buf[4]));
    }
    kind_from_byte(buf[5]).ok_or_else(|| format!("bad kind byte {}", buf[5]))
}

/// The little-endian `u32` at the head of `b`.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// The time and value a point's payload is a delta from: the point
/// before it in a segment, zero for a tail record.
#[derive(Debug, Default, Clone, Copy)]
struct Prev {
    t: u64,
    v: u64,
}

/// Appends `p`'s v2 payload against `prev`, then makes `p` the
/// predecessor.
fn push_point(out: &mut Vec<u8>, prev: &mut Prev, p: &Point) {
    push_varint(out, p.t.wrapping_sub(prev.t));
    prev.t = p.t;
    match &p.value {
        PointValue::Counter(v) => {
            push_varint(out, zigzag(v.wrapping_sub(prev.v) as i64));
            prev.v = *v;
        }
        PointValue::Gauge(v) => {
            push_varint(out, zigzag(v.wrapping_sub(prev.v as i64)));
            prev.v = *v as u64;
        }
        PointValue::Histogram(h) => {
            push_varint(out, h.count);
            push_varint(out, h.sum);
            if h.count > 0 {
                out.push(1);
                push_varint(out, h.min);
                push_varint(out, h.max);
            } else {
                out.push(0);
            }
            push_varint(out, h.buckets.len() as u64);
            let mut prev_i: u32 = 0;
            for &(i, n) in &h.buckets {
                push_varint(out, i.wrapping_sub(prev_i) as u64);
                prev_i = i;
                push_varint(out, n);
            }
        }
    }
}

/// A point for a decode to overwrite.
const BLANK: Point = Point {
    t: 0,
    value: PointValue::Counter(0),
};

/// Decodes the v2 payload of a `kind` point at `*pos` against `prev`,
/// then makes it the predecessor. `None` if the payload is cut short.
fn read_point(buf: &[u8], pos: &mut usize, kind: SeriesKind, prev: &mut Prev) -> Option<Point> {
    let mut p = BLANK;
    read_point_into(buf, pos, kind, prev, &mut p).map(|()| p)
}

/// [`read_point`] into `out`, whose bucket list a histogram reuses.
fn read_point_into(
    buf: &[u8],
    pos: &mut usize,
    kind: SeriesKind,
    prev: &mut Prev,
    out: &mut Point,
) -> Option<()> {
    out.t = prev.t.wrapping_add(read_varint(buf, pos)?);
    prev.t = out.t;
    match kind {
        SeriesKind::Counter => {
            let v = prev.v.wrapping_add(unzigzag(read_varint(buf, pos)?) as u64);
            prev.v = v;
            out.value = PointValue::Counter(v);
        }
        SeriesKind::Gauge => {
            let v = (prev.v as i64).wrapping_add(unzigzag(read_varint(buf, pos)?));
            prev.v = v as u64;
            out.value = PointValue::Gauge(v);
        }
        SeriesKind::Histogram => {
            if !matches!(out.value, PointValue::Histogram(_)) {
                out.value = PointValue::Histogram(HistogramState::default());
            }
            let PointValue::Histogram(h) = &mut out.value else {
                unreachable!("made a histogram above")
            };
            h.count = read_varint(buf, pos)?;
            h.sum = read_varint(buf, pos)?;
            let flag = *buf.get(*pos)?;
            *pos += 1;
            (h.min, h.max) = if flag == 1 {
                (read_varint(buf, pos)?, read_varint(buf, pos)?)
            } else {
                (u64::MAX, 0)
            };
            let nb = read_varint(buf, pos)?;
            h.buckets.clear();
            h.buckets.reserve_exact(nb.min(4096) as usize);
            let mut prev_i: u32 = 0;
            for _ in 0..nb {
                let bi = prev_i.wrapping_add(read_varint(buf, pos)? as u32);
                prev_i = bi;
                h.buckets.push((bi, read_varint(buf, pos)?));
            }
        }
    }
    Some(())
}

/// Appends `p` as one tail record: its payload against a zero
/// predecessor, then the trailer.
fn push_record(out: &mut Vec<u8>, p: &Point) {
    let start = out.len();
    push_point(out, &mut Prev::default(), p);
    let len = (out.len() - start) as u32;
    let sum = fnv1a32(&out[start..]);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&sum.to_le_bytes());
}

/// The `kind` tail record starting at `start` in `buf`: its point and
/// the offset it ends at. `None` if it is cut short, fails its checksum
/// or does not decode to exactly its length.
fn read_record(buf: &[u8], start: usize, kind: SeriesKind) -> Option<(Point, usize)> {
    let mut p = BLANK;
    read_record_into(buf, start, kind, &mut p).map(|end| (p, end))
}

/// [`read_record`] into `out`, whose bucket list a histogram reuses; the
/// offset the record ends at.
fn read_record_into(buf: &[u8], start: usize, kind: SeriesKind, out: &mut Point) -> Option<usize> {
    let mut pos = start;
    read_point_into(buf, &mut pos, kind, &mut Prev::default(), out)?;
    let trailer = buf.get(pos..pos + TRAILER)?;
    let payload = &buf[start..pos];
    let whole =
        le_u32(trailer) as usize == payload.len() && le_u32(&trailer[4..]) == fnv1a32(payload);
    whole.then_some(pos + TRAILER)
}

/// The points of an open tail's bytes, front to back, up to its first
/// record that is cut short, fails its checksum or does not decode to
/// exactly its length.
struct TailRecords<'a> {
    buf: &'a [u8],
    /// What the prelude names.
    kind: SeriesKind,
    /// Where the next record starts; once the points run out, the end of
    /// the last whole record.
    pos: usize,
}

/// The records of a tail's bytes; `None` without a whole prelude.
fn tail_records(buf: &[u8]) -> Option<TailRecords<'_>> {
    let kind = prelude_kind(buf).ok()?;
    Some(TailRecords {
        buf,
        kind,
        pos: PRELUDE,
    })
}

impl Iterator for TailRecords<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let (p, end) = read_record(self.buf, self.pos, self.kind)?;
        self.pos = end;
        Some(p)
    }
}

/// Whole-segment fold carried in a v2 counter segment's header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Sum of the counter deltas.
    pub sum: u64,
    /// Smallest delta (`u64::MAX` when the segment is empty).
    pub min: u64,
    /// Largest delta.
    pub max: u64,
}

/// Decoded v2 header, available without touching the point payload.
#[derive(Debug, Clone)]
pub struct SegmentHeader {
    /// Series kind the segment holds.
    pub kind: SeriesKind,
    /// Points in the segment.
    pub count: u64,
    /// First point's timestamp.
    pub first_t: u64,
    /// Last point's timestamp.
    pub last_t: u64,
    /// Whole-segment counter fold; `None` for gauge/histogram segments.
    pub stats: Option<SegmentStats>,
    /// Byte offset where the point payload starts.
    payload: usize,
}

fn kind_byte(kind: SeriesKind) -> u8 {
    match kind {
        SeriesKind::Counter => 0,
        SeriesKind::Gauge => 1,
        SeriesKind::Histogram => 2,
    }
}

fn kind_from_byte(b: u8) -> Option<SeriesKind> {
    match b {
        0 => Some(SeriesKind::Counter),
        1 => Some(SeriesKind::Gauge),
        2 => Some(SeriesKind::Histogram),
        _ => None,
    }
}

/// What a v2 segment's header says of its points: how many, the first
/// and last time and, for counters, the fold of their values. The writer
/// keeps one for each unsealed tail in place of the tail's points.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct TailFold {
    count: u64,
    first_t: u64,
    last_t: u64,
    /// Fold of the counter values folded, once there is one.
    stats: Option<SegmentStats>,
}

impl TailFold {
    /// Folds in `p`.
    fn push(&mut self, p: &Point) {
        if self.count == 0 {
            self.first_t = p.t;
        }
        self.count += 1;
        self.last_t = p.t;
        if let PointValue::Counter(v) = p.value {
            let stats = self.stats.get_or_insert(SegmentStats {
                min: u64::MAX,
                ..SegmentStats::default()
            });
            stats.sum = stats.sum.saturating_add(v);
            stats.min = stats.min.min(v);
            stats.max = stats.max.max(v);
        }
    }

    /// The newest point's time; `None` before the first.
    fn last(&self) -> Option<u64> {
        (self.count > 0).then_some(self.last_t)
    }

    /// Appends the header of a `kind` segment holding the points folded.
    fn push_header(&self, kind: SeriesKind, out: &mut Vec<u8>) {
        out.extend_from_slice(&prelude(kind));
        push_varint(out, self.count);
        push_varint(out, self.first_t);
        push_varint(out, self.last_t);
        if kind == SeriesKind::Counter {
            let SegmentStats { sum, min, max } = self.stats.unwrap_or_default();
            push_varint(out, sum);
            push_varint(out, min);
            push_varint(out, max);
        }
    }
}

/// A sealed segment's payload as a seal transcodes it from tail records,
/// and the fold of the points it holds.
struct Transcoder<'a> {
    out: &'a mut Vec<u8>,
    /// The last point transcoded.
    prev: Prev,
    fold: TailFold,
    /// The point a record decodes into.
    point: &'a mut Point,
}

impl Transcoder<'_> {
    /// Appends the `kind` tail records of `buf` from `start` to its end;
    /// the offset of the first that is cut short, fails its checksum or
    /// does not decode to exactly its length, if one does. Counters and
    /// gauges are encoded against the point before; the fields of a
    /// histogram after its time are copied as they are.
    fn records(&mut self, buf: &[u8], start: usize, kind: SeriesKind) -> Result<(), usize> {
        let mut at = start;
        while at < buf.len() {
            let end = read_record_into(buf, at, kind, self.point).ok_or(at)?;
            let t = self.point.t;
            if self.fold.count == 0 {
                self.prev.t = t;
            }
            self.fold.push(self.point);
            if kind == SeriesKind::Histogram {
                push_varint(self.out, t.wrapping_sub(self.prev.t));
                self.prev.t = t;
                let mut fields = at;
                read_varint(buf, &mut fields);
                self.out.extend_from_slice(&buf[fields..end - TRAILER]);
            } else {
                push_point(self.out, &mut self.prev, self.point);
            }
            at = end;
        }
        Ok(())
    }
}

/// Encodes `pts` (strictly increasing `t`, all of `kind`) as one v2
/// binary segment.
pub fn encode_segment_v2(kind: SeriesKind, pts: &[Point]) -> Vec<u8> {
    let mut fold = TailFold::default();
    pts.iter().for_each(|p| fold.push(p));
    let mut out = Vec::with_capacity(SEG_HEADER_MAX + pts.len() * 3);
    fold.push_header(kind, &mut out);
    let mut prev = Prev {
        t: fold.first_t,
        v: 0,
    };
    pts.iter().for_each(|p| push_point(&mut out, &mut prev, p));
    out
}

/// Decodes a v2 header. Errors on a bad magic/version/kind or a
/// truncated header.
pub fn decode_segment_v2_header(buf: &[u8]) -> Result<SegmentHeader, String> {
    let kind = prelude_kind(buf)?;
    let mut pos = PRELUDE;
    let count = read_varint(buf, &mut pos).ok_or("truncated count")?;
    let first_t = read_varint(buf, &mut pos).ok_or("truncated first_t")?;
    let last_t = read_varint(buf, &mut pos).ok_or("truncated last_t")?;
    let stats = if kind == SeriesKind::Counter {
        Some(SegmentStats {
            sum: read_varint(buf, &mut pos).ok_or("truncated sum")?,
            min: read_varint(buf, &mut pos).ok_or("truncated min")?,
            max: read_varint(buf, &mut pos).ok_or("truncated max")?,
        })
    } else {
        None
    };
    Ok(SegmentHeader {
        kind,
        count,
        first_t,
        last_t,
        stats,
        payload: pos,
    })
}

/// Decodes a whole v2 segment into its header and points. Errors on any
/// truncation or trailing garbage — sealed binary segments are immutable
/// and must parse exactly.
pub fn decode_segment_v2(buf: &[u8]) -> Result<(SegmentHeader, Vec<Point>), String> {
    let header = decode_segment_v2_header(buf)?;
    let mut pos = header.payload;
    // The count sizes an allocation, so it is held to what the payload
    // can hold first: a point takes at least two bytes, a histogram five.
    let least = match header.kind {
        SeriesKind::Histogram => 5,
        _ => 2,
    };
    let room = ((buf.len() - pos) / least) as u64;
    if header.count > room {
        return Err(format!("truncated: room for {room} points"));
    }
    let mut pts = Vec::with_capacity(header.count as usize);
    let mut prev = Prev {
        t: header.first_t,
        v: 0,
    };
    for i in 0..header.count {
        let p = read_point(buf, &mut pos, header.kind, &mut prev)
            .ok_or_else(|| format!("truncated at point {i}"))?;
        pts.push(p);
    }
    if pos != buf.len() {
        return Err(format!("{} trailing bytes", buf.len() - pos));
    }
    Ok((header, pts))
}

/// Appends one `series.idx` line, newline included.
fn push_index_line(out: &mut Vec<u8>, slug: &str, name: &str, kind: SeriesKind) {
    // Writing to a `Vec` cannot fail.
    let _ = writeln!(
        out,
        "{{\"slug\":\"{slug}\",\"name\":{},\"kind\":\"{}\"}}",
        json_escape(name),
        kind.as_str()
    );
}

fn parse_index_line(line: &str) -> Option<(String, String, SeriesKind)> {
    let v = parse_json(line).ok()?;
    let slug = v.get("slug")?.as_str()?.to_string();
    let name = v.get("name")?.as_str()?.to_string();
    let kind = SeriesKind::parse(v.get("kind")?.as_str()?)?;
    Some((slug, name, kind))
}

/// Filesystem-safe directory name for a series: sanitized name prefix
/// plus an FNV-1a hash of the full name, so `a.b` and `a_b` (or two
/// label sets sanitizing alike) never collide.
fn slug_for(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    s.truncate(48);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{s}-{hash:016x}")
}

/// Sealed-segment filename covering `[first, last]`. Zero-padded so
/// lexicographic directory order is chronological order.
fn segment_file_name(first: u64, last: u64) -> String {
    format!("seg-{first:012}-{last:012}.bin")
}

fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let body = name.strip_prefix("seg-")?.strip_suffix(".bin")?;
    let (a, b) = body.split_once('-')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// What a file in a series directory is, by its name alone: the one rule
/// every reader of a store directory applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileRole {
    /// A sealed segment, `seg-FIRST-LAST.bin`.
    Sealed { first: u64, last: u64 },
    /// The open tail, `open.bin`.
    Tail,
    /// A JSON-lines file, `*.seg`: the store is refused ([`refuse_v1`]).
    V1,
    /// Anything else: not the store's, so never counted, read or removed.
    Other,
}

fn file_role(name: &str) -> FileRole {
    if let Some((first, last)) = parse_segment_name(name) {
        FileRole::Sealed { first, last }
    } else if name == OPEN_TAIL {
        FileRole::Tail
    } else if Path::new(name).extension().is_some_and(|e| e == "seg") {
        FileRole::V1
    } else {
        FileRole::Other
    }
}

/// The refusal of a JSON-lines file found in a series directory: a sealed
/// v1 segment, `seg-A-B.seg`, or a tail from an earlier release,
/// `open.seg`. Neither is read any more, and a directory holding one must
/// not be half-read.
fn refuse_v1(path: &Path) -> io::Error {
    let what = if path.ends_with("open.seg") {
        "a JSON-lines open tail"
    } else {
        "a sealed v1 (JSONL) segment"
    };
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{}: {what}; JSON-lines files are no longer read, seal the store with \
             `netqos lts compact` from an earlier release",
            path.display()
        ),
    )
}

/// One series directory, `DIR/<res>/<slug>/`, and its files.
struct SeriesDir {
    res: Resolution,
    slug: String,
    path: PathBuf,
    files: Vec<StoreFile>,
}

/// One file of a series directory and its [`FileRole`].
struct StoreFile {
    path: PathBuf,
    role: FileRole,
}

/// Every series directory of the store at `dir`, each with its files,
/// all sorted by path: the one reading of a store directory, which
/// [`verify_store`], [`store_stats`] and [`compact_store`] fold over. A
/// missing directory is empty; any other I/O error, and a JSON-lines
/// file anywhere ([`refuse_v1`]), is returned.
fn list_store(dir: &Path) -> io::Result<Vec<SeriesDir>> {
    let mut out = Vec::new();
    for res in Resolution::ALL {
        for entry in dir_entries(&dir.join(res.dir_name()))? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                let slug = entry.file_name().to_string_lossy().into_owned();
                let mut files = series_files(&path, |path, role| Some(StoreFile { path, role }))?;
                files.sort_unstable_by(|a, b| a.path.cmp(&b.path));
                out.push(SeriesDir {
                    res,
                    slug,
                    path,
                    files,
                });
            }
        }
    }
    out.sort_unstable_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// What `keep` makes of each file of one series directory and its
/// [`file_role`]; a JSON-lines file there is an error ([`refuse_v1`]).
fn series_files<T>(
    sdir: &Path,
    mut keep: impl FnMut(PathBuf, FileRole) -> Option<T>,
) -> io::Result<Vec<T>> {
    let mut out = Vec::new();
    for entry in dir_entries(sdir)? {
        let path = entry?.path();
        match file_role(&path.file_name().unwrap_or_default().to_string_lossy()) {
            FileRole::V1 => return Err(refuse_v1(&path)),
            role => out.extend(keep(path, role)),
        }
    }
    Ok(out)
}

/// The entries of `dir`; a missing directory has none.
fn dir_entries(dir: &Path) -> io::Result<impl Iterator<Item = io::Result<fs::DirEntry>>> {
    match fs::read_dir(dir) {
        Ok(entries) => Ok(Some(entries).into_iter().flatten()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None.into_iter().flatten()),
        Err(e) => Err(e),
    }
}

struct SegmentFile {
    path: PathBuf,
    first: u64,
    last: u64,
}

/// The size of the file at `path`; 0 when it cannot be read.
fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

/// `path` as a sealed segment, if its role is one.
fn as_sealed(path: PathBuf, role: FileRole) -> Option<SegmentFile> {
    match role {
        FileRole::Sealed { first, last } => Some(SegmentFile { path, first, last }),
        _ => None,
    }
}

/// Sealed segments in a series directory, oldest first; a v1 segment
/// there is an error ([`refuse_v1`]).
fn segment_files(sdir: &Path) -> io::Result<Vec<SegmentFile>> {
    let mut segs = series_files(sdir, as_sealed)?;
    segs.sort_by_key(|s| (s.first, s.last));
    Ok(segs)
}

/// Reads one sealed segment's points, strict: any undecodable content is
/// an error.
fn read_sealed_points(seg: &SegmentFile, kind: SeriesKind) -> Result<Vec<Point>, String> {
    let buf = fs::read(&seg.path).map_err(|e| e.to_string())?;
    let (header, pts) = decode_segment_v2(&buf)?;
    if header.kind != kind {
        return Err(format!(
            "kind mismatch (segment says {})",
            header.kind.as_str()
        ));
    }
    Ok(pts)
}

/// Reads an open tail, truncating it at its first record that is cut
/// short, fails its checksum or does not decode to exactly its length —
/// what a crash mid-append leaves — and reporting the cut; a tail whose
/// prelude is torn or not `kind`'s is cut to nothing. Returns the points,
/// the file's length afterwards, and the report.
fn read_tail_recovering(
    path: &Path,
    kind: SeriesKind,
) -> io::Result<(Vec<Point>, u64, Option<String>)> {
    let buf = fs::read(path)?;
    let (pts, good) = match tail_records(&buf) {
        Some(mut records) if records.kind == kind => (records.by_ref().collect(), records.pos),
        _ => (Vec::new(), 0),
    };
    let mut warn = None;
    if good < buf.len() {
        warn = Some(format!(
            "{}: corrupt tail at byte {good}; truncated",
            path.display()
        ));
        truncate_file(path, good as u64)?;
    }
    Ok((pts, good as u64, warn))
}

/// The canonical read of one listed series directory, behind the reader
/// and the writer's recovery: `segs` oldest-first, then the tail at
/// `open`, read from its end down to `start` ([`walk_tail_back`]),
/// clipped to `[start, end]` and stable-sorted by time with the
/// first-written point winning ties. A tail's records from its first bad
/// one on are skipped (readers never mutate the store). Beside the
/// points, the first sealed segment in the window it skipped because it
/// did not decode, as an [`io::ErrorKind::InvalidData`] naming it.
fn read_points(
    segs: &[SegmentFile],
    open: &Path,
    kind: SeriesKind,
    start: u64,
    end: u64,
) -> (Vec<Point>, Option<io::Error>) {
    let mut pts: Vec<Point> = Vec::new();
    let mut undecodable = None;
    let wanted = |p: &Point| p.value.kind() == kind && p.t >= start && p.t <= end;
    for seg in segs {
        // Whole segment out of range: skip without reading.
        if seg.last < start || seg.first > end {
            continue;
        }
        match read_sealed_points(seg, kind) {
            Ok(decoded) => pts.extend(decoded.into_iter().filter(wanted)),
            Err(e) => {
                undecodable.get_or_insert_with(|| {
                    let what = format!("{}: {e}", seg.path.display());
                    io::Error::new(io::ErrorKind::InvalidData, what)
                });
            }
        }
    }
    let sealed = pts.len();
    let push = |p: Point| {
        if wanted(&p) {
            pts.push(p)
        }
    };
    if walk_tail_back(open, start, push) {
        pts[sealed..].reverse();
    } else {
        pts.truncate(sealed);
        if let Ok(buf) = fs::read(open) {
            pts.extend(tail_records(&buf).into_iter().flatten().filter(wanted));
        }
    }
    pts.sort_by_key(|p| p.t);
    pts.dedup_by_key(|p| p.t);
    (pts, undecodable)
}

/// Bytes a backward walk reads from the end of a tail first; each
/// further piece is twice the last, so a walk that does go far makes few
/// reads and none reads more than twice what it needed.
const TAIL_PIECE: u64 = 8 * 1024;

/// Hands `visit` the points of the tail at `path` from its end — every
/// whole record, newest first — down to and including the first one not
/// newer than `low`, reading the file a piece at a time, so the cost
/// follows how much of the tail lies after `low` and not its length. A
/// missing file, or one without a whole prelude, has no points.
///
/// Each trailer says where its record starts. The newest bytes may be a
/// record still being appended (readers run while the writer flushes) or
/// what a crash mid-append left; the checksum tells it from a whole one,
/// and the tail is then read forward to its last whole record.
///
/// Stopping at `low` is sound because times strictly increase down a
/// tail: [`LtsStore::append`] drops any point that is not newer than the
/// series' last, and [`verify_store`] reports a tail where they do not.
/// The walk checks what it reads against that. `false` means it saw
/// something no writer leaves — a time that does not decrease, a bad
/// record behind a whole one, a read that failed — and the caller must
/// discard what it was handed and read the file forward, whole.
fn walk_tail_back(path: &Path, low: u64, mut visit: impl FnMut(Point)) -> bool {
    let Ok(mut f) = File::open(path) else {
        return true;
    };
    let Ok(size) = f.metadata().map(|m| m.len()) else {
        return false;
    };
    let mut head = [0u8; PRELUDE];
    if size < PRELUDE as u64 {
        return true;
    }
    if f.read_exact(&mut head).is_err() {
        return false;
    }
    let Ok(kind) = prelude_kind(&head) else {
        return true;
    };
    let mut newer: Option<u64> = None;
    // Hands `p` on; breaks with the walk's answer once it is done.
    let mut hand = |p: Point| {
        if newer.is_some_and(|n| p.t >= n) {
            return ControlFlow::Break(false);
        }
        let t = *newer.insert(p.t);
        visit(p);
        if t <= low {
            ControlFlow::Break(true)
        } else {
            ControlFlow::Continue(())
        }
    };
    // The file's bytes from `at` to the end of the next record back.
    let (mut buf, mut at, mut piece) = (Vec::new(), size, TAIL_PIECE);
    while at + buf.len() as u64 > PRELUDE as u64 {
        let Ok(record) = record_back(&mut f, &mut buf, &mut at, &mut piece, kind) else {
            return false;
        };
        let Some((p, start)) = record else {
            // Only the newest bytes may be torn.
            if at + buf.len() as u64 != size {
                return false;
            }
            let mut all = Vec::new();
            if f.seek(SeekFrom::Start(0))
                .and_then(|_| f.read_to_end(&mut all))
                .is_err()
            {
                return false;
            }
            let pts: Vec<Point> = tail_records(&all).into_iter().flatten().collect();
            for p in pts.into_iter().rev() {
                if let ControlFlow::Break(answer) = hand(p) {
                    return answer;
                }
            }
            return true;
        };
        buf.truncate(start);
        if let ControlFlow::Break(answer) = hand(p) {
            return answer;
        }
    }
    true
}

/// The record that ends where `buf` — the bytes of `f` from `*at` on —
/// ends, and where it starts in `buf`; `None` if there is no whole record
/// there. Reads further back as the record's trailer asks.
fn record_back(
    f: &mut File,
    buf: &mut Vec<u8>,
    at: &mut u64,
    piece: &mut u64,
    kind: SeriesKind,
) -> io::Result<Option<(Point, usize)>> {
    read_back(f, buf, at, piece, TRAILER)?;
    let Some(trailer) = buf.len().checked_sub(TRAILER) else {
        return Ok(None);
    };
    let len = le_u32(&buf[trailer..]) as usize;
    // More than the file holds before the trailer: no record.
    if len as u64 > *at + trailer as u64 - PRELUDE as u64 {
        return Ok(None);
    }
    read_back(f, buf, at, piece, TRAILER + len)?;
    let (end, start) = (buf.len(), buf.len() - TRAILER - len);
    let record = read_record(buf, start, kind).filter(|&(_, e)| e == end);
    Ok(record.map(|(p, _)| (p, start)))
}

/// Grows `buf`, the bytes of `f` from `*at` on, to the front until it
/// holds `need` bytes or begins where the prelude ends: a piece at a
/// time, each twice the last.
fn read_back(
    f: &mut File,
    buf: &mut Vec<u8>,
    at: &mut u64,
    piece: &mut u64,
    need: usize,
) -> io::Result<()> {
    while buf.len() < need && *at > PRELUDE as u64 {
        let (take, carried) = ((*at - PRELUDE as u64).min(*piece) as usize, buf.len());
        *at -= take as u64;
        *piece = piece.saturating_mul(2);
        // The piece goes in front of what is carried.
        buf.resize(take + carried, 0);
        buf.copy_within(..carried, take);
        f.seek(SeekFrom::Start(*at))?;
        f.read_exact(&mut buf[..take])?;
    }
    Ok(())
}

/// The first point of the tail at `path`, if it is of `kind`, from a read
/// of the head of the file.
fn first_tail_point(path: &Path, kind: SeriesKind) -> Option<Point> {
    let mut f = File::open(path).ok()?;
    let size = f.metadata().ok()?.len();
    let first = |head: &[u8]| tail_records(head).filter(|r| r.kind == kind)?.next();
    let mut head = vec![0; size.min(TAIL_PIECE) as usize];
    f.read_exact(&mut head).ok()?;
    // A first record longer than a piece: the rest of the file too.
    first(&head).or_else(|| {
        f.read_to_end(&mut head).ok()?;
        first(&head)
    })
}

/// Longest v2 header: magic, version, kind, then six varints.
const SEG_HEADER_MAX: usize = PRELUDE + 6 * 10;

/// A v2 segment's header from a read of the file's first bytes only.
fn read_segment_header(path: &Path) -> Option<SegmentHeader> {
    let mut buf = [0u8; SEG_HEADER_MAX];
    let mut f = File::open(path).ok()?;
    let mut len = 0;
    while len < buf.len() {
        match f.read(&mut buf[len..]).ok()? {
            0 => break,
            n => len += n,
        }
    }
    decode_segment_v2_header(&buf[..len]).ok()
}

fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// `s` as a quoted JSON string literal (quotes, backslashes and control
/// characters escaped) — for hand-assembled JSON documents.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::events::push_json_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "netqos-lts-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_hist(values: &[u64]) -> HistogramState {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.to_state()
    }

    #[test]
    fn tail_records_round_trip() {
        for p in [
            Point {
                t: 7,
                value: PointValue::Counter(42),
            },
            Point {
                t: 8,
                value: PointValue::Gauge(-3),
            },
            Point {
                t: 9,
                value: PointValue::Histogram(sample_hist(&[5, 10, 10_000])),
            },
            Point {
                t: 10,
                value: PointValue::Histogram(HistogramState {
                    min: u64::MAX,
                    ..Default::default()
                }),
            },
            Point {
                t: u64::MAX,
                value: PointValue::Counter(u64::MAX),
            },
            Point {
                t: 0,
                value: PointValue::Gauge(i64::MIN),
            },
        ] {
            let mut tail = prelude(p.value.kind()).to_vec();
            push_record(&mut tail, &p);
            push_record(&mut tail, &p);
            let mut records = tail_records(&tail).unwrap();
            assert_eq!(records.by_ref().collect::<Vec<_>>(), [p.clone(), p]);
            assert_eq!(records.pos, tail.len());
        }
    }

    #[test]
    fn slugs_distinguish_sanitized_collisions() {
        assert_ne!(slug_for("a.b"), slug_for("a_b"));
        assert_ne!(slug_for("m{x=\"1\"}"), slug_for("m{x=\"2\"}"));
        assert!(slug_for("net.qos/metric")
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'));
    }

    #[test]
    fn selector_wildcards() {
        assert!(selector_matches("*", "anything"));
        assert!(selector_matches("netqos_*_total", "netqos_polls_total"));
        assert!(!selector_matches("netqos_*_total", "netqos_polls"));
        assert!(selector_matches("exact", "exact"));
        assert!(!selector_matches("exact", "exactly"));
        assert!(selector_matches("*suffix", "has_suffix"));
    }

    #[test]
    fn a_wildcard_match_backtracks_only_to_the_latest_star() {
        assert!(selector_matches("a*b*c", "aXbYbZc"));
        assert!(!selector_matches("a*b*c", "aXbYbZ"));
        assert!(selector_matches("**", ""));
        assert!(!selector_matches("*a", ""));
        // 64 stars against 1 000 names of 100 bytes that each fail only
        // at the last byte: recursive backtracking would not finish.
        let pattern = "*a".repeat(64) + "*z";
        let names: Vec<String> = (0..1_000).map(|i| format!("{:a<100}", i % 10)).collect();
        let start = std::time::Instant::now();
        assert!(names.iter().all(|n| !selector_matches(&pattern, n)));
        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_millis(50),
            "{took:?} for 1 000 names"
        );
    }

    /// Two histogram deltas whose counts, sums and bucket 3 together
    /// pass `u64::MAX`.
    fn overflowing_hists() -> [HistogramState; 2] {
        [
            HistogramState {
                buckets: vec![(3, u64::MAX)],
                count: u64::MAX,
                sum: u64::MAX,
                min: 5,
                max: 9,
            },
            HistogramState {
                buckets: vec![(3, 2), (4, 1)],
                count: 3,
                sum: 10,
                min: 2,
                max: 20,
            },
        ]
    }

    /// What a window of [`overflowing_hists`] folds to: every sum wraps,
    /// in a debug build as in a release one.
    fn wrapped_hist() -> PointValue {
        PointValue::Histogram(HistogramState {
            buckets: vec![(3, 1), (4, 1)],
            count: 2,
            sum: 9,
            min: 2,
            max: 20,
        })
    }

    #[test]
    fn downsample_wraps_an_overflowing_window() {
        let at = |t, value| Point { t, value };
        let counters = [
            at(0, PointValue::Counter(u64::MAX)),
            at(1, PointValue::Counter(2)),
        ];
        assert_eq!(
            downsample(SeriesKind::Counter, &counters),
            Some(PointValue::Counter(1))
        );
        let [a, b] = overflowing_hists();
        let hists = [
            at(0, PointValue::Histogram(a)),
            at(1, PointValue::Histogram(b)),
        ];
        assert_eq!(
            downsample(SeriesKind::Histogram, &hists),
            Some(wrapped_hist())
        );
    }

    #[test]
    fn a_flush_and_a_query_fold_an_overflowing_window() {
        let dir = tmpdir("overflow");
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        let [a, b] = overflowing_hists();
        store.append("c", 0, PointValue::Counter(u64::MAX));
        store.append("c", 1, PointValue::Counter(2));
        store.append("c", 60, PointValue::Counter(0));
        store.append("h", 0, PointValue::Histogram(a));
        store.append("h", 1, PointValue::Histogram(b));
        store.append("h", 60, PointValue::Histogram(HistogramState::default()));
        store.flush().unwrap();
        let reader = LtsReader::open(&dir);
        let first_minute = |name: &str| {
            let info = reader.index().into_iter().find(|i| i.name == name).unwrap();
            reader
                .series_points(&info, Resolution::Min1, 0, u64::MAX)
                .unwrap()
        };
        assert_eq!(
            first_minute("c"),
            vec![Point {
                t: 0,
                value: PointValue::Counter(1)
            }]
        );
        assert_eq!(
            first_minute("h"),
            vec![Point {
                t: 0,
                value: wrapped_hist()
            }]
        );
        // `histogram_quantile` over a range folds the raw points the
        // same way.
        let engine = crate::QueryEngine::new().with_source(
            None,
            std::sync::Arc::new(crate::LtsSource::new(reader.clone())),
        );
        let out = engine
            .instant("histogram_quantile(0.5, h[2])", 1, Resolution::Raw1s)
            .unwrap();
        match out.result {
            crate::QueryResult::Vector(samples) => assert_eq!(samples.len(), 1),
            other => panic!("{other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn downsample_rules() {
        let pts: Vec<Point> = (0..3)
            .map(|i| Point {
                t: i,
                value: PointValue::Counter(10 + i),
            })
            .collect();
        assert_eq!(
            downsample(SeriesKind::Counter, &pts),
            Some(PointValue::Counter(33))
        );

        let pts: Vec<Point> = (0..3)
            .map(|i| Point {
                t: i,
                value: PointValue::Gauge(i as i64 * 5),
            })
            .collect();
        assert_eq!(
            downsample(SeriesKind::Gauge, &pts),
            Some(PointValue::Gauge(10))
        );

        let pts = vec![
            Point {
                t: 0,
                value: PointValue::Histogram(sample_hist(&[1, 100])),
            },
            Point {
                t: 1,
                value: PointValue::Histogram(sample_hist(&[50])),
            },
        ];
        let Some(PointValue::Histogram(m)) = downsample(SeriesKind::Histogram, &pts) else {
            panic!("expected histogram");
        };
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 151);
        assert_eq!(m.min, 1);
        assert_eq!(m.max, 100);
        assert_eq!(downsample(SeriesKind::Counter, &[]), None);
    }

    #[test]
    fn hist_delta_subtracts_and_detects_reset() {
        let a = sample_hist(&[10, 20]);
        let b = sample_hist(&[10, 20, 30, 40]);
        let d = hist_delta(Some(&a), &b);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 70);
        // Reset: current count below previous → current is the interval.
        let d = hist_delta(Some(&b), &a);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 30);
        // Empty interval keeps the sentinel out of serialized output.
        let d = hist_delta(Some(&b), &b);
        assert_eq!(d.count, 0);
        assert_eq!(d.min, u64::MAX);
        let mut tail = prelude(SeriesKind::Histogram).to_vec();
        let p = Point {
            t: 0,
            value: PointValue::Histogram(d),
        };
        push_record(&mut tail, &p);
        assert_eq!(tail_records(&tail).unwrap().next(), Some(p));
    }

    #[test]
    fn append_flush_query_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        for t in 0..130 {
            store.append("ticks_total", t, PointValue::Counter(1));
            store.append("depth", t, PointValue::Gauge(t as i64));
        }
        let rep = store.flush().unwrap();
        assert_eq!(rep.points_written, 260);
        // Two complete minutes folded per series (windows 0 and 60).
        assert_eq!(rep.downsampled, 4);

        let reader = LtsReader::open(&dir);
        let idx = reader.index();
        assert_eq!(idx.len(), 2);
        let ticks = idx.iter().find(|i| i.name == "ticks_total").unwrap();
        let raw = reader
            .series_points(ticks, Resolution::Raw1s, 0, u64::MAX)
            .unwrap();
        assert_eq!(raw.len(), 130);
        let mins = reader
            .series_points(ticks, Resolution::Min1, 0, u64::MAX)
            .unwrap();
        assert_eq!(mins.len(), 2);
        assert_eq!(
            mins[0],
            Point {
                t: 0,
                value: PointValue::Counter(60)
            }
        );
        assert_eq!(
            mins[1],
            Point {
                t: 60,
                value: PointValue::Counter(60)
            }
        );
        // Gauge minutes keep the last value of each window.
        let depth = idx.iter().find(|i| i.name == "depth").unwrap();
        let mins = reader
            .series_points(depth, Resolution::Min1, 0, u64::MAX)
            .unwrap();
        assert_eq!(
            mins[0],
            Point {
                t: 0,
                value: PointValue::Gauge(59)
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_and_kind_mismatch_drop() {
        let dir = tmpdir("drops");
        let counters = LtsCounters::detached();
        let mut store = LtsStore::open(&dir, LtsConfig::default(), counters.clone()).unwrap();
        store.append("m", 10, PointValue::Counter(1));
        store.append("m", 10, PointValue::Counter(1)); // duplicate t
        store.append("m", 5, PointValue::Counter(1)); // goes backwards
        store.append("m", 11, PointValue::Gauge(1)); // wrong kind
        assert_eq!(counters.appends.get(), 1);
        assert_eq!(counters.dropped.get(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealing_and_hourly_fold() {
        let dir = tmpdir("seal");
        let config = LtsConfig {
            codec: SegmentCodec::Binary,
            seal_points: 100,
            retention: LtsRetention {
                max_age_secs: 0,
                max_bytes: 0,
            },
        };
        let mut store = LtsStore::open(&dir, config.clone(), LtsCounters::detached()).unwrap();
        // 2h05m of data: 125 minute-windows complete, 2 hours complete.
        for t in 0..7500u64 {
            store.append("c", t, PointValue::Counter(2));
            if t % 500 == 499 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        let reader = LtsReader::open(&dir);
        let info = &reader.index()[0];
        let hours = reader
            .series_points(info, Resolution::Hour1, 0, u64::MAX)
            .unwrap();
        assert_eq!(hours.len(), 2);
        assert_eq!(
            hours[0],
            Point {
                t: 0,
                value: PointValue::Counter(7200)
            }
        );
        assert_eq!(
            hours[1],
            Point {
                t: 3600,
                value: PointValue::Counter(7200)
            }
        );
        // Raw is spread over sealed segments + open tail; reads stitch them.
        let raw = reader
            .series_points(info, Resolution::Raw1s, 0, u64::MAX)
            .unwrap();
        assert_eq!(raw.len(), 7500);
        // One seal per flush (each flush's 500-point batch crosses the
        // 100-point threshold once).
        let sdir = dir.join("1s").join(&info.slug);
        assert!(
            segment_files(&sdir).unwrap().len() >= 10,
            "expected sealed raw segments"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_resumes_pending_windows() {
        let dir = tmpdir("reopen");
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        for t in 0..90 {
            store.append("g", t, PointValue::Gauge(t as i64));
        }
        store.flush().unwrap();
        drop(store);
        // Restart mid-minute: the [60,120) window is pending, not lost.
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        for t in 90..121 {
            store.append("g", t, PointValue::Gauge(t as i64));
        }
        store.flush().unwrap();
        let reader = LtsReader::open(&dir);
        let info = &reader.index()[0];
        let mins = reader
            .series_points(info, Resolution::Min1, 0, u64::MAX)
            .unwrap();
        assert_eq!(mins.len(), 2);
        assert_eq!(
            mins[1],
            Point {
                t: 60,
                value: PointValue::Gauge(119)
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_truncates_and_warns() {
        let dir = tmpdir("corrupt");
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        for t in 0..5 {
            store.append("c", t, PointValue::Counter(1));
        }
        store.flush().unwrap();
        let slug = slug_for("c");
        let open = dir.join("1s").join(&slug).join(OPEN_TAIL);
        // Simulate a crash mid-append: a record cut short.
        let mut torn = Vec::new();
        push_record(
            &mut torn,
            &Point {
                t: 5,
                value: PointValue::Counter(7),
            },
        );
        let mut f = OpenOptions::new().append(true).open(&open).unwrap();
        f.write_all(&torn[..torn.len() - 1]).unwrap();
        drop(f);
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        let warnings = store.take_warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("corrupt tail"));
        // The torn record is gone from disk; appends continue cleanly.
        store.append("c", 5, PointValue::Counter(9));
        store.flush().unwrap();
        let reader = LtsReader::open(&dir);
        let pts = reader
            .series_points(&reader.index()[0], Resolution::Raw1s, 0, u64::MAX)
            .unwrap();
        assert_eq!(pts.len(), 6);
        assert_eq!(
            pts[5],
            Point {
                t: 5,
                value: PointValue::Counter(9)
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_by_age_and_size() {
        let dir = tmpdir("retention");
        let config = LtsConfig {
            codec: SegmentCodec::Binary,
            seal_points: 10,
            retention: LtsRetention {
                max_age_secs: 100,
                max_bytes: 0,
            },
        };
        let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
        let mut deleted = Vec::new();
        // Seal a 20-point segment per flush so retention has sealed
        // files of different ages to work through.
        for t in 0..300u64 {
            store.append("c", t, PointValue::Counter(1));
            if t % 20 == 19 {
                deleted.extend(store.flush().unwrap().deleted);
            }
        }
        assert!(!deleted.is_empty(), "old sealed segments should be deleted");
        assert!(deleted.iter().all(|d| d.reason == "age"));
        let reader = LtsReader::open(&dir);
        let pts = reader
            .series_points(&reader.index()[0], Resolution::Raw1s, 0, u64::MAX)
            .unwrap();
        // Only segments whose newest point lags the store's newest point
        // by more than 100s are dropped; segment granularity means the
        // survivors start at the oldest still-young-enough segment.
        assert!(
            pts.iter().all(|p| p.t >= 180),
            "oldest surviving: {:?}",
            pts.first()
        );

        let dir2 = tmpdir("retention-size");
        let config = LtsConfig {
            codec: SegmentCodec::Binary,
            seal_points: 10,
            retention: LtsRetention {
                max_age_secs: 0,
                max_bytes: 600,
            },
        };
        let mut store = LtsStore::open(&dir2, config, LtsCounters::detached()).unwrap();
        let mut deleted = Vec::new();
        for t in 0..300u64 {
            store.append("c", t, PointValue::Counter(1));
            if t % 20 == 19 {
                deleted.extend(store.flush().unwrap().deleted);
            }
        }
        assert!(deleted.iter().any(|d| d.reason == "size"));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn query_json_is_stable_across_compact_and_reopen() {
        let dir = tmpdir("stable");
        let config = LtsConfig {
            codec: SegmentCodec::Binary,
            seal_points: 50,
            retention: LtsRetention {
                max_age_secs: 0,
                max_bytes: 0,
            },
        };
        let mut store = LtsStore::open(&dir, config.clone(), LtsCounters::detached()).unwrap();
        for t in 0..200u64 {
            store.append(
                "lat_ns",
                t,
                PointValue::Histogram(sample_hist(&[t * 10 + 1])),
            );
            store.append("polls_total", t, PointValue::Counter(3));
            if t % 70 == 69 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        drop(store);

        let reader = LtsReader::open(&dir);
        let before = reader.query("*", 0, u64::MAX, Resolution::Raw1s).unwrap();
        let before_1m = reader.query("*", 0, u64::MAX, Resolution::Min1).unwrap();
        assert!(before.contains("\"p50\""));

        // Reopen (restart) changes nothing.
        let store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
        drop(store);
        assert_eq!(
            reader.query("*", 0, u64::MAX, Resolution::Raw1s).unwrap(),
            before
        );

        // Compaction rewrites the files but not the answer.
        let rep = compact_store(&dir).unwrap();
        assert!(rep.segments_after <= rep.segments_before);
        assert_eq!(
            reader.query("*", 0, u64::MAX, Resolution::Raw1s).unwrap(),
            before
        );
        assert_eq!(
            reader.query("*", 0, u64::MAX, Resolution::Min1).unwrap(),
            before_1m
        );

        // And the compacted store verifies clean.
        let v = verify_store(&dir).unwrap();
        assert!(v.issues.is_empty(), "{:?}", v.issues);
        assert_eq!(v.series, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_problems() {
        let dir = tmpdir("verify");
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        store.append("c", 1, PointValue::Counter(1));
        store.flush().unwrap();
        let clean = verify_store(&dir).unwrap();
        assert!(clean.issues.is_empty());
        assert_eq!(clean.points, 1);
        // A stray series directory not in the index is flagged.
        fs::create_dir_all(dir.join("1s/rogue-0000000000000000")).unwrap();
        let rep = verify_store(&dir).unwrap();
        assert!(
            rep.issues.iter().any(|i| i.contains("not in series.idx")),
            "{:?}",
            rep.issues
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_a_header_fold_the_points_disagree_with() {
        let dir = tmpdir("verify-stats");
        let config = LtsConfig {
            seal_points: 2,
            ..LtsConfig::default()
        };
        let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
        store.append("c", 1, PointValue::Counter(1));
        store.append("c", 2, PointValue::Counter(2));
        store.flush().unwrap();
        drop(store);
        assert!(verify_store(&dir).unwrap().issues.is_empty());
        let seg = segment_files(&dir.join("1s").join(slug_for("c"))).unwrap();
        let mut bytes = fs::read(&seg[0].path).unwrap();
        // Prelude, then count, first_t and last_t of a byte each: the sum.
        assert_eq!(bytes[PRELUDE + 3], 3);
        bytes[PRELUDE + 3] = 4;
        fs::write(&seg[0].path, &bytes).unwrap();
        let issues = verify_store(&dir).unwrap().issues;
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(
            issues[0].ends_with("header stats disagree with points"),
            "{issues:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_sampler_emits_deltas() {
        let dir = tmpdir("sampler");
        let reg = Registry::new();
        let counters = LtsCounters::register_in(&reg);
        let mut store = LtsStore::open(&dir, LtsConfig::default(), counters).unwrap();
        let mut sampler = RegistrySampler::new();
        let c = reg.counter("polls_total");
        let h = reg.histogram("lat_ns");
        c.add(5);
        h.record(100);
        sampler.sample(&reg, &mut store, 10);
        c.add(3);
        h.record(200);
        h.record(300);
        sampler.sample(&reg, &mut store, 11);
        store.flush().unwrap();
        let reader = LtsReader::open(&dir);
        let idx = reader.index();
        let polls = idx.iter().find(|i| i.name == "polls_total").unwrap();
        let pts = reader
            .series_points(polls, Resolution::Raw1s, 0, u64::MAX)
            .unwrap();
        assert_eq!(pts[0].value, PointValue::Counter(5));
        assert_eq!(pts[1].value, PointValue::Counter(3));
        let lat = idx.iter().find(|i| i.name == "lat_ns").unwrap();
        let pts = reader
            .series_points(lat, Resolution::Raw1s, 0, u64::MAX)
            .unwrap();
        let PointValue::Histogram(ref d) = pts[1].value else {
            panic!()
        };
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 500);
        // The store's own instrumentation is in the registry it samples.
        assert!(idx.iter().any(|i| i.name == "netqos_lts_appends_total"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range("10:20"), Some((10, 20)));
        assert_eq!(parse_range("10:"), Some((10, u64::MAX)));
        assert_eq!(parse_range(":20"), Some((0, 20)));
        assert_eq!(parse_range(":"), Some((0, u64::MAX)));
        assert_eq!(parse_range("20:10"), None);
        assert_eq!(parse_range("abc"), None);
    }

    #[test]
    fn codec_v2_round_trips_every_kind() {
        let cases: Vec<(SeriesKind, Vec<Point>)> = vec![
            (SeriesKind::Counter, Vec::new()),
            (
                SeriesKind::Counter,
                (0..500)
                    .map(|i| Point {
                        t: 1_700_000_000 + i * 7,
                        value: PointValue::Counter(i % 13),
                    })
                    .collect(),
            ),
            (
                SeriesKind::Gauge,
                vec![
                    Point {
                        t: 5,
                        value: PointValue::Gauge(i64::MIN),
                    },
                    Point {
                        t: 6,
                        value: PointValue::Gauge(i64::MAX),
                    },
                    Point {
                        t: 1000,
                        value: PointValue::Gauge(-42),
                    },
                ],
            ),
            (
                SeriesKind::Histogram,
                vec![
                    Point {
                        t: 10,
                        value: PointValue::Histogram(sample_hist(&[5, 10, 10_000])),
                    },
                    // The empty state a quiet interval produces:
                    // min stays u64::MAX, max 0, no buckets — the same
                    // normalization the JSONL parser applies.
                    Point {
                        t: 11,
                        value: PointValue::Histogram(sample_hist(&[])),
                    },
                ],
            ),
        ];
        for (kind, pts) in cases {
            let buf = encode_segment_v2(kind, &pts);
            let header = decode_segment_v2_header(&buf).unwrap();
            assert_eq!(header.kind, kind);
            assert_eq!(header.count, pts.len() as u64);
            let (full, decoded) = decode_segment_v2(&buf).unwrap();
            assert_eq!(full.count, header.count);
            assert_eq!(decoded, pts, "{kind:?}");
            if kind == SeriesKind::Counter && !pts.is_empty() {
                let stats = header.stats.unwrap();
                let deltas: Vec<u64> = pts
                    .iter()
                    .map(|p| match p.value {
                        PointValue::Counter(v) => v,
                        _ => unreachable!(),
                    })
                    .collect();
                assert_eq!(stats.sum, deltas.iter().sum::<u64>());
                assert_eq!(stats.min, *deltas.iter().min().unwrap());
                assert_eq!(stats.max, *deltas.iter().max().unwrap());
            }
        }
    }

    #[test]
    fn codec_v2_rejects_corrupt_buffers() {
        let pts: Vec<Point> = (0..10)
            .map(|i| Point {
                t: i,
                value: PointValue::Counter(i),
            })
            .collect();
        let good = encode_segment_v2(SeriesKind::Counter, &pts);
        assert!(decode_segment_v2(&good[..good.len() - 1]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_segment_v2(&trailing).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode_segment_v2(&bad_magic).is_err());
        assert!(decode_segment_v2(b"NQ").is_err());
    }

    /// The header's count sizes an allocation; one the payload cannot
    /// hold is a truncated file, not a reservation of 2^62 points.
    #[test]
    fn codec_v2_rejects_a_count_the_payload_cannot_hold() {
        let mut buf = SEG_MAGIC.to_vec();
        buf.extend([2, kind_byte(SeriesKind::Counter)]);
        push_varint(&mut buf, 1 << 62);
        buf.extend([0; 5]);
        assert_eq!(buf.len(), 20);
        assert_eq!(decode_segment_v2_header(&buf).unwrap().count, 1 << 62);
        let err = decode_segment_v2(&buf).unwrap_err();
        assert!(err.starts_with("truncated"), "{err}");

        let dir = tmpdir("v2-count");
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        store.append("c", 1, PointValue::Counter(1));
        store.flush().unwrap();
        let sdir = dir.join("1s").join(slug_for("c"));
        fs::write(sdir.join(segment_file_name(2, 3)), &buf).unwrap();
        let rep = verify_store(&dir).unwrap();
        assert!(
            rep.issues.iter().any(|i| i.contains("truncated")),
            "{:?}",
            rep.issues
        );
        // The reader refuses it, naming it.
        let reader = LtsReader::open(&dir);
        let err = reader
            .series_points(&reader.index()[0], Resolution::Raw1s, 0, u64::MAX)
            .unwrap_err();
        assert!(err
            .to_string()
            .contains("seg-000000000002-000000000003.bin: truncated"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// However a tail's records are split between its file and the
    /// pending records, and whatever the decoded point held before, a
    /// seal's transcoding under the writer's fold gives the bytes of the
    /// slice encoded whole; a damaged record is found where it starts.
    #[test]
    fn a_transcoded_tail_is_the_slice_encoded_whole() {
        let mut point = BLANK;
        let mut out = Vec::new();
        for kind in [
            SeriesKind::Counter,
            SeriesKind::Gauge,
            SeriesKind::Histogram,
        ] {
            let pts: Vec<Point> = (0..200u64)
                .map(|i| Point {
                    t: 1_700_000_000 + i * 3,
                    value: match kind {
                        SeriesKind::Counter => PointValue::Counter(u64::MAX - i),
                        SeriesKind::Gauge => PointValue::Gauge(-(i as i64)),
                        SeriesKind::Histogram => {
                            PointValue::Histogram(sample_hist(&[i, i * 1_000]))
                        }
                    },
                })
                .collect();
            let mut fold = TailFold::default();
            pts.iter().for_each(|p| fold.push(p));
            for split in [0, 1, 77, 200] {
                let mut tail = prelude(kind).to_vec();
                pts[..split].iter().for_each(|p| push_record(&mut tail, p));
                let mut pending = Vec::new();
                pts[split..]
                    .iter()
                    .for_each(|p| push_record(&mut pending, p));
                out.clear();
                fold.push_header(kind, &mut out);
                let mut seg = Transcoder {
                    out: &mut out,
                    prev: Prev::default(),
                    fold: TailFold::default(),
                    point: &mut point,
                };
                assert_eq!(seg.records(&tail, PRELUDE, kind), Ok(()));
                assert_eq!(seg.records(&pending, 0, kind), Ok(()));
                assert_eq!(seg.fold, fold, "{kind:?} split at {split}");
                assert_eq!(out, encode_segment_v2(kind, &pts), "{kind:?} at {split}");
                if split > 0 {
                    let mut records = tail_records(&tail).unwrap();
                    records.by_ref().take(split - 1).for_each(drop);
                    let start = records.pos;
                    tail[start] ^= 0x01;
                    let mut seg = Transcoder {
                        out: &mut out,
                        prev: Prev::default(),
                        fold: TailFold::default(),
                        point: &mut point,
                    };
                    assert_eq!(seg.records(&tail, PRELUDE, kind), Err(start), "{kind:?}");
                }
            }
        }
    }

    fn seeded_store(dir: &Path, seal_points: usize) {
        let config = LtsConfig {
            codec: SegmentCodec::Binary,
            seal_points,
            retention: LtsRetention {
                max_age_secs: 0,
                max_bytes: 0,
            },
        };
        let mut store = LtsStore::open(dir, config, LtsCounters::detached()).unwrap();
        for t in 0..300u64 {
            store.append("req_total", t, PointValue::Counter(t % 7));
            store.append("queue_depth", t, PointValue::Gauge(50 - t as i64));
            store.append(
                "lat_ns",
                t,
                PointValue::Histogram(sample_hist(&[t + 1, (t + 1) * 90])),
            );
            if t % 50 == 49 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
    }

    fn full_query(dir: &Path) -> String {
        let reader = LtsReader::open(dir);
        let mut out = String::new();
        for res in [Resolution::Raw1s, Resolution::Min1, Resolution::Hour1] {
            out.push_str(&reader.query("*", 0, u64::MAX, res).unwrap());
            out.push('\n');
        }
        out
    }

    /// A store that never seals holds every point in its JSON-line
    /// tails: the reference a sealing store must answer like.
    #[test]
    fn sealed_and_never_sealed_stores_answer_identically() {
        let tails = tmpdir("tails");
        let sealed = tmpdir("sealed");
        seeded_store(&tails, usize::MAX);
        seeded_store(&sealed, 64);
        assert_eq!(full_query(&tails), full_query(&sealed));
        let stats = store_stats(&sealed).unwrap();
        assert!(stats.resolutions[0].sealed > 0);
        assert_eq!(store_stats(&tails).unwrap().resolutions[0].sealed, 0);
        for d in [&tails, &sealed] {
            let report = verify_store(d).unwrap();
            assert!(report.issues.is_empty(), "{:?}", report.issues);
        }
        let _ = fs::remove_dir_all(&tails);
        let _ = fs::remove_dir_all(&sealed);
    }

    #[test]
    fn compaction_keeps_answers() {
        let dir = tmpdir("codec-compact");
        seeded_store(&dir, 64);
        let before = full_query(&dir);
        compact_store(&dir).unwrap();
        assert_eq!(full_query(&dir), before);
        let stats = store_stats(&dir).unwrap();
        assert!(stats.resolutions[0].sealed > 0);
        assert_eq!(stats.resolutions[0].open_tails, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file under `dir` and its bytes, by path.
    fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut out = BTreeMap::new();
        let mut todo = vec![dir.to_path_buf()];
        while let Some(d) = todo.pop() {
            for entry in dir_entries(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    todo.push(path);
                } else {
                    out.insert(path.clone(), fs::read(&path).unwrap());
                }
            }
        }
        out
    }

    /// Flips one byte in the middle of the second sealed `1s` segment of
    /// `name`, checks that it no longer decodes, and returns it.
    fn damage_a_segment(dir: &Path, name: &str) -> SegmentFile {
        let sdir = dir.join("1s").join(slug_for(name));
        let seg = segment_files(&sdir).unwrap().swap_remove(1);
        let mut bytes = fs::read(&seg.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        fs::write(&seg.path, &bytes).unwrap();
        assert!(decode_segment_v2(&bytes).is_err());
        seg
    }

    #[test]
    fn a_stray_file_is_neither_counted_nor_removed_by_compaction() {
        let dir = tmpdir("stray");
        seeded_store(&dir, 64);
        let stray = dir.join("1s").join(slug_for("req_total")).join("x.bin");
        fs::write(&stray, "not a segment").unwrap();
        let before = full_query(&dir);
        let stats = store_stats(&dir).unwrap();
        let segments = |s: &StoreStats| s.resolutions.iter().map(|r| r.segments).sum::<u64>();
        let bytes = |s: &StoreStats| {
            s.resolutions.iter().map(|r| r.bytes).sum::<u64>() + file_len(&dir.join("series.idx"))
        };
        let rep = compact_store(&dir).unwrap();
        assert_eq!(fs::read(&stray).unwrap(), b"not a segment");
        assert_eq!(
            (rep.segments_before, rep.bytes_before),
            (segments(&stats), bytes(&stats))
        );
        let stats = store_stats(&dir).unwrap();
        assert_eq!(
            (rep.segments_after, rep.bytes_after),
            (segments(&stats), bytes(&stats))
        );
        assert_eq!(full_query(&dir), before);
        let issues = verify_store(&dir).unwrap().issues;
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].ends_with("/x.bin: unexpected file"), "{issues:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_leaves_a_segment_it_cannot_decode_as_found() {
        let dir = tmpdir("undecodable");
        seeded_store(&dir, 64);
        let seg = damage_a_segment(&dir, "req_total").path;
        let sdir = dir.join("1s").join(slug_for("req_total"));
        let damaged = tree(&sdir);
        let err = compact_store(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().starts_with(&format!("{}: ", seg.display())),
            "{err}"
        );
        // Its series directory is as it was; every other one is compacted.
        assert_eq!(tree(&sdir), damaged);
        for sd in list_store(&dir).unwrap() {
            let kept = if sd.path == sdir { damaged.len() } else { 1 };
            assert_eq!(sd.files.len(), kept, "{}", sd.path.display());
        }
        let issues = verify_store(&dir).unwrap().issues;
        let name = seg.file_name().unwrap().to_string_lossy().into_owned();
        assert!(issues.iter().any(|i| i.contains(&name)), "{issues:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A read whose window takes in a sealed segment that does not
    /// decode fails naming it, through the reader and the PromQL engine
    /// alike; a read that does not is answered.
    #[test]
    fn a_read_over_a_segment_it_cannot_decode_fails_naming_it() {
        use crate::promql::{LtsSource, QueryEngine, QueryError};
        let dir = tmpdir("undecodable-read");
        seeded_store(&dir, 64);
        let seg = damage_a_segment(&dir, "req_total");
        let reader = LtsReader::open(&dir);
        let info = (reader.index().into_iter())
            .find(|i| i.name == "req_total")
            .unwrap();
        let named = |err: io::Error| {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let prefix = format!("{}: ", seg.path.display());
            assert!(err.to_string().starts_with(&prefix), "{err}");
        };
        let raw = Resolution::Raw1s;
        named(
            reader
                .series_points(&info, raw, seg.last, seg.last)
                .unwrap_err(),
        );
        named(reader.series_points(&info, raw, 0, u64::MAX).unwrap_err());
        named(reader.query("req_total", 0, u64::MAX, raw).unwrap_err());
        named(reader.query("*", 0, u64::MAX, raw).unwrap_err());
        let source = std::sync::Arc::new(LtsSource::new(reader.clone()));
        let engine = QueryEngine::new().with_source(None, source);
        let err = engine.range("req_total", 0, 299, 1).unwrap_err();
        assert!(
            matches!(&err, QueryError::Source(msg) if msg.contains(&seg.path.display().to_string())),
            "{err}"
        );
        let request = crate::http::HttpRequest {
            method: "GET".into(),
            path: "/api/v1/query_range".into(),
            query: "query=req_total&start=0&end=299&step=1".into(),
            accept: String::new(),
        };
        let answer = crate::promql::api_query_response(&engine, &request, true, 0);
        assert_eq!(answer.status, 500);
        assert!(answer.body.contains("\"errorType\":\"internal\""));
        assert!(answer.body.contains(&seg.path.display().to_string()));

        let after = reader.series_points(&info, raw, seg.last + 1, u64::MAX);
        assert_eq!(after.unwrap().len() as u64, 299 - seg.last);
        assert!(reader.query("queue_depth", 0, u64::MAX, raw).is_ok());
        assert!(reader
            .query("req_total", 0, u64::MAX, Resolution::Min1)
            .is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Sealed segments carry no payload checksum, and checking one in the
    /// header pushdown would mean decoding the segment, which is what the
    /// pushdown saves: a window that covers a damaged segment whole
    /// answers from its intact header, as over an undamaged twin, while a
    /// window that decodes it fails naming it. `lts verify` is what finds
    /// the damage.
    #[test]
    fn a_window_covering_a_damaged_segment_whole_answers_from_its_header() {
        use crate::promql::{LtsSource, QueryEngine, QueryError, QueryResult};
        let (dir, twin) = (tmpdir("pushdown-damaged"), tmpdir("pushdown-twin"));
        seeded_store(&dir, 64);
        seeded_store(&twin, 64);
        let seg = damage_a_segment(&dir, "req_total");
        let engine = |dir: &Path| {
            let source = std::sync::Arc::new(LtsSource::new(LtsReader::open(dir)));
            QueryEngine::new().with_source(None, source)
        };
        let hour = |dir: &Path| {
            let out = (engine(dir))
                .instant("increase(req_total[1h])", 299, Resolution::Raw1s)
                .unwrap();
            assert!(out.stats.segments_folded > 0, "{:?}", out.stats);
            match out.result {
                QueryResult::Vector(v) => v[0].v,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(hour(&dir), hour(&twin));
        let err = engine(&dir)
            .instant("increase(req_total[30s])", seg.last, Resolution::Raw1s)
            .unwrap_err();
        let name = seg.path.display().to_string();
        assert!(
            matches!(&err, QueryError::Source(msg) if msg.contains(&name)),
            "{err}"
        );
        let file = seg.path.file_name().unwrap().to_string_lossy().into_owned();
        let issues = verify_store(&dir).unwrap().issues;
        assert!(issues.iter().any(|i| i.contains(&file)), "{issues:?}");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&twin);
    }

    /// A writer whose compaction fails on a damaged segment goes on
    /// writing every series as a writer that never compacted.
    #[test]
    fn a_writer_writes_on_past_a_compaction_that_failed() {
        let (dir, twin) = (tmpdir("undecodable-live"), tmpdir("undecodable-twin"));
        let config = || LtsConfig {
            seal_points: 64,
            retention: LtsRetention {
                max_age_secs: 0,
                max_bytes: 0,
            },
            ..LtsConfig::default()
        };
        seeded_store(&dir, 64);
        seeded_store(&twin, 64);
        let seg = damage_a_segment(&dir, "req_total");
        let mut store = LtsStore::open(&dir, config(), LtsCounters::detached()).unwrap();
        let mut reference = LtsStore::open(&twin, config(), LtsCounters::detached()).unwrap();
        let append = |s: &mut LtsStore, ts: std::ops::Range<u64>| {
            for t in ts {
                s.append("req_total", t, PointValue::Counter(t % 7));
                s.append("queue_depth", t, PointValue::Gauge(50 - t as i64));
            }
        };
        // Every series has an open tail when the compaction fails, and
        // the next flush seals it.
        append(&mut store, 300..330);
        assert!(store.compact().is_err());
        append(&mut reference, 300..330);
        reference.flush().unwrap();
        for s in [&mut store, &mut reference] {
            append(s, 330..500);
            s.flush().unwrap();
        }
        drop((store, reference));
        let issues = verify_store(&dir).unwrap().issues;
        let name = seg.path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(issues.iter().all(|i| i.contains(&name)), "{issues:?}");
        let (a, b) = (LtsReader::open(&dir), LtsReader::open(&twin));
        for res in Resolution::ALL {
            let q = |r: &LtsReader, sel| r.query(sel, 0, u64::MAX, res).unwrap();
            assert_eq!(q(&a, "queue_depth"), q(&b, "queue_depth"), "{res:?}");
            assert_eq!(q(&a, "lat_ns"), q(&b, "lat_ns"), "{res:?}");
        }
        // Past the damaged segment, its series holds every point too.
        let after = |r: &LtsReader| {
            r.query("req_total", seg.last + 1, u64::MAX, Resolution::Raw1s)
                .unwrap()
        };
        assert_eq!(after(&a), after(&b));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&twin);
    }

    #[test]
    fn an_unreadable_resolution_directory_is_an_error() {
        let dir = tmpdir("res-file");
        seeded_store(&dir, 64);
        fs::remove_dir_all(dir.join("1s")).unwrap();
        fs::write(dir.join("1s"), "not a directory").unwrap();
        assert!(verify_store(&dir).is_err());
        assert!(store_stats(&dir).is_err());
        assert!(compact_store(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fold_matches_materialized_scan() {
        let dir = tmpdir("fold");
        seeded_store(&dir, 64);
        let reader = LtsReader::open(&dir);
        let info = reader
            .index()
            .into_iter()
            .find(|i| i.name == "req_total")
            .unwrap();
        let pts = reader
            .series_points(&info, Resolution::Raw1s, 0, u64::MAX)
            .unwrap();
        assert_eq!(pts.len(), 300);
        for (after, upto) in [
            (None, u64::MAX),
            (None, 299),
            (None, 150),
            (Some(0), 299),
            (Some(63), 64), // exactly one sealed-segment boundary
            (Some(37), 222),
            (Some(290), 350), // open-tail only
            (Some(299), 400), // empty window past the data
        ] {
            let fold = fold_series_range(
                &dir,
                &info.slug,
                SeriesKind::Counter,
                Resolution::Raw1s,
                after,
                upto,
            )
            .unwrap_or_else(|| panic!("fold refused ({after:?}, {upto}]"));
            let low = after.map(|a| a + 1).unwrap_or(0);
            let window: Vec<u64> = pts
                .iter()
                .filter(|p| p.t >= low && p.t <= upto)
                .map(|p| match p.value {
                    PointValue::Counter(v) => v,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(fold.count, window.len() as u64, "({after:?}, {upto}]");
            assert_eq!(fold.sum, window.iter().sum::<u64>(), "({after:?}, {upto}]");
            if !window.is_empty() {
                assert_eq!(fold.min, *window.iter().min().unwrap());
                assert_eq!(fold.max, *window.iter().max().unwrap());
            }
            let expect_last = pts.iter().filter(|p| p.t <= upto).map(|p| p.t).max();
            assert_eq!(fold.last_t, expect_last, "({after:?}, {upto}]");
        }
        // Fully covered windows fold sealed segments from header stats
        // without decoding their points.
        let full = fold_series_range(
            &dir,
            &info.slug,
            SeriesKind::Counter,
            Resolution::Raw1s,
            None,
            u64::MAX,
        )
        .unwrap();
        assert!(full.segments_folded > 0);
        assert!(full.points_scanned < 300);
        // Gauges never fold.
        assert!(fold_series_range(
            &dir,
            &info.slug,
            SeriesKind::Gauge,
            Resolution::Raw1s,
            None,
            u64::MAX
        )
        .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_open_tail_from_interrupted_seal_is_removed() {
        let dir = tmpdir("stale-tail");
        seeded_store(&dir, 64);
        let reader = LtsReader::open(&dir);
        let info = reader
            .index()
            .into_iter()
            .find(|i| i.name == "req_total")
            .unwrap();
        let before = full_query(&dir);
        // Simulate a crash between writing the sealed segment and
        // removing the tail: re-create an open.bin whose points are
        // already covered by sealed segments.
        let sdir = dir.join(Resolution::Raw1s.dir_name()).join(&info.slug);
        let mut stale = prelude(SeriesKind::Counter).to_vec();
        push_record(
            &mut stale,
            &Point {
                t: 10,
                value: PointValue::Counter(999),
            },
        );
        fs::write(sdir.join(OPEN_TAIL), stale).unwrap();
        let config = LtsConfig {
            codec: SegmentCodec::Binary,
            seal_points: 64,
            retention: LtsRetention {
                max_age_secs: 0,
                max_bytes: 0,
            },
        };
        let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
        let warnings = store.take_warnings();
        assert!(
            warnings.iter().any(|w| w.contains("stale open tail")),
            "{warnings:?}"
        );
        assert!(!sdir.join(OPEN_TAIL).exists());
        // The duplicate point is gone; queries match the pre-crash view.
        assert_eq!(full_query(&dir), before);
        let _ = fs::remove_dir_all(&dir);
    }
}
