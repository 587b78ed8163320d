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
//!   1s/<slug>/open.seg          # JSONL append tail (mutable)
//!   1s/<slug>/seg-A-B.bin       # sealed, immutable, covers [A, B] (binary, codec v2)
//!   1m/<slug>/...               # same shape per resolution
//!   1h/<slug>/...
//! ```
//!
//! Sealed segments have one codec, the delta-varint binary format
//! (codec v2, see [`encode_segment_v2`]). The open tail stays JSON lines
//! — line-oriented appends keep the truncate-on-torn-line crash recovery
//! — and a seal writes the binary encoding of it the writer built as it
//! appended, without reading it back. One codec reads and writes every
//! tail line ([`encode_point_line`], [`decode_point_line`]). A sealed
//! JSONL (codec v1) segment, `seg-A-B.seg`, is no longer read: a series
//! directory holding one is refused with [`io::ErrorKind::InvalidData`]
//! by every entry that lists it, never half-read.
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
//! Appends go to `open.seg`, one JSON document per line. Sealing writes
//! the segment to `seal.tmp`, renames it to its immutable `seg-A-B.bin`
//! name — atomic on POSIX — and only then removes `open.seg`, so a crash
//! leaves the old tail, or the sealed file beside a stale tail that
//! [`LtsStore::open`] removes, never a half-sealed hybrid. On open, a
//! torn final line (crash mid-append) is truncated away and reported,
//! never silently read. Sealed segments and the index are rewritten only
//! by [`compact_store`], always via tmp-file-plus-rename.
//!
//! Queries ([`LtsReader`]) read exclusively from disk and canonicalize
//! (sort by time, first write wins), so the same store yields
//! byte-identical JSON before and after a restart or a compaction.

mod line;

pub use line::{decode_point_line, encode_point_line};

use crate::events::{EventSink, FieldValue, Level};
use crate::json::parse_json;
use crate::metrics::{bucket_high, bucket_low, BUCKETS};
use crate::{Counter, Gauge, Histogram, HistogramState, Registry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};
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
    /// Seal `open.seg` once it holds this many points.
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
    /// timestamp or kind mismatch).
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
            bytes: f.bytes(),
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
    /// Raw points appended since the last flush.
    buf: Vec<Point>,
    /// Newest persisted point time per resolution.
    last_t: [Option<u64>; 3],
    /// The open tail per resolution as the binary segment it will seal
    /// into: holds every tail point (recovery seeds it from a tail found
    /// on open, each write feeds it what it wrote), so a seal reads
    /// nothing back and its count is the tail's length.
    open_enc: [SegmentEncoder; 3],
    /// Flushed-but-not-yet-downsampled points feeding `1m` (raw points)
    /// and `1h` (`1m` points).
    pending: [Vec<Point>; 2],
    /// Needs a `series.idx` line on next flush.
    new_to_index: bool,
    /// `DIR/<res>/<slug>/open.seg` per resolution; its parent is the
    /// series directory.
    open_path: [PathBuf; 3],
    /// Size of the open tail per resolution, `None` while there is no
    /// tail file.
    open_bytes: [Option<u64>; 3],
    /// The catalog: every sealed segment per resolution, in retention
    /// order (oldest `last` first).
    sealed: [Vec<SealedSegment>; 3],
}

impl SeriesState {
    fn new(root: &Path, name: String, kind: SeriesKind, slug: String, new_to_index: bool) -> Self {
        let open_path = Resolution::ALL.map(|res| {
            let mut p = root.join(res.dir_name());
            p.push(&slug);
            p.push("open.seg");
            p
        });
        SeriesState {
            name,
            kind,
            slug,
            buf: Vec::new(),
            last_t: [None; 3],
            open_enc: Default::default(),
            pending: [Vec::new(), Vec::new()],
            new_to_index,
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

    fn accept(&mut self, counters: &LtsCounters, t: u64, value: PointValue) {
        let newest = self.buf.last().map(|p| p.t).or(self.last_t[0]);
        if self.kind != value.kind() || newest.is_some_and(|n| t <= n) {
            counters.dropped.inc();
            return;
        }
        self.buf.push(Point { t, value });
        counters.appends.inc();
    }
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
    /// The lines of one write, reused by every write.
    line_buf: String,
    /// The points one fold produces, reused by every fold.
    fold_buf: Vec<Point>,
}

impl LtsStore {
    /// Opens (creating if absent) the store at `dir`, recovering from a
    /// torn final line in any open tail by truncating it away. Recovery
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
            line_buf: String::new(),
            fold_buf: Vec::new(),
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
        if let Some(s) = self.series.get_mut(name) {
            return s.accept(&self.counters, t, value);
        }
        let state = SeriesState::new(
            &self.dir,
            name.to_string(),
            value.kind(),
            slug_for(name),
            true,
        );
        self.series
            .entry(name.to_string())
            .or_insert(state)
            .accept(&self.counters, t, value);
    }

    /// Writes buffered points to disk, folds completed `1m`/`1h`
    /// windows, seals oversized tails, and enforces retention.
    pub fn flush(&mut self) -> io::Result<FlushReport> {
        let mut report = FlushReport::default();
        let mut out = TailWriter {
            config: &self.config,
            line_buf: &mut self.line_buf,
            fold_buf: &mut self.fold_buf,
        };
        for s in self.series.values_mut() {
            if s.new_to_index {
                let line = &mut *out.line_buf;
                line.clear();
                push_index_line(line, &s.slug, &s.name, s.kind);
                let mut f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.index_path)?;
                f.write_all(line.as_bytes())?;
                self.index_bytes += line.len() as u64;
                s.new_to_index = false;
            }
            if !s.buf.is_empty() || !s.pending[0].is_empty() || !s.pending[1].is_empty() {
                flush_series(&mut out, s, &mut report)?;
            }
        }
        report.deleted = self.enforce_retention()?;
        self.update_disk_gauges();
        Ok(report)
    }

    /// Deletes sealed segments past the age bound, then the oldest
    /// survivors while the store is over its size budget. The order is
    /// total and depends only on what was appended: ascending
    /// `(last, resolution, series name, first)`.
    fn enforce_retention(&mut self) -> io::Result<Vec<RetentionDeletion>> {
        let ret = self.config.retention;
        let mut deleted = Vec::new();
        if ret.max_age_secs == 0 && ret.max_bytes == 0 {
            return Ok(deleted);
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
        Ok(deleted)
    }

    /// In-process compaction: flushes buffered points, then rewrites
    /// every series/resolution as a single sealed segment (the
    /// [`compact_store`] pass) and resets the writer's open-tail state
    /// and catalog to match — the open tails were folded into the
    /// sealed segment and their files removed. Readers canonicalize, so
    /// answers are byte-identical before and after; only the layout
    /// changes. This is the safe form of [`compact_store`] for a store a
    /// writer has open.
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        self.flush()?;
        let report = compact_store(&self.dir)?;
        self.index_bytes = fs::metadata(&self.index_path).map_or(0, |m| m.len());
        for s in self.series.values_mut() {
            s.open_enc = Default::default();
            s.scan_disk()?;
        }
        self.counters.compactions.inc();
        self.update_disk_gauges();
        Ok(report)
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
/// the catalog, the tails (a torn final line truncated away, a stale
/// tail removed), the newest times and the pending downsample windows.
fn recover_series(s: &mut SeriesState, warnings: &mut Vec<String>) -> io::Result<()> {
    let found = s.scan_disk()?;
    for res in Resolution::ALL {
        let ri = res.index();
        let sealed_last = found[ri].iter().map(|x| x.last).max();
        let mut last = sealed_last;
        let open = &s.open_path[ri];
        if s.open_bytes[ri].is_some() {
            let (pts, good_bytes, warn) = read_segment_recovering(open, s.kind)?;
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
                s.open_enc[ri].extend(&pts);
                if let Some(p) = pts.last() {
                    last = Some(last.map_or(p.t, |l: u64| l.max(p.t)));
                }
            }
        }
        s.last_t[ri] = last;
    }
    // Rebuild the pending downsample buffers: every finer-resolution
    // point past the last written window belongs to a window that
    // has not been folded yet.
    for (pi, (fine, coarse)) in [
        (Resolution::Raw1s, Resolution::Min1),
        (Resolution::Min1, Resolution::Hour1),
    ]
    .into_iter()
    .enumerate()
    {
        let cutoff = match s.last_t[coarse.index()] {
            Some(w) => w + coarse.window_secs(),
            None => 0,
        };
        s.pending[pi] = read_points(
            &found[fine.index()],
            &s.open_path[fine.index()],
            s.kind,
            cutoff,
            u64::MAX,
        );
    }
    Ok(())
}

/// The series directory of a tail path (`DIR/<res>/<slug>/open.seg`).
fn dir_of(open: &Path) -> &Path {
    open.parent().expect("a tail path ends in <slug>/open.seg")
}

/// What writing a series' points needs from the store.
struct TailWriter<'a> {
    config: &'a LtsConfig,
    line_buf: &'a mut String,
    fold_buf: &'a mut Vec<Point>,
}

/// Writes one series' buffered points and every window they complete.
fn flush_series(
    out: &mut TailWriter<'_>,
    s: &mut SeriesState,
    report: &mut FlushReport,
) -> io::Result<()> {
    if !s.buf.is_empty() {
        // Out and back in, so the buffer keeps its capacity.
        let mut buf = std::mem::take(&mut s.buf);
        report.points_written += buf.len() as u64;
        report.segments_sealed += out.write_points(s, Resolution::Raw1s, &buf)?;
        s.last_t[0] = buf.last().map(|p| p.t).or(s.last_t[0]);
        s.pending[0].append(&mut buf);
        s.buf = buf;
    }

    // Fold completed windows, finest resolution first so a fresh
    // `1m` point can immediately complete an `1h` window.
    for (pi, coarse) in [Resolution::Min1, Resolution::Hour1]
        .into_iter()
        .enumerate()
    {
        let window = coarse.window_secs();
        // The clock that closes windows is the newest point of the
        // finer resolution.
        let Some(newest) = s.last_t[pi] else { continue };
        // Out and back in, as `buf` above.
        let mut produced = std::mem::take(out.fold_buf);
        while let Some(first) = s.pending[pi].first() {
            let w = (first.t / window) * window;
            if newest < w + window {
                break;
            }
            let split = s.pending[pi].partition_point(|p| p.t < w + window);
            if let Some(v) = downsample(s.kind, &s.pending[pi][..split]) {
                produced.push(Point { t: w, value: v });
            }
            s.pending[pi].drain(..split);
        }
        if !produced.is_empty() {
            report.downsampled += produced.len() as u64;
            report.segments_sealed += out.write_points(s, coarse, &produced)?;
            s.last_t[coarse.index()] = produced.last().map(|p| p.t);
            if coarse == Resolution::Min1 {
                s.pending[1].append(&mut produced);
            }
            produced.clear();
        }
        *out.fold_buf = produced;
    }
    Ok(())
}

impl TailWriter<'_> {
    /// Appends `pts` to `s`'s open tail at `res`, sealing the tail once
    /// it crosses the configured size.
    /// Returns segments sealed.
    fn write_points(
        &mut self,
        s: &mut SeriesState,
        res: Resolution,
        pts: &[Point],
    ) -> io::Result<u64> {
        let ri = res.index();
        self.line_buf.clear();
        for p in pts {
            encode_point_line(self.line_buf, p);
            self.line_buf.push('\n');
        }
        let open = &s.open_path[ri];
        let mut options = OpenOptions::new();
        options.create(true).append(true);
        let mut f = match options.open(open) {
            // The series' first write at this resolution.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::create_dir_all(dir_of(open))?;
                options.open(open)?
            }
            other => other?,
        };
        f.write_all(self.line_buf.as_bytes())?;
        drop(f);
        s.open_bytes[ri] = Some(s.open_bytes[ri].unwrap_or(0) + self.line_buf.len() as u64);
        let enc = &mut s.open_enc[ri];
        enc.extend(pts);
        if enc.count < self.config.seal_points as u64 {
            return Ok(0);
        }
        // Rename is atomic and the tail is removed only after the sealed
        // file exists; a crash in between leaves both, which readers
        // canonicalize and `open` cleans up as a stale tail.
        let (first, last) = (enc.first_t, enc.prev_t);
        let encoded = enc.finish(s.kind);
        let sdir = dir_of(open);
        let tmp = sdir.join("seal.tmp");
        fs::write(&tmp, &encoded)?;
        fs::rename(&tmp, sdir.join(segment_file_name(first, last)))?;
        fs::remove_file(open)?;
        let seg = SealedSegment {
            last,
            first,
            bytes: encoded.len() as u64,
        };
        let at = s.sealed[ri].partition_point(|x| *x <= seg);
        s.sealed[ri].insert(at, seg);
        s.open_bytes[ri] = None;
        s.open_enc[ri].clear();
        Ok(1)
    }
}

/// Folds one completed window of finer-resolution points into a single
/// coarser point: counters sum their deltas, gauges keep the last value,
/// histograms merge bucket-wise (count/sum add, min/max fold). `None`
/// for an empty window.
pub fn downsample(kind: SeriesKind, window: &[Point]) -> Option<PointValue> {
    if window.is_empty() {
        return None;
    }
    Some(match kind {
        SeriesKind::Counter => PointValue::Counter(
            window
                .iter()
                .map(|p| match &p.value {
                    PointValue::Counter(v) => *v,
                    _ => 0,
                })
                .sum(),
        ),
        SeriesKind::Gauge => window.iter().rev().find_map(|p| match &p.value {
            PointValue::Gauge(v) => Some(PointValue::Gauge(*v)),
            _ => None,
        })?,
        SeriesKind::Histogram => {
            let mut merged = HistogramState {
                min: u64::MAX,
                ..HistogramState::default()
            };
            let mut buckets: BTreeMap<u32, u64> = BTreeMap::new();
            for p in window {
                let PointValue::Histogram(h) = &p.value else {
                    continue;
                };
                for &(i, n) in &h.buckets {
                    *buckets.entry(i).or_insert(0) += n;
                }
                merged.count += h.count;
                merged.sum += h.sum;
                merged.min = merged.min.min(h.min);
                merged.max = merged.max.max(h.max);
            }
            merged.buckets = buckets.into_iter().collect();
            PointValue::Histogram(merged)
        }
    })
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
/// metrics; `*` matches everything.
pub fn selector_matches(pattern: &str, name: &str) -> bool {
    fn match_at(pat: &[u8], s: &[u8]) -> bool {
        match pat.first() {
            None => s.is_empty(),
            Some(b'*') => (0..=s.len()).any(|i| match_at(&pat[1..], &s[i..])),
            Some(&c) => s.first() == Some(&c) && match_at(&pat[1..], &s[1..]),
        }
    }
    match_at(pattern.as_bytes(), name.as_bytes())
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
    /// range) and the last line of each open tail. `None` for an empty
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
        // The walk ends at the tail's last line that decodes.
        let mut tail = None;
        walk_tail_back(&sdir.join("open.seg"), u64::MAX, |p| {
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
    /// first write winning any duplicate timestamp.
    pub fn series_points(
        &self,
        info: &SeriesInfo,
        res: Resolution,
        start: u64,
        end: u64,
    ) -> Vec<Point> {
        read_series_points(&self.dir, &info.slug, info.kind, res, start, end)
    }

    /// The offline read behind `netqos lts query`: every indexed series
    /// matching `selector`, at resolution `step`, restricted to `[start,
    /// end]`. The output is deterministic — sorted by series name,
    /// canonical point order — so identical stores yield byte-identical
    /// JSON.
    pub fn query(&self, selector: &str, start: u64, end: u64, step: Resolution) -> String {
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
            let pts = self.series_points(&info, step, start, end);
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
                        let hist = Histogram::from_state(h);
                        let _ = write!(
                            out,
                            "{{\"t\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
                            p.t,
                            h.count,
                            h.sum,
                            hist.min(),
                            h.max,
                            hist.quantile(0.50),
                            hist.quantile(0.99),
                        );
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
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
/// decodes exactly and every tail line parses as the indexed kind,
/// timestamps are strictly increasing within a file, and sealed
/// filenames match their contents' range. A store holding a sealed v1
/// segment is refused ([`io::ErrorKind::InvalidData`]), not checked.
pub fn verify_store(dir: &Path) -> io::Result<VerifyReport> {
    let mut rep = VerifyReport::default();
    let reader = LtsReader::open(dir);
    let idx_path = dir.join("series.idx");
    if let Ok(text) = fs::read_to_string(&idx_path) {
        rep.bytes += text.len() as u64;
        for (ln, line) in text.lines().enumerate() {
            if !line.trim().is_empty() && parse_index_line(line).is_none() {
                rep.issues
                    .push(format!("series.idx line {}: unparseable", ln + 1));
            }
        }
    }
    let index = reader.index();
    rep.series = index.len();
    let known: BTreeMap<&str, &SeriesInfo> = index.iter().map(|i| (i.slug.as_str(), i)).collect();
    for res in Resolution::ALL {
        let rdir = dir.join(res.dir_name());
        let Ok(entries) = fs::read_dir(&rdir) else {
            continue;
        };
        for entry in entries.flatten() {
            let sdir = entry.path();
            if !sdir.is_dir() {
                continue;
            }
            let slug = sdir
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string();
            let Some(info) = known.get(slug.as_str()) else {
                rep.issues
                    .push(format!("{}/{slug}: not in series.idx", res.dir_name()));
                continue;
            };
            let mut files: Vec<PathBuf> = Vec::new();
            for f in fs::read_dir(&sdir)?.flatten() {
                refuse_v1(&f.path())?;
                files.push(f.path());
            }
            files.sort();
            for path in files {
                let fname = path
                    .file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .to_string();
                let sealed = parse_segment_name(&fname);
                if fname != "open.seg" && sealed.is_none() {
                    rep.issues.push(format!(
                        "{}/{slug}/{fname}: unexpected file",
                        res.dir_name()
                    ));
                    continue;
                }
                rep.segments += 1;
                rep.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if let Some((a, b)) = sealed {
                    // Sealed segments are immutable: decode strictly and
                    // cross-check the header's fold against the points.
                    let buf = fs::read(&path)?;
                    match decode_segment_v2(&buf) {
                        Err(e) => {
                            rep.issues
                                .push(format!("{}/{slug}/{fname}: {e}", res.dir_name()));
                        }
                        Ok((header, pts)) => {
                            rep.points += pts.len() as u64;
                            if header.kind != info.kind {
                                rep.issues.push(format!(
                                    "{}/{slug}/{fname}: kind mismatch (index says {})",
                                    res.dir_name(),
                                    info.kind.as_str()
                                ));
                            }
                            if pts.windows(2).any(|w| w[1].t <= w[0].t) {
                                rep.issues.push(format!(
                                    "{}/{slug}/{fname}: time not increasing",
                                    res.dir_name()
                                ));
                            }
                            let (first_t, last_t) =
                                (pts.first().map(|p| p.t), pts.last().map(|p| p.t));
                            if let Some(hs) = header.stats {
                                let mut sum = 0u64;
                                let (mut mn, mut mx) = (u64::MAX, 0u64);
                                for p in &pts {
                                    if let PointValue::Counter(v) = &p.value {
                                        sum = sum.saturating_add(*v);
                                        mn = mn.min(*v);
                                        mx = mx.max(*v);
                                    }
                                }
                                if pts.is_empty() {
                                    mn = 0;
                                }
                                if hs
                                    != (SegmentStats {
                                        sum,
                                        min: mn,
                                        max: mx,
                                    })
                                {
                                    rep.issues.push(format!(
                                        "{}/{slug}/{fname}: header stats disagree with points",
                                        res.dir_name()
                                    ));
                                }
                            }
                            if first_t != Some(a) || last_t != Some(b) {
                                rep.issues.push(format!(
                                    "{}/{slug}/{fname}: name range [{a},{b}] != content range [{:?},{:?}]",
                                    res.dir_name(),
                                    first_t,
                                    last_t
                                ));
                            }
                        }
                    }
                    continue;
                }
                let text = fs::read_to_string(&path)?;
                let mut last_t: Option<u64> = None;
                for (ln, line) in text.lines().enumerate() {
                    match decode_point_line(line) {
                        Some(p) if p.value.kind() == info.kind => {
                            if last_t.is_some_and(|l| p.t <= l) {
                                rep.issues.push(format!(
                                    "{}/{slug}/{fname} line {}: time not increasing",
                                    res.dir_name(),
                                    ln + 1
                                ));
                            }
                            last_t = Some(p.t);
                            rep.points += 1;
                        }
                        Some(_) => {
                            rep.issues.push(format!(
                                "{}/{slug}/{fname} line {}: kind mismatch (index says {})",
                                res.dir_name(),
                                ln + 1,
                                info.kind.as_str()
                            ));
                        }
                        None => {
                            rep.issues.push(format!(
                                "{}/{slug}/{fname} line {}: unparseable",
                                res.dir_name(),
                                ln + 1
                            ));
                        }
                    }
                }
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
/// before anything is rewritten. Must not run while a writer has the
/// store open (offline maintenance only).
pub fn compact_store(dir: &Path) -> io::Result<CompactReport> {
    let mut rep = CompactReport::default();
    let reader = LtsReader::open(dir);
    let index = reader.index();

    let measure = |rep_seg: &mut u64, rep_bytes: &mut u64| -> io::Result<()> {
        *rep_seg = 0;
        *rep_bytes = fs::metadata(dir.join("series.idx"))
            .map(|m| m.len())
            .unwrap_or(0);
        for res in Resolution::ALL {
            let rdir = dir.join(res.dir_name());
            let Ok(entries) = fs::read_dir(&rdir) else {
                continue;
            };
            for sdir in entries.flatten() {
                let Ok(files) = fs::read_dir(sdir.path()) else {
                    continue;
                };
                for f in files.flatten() {
                    refuse_v1(&f.path())?;
                    if f.path()
                        .extension()
                        .is_some_and(|e| e == "seg" || e == "bin")
                    {
                        *rep_seg += 1;
                        *rep_bytes += f.metadata().map(|m| m.len()).unwrap_or(0);
                    }
                }
            }
        }
        Ok(())
    };
    measure(&mut rep.segments_before, &mut rep.bytes_before)?;

    // Rewrite the index: sorted, deduplicated.
    if !index.is_empty() {
        let tmp = dir.join("series.idx.tmp");
        let mut body = String::new();
        for info in &index {
            push_index_line(&mut body, &info.slug, &info.name, info.kind);
        }
        fs::write(&tmp, body)?;
        fs::rename(&tmp, dir.join("series.idx"))?;
    }

    for info in &index {
        for res in Resolution::ALL {
            let sdir = dir.join(res.dir_name()).join(&info.slug);
            if !sdir.is_dir() {
                continue;
            }
            let pts = read_series_points(dir, &info.slug, info.kind, res, 0, u64::MAX);
            let mut old: Vec<PathBuf> = Vec::new();
            for f in fs::read_dir(&sdir)?.flatten() {
                if f.path()
                    .extension()
                    .is_some_and(|e| e == "seg" || e == "bin")
                {
                    old.push(f.path());
                }
            }
            if pts.is_empty() {
                for p in old {
                    fs::remove_file(p)?;
                }
                continue;
            }
            let dest = sdir.join(segment_file_name(pts[0].t, pts[pts.len() - 1].t));
            let tmp = sdir.join("compact.tmp");
            fs::write(&tmp, encode_segment_v2(info.kind, &pts))?;
            fs::rename(&tmp, &dest)?;
            for p in old {
                if p != dest {
                    fs::remove_file(p)?;
                }
            }
        }
    }
    measure(&mut rep.segments_after, &mut rep.bytes_after)?;
    Ok(rep)
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
/// it ([`walk_tail_back`]), or an undecodable segment.
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
    let open = sdir.join("open.seg");
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
/// point counts. Sealed point counts come from segment headers; open
/// tails are line-counted. A store holding a sealed v1 segment is
/// refused ([`io::ErrorKind::InvalidData`]).
pub fn store_stats(dir: &Path) -> io::Result<StoreStats> {
    let mut stats = StoreStats::default();
    for res in Resolution::ALL {
        let rdir = dir.join(res.dir_name());
        let entries = match fs::read_dir(&rdir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let rs = &mut stats.resolutions[res.index()];
        for entry in entries.flatten() {
            let sdir = entry.path();
            if !sdir.is_dir() {
                continue;
            }
            for seg in segment_files(&sdir)? {
                let points = read_segment_header(&seg.path).map_or(0, |h| h.count);
                let bytes = seg.bytes();
                rs.segments += 1;
                rs.sealed += 1;
                rs.bytes += bytes;
                rs.points += points;
                stats.segments.push(SegmentStat {
                    path: rel_path(dir, &seg.path),
                    sealed: true,
                    points,
                    bytes,
                });
            }
            let open = sdir.join("open.seg");
            if let Ok(m) = fs::metadata(&open) {
                let points = fs::read_to_string(&open).map_or(0, |t| {
                    t.lines().filter(|l| !l.trim().is_empty()).count() as u64
                });
                rs.segments += 1;
                rs.open_tails += 1;
                rs.bytes += m.len();
                rs.points += points;
                stats.segments.push(SegmentStat {
                    path: rel_path(dir, &open),
                    sealed: false,
                    points,
                    bytes: m.len(),
                });
            }
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
// Layout (all integers LEB128 varints unless noted):
//
// ```text
// magic   4 bytes  "NQS2"
// version u8       2
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
//                  flag u8 (1 = min/max follow, mirrors JSONL's
//                  omit-when-empty), [min, max],
//                  n_buckets, then n × (index - prev_index, bucket
//                  count) with the first index absolute
// ```
//
// Deltas use wrapping arithmetic in both directions, so every `u64`
// round-trips exactly; zigzag keeps small negative deltas short.

const SEG_MAGIC: [u8; 4] = *b"NQS2";

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

/// A v2 segment under construction: the point payload as the bytes it
/// will have on disk and the running folds its header needs, so a
/// writer holds the 2-3 bytes a point seals into and not the point.
#[derive(Debug, Default)]
struct SegmentEncoder {
    body: Vec<u8>,
    count: u64,
    first_t: u64,
    prev_t: u64,
    prev_v: u64,
    /// Fold of the counter values pushed, once there is one.
    stats: Option<SegmentStats>,
}

impl SegmentEncoder {
    /// Appends one point's payload bytes and folds it into the header.
    fn push(&mut self, p: &Point) {
        if self.count == 0 {
            (self.first_t, self.prev_t) = (p.t, p.t);
        }
        self.count += 1;
        let out = &mut self.body;
        push_varint(out, p.t.wrapping_sub(self.prev_t));
        self.prev_t = p.t;
        match &p.value {
            PointValue::Counter(v) => {
                push_varint(out, zigzag(v.wrapping_sub(self.prev_v) as i64));
                self.prev_v = *v;
                let stats = self.stats.get_or_insert(SegmentStats {
                    min: u64::MAX,
                    ..SegmentStats::default()
                });
                stats.sum = stats.sum.saturating_add(*v);
                stats.min = stats.min.min(*v);
                stats.max = stats.max.max(*v);
            }
            PointValue::Gauge(v) => {
                push_varint(out, zigzag(v.wrapping_sub(self.prev_v as i64)));
                self.prev_v = *v as u64;
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

    fn extend(&mut self, pts: &[Point]) {
        pts.iter().for_each(|p| self.push(p));
    }

    /// The segment holding every point pushed: header, then payload.
    fn finish(&self, kind: SeriesKind) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEG_HEADER_MAX + self.body.len());
        out.extend_from_slice(&SEG_MAGIC);
        out.push(2);
        out.push(kind_byte(kind));
        push_varint(&mut out, self.count);
        push_varint(&mut out, self.first_t);
        push_varint(&mut out, self.prev_t);
        if kind == SeriesKind::Counter {
            let SegmentStats { sum, min, max } = self.stats.unwrap_or_default();
            push_varint(&mut out, sum);
            push_varint(&mut out, min);
            push_varint(&mut out, max);
        }
        out.extend_from_slice(&self.body);
        out
    }

    /// Back to empty, keeping the payload buffer's capacity.
    fn clear(&mut self) {
        let mut body = std::mem::take(&mut self.body);
        body.clear();
        *self = SegmentEncoder {
            body,
            ..SegmentEncoder::default()
        };
    }
}

/// Encodes `pts` (strictly increasing `t`, all of `kind`) as one v2
/// binary segment.
pub fn encode_segment_v2(kind: SeriesKind, pts: &[Point]) -> Vec<u8> {
    let mut enc = SegmentEncoder::default();
    enc.body.reserve(pts.len() * 3);
    enc.extend(pts);
    enc.finish(kind)
}

/// Decodes a v2 header. Errors on a bad magic/version/kind or a
/// truncated header.
pub fn decode_segment_v2_header(buf: &[u8]) -> Result<SegmentHeader, String> {
    if buf.len() < 6 {
        return Err("truncated header".to_string());
    }
    if buf[0..4] != SEG_MAGIC {
        return Err("bad magic".to_string());
    }
    if buf[4] != 2 {
        return Err(format!("unsupported codec version {}", buf[4]));
    }
    let kind = kind_from_byte(buf[5]).ok_or_else(|| format!("bad kind byte {}", buf[5]))?;
    let mut pos = 6usize;
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
    let mut prev_t = header.first_t;
    let mut prev_v: u64 = 0;
    for i in 0..header.count {
        let dt = read_varint(buf, &mut pos).ok_or_else(|| format!("truncated at point {i}"))?;
        let t = prev_t.wrapping_add(dt);
        prev_t = t;
        let value = match header.kind {
            SeriesKind::Counter => {
                let dv =
                    read_varint(buf, &mut pos).ok_or_else(|| format!("truncated at point {i}"))?;
                let v = prev_v.wrapping_add(unzigzag(dv) as u64);
                prev_v = v;
                PointValue::Counter(v)
            }
            SeriesKind::Gauge => {
                let dv =
                    read_varint(buf, &mut pos).ok_or_else(|| format!("truncated at point {i}"))?;
                let v = (prev_v as i64).wrapping_add(unzigzag(dv));
                prev_v = v as u64;
                PointValue::Gauge(v)
            }
            SeriesKind::Histogram => {
                let count =
                    read_varint(buf, &mut pos).ok_or_else(|| format!("truncated at point {i}"))?;
                let sum =
                    read_varint(buf, &mut pos).ok_or_else(|| format!("truncated at point {i}"))?;
                let flag = *buf
                    .get(pos)
                    .ok_or_else(|| format!("truncated at point {i}"))?;
                pos += 1;
                let (min, max) = if flag == 1 {
                    (
                        read_varint(buf, &mut pos)
                            .ok_or_else(|| format!("truncated at point {i}"))?,
                        read_varint(buf, &mut pos)
                            .ok_or_else(|| format!("truncated at point {i}"))?,
                    )
                } else {
                    (u64::MAX, 0)
                };
                let nb =
                    read_varint(buf, &mut pos).ok_or_else(|| format!("truncated at point {i}"))?;
                let mut buckets = Vec::with_capacity(nb.min(4096) as usize);
                let mut prev_i: u32 = 0;
                for _ in 0..nb {
                    let di = read_varint(buf, &mut pos)
                        .ok_or_else(|| format!("truncated at point {i}"))?;
                    let bi = prev_i.wrapping_add(di as u32);
                    prev_i = bi;
                    let n = read_varint(buf, &mut pos)
                        .ok_or_else(|| format!("truncated at point {i}"))?;
                    buckets.push((bi, n));
                }
                PointValue::Histogram(HistogramState {
                    buckets,
                    count,
                    sum,
                    min,
                    max,
                })
            }
        };
        pts.push(Point { t, value });
    }
    if pos != buf.len() {
        return Err(format!("{} trailing bytes", buf.len() - pos));
    }
    Ok((header, pts))
}

/// Appends one `series.idx` line, newline included.
fn push_index_line(out: &mut String, slug: &str, name: &str, kind: SeriesKind) {
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

/// Refuses a sealed v1 (JSONL) segment, `seg-A-B.seg`, found where a
/// series directory is listed: v1 is no longer read, and a directory
/// holding one must not be half-read. `open.seg` is the tail, not one.
fn refuse_v1(path: &Path) -> io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with("seg-") && name.ends_with(".seg") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: a sealed v1 (JSONL) segment; v1 segments are no longer read, convert \
                 the store with `netqos lts migrate` from an earlier release",
                path.display()
            ),
        ));
    }
    Ok(())
}

struct SegmentFile {
    path: PathBuf,
    first: u64,
    last: u64,
}

impl SegmentFile {
    /// The file's size; 0 when it cannot be read.
    fn bytes(&self) -> u64 {
        fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }
}

/// Sealed segments in a series directory, oldest first; a v1 segment
/// there is an error ([`refuse_v1`]).
fn segment_files(sdir: &Path) -> io::Result<Vec<SegmentFile>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(sdir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        let path = entry.path();
        refuse_v1(&path)?;
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        if let Some((first, last)) = parse_segment_name(&name) {
            out.push(SegmentFile { path, first, last });
        }
    }
    out.sort_by_key(|s| (s.first, s.last));
    Ok(out)
}

/// Reads one sealed segment's points, strict: any undecodable content is
/// an error. The query path ([`read_series_points`]) stays lenient.
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

/// Reads one segment file leniently: a torn *final* line is truncated
/// off the file and reported; a bad line mid-file stops the read there
/// (everything after a corrupt line is untrusted). Returns the points,
/// the file's length afterwards, and the report.
fn read_segment_recovering(
    path: &Path,
    kind: SeriesKind,
) -> io::Result<(Vec<Point>, u64, Option<String>)> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let mut pts = Vec::new();
    let mut good_bytes = 0usize;
    let mut warn = None;
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim_end_matches('\n');
        if trimmed.is_empty() {
            good_bytes += line.len();
            continue;
        }
        match decode_point_line(trimmed) {
            Some(p) if p.value.kind() == kind && line.ends_with('\n') => {
                pts.push(p);
                good_bytes += line.len();
            }
            _ => {
                warn = Some(format!(
                    "{}: corrupt tail at byte {good_bytes}; truncated",
                    path.display()
                ));
                truncate_file(path, good_bytes as u64)?;
                break;
            }
        }
    }
    Ok((pts, good_bytes as u64, warn))
}

/// Canonical read used by both the reader and the writer's recovery:
/// sealed oldest-first then the open tail, clipped to `[start, end]`,
/// stable-sorted by time with the first-written point winning ties.
/// Unparseable lines and undecodable binary segments are skipped
/// (readers never mutate the store).
fn read_series_points(
    dir: &Path,
    slug: &str,
    kind: SeriesKind,
    res: Resolution,
    start: u64,
    end: u64,
) -> Vec<Point> {
    let sdir = dir.join(res.dir_name()).join(slug);
    let segs = segment_files(&sdir).unwrap_or_default();
    read_points(&segs, &sdir.join("open.seg"), kind, start, end)
}

/// [`read_series_points`] over an already listed series directory:
/// `segs` oldest-first, then the tail at `open`, read from its end down
/// to `start` ([`walk_tail_back`]).
fn read_points(
    segs: &[SegmentFile],
    open: &Path,
    kind: SeriesKind,
    start: u64,
    end: u64,
) -> Vec<Point> {
    let mut pts: Vec<Point> = Vec::new();
    let wanted = |p: &Point| p.value.kind() == kind && p.t >= start && p.t <= end;
    for seg in segs {
        // Whole segment out of range: skip without reading.
        if seg.last < start || seg.first > end {
            continue;
        }
        if let Ok(decoded) = read_sealed_points(seg, kind) {
            pts.extend(decoded.into_iter().filter(wanted));
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
        if let Ok(text) = fs::read_to_string(open) {
            pts.extend(text.lines().filter_map(decode_point_line).filter(wanted));
        }
    }
    pts.sort_by_key(|p| p.t);
    pts.dedup_by_key(|p| p.t);
    pts
}

/// Bytes a backward walk reads from the end of a tail first; each
/// further piece is twice the last, so a walk that does go far makes few
/// reads and none reads more than twice what it needed.
const TAIL_PIECE: u64 = 8 * 1024;

/// Hands `visit` the points of the JSONL tail at `path` from its end —
/// every line that decodes, newest first — down to and including the
/// first one not newer than `low`, reading the file a piece at a time,
/// so the cost follows how much of the tail lies after `low` and not its
/// length. A missing file has no points.
///
/// Stopping there is sound because times strictly increase down a tail:
/// [`LtsStore::append`] drops any point that is not newer than the
/// series' last, and [`verify_store`] reports a tail where they do not.
/// The walk checks what it reads against that. `false` means it saw
/// something no writer leaves — a time that does not decrease, bytes
/// that are not UTF-8, a read that failed — and the caller must discard
/// what it was handed and read the file forward, whole.
fn walk_tail_back(path: &Path, low: u64, mut visit: impl FnMut(Point)) -> bool {
    let Ok(mut f) = File::open(path) else {
        return true;
    };
    let Ok(mut unread) = f.metadata().map(|m| m.len()) else {
        return false;
    };
    // Between pieces: the end of a line whose start lies in a piece not
    // read yet.
    let mut buf: Vec<u8> = Vec::new();
    let mut newer: Option<u64> = None;
    let mut piece = TAIL_PIECE;
    while unread > 0 {
        let (take, carried) = (unread.min(piece) as usize, buf.len());
        unread -= take as u64;
        piece = piece.saturating_mul(2);
        // The piece goes in front of what is carried.
        buf.resize(take + carried, 0);
        buf.copy_within(..carried, take);
        let read = f
            .seek(SeekFrom::Start(unread))
            .and_then(|_| f.read_exact(&mut buf[..take]));
        if read.is_err() {
            return false;
        }
        // Whole lines start after the first newline, or at the first
        // byte once that is the file's; with neither, all is carried.
        let whole = match buf.iter().position(|&b| b == b'\n') {
            _ if unread == 0 => 0,
            Some(i) => i + 1,
            None => continue,
        };
        // From a line's start to a line's end: text if the file is.
        let Ok(lines) = std::str::from_utf8(&buf[whole..]) else {
            return false;
        };
        for p in lines.rsplit('\n').filter_map(decode_point_line) {
            if newer.is_some_and(|n| p.t >= n) {
                return false;
            }
            let t = *newer.insert(p.t);
            visit(p);
            if t <= low {
                return true;
            }
        }
        buf.truncate(whole.saturating_sub(1));
    }
    true
}

/// The first point of `kind` in a JSONL tail, read from the head of the
/// file.
fn first_tail_point(path: &Path, kind: SeriesKind) -> Option<Point> {
    let lines = io::BufReader::new(File::open(path).ok()?).lines();
    lines
        .map_while(Result::ok)
        .filter_map(|l| decode_point_line(&l))
        .find(|p| p.value.kind() == kind)
}

/// Longest v2 header: magic, version, kind, then six varints.
const SEG_HEADER_MAX: usize = 6 + 6 * 10;

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
    fn point_json_round_trips() {
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
        ] {
            let mut line = String::new();
            encode_point_line(&mut line, &p);
            let back = decode_point_line(&line).expect(&line);
            assert_eq!(back, p, "{line}");
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
        let mut line = String::new();
        encode_point_line(
            &mut line,
            &Point {
                t: 0,
                value: PointValue::Histogram(d),
            },
        );
        assert!(decode_point_line(&line).is_some());
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
        let raw = reader.series_points(ticks, Resolution::Raw1s, 0, u64::MAX);
        assert_eq!(raw.len(), 130);
        let mins = reader.series_points(ticks, Resolution::Min1, 0, u64::MAX);
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
        let mins = reader.series_points(depth, Resolution::Min1, 0, u64::MAX);
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
        let hours = reader.series_points(info, Resolution::Hour1, 0, u64::MAX);
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
        let raw = reader.series_points(info, Resolution::Raw1s, 0, u64::MAX);
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
        let mins = reader.series_points(info, Resolution::Min1, 0, u64::MAX);
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
        let open = dir.join("1s").join(&slug).join("open.seg");
        // Simulate a crash mid-append: torn, newline-less JSON tail.
        let mut f = OpenOptions::new().append(true).open(&open).unwrap();
        f.write_all(b"{\"t\":5,\"ki").unwrap();
        drop(f);
        let mut store =
            LtsStore::open(&dir, LtsConfig::default(), LtsCounters::detached()).unwrap();
        let warnings = store.take_warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("corrupt tail"));
        // The torn line is gone from disk; appends continue cleanly.
        store.append("c", 5, PointValue::Counter(9));
        store.flush().unwrap();
        let reader = LtsReader::open(&dir);
        let pts = reader.series_points(&reader.index()[0], Resolution::Raw1s, 0, u64::MAX);
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
        let pts = reader.series_points(&reader.index()[0], Resolution::Raw1s, 0, u64::MAX);
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
        let before = reader.query("*", 0, u64::MAX, Resolution::Raw1s);
        let before_1m = reader.query("*", 0, u64::MAX, Resolution::Min1);
        assert!(before.contains("\"p50\""));

        // Reopen (restart) changes nothing.
        let store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
        drop(store);
        assert_eq!(reader.query("*", 0, u64::MAX, Resolution::Raw1s), before);

        // Compaction rewrites the files but not the answer.
        let rep = compact_store(&dir).unwrap();
        assert!(rep.segments_after <= rep.segments_before);
        assert_eq!(reader.query("*", 0, u64::MAX, Resolution::Raw1s), before);
        assert_eq!(reader.query("*", 0, u64::MAX, Resolution::Min1), before_1m);

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
        let pts = reader.series_points(polls, Resolution::Raw1s, 0, u64::MAX);
        assert_eq!(pts[0].value, PointValue::Counter(5));
        assert_eq!(pts[1].value, PointValue::Counter(3));
        let lat = idx.iter().find(|i| i.name == "lat_ns").unwrap();
        let pts = reader.series_points(lat, Resolution::Raw1s, 0, u64::MAX);
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
        // The reader passes over it.
        let reader = LtsReader::open(&dir);
        let pts = reader.series_points(&reader.index()[0], Resolution::Raw1s, 0, u64::MAX);
        assert_eq!(pts.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// However its points arrive, and whatever it held before it was
    /// cleared, the encoder gives the bytes of the slice encoded whole.
    #[test]
    fn segment_encoder_is_indifferent_to_chunking_and_reuse() {
        let pts: Vec<Point> = (0..200u64)
            .map(|i| Point {
                t: 1_700_000_000 + i * 3,
                value: match i % 3 {
                    0 => PointValue::Counter(u64::MAX - i),
                    1 => PointValue::Gauge(-(i as i64)),
                    _ => PointValue::Histogram(sample_hist(&[i, i * 1_000])),
                },
            })
            .collect();
        let mut enc = SegmentEncoder::default();
        for kind in [
            SeriesKind::Counter,
            SeriesKind::Gauge,
            SeriesKind::Histogram,
        ] {
            for chunk in [1, 7, 60, 200] {
                pts.chunks(chunk).for_each(|c| enc.extend(c));
                assert_eq!(enc.finish(kind), encode_segment_v2(kind, &pts));
                let held = enc.body.capacity();
                enc.clear();
                assert_eq!(enc.body.capacity(), held);
                assert_eq!(enc.finish(kind), encode_segment_v2(kind, &[]));
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
            out.push_str(&reader.query("*", 0, u64::MAX, res));
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
        let pts = reader.series_points(&info, Resolution::Raw1s, 0, u64::MAX);
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
        // removing the tail: re-create an open.seg whose points are
        // already covered by sealed segments.
        let sdir = dir.join(Resolution::Raw1s.dir_name()).join(&info.slug);
        fs::write(
            sdir.join("open.seg"),
            "{\"t\":10,\"kind\":\"counter\",\"v\":999}\n",
        )
        .unwrap();
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
        assert!(!sdir.join("open.seg").exists());
        // The duplicate point is gone; queries match the pre-crash view.
        assert_eq!(full_query(&dir), before);
        let _ = fs::remove_dir_all(&dir);
    }
}
