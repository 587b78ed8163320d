//! Reference implementations the store's tests compare against: a tail
//! record encoder and decoder of their own, written from the format
//! comment in `lts.rs` and sharing nothing with the library's, the
//! directory walks the writer used to make on every flush (disk gauges,
//! retention) and the reader on every `newest_t`, and the reads that
//! decode every record of a tail whatever window was asked for, and the
//! v2 segment encoder that takes the whole slice and walks it twice; the
//! window fold that collected a histogram's buckets in a map, and the
//! wildcard matcher that tried every split at every `*`; the
//! dense-histogram `QuantileBaseline`
//! (`baseline.rs`); the alert engine that rebuilt every key each tick
//! (`alerts.rs`); and the tick-phase fold that walked every span's parent
//! chain to the root (`profile.rs`). Slow and obviously right; kept out
//! of the library.
#![allow(dead_code)]

pub mod alerts;
pub mod baseline;
pub mod profile;

use netqos_telemetry::{
    decode_segment_v2, fold_series_range, HistogramState, LtsReader, LtsRetention, Point,
    PointValue, RangeFold, Resolution, SeriesInfo, SeriesKind,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The file name of a series directory's open tail.
pub const OPEN_TAIL: &str = "open.bin";

fn kind_byte(kind: SeriesKind) -> u8 {
    match kind {
        SeriesKind::Counter => 0,
        SeriesKind::Gauge => 1,
        SeriesKind::Histogram => 2,
    }
}

/// Magic, version and kind: how a tail (and a segment) begins.
pub fn prelude(kind: SeriesKind) -> Vec<u8> {
    let mut out = b"NQS2\x02".to_vec();
    out.push(kind_byte(kind));
    out
}

fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// `p` as one tail record: its payload with absolute time and value,
/// then the payload's length and checksum, little-endian.
pub fn tail_record(p: &Point) -> Vec<u8> {
    let mut payload = Vec::new();
    push_varint(&mut payload, p.t);
    match &p.value {
        PointValue::Counter(v) => push_varint(&mut payload, zigzag(*v as i64)),
        PointValue::Gauge(v) => push_varint(&mut payload, zigzag(*v)),
        PointValue::Histogram(h) => {
            push_varint(&mut payload, h.count);
            push_varint(&mut payload, h.sum);
            if h.count > 0 {
                payload.push(1);
                push_varint(&mut payload, h.min);
                push_varint(&mut payload, h.max);
            } else {
                payload.push(0);
            }
            push_varint(&mut payload, h.buckets.len() as u64);
            let mut prev = 0u32;
            for &(i, n) in &h.buckets {
                push_varint(&mut payload, i.wrapping_sub(prev) as u64);
                prev = i;
                push_varint(&mut payload, n);
            }
        }
    }
    let mut out = payload.clone();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
    out
}

/// A whole tail of `kind` holding `pts`.
pub fn tail_bytes(kind: SeriesKind, pts: &[Point]) -> Vec<u8> {
    let mut out = prelude(kind);
    for p in pts {
        out.extend(tail_record(p));
    }
    out
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// The payload of a `kind` record from `pos`, absolute.
fn read_payload(buf: &[u8], pos: &mut usize, kind: SeriesKind) -> Option<Point> {
    let t = read_varint(buf, pos)?;
    let value = match kind {
        SeriesKind::Counter => PointValue::Counter(unzigzag(read_varint(buf, pos)?) as u64),
        SeriesKind::Gauge => PointValue::Gauge(unzigzag(read_varint(buf, pos)?)),
        SeriesKind::Histogram => {
            let count = read_varint(buf, pos)?;
            let sum = read_varint(buf, pos)?;
            let flag = *buf.get(*pos)?;
            *pos += 1;
            let (min, max) = if flag == 1 {
                (read_varint(buf, pos)?, read_varint(buf, pos)?)
            } else {
                (u64::MAX, 0)
            };
            let mut buckets = Vec::new();
            let mut prev = 0u32;
            for _ in 0..read_varint(buf, pos)? {
                prev = prev.wrapping_add(read_varint(buf, pos)? as u32);
                buckets.push((prev, read_varint(buf, pos)?));
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
    Some(Point { t, value })
}

/// A tail's kind and its whole records, front to back, each with the
/// offset it ends at, up to the first record cut short, failing its
/// checksum or not decoding to exactly its length. `None` without a whole
/// prelude.
pub fn read_tail(buf: &[u8]) -> Option<(SeriesKind, Vec<(Point, usize)>)> {
    if buf.len() < 6 || &buf[..5] != b"NQS2\x02" {
        return None;
    }
    let kind = [
        SeriesKind::Counter,
        SeriesKind::Gauge,
        SeriesKind::Histogram,
    ]
    .into_iter()
    .find(|k| kind_byte(*k) == buf[5])?;
    let mut records = Vec::new();
    let mut pos = 6;
    loop {
        let start = pos;
        let Some(p) = read_payload(buf, &mut pos, kind) else {
            break;
        };
        let Some(trailer) = buf.get(pos..pos + 8) else {
            break;
        };
        let len = u32::from_le_bytes(trailer[..4].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(trailer[4..].try_into().unwrap());
        if len != pos - start || sum != fnv1a32(&buf[start..pos]) {
            break;
        }
        pos += 8;
        records.push((p, pos));
    }
    Some((kind, records))
}

/// The points of the tail at `path`, read forward and whole.
pub fn tail_points(path: &Path) -> Vec<Point> {
    let buf = fs::read(path).unwrap_or_default();
    read_tail(&buf).map_or_else(Vec::new, |(_, records)| {
        records.into_iter().map(|(p, _)| p).collect()
    })
}

/// A sealed segment file as a directory walk finds it.
#[derive(Debug, Clone)]
pub struct WalkedSegment {
    pub path: PathBuf,
    pub first: u64,
    pub last: u64,
    pub bytes: u64,
}

fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let body = name.strip_prefix("seg-")?.strip_suffix(".bin")?;
    let (a, b) = body.split_once('-')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// The sealed segments of one series directory, oldest first.
pub fn sealed_in(sdir: &Path) -> Vec<WalkedSegment> {
    let Ok(entries) = fs::read_dir(sdir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if let Some((first, last)) = parse_segment_name(&name) {
            out.push(WalkedSegment {
                path,
                first,
                last,
                bytes: entry.metadata().unwrap().len(),
            });
        }
    }
    out.sort_by_key(|s| (s.first, s.last));
    out
}

/// `(netqos_lts_segments, netqos_lts_bytes_on_disk)` by walking the
/// store: every `.bin` file under a series directory, plus the index.
pub fn disk_gauges(dir: &Path) -> (i64, i64) {
    let (mut segments, mut bytes) = (0i64, 0u64);
    bytes += fs::metadata(dir.join("series.idx"))
        .map(|m| m.len())
        .unwrap_or(0);
    for res in Resolution::ALL {
        let Ok(entries) = fs::read_dir(dir.join(res.dir_name())) else {
            continue;
        };
        for sdir in entries.flatten() {
            let Ok(files) = fs::read_dir(sdir.path()) else {
                continue;
            };
            for f in files.flatten() {
                if f.path().extension().is_some_and(|e| e == "bin") {
                    segments += 1;
                    bytes += f.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
    }
    (segments, bytes as i64)
}

/// One deletion retention decides on: path relative to the store root,
/// size, `"age"` or `"size"`.
pub type Deletion = (String, u64, &'static str);

/// What retention deletes from the store at `dir`, given the newest
/// point time, by walking every series directory: sealed segments older
/// than the age bound, then the oldest survivors while the store (sealed
/// segments, open tails and index) is over its byte budget. The walk's
/// ties are broken by the documented total order — `(last, resolution,
/// series name, first)` — where the old writer left them in `read_dir`
/// order.
pub fn retention_plan(dir: &Path, ret: LtsRetention, newest: u64) -> Vec<Deletion> {
    let mut deleted = Vec::new();
    if ret.max_age_secs == 0 && ret.max_bytes == 0 {
        return deleted;
    }
    let names: std::collections::BTreeMap<String, String> = LtsReader::open(dir)
        .index()
        .into_iter()
        .map(|i| (i.slug, i.name))
        .collect();
    let mut segs = Vec::new();
    let mut total_bytes = 0u64;
    for (ri, res) in Resolution::ALL.into_iter().enumerate() {
        let Ok(entries) = fs::read_dir(dir.join(res.dir_name())) else {
            continue;
        };
        for entry in entries.flatten() {
            let sdir = entry.path();
            if !sdir.is_dir() {
                continue;
            }
            let slug = sdir.file_name().unwrap().to_string_lossy().to_string();
            for seg in sealed_in(&sdir) {
                total_bytes += seg.bytes;
                segs.push(((seg.last, ri, names[&slug].clone(), seg.first), seg));
            }
            if let Ok(m) = fs::metadata(sdir.join(OPEN_TAIL)) {
                total_bytes += m.len();
            }
        }
    }
    total_bytes += fs::metadata(dir.join("series.idx"))
        .map(|m| m.len())
        .unwrap_or(0);
    segs.sort_by(|a, b| a.0.cmp(&b.0));

    let rel = |p: &Path| {
        p.strip_prefix(dir)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/")
    };
    let mut survivors = Vec::new();
    for (_, seg) in segs {
        if ret.max_age_secs > 0 && newest.saturating_sub(seg.last) > ret.max_age_secs {
            total_bytes -= seg.bytes;
            deleted.push((rel(&seg.path), seg.bytes, "age"));
        } else {
            survivors.push(seg);
        }
    }
    if ret.max_bytes > 0 {
        for seg in survivors {
            if total_bytes <= ret.max_bytes {
                break;
            }
            total_bytes -= seg.bytes;
            deleted.push((rel(&seg.path), seg.bytes, "size"));
        }
    }
    deleted
}

/// Newest raw-resolution point time by reading every record of every
/// indexed series' `1s` tail and every sealed file name.
pub fn newest_t(dir: &Path) -> Option<u64> {
    let mut newest = None;
    for info in LtsReader::open(dir).index() {
        let sdir = dir.join(Resolution::Raw1s.dir_name()).join(&info.slug);
        if let Some(last) = sealed_in(&sdir).iter().map(|s| s.last).max() {
            newest = Some(newest.map_or(last, |n: u64| n.max(last)));
        }
        for p in tail_points(&sdir.join(OPEN_TAIL)) {
            newest = Some(newest.map_or(p.t, |n: u64| n.max(p.t)));
        }
    }
    newest
}

/// Canonical points of one series at one resolution in `[start, end]`,
/// reading forward and whole: every sealed segment the window touches,
/// oldest first, then every record of the open tail, front to back, up
/// to its first bad one; clipped, stable-sorted by time, the
/// first-written point winning a tie. Segments that do not decode are
/// passed over.
pub fn series_points(
    dir: &Path,
    info: &SeriesInfo,
    res: Resolution,
    start: u64,
    end: u64,
) -> Vec<Point> {
    let sdir = dir.join(res.dir_name()).join(&info.slug);
    let mut pts: Vec<Point> = Vec::new();
    for seg in sealed_in(&sdir) {
        if seg.last < start || seg.first > end {
            continue;
        }
        match fs::read(&seg.path).map(|buf| decode_segment_v2(&buf)) {
            Ok(Ok((header, decoded))) if header.kind == info.kind => pts.extend(decoded),
            _ => {}
        }
    }
    pts.extend(tail_points(&sdir.join(OPEN_TAIL)));
    pts.retain(|p| p.value.kind() == info.kind && p.t >= start && p.t <= end);
    pts.sort_by_key(|p| p.t);
    pts.dedup_by_key(|p| p.t);
    pts
}

/// The fold of a counter series over `(after, upto]` by a scan of all
/// its canonical points: what `fold_series_range` must report whenever
/// it answers (its two work counters aside, which are left at zero).
pub fn window_fold(
    dir: &Path,
    info: &SeriesInfo,
    res: Resolution,
    after: Option<u64>,
    upto: u64,
) -> RangeFold {
    let mut fold = RangeFold::default();
    for p in series_points(dir, info, res, 0, upto) {
        let PointValue::Counter(v) = p.value else {
            continue;
        };
        fold.last_t = Some(p.t);
        if after.is_none_or(|a| p.t > a) {
            fold.count += 1;
            fold.sum = fold.sum.saturating_add(v);
            fold.min = fold.min.min(v);
            fold.max = fold.max.max(v);
        }
    }
    fold
}

/// Holds `fold_series_range` over `(after, upto]` to [`window_fold`].
/// `false` when the fold stood down instead of answering.
pub fn fold_agrees(
    dir: &Path,
    info: &SeriesInfo,
    res: Resolution,
    after: Option<u64>,
    upto: u64,
) -> bool {
    let Some(got) = fold_series_range(dir, &info.slug, info.kind, res, after, upto) else {
        return false;
    };
    let want = window_fold(dir, info, res, after, upto);
    let what = format!(
        "{} at {} over ({after:?}, {upto}]",
        info.name,
        res.dir_name()
    );
    assert_eq!(
        (got.count, got.sum, got.min, got.max),
        (want.count, want.sum, want.min, want.max),
        "{what}"
    );
    // A window that ends before it starts is answered without a look at
    // the store.
    if after.is_none_or(|a| a < upto) {
        assert_eq!(got.last_t, want.last_t, "{what}");
    }
    true
}

/// `v` as a LEB128 varint.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
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

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// `pts` as one v2 binary segment, from the whole slice: the header's
/// fold in one pass, the payload in a second. The library's encoder
/// until it was made to take a point at a time; its format comment in
/// `lts.rs` is the specification of both.
pub fn encode_segment_v2(kind: SeriesKind, pts: &[Point]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + pts.len() * 3);
    out.extend_from_slice(b"NQS2");
    out.push(2);
    out.push(match kind {
        SeriesKind::Counter => 0,
        SeriesKind::Gauge => 1,
        SeriesKind::Histogram => 2,
    });
    push_varint(&mut out, pts.len() as u64);
    let first_t = pts.first().map(|p| p.t).unwrap_or(0);
    let last_t = pts.last().map(|p| p.t).unwrap_or(0);
    push_varint(&mut out, first_t);
    push_varint(&mut out, last_t);
    if kind == SeriesKind::Counter {
        let (mut sum, mut min, mut max) = (0u64, u64::MAX, 0u64);
        let mut any = false;
        for p in pts {
            if let PointValue::Counter(v) = &p.value {
                sum = sum.saturating_add(*v);
                min = min.min(*v);
                max = max.max(*v);
                any = true;
            }
        }
        if !any {
            min = 0;
        }
        push_varint(&mut out, sum);
        push_varint(&mut out, min);
        push_varint(&mut out, max);
    }
    let mut prev_t = first_t;
    let mut prev_v: u64 = 0;
    for p in pts {
        push_varint(&mut out, p.t.wrapping_sub(prev_t));
        prev_t = p.t;
        match &p.value {
            PointValue::Counter(v) => {
                push_varint(&mut out, zigzag(v.wrapping_sub(prev_v) as i64));
                prev_v = *v;
            }
            PointValue::Gauge(v) => {
                push_varint(&mut out, zigzag(v.wrapping_sub(prev_v as i64)));
                prev_v = *v as u64;
            }
            PointValue::Histogram(h) => {
                push_varint(&mut out, h.count);
                push_varint(&mut out, h.sum);
                if h.count > 0 {
                    out.push(1);
                    push_varint(&mut out, h.min);
                    push_varint(&mut out, h.max);
                } else {
                    out.push(0);
                }
                push_varint(&mut out, h.buckets.len() as u64);
                let mut prev_i: u32 = 0;
                for &(i, n) in &h.buckets {
                    push_varint(&mut out, i.wrapping_sub(prev_i) as u64);
                    prev_i = i;
                    push_varint(&mut out, n);
                }
            }
        }
    }
    out
}

/// One window of finer points as one coarser point, from the whole
/// slice: counters sum their deltas, gauges keep the last gauge,
/// histograms collect every bucket in a map (count/sum add, min/max
/// fold); points of another kind pass. The library's `downsample` until
/// it became the fold the writer runs a point at a time, with the sums
/// written wrapping, as its release builds computed them.
pub fn downsample(kind: SeriesKind, window: &[Point]) -> Option<PointValue> {
    if window.is_empty() {
        return None;
    }
    Some(match kind {
        SeriesKind::Counter => {
            PointValue::Counter(window.iter().fold(0u64, |sum, p| match &p.value {
                PointValue::Counter(v) => sum.wrapping_add(*v),
                _ => sum,
            }))
        }
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
                    let b = buckets.entry(i).or_insert(0);
                    *b = b.wrapping_add(n);
                }
                merged.count = merged.count.wrapping_add(h.count);
                merged.sum = merged.sum.wrapping_add(h.sum);
                merged.min = merged.min.min(h.min);
                merged.max = merged.max.max(h.max);
            }
            merged.buckets = buckets.into_iter().collect();
            PointValue::Histogram(merged)
        }
    })
}

/// Every `1m` or `1h` point a store holds for the raw points `raw`
/// (ascending): [`downsample`] over each window of `res`, except the
/// window still open. An `1h` window is open until an `1m` window after
/// it has closed.
pub fn closed_windows(kind: SeriesKind, raw: &[Point], res: Resolution) -> Vec<Point> {
    let minute = |t: u64| t / 60 * 60;
    let closed: Vec<&Point> = match (res, raw.last()) {
        (_, None) => Vec::new(),
        (Resolution::Hour1, Some(last)) => {
            // The newest closed minute bounds the hours that can close.
            let Some(newest_min) = raw
                .iter()
                .map(|p| minute(p.t))
                .rfind(|&m| m < minute(last.t))
            else {
                return Vec::new();
            };
            raw.iter()
                .filter(|p| p.t / 3600 < newest_min / 3600)
                .collect()
        }
        (_, Some(last)) => {
            let w = res.window_secs();
            raw.iter().filter(|p| p.t / w < last.t / w).collect()
        }
    };
    let w = res.window_secs();
    let mut out: Vec<Point> = Vec::new();
    let mut i = 0;
    while i < closed.len() {
        let start = closed[i].t / w * w;
        let j = i + closed[i..]
            .iter()
            .take_while(|p| p.t / w * w == start)
            .count();
        let window: Vec<Point> = closed[i..j].iter().map(|p| (*p).clone()).collect();
        out.extend(downsample(kind, &window).map(|value| Point { t: start, value }));
        i = j;
    }
    out
}

/// `*`-wildcard match by trying every split at every `*`: what the
/// library's matcher answered before it backtracked only to the latest
/// star. Exponential in the number of stars.
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
