//! Incremental quantile baselines over a sliding sample window.
//!
//! A [`QuantileBaseline`] answers two questions about a fresh sample
//! without retaining raw samples: *where does this value rank against
//! recent history?* (percentile rank) and *what are the recent p50/p99?*
//! (quantile readout). It buckets samples in the telemetry crate's
//! log-bucketed [`Histogram`](crate::Histogram) layout — the
//! incremental-quantile role that P² plays in Chambers et al. — and ages
//! data with two rotating windows: samples land in the *active* window,
//! and when it fills it becomes the *previous* window and a fresh one
//! starts. Queries merge both windows, so the effective history is
//! between one and two windows — old traffic patterns fall away instead
//! of permanently skewing the baseline.
//!
//! A window is kept as the [`HistogramState`] it is persisted as: the
//! occupied buckets in ascending order plus count, sum, min and max. A
//! path's rates occupy a few dozen of the layout's 496 buckets, so a
//! baseline costs what it has seen (1 160 bytes with two
//! full windows over 32 buckets) instead of two dense histograms (8 104
//! bytes from its first sample). Every answer and every saved state is
//! the one two dense histograms gave; `tests/oracle/baseline.rs` is that
//! baseline.

use crate::json::{parse_json, JsonValue};
use crate::metrics::{bucket_index, quantile_of, HistogramState, BUCKETS};
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Default samples per window: at 1 s/cycle, two windows ≈ 10 minutes of
/// history, matching the "p99.8 of last 10 min" framing in the issue.
pub const DEFAULT_WINDOW: u64 = 300;

/// Buckets a window's list is sized for on its first sample (fewer when
/// the window holds fewer samples), so that a window that stays within
/// them never grows its list.
const FIRST_BUCKETS: u64 = 32;

struct BaselineWindows {
    active: HistogramState,
    previous: HistogramState,
}

/// A self-aging quantile estimator for one monitored series (a
/// connection's used bandwidth, a device's poll RTT). Cheap to clone;
/// clones share the same windows.
#[derive(Clone)]
pub struct QuantileBaseline {
    window: u64,
    inner: Arc<Mutex<BaselineWindows>>,
}

impl Default for QuantileBaseline {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW)
    }
}

/// A window with no samples (`min` at its `u64::MAX` sentinel) and no
/// list yet.
fn empty_window() -> HistogramState {
    HistogramState {
        min: u64::MAX,
        ..HistogramState::default()
    }
}

/// Folds `v` into `w` as `Histogram::record` does, additions wrapping as
/// `fetch_add` does. A list without room is sized to `first` buckets.
fn record_into(w: &mut HistogramState, v: u64, first: usize) {
    let idx = bucket_index(v) as u32;
    match w.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
        Ok(at) => {
            let n = &mut w.buckets[at].1;
            *n = n.wrapping_add(1);
            // Only a loaded count of `u64::MAX` wraps; an empty bucket
            // is not listed.
            if *n == 0 {
                w.buckets.remove(at);
            }
        }
        Err(at) => {
            if w.buckets.capacity() == 0 {
                w.buckets.reserve_exact(first);
            }
            w.buckets.insert(at, (idx, 1));
        }
    }
    w.count = w.count.wrapping_add(1);
    w.sum = w.sum.wrapping_add(v);
    w.min = w.min.min(v);
    w.max = w.max.max(v);
}

/// Samples of `w` in bucket `idx` or below: a prefix of the list.
fn count_le(w: &HistogramState, idx: u32) -> u64 {
    let end = w.buckets.partition_point(|&(i, _)| i <= idx);
    w.buckets[..end]
        .iter()
        .fold(0, |sum, &(_, n)| sum.wrapping_add(n))
}

/// Two ascending bucket lists as one, the counts of a bucket both hold
/// added.
fn combined<'a>(a: &'a [(u32, u64)], b: &'a [(u32, u64)]) -> impl Iterator<Item = (u32, u64)> + 'a {
    let (mut a, mut b) = (a.iter().copied().peekable(), b.iter().copied().peekable());
    std::iter::from_fn(move || match (a.peek().copied(), b.peek().copied()) {
        (Some((i, n)), Some((j, m))) => Some(match i.cmp(&j) {
            Ordering::Less => a.next()?,
            Ordering::Greater => b.next()?,
            Ordering::Equal => {
                a.next();
                b.next();
                (i, n.wrapping_add(m))
            }
        }),
        (Some(_), None) => a.next(),
        (None, _) => b.next(),
    })
}

/// A window as `Histogram::from_state` rebuilds one: indexes past the
/// layout ignored, the last of a repeated index kept, empty buckets
/// dropped, ascending.
fn window_from_state(state: &HistogramState) -> HistogramState {
    let mut dense = [0u64; BUCKETS];
    for &(i, n) in &state.buckets {
        if let Some(cell) = dense.get_mut(i as usize) {
            *cell = n;
        }
    }
    HistogramState {
        buckets: (0..).zip(dense).filter(|&(_, n)| n != 0).collect(),
        count: state.count,
        sum: state.sum,
        min: state.min,
        max: state.max,
    }
}

impl QuantileBaseline {
    /// A baseline rotating after `window` samples (min 1).
    pub fn new(window: u64) -> Self {
        QuantileBaseline {
            window: window.max(1),
            inner: Arc::new(Mutex::new(BaselineWindows {
                active: empty_window(),
                previous: empty_window(),
            })),
        }
    }

    /// Records a sample, rotating the windows when the active one fills.
    /// The list the rotation displaces is emptied and reused, so a
    /// baseline whose windows have both been sized records without
    /// allocating.
    pub fn record(&self, v: u64) {
        let mut w = self.inner.lock();
        let w = &mut *w;
        if w.active.count >= self.window {
            std::mem::swap(&mut w.active, &mut w.previous);
            w.active.buckets.clear();
            w.active = HistogramState {
                buckets: std::mem::take(&mut w.active.buckets),
                ..empty_window()
            };
        }
        record_into(&mut w.active, v, self.window.min(FIRST_BUCKETS) as usize);
    }

    /// Percentile rank of `v` against the merged windows, in [0, 1].
    /// 0.0 when no history exists yet.
    pub fn rank(&self, v: u64) -> f64 {
        let w = self.inner.lock();
        let total = w.active.count.wrapping_add(w.previous.count);
        if total == 0 {
            return 0.0;
        }
        let idx = bucket_index(v) as u32;
        let le = count_le(&w.active, idx).wrapping_add(count_le(&w.previous, idx));
        (le.min(total) as f64) / total as f64
    }

    /// The value at quantile `q` over the merged windows (0 when empty).
    /// A loaded state's `previous` counts only when its `count` is not 0.
    pub fn quantile(&self, q: f64) -> u64 {
        let w = self.inner.lock();
        let (a, p) = (&w.active, &w.previous);
        if p.count == 0 {
            return quantile_of(a.buckets.iter().copied(), a.count, a.max, q);
        }
        let total = a.count.wrapping_add(p.count);
        quantile_of(combined(&a.buckets, &p.buckets), total, a.max.max(p.max), q)
    }

    /// Total samples across both windows.
    pub fn count(&self) -> u64 {
        let w = self.inner.lock();
        w.active.count.wrapping_add(w.previous.count)
    }

    /// A serializable copy of both windows.
    pub fn to_state(&self) -> BaselineState {
        let w = self.inner.lock();
        BaselineState {
            window: self.window,
            active: w.active.clone(),
            previous: w.previous.clone(),
        }
    }

    /// Rebuilds a baseline from a saved state.
    pub fn from_state(state: &BaselineState) -> Self {
        QuantileBaseline {
            window: state.window.max(1),
            inner: Arc::new(Mutex::new(BaselineWindows {
                active: window_from_state(&state.active),
                previous: window_from_state(&state.previous),
            })),
        }
    }
}

/// Full persistable state of one [`QuantileBaseline`]: the rotation
/// window plus both histogram windows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BaselineState {
    /// Samples per rotation window.
    pub window: u64,
    /// The filling window.
    pub active: HistogramState,
    /// The previous (full) window.
    pub previous: HistogramState,
}

// ---- persistence ----------------------------------------------------
//
// Baselines take one to two windows of live traffic (minutes at a
// 1 s poll period) to mature; a restart that forgets them re-opens the
// anomaly-detection blind spot every time the service is rolled. The
// state file is a single JSON object so it can be written atomically
// (temp file + rename) and inspected by hand. All u64 fields are
// serialized as strings: epoch-scale sums exceed 2^53 and the reader
// parses numbers through f64.

fn write_histogram_state(out: &mut String, h: &HistogramState) {
    let _ = write!(
        out,
        "{{\"count\":\"{}\",\"sum\":\"{}\",\"min\":\"{}\",\"max\":\"{}\",\"buckets\":[",
        h.count, h.sum, h.min, h.max
    );
    for (i, (idx, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{idx},\"{n}\"]");
    }
    out.push_str("]}");
}

fn read_u64_str(v: &JsonValue, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(JsonValue::String(s)) => s.parse().map_err(|_| format!("bad {key}: {s:?}")),
        Some(other) => other.as_u64().ok_or_else(|| format!("bad {key}")),
        None => Err(format!("missing {key}")),
    }
}

fn read_histogram_state(v: &JsonValue) -> Result<HistogramState, String> {
    let mut state = HistogramState {
        count: read_u64_str(v, "count")?,
        sum: read_u64_str(v, "sum")?,
        min: read_u64_str(v, "min")?,
        max: read_u64_str(v, "max")?,
        buckets: Vec::new(),
    };
    let buckets = v
        .get("buckets")
        .and_then(JsonValue::as_array)
        .ok_or("missing buckets")?;
    for b in buckets {
        let pair = b.as_array().ok_or("bucket entry is not a pair")?;
        let idx = pair
            .first()
            .and_then(JsonValue::as_u64)
            .ok_or("bad bucket index")?;
        let idx = u32::try_from(idx).map_err(|_| format!("bucket index {idx} does not fit u32"))?;
        let n = match pair.get(1) {
            Some(JsonValue::String(s)) => s.parse().map_err(|_| "bad bucket count")?,
            Some(other) => other.as_u64().ok_or("bad bucket count")?,
            None => return Err("bucket entry missing count".into()),
        };
        state.buckets.push((idx, n));
    }
    Ok(state)
}

/// Serializes named baselines to JSON text (see [`save_baselines`]).
pub fn baselines_to_json<'a, I>(entries: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a QuantileBaseline)>,
{
    let mut out = String::from("{\"version\":1,\"baselines\":{");
    for (i, (name, baseline)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        crate::events::escape_json_into(&mut out, name);
        out.push_str("\":");
        let state = baseline.to_state();
        let _ = write!(out, "{{\"window\":{},\"active\":", state.window);
        write_histogram_state(&mut out, &state.active);
        out.push_str(",\"previous\":");
        write_histogram_state(&mut out, &state.previous);
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

/// Parses the output of [`baselines_to_json`], returning
/// `(name, baseline)` pairs sorted by name.
pub fn baselines_from_json(src: &str) -> Result<Vec<(String, QuantileBaseline)>, String> {
    let doc = parse_json(src).map_err(|e| e.to_string())?;
    let map = match doc.get("baselines") {
        Some(JsonValue::Object(m)) => m,
        _ => return Err("missing baselines object".into()),
    };
    let mut out = Vec::with_capacity(map.len());
    for (name, entry) in map {
        let window = entry
            .get("window")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("baseline {name}: missing window"))?;
        let active = read_histogram_state(
            entry
                .get("active")
                .ok_or_else(|| format!("baseline {name}: missing active"))?,
        )
        .map_err(|e| format!("baseline {name}: {e}"))?;
        let previous = read_histogram_state(
            entry
                .get("previous")
                .ok_or_else(|| format!("baseline {name}: missing previous"))?,
        )
        .map_err(|e| format!("baseline {name}: {e}"))?;
        out.push((
            name.clone(),
            QuantileBaseline::from_state(&BaselineState {
                window,
                active,
                previous,
            }),
        ));
    }
    Ok(out)
}

/// Writes named baselines to `path` atomically (temp file + rename), so
/// a crash mid-save never leaves a truncated state file.
pub fn save_baselines<'a, I>(path: &Path, entries: I) -> std::io::Result<()>
where
    I: IntoIterator<Item = (&'a str, &'a QuantileBaseline)>,
{
    let json = baselines_to_json(entries);
    let tmp = path.with_extension("tmp");
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&tmp, &json)?;
    std::fs::rename(&tmp, path)
}

/// Reads baselines previously written by [`save_baselines`].
pub fn load_baselines(path: &Path) -> Result<Vec<(String, QuantileBaseline)>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    baselines_from_json(&src).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_baseline_is_neutral() {
        let b = QuantileBaseline::new(10);
        assert_eq!(b.rank(1_000), 0.0);
        assert_eq!(b.quantile(0.99), 0);
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn rank_and_quantile_agree() {
        let b = QuantileBaseline::new(1_000);
        for v in 1..=500u64 {
            b.record(v * 100);
        }
        let p50 = b.quantile(0.5);
        let r = b.rank(p50);
        assert!((r - 0.5).abs() < 0.1, "rank({p50}) = {r}");
        assert!(b.rank(100_000) > 0.99);
        assert!(b.rank(1) < 0.05);
    }

    #[test]
    fn windows_rotate_and_history_ages_out() {
        let b = QuantileBaseline::new(100);
        // Old regime: low values fill one full window.
        for _ in 0..100 {
            b.record(10);
        }
        // New regime: high values. First rotation keeps the low window
        // as `previous`; the second rotation drops it entirely.
        for _ in 0..200 {
            b.record(1_000_000);
        }
        assert!(
            b.count() <= 200,
            "count() = {} retains stale windows",
            b.count()
        );
        // All history is now the new regime: a low sample ranks at 0.
        assert!(b.rank(10) < 0.05, "old regime should have aged out");
        assert!(b.quantile(0.5) > 500_000);
    }

    #[test]
    fn save_load_round_trip_preserves_quantiles() {
        let b = QuantileBaseline::new(100);
        for v in 1..=250u64 {
            b.record(v * 1_000);
        }
        let feed2 = QuantileBaseline::new(100);
        feed2.record(77);

        let dir = std::env::temp_dir().join(format!("netqos-baseline-{}", std::process::id()));
        let path = dir.join("state.json");
        save_baselines(&path, [("feed1", &b), ("feed2", &feed2)]).unwrap();
        let loaded = load_baselines(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(loaded.len(), 2);
        let restored = &loaded.iter().find(|(n, _)| n == "feed1").unwrap().1;
        assert_eq!(restored.count(), b.count());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(restored.quantile(q), b.quantile(q), "quantile {q}");
        }
        assert_eq!(restored.rank(200_000), b.rank(200_000));
        // Rotation picks up where it left off: the window survives too.
        assert_eq!(restored.to_state(), b.to_state());
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(baselines_from_json("not json").is_err());
        assert!(baselines_from_json("{}").is_err());
        assert!(baselines_from_json("{\"baselines\":{\"x\":{}}}").is_err());
    }

    #[test]
    fn clones_share_windows() {
        let a = QuantileBaseline::new(50);
        let b = a.clone();
        a.record(7);
        assert_eq!(b.count(), 1);
    }
}
