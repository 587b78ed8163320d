//! Measurement primitives shared by every workload: the counting
//! allocator, the in-memory span recorder, percentile/floor statistics,
//! the seeded generator, and the child→parent report format.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// Forwards to the system allocator; counts calls and requested bytes
/// while switched on. Off (the timed windows) it costs one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    // Relaxed: the counters are statistics read on the same thread.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, requested bytes)` counted so far.
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// A point in time with the allocation counters read at it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    pub ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at the top level.
    pub parent: u32,
    pub tick: u32,
    pub allocs: u64,
    pub bytes: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    tick: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, with room for `capacity` of
/// them so recording itself does not allocate inside a counted tick.
pub fn start_tracing(capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            tick: 0,
        })
    });
}

/// Stops recording and returns the spans.
pub fn stop_tracing() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Tags the spans that follow with `tick`.
pub fn set_tick(tick: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.tick = tick;
        }
    });
}

/// Reads the clock and the allocation counters; `None` when not tracing.
pub fn mark() -> Option<Mark> {
    RECORDER.with(|r| {
        r.borrow().as_ref().map(|rec| {
            let (allocs, bytes) = alloc_totals();
            Mark {
                ns: rec.origin.elapsed().as_nanos() as u64,
                allocs,
                bytes,
            }
        })
    })
}

/// Records a closed span between two marks under the currently open span.
pub fn record(name: &'static str, from: Mark, to: Mark) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let parent = rec.stack.last().copied().unwrap_or(NO_PARENT);
            rec.spans.push(Span {
                name,
                start_ns: from.ns,
                end_ns: to.ns,
                parent,
                tick: rec.tick,
                allocs: to.allocs - from.allocs,
                bytes: to.bytes - from.bytes,
            });
        }
    });
}

/// An open span; closes when dropped. A no-op when not tracing.
pub struct SpanGuard(Option<u32>);

/// Opens a span named after the layer function it wraps.
pub fn span(name: &'static str) -> SpanGuard {
    let Some(at) = mark() else {
        return SpanGuard(None);
    };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("mark() saw a recorder");
        let id = rec.spans.len() as u32;
        let parent = rec.stack.last().copied().unwrap_or(NO_PARENT);
        rec.spans.push(Span {
            name,
            start_ns: at.ns,
            end_ns: at.ns,
            parent,
            tick: rec.tick,
            // Holds the opening counters until the guard closes.
            allocs: at.allocs,
            bytes: at.bytes,
        });
        rec.stack.push(id);
        SpanGuard(Some(id))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let Some(at) = mark() else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.stack.pop();
                let s = &mut rec.spans[id as usize];
                s.end_ns = at.ns;
                s.allocs = at.allocs - s.allocs;
                s.bytes = at.bytes - s.bytes;
            }
        });
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per-stage totals of one traced window.
#[derive(Debug, Default, Clone)]
pub struct StageStats {
    /// Per-tick sum of the stage's self time, nanoseconds, in tick order.
    pub per_tick_ns: Vec<u64>,
    pub calls: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl StageStats {
    /// Floor of the per-tick sums, milliseconds.
    pub fn floor_ms(&self) -> f64 {
        floor_ms(&mut self.per_tick_ns.clone())
    }
}

/// Folds spans into per-stage statistics keyed by span name. Allocation
/// counts are a span's own: its children's are subtracted like time.
pub fn fold_stages(spans: &[Span]) -> BTreeMap<&'static str, StageStats> {
    let own_ns = self_times(spans);
    let mut own_allocs: Vec<u64> = spans.iter().map(|s| s.allocs).collect();
    let mut own_bytes: Vec<u64> = spans.iter().map(|s| s.bytes).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own_allocs[p] = own_allocs[p].saturating_sub(s.allocs);
            own_bytes[p] = own_bytes[p].saturating_sub(s.bytes);
        }
    }
    let mut per_tick: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, StageStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *per_tick.entry((s.name, s.tick)).or_default() += own_ns[i];
        let st = out.entry(s.name).or_default();
        st.calls += 1;
        st.allocs += own_allocs[i];
        st.bytes += own_bytes[i];
    }
    for ((name, _tick), ns) in per_tick {
        out.get_mut(name)
            .expect("stage seen above")
            .per_tick_ns
            .push(ns);
    }
    out
}

/// Chrome `trace_event` JSON of the spans of the first `ticks` ticks (a
/// whole traced window of a thousand-device workload is >100 MB).
pub fn chrome_trace(spans: &[Span], ticks: u32) -> String {
    let first = spans.iter().map(|s| s.tick).min().unwrap_or(0);
    let mut out = String::from("{\"traceEvents\":[");
    let mut sep = "";
    for s in spans.iter().filter(|s| s.tick < first + ticks) {
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"tick\":{},\"allocs\":{},\"bytes\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tick,
            s.allocs,
            s.bytes
        );
        sep = ",";
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0 for
/// an empty slice.
pub fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The quantile reported as a floor. Every tick of a workload does
/// identical work, so the fastest ticks are that work without
/// interference, not cheaper work. The 1st percentile still reads the
/// quiet machine when only 2 % of a run's ticks were quiet (the 5th
/// needs 5 %, and read 30 % high in runs that had fewer), and was at
/// least as steady run to run on every workload; the minimum itself was
/// less steady.
pub const FLOOR_QUANTILE: f64 = 0.01;

/// The quiet-machine floor of an ascending slice.
pub fn floor_ns(sorted: &[u64]) -> u64 {
    percentile_ns(sorted, FLOOR_QUANTILE)
}

/// Sorts the samples and returns their floor in milliseconds.
pub fn floor_ms(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    floor_ns(samples) as f64 / 1e6
}

/// Share of samples within 10 % of the floor.
pub fn quiet_share(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let limit = floor_ns(sorted) as f64 * 1.10;
    sorted.iter().filter(|&&s| s as f64 <= limit).count() as f64 / sorted.len() as f64
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/// splitmix64: the benchmark's only source of input randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// FNV-1a over the words fed to it: the golden path digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------
// Child report
// ---------------------------------------------------------------------

/// What one child process (one workload, one round) measured. Travels to
/// the parent as `key=value` lines on stdout.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Build plus warm-up to the first steady tick, seconds.
    pub setup_s: f64,
    /// Wall time of every timed tick, nanoseconds.
    pub tick_ns: Vec<u64>,
    /// VmHWM at exit, kilobytes.
    pub peak_rss_kb: u64,
    /// Operations attempted and failed (polls, evaluations, appends,
    /// queries) over the whole child.
    pub attempted: u64,
    pub failed: u64,
    /// Counts that must repeat exactly in every round of an invocation,
    /// taken over the same tick indices in each.
    pub exact: BTreeMap<String, f64>,
    /// Per-layer numbers (traced round) and workload extras.
    pub layers: BTreeMap<String, f64>,
    /// Digest of the per-path answers at the end of the exact window.
    pub digest: String,
    /// Failed correctness checks; empty means correct.
    pub failures: Vec<String>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "setup_s={}", self.setup_s);
        let ticks: Vec<String> = self.tick_ns.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "tick_ns={}", ticks.join(","));
        let _ = writeln!(out, "peak_rss_kb={}", self.peak_rss_kb);
        let _ = writeln!(out, "attempted={}", self.attempted);
        let _ = writeln!(out, "failed={}", self.failed);
        let _ = writeln!(out, "digest={}", self.digest);
        for (k, v) in &self.exact {
            let _ = writeln!(out, "exact.{k}={v}");
        }
        for (k, v) in &self.layers {
            let _ = writeln!(out, "layer.{k}={v}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "failure={}", f.replace('\n', " "));
        }
        out
    }

    pub fn from_lines(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let num = || {
                value
                    .parse::<f64>()
                    .map_err(|e| format!("child line `{line}`: {e}"))
            };
            match key {
                "setup_s" => r.setup_s = num()?,
                "tick_ns" => {
                    r.tick_ns = value
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse::<u64>().map_err(|e| format!("tick_ns: {e}")))
                        .collect::<Result<_, _>>()?
                }
                "peak_rss_kb" => r.peak_rss_kb = num()? as u64,
                "attempted" => r.attempted = num()? as u64,
                "failed" => r.failed = num()? as u64,
                "digest" => r.digest = value.to_owned(),
                "failure" => r.failures.push(value.to_owned()),
                _ => {
                    if let Some(name) = key.strip_prefix("exact.") {
                        r.exact.insert(name.to_owned(), num()?);
                    } else if let Some(name) = key.strip_prefix("layer.") {
                        r.layers.insert(name.to_owned(), num()?);
                    }
                }
            }
        }
        Ok(r)
    }
}

/// Peak resident set of this process (VmHWM), kilobytes; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 0.05), 5);
        assert_eq!(percentile_ns(&v, 0.50), 50);
        assert_eq!(percentile_ns(&v, 0.95), 95);
        assert_eq!(percentile_ns(&v, 1.0), 100);
        assert_eq!(percentile_ns(&v, 0.0), 1);
        assert_eq!(percentile_ns(&[], 0.5), 0);
        assert_eq!(percentile_ns(&[7], 0.05), 7);
    }

    #[test]
    fn floor_ignores_a_contended_majority() {
        // 6 quiet ticks at 10, 194 contended ones at 16: the median
        // reads 16, the floor still reads the quiet figure.
        let mut v = vec![10u64; 6];
        v.extend(vec![16u64; 194]);
        v.sort_unstable();
        assert_eq!(floor_ns(&v), 10);
        assert_eq!(percentile_ns(&v, 0.5), 16);
        assert!((quiet_share(&v) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn sp(name: &'static str, start: u64, end: u64, parent: u32, tick: u32, allocs: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tick,
            allocs,
            bytes: allocs * 8,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            sp("outer", 0, 100, NO_PARENT, 0, 10),
            sp("mid", 10, 60, 0, 0, 6),
            sp("leaf", 20, 30, 1, 0, 2),
            sp("mid", 70, 90, 0, 0, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let stages = fold_stages(&spans);
        assert_eq!(stages["outer"].per_tick_ns, vec![30]);
        assert_eq!(stages["mid"].per_tick_ns, vec![60]);
        assert_eq!(stages["mid"].calls, 2);
        assert_eq!(stages["outer"].allocs, 3);
        assert_eq!(stages["mid"].allocs, 5);
        assert_eq!(stages["leaf"].allocs, 2);
    }

    #[test]
    fn stages_sum_per_tick_and_floor_over_ticks() {
        let mut spans = Vec::new();
        for tick in 0..20u32 {
            let base = tick as u64 * 1000;
            spans.push(sp("a", base, base + 100 + tick as u64, NO_PARENT, tick, 0));
            spans.push(sp("a", base + 500, base + 600, NO_PARENT, tick, 0));
        }
        let stages = fold_stages(&spans);
        assert_eq!(stages["a"].per_tick_ns.len(), 20);
        assert_eq!(stages["a"].per_tick_ns[0], 200);
        // The floor of twenty samples is the smallest.
        assert_eq!(stages["a"].floor_ms(), 200.0 / 1e6);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        start_tracing(8);
        set_tick(3);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let spans = stop_tracing();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].tick, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        // Not tracing: guards are inert.
        drop(span("ignored"));
        assert!(stop_tracing().is_empty());
    }

    #[test]
    fn allocator_counts_only_while_switched_on() {
        // The only test that switches counting on, so parallel test
        // threads can only add to the counted window, never hide it.
        let (a0, b0) = alloc_totals();
        set_counting(true);
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        set_counting(false);
        let (a1, b1) = alloc_totals();
        assert!(a1 > a0, "an allocation while on is counted");
        assert!(b1 - b0 >= 4096);
        drop(v);
        let (a2, _) = alloc_totals();
        let w: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        drop(w);
        // Off: this thread's allocation is not counted.
        assert_eq!(alloc_totals().0, a2);
    }

    #[test]
    fn report_round_trips() {
        let mut r = Report {
            setup_s: 1.25,
            tick_ns: vec![5, 6, 7],
            peak_rss_kb: 4096,
            attempted: 10,
            failed: 1,
            digest: "abc".into(),
            ..Report::default()
        };
        r.exact.insert("allocs_per_tick".into(), 12.5);
        r.layers.insert("sim.advance_floor_ms".into(), 0.25);
        r.failures.push("p1 off by 7 %".into());
        let back = Report::from_lines(&r.to_lines()).unwrap();
        assert_eq!(back.setup_s, 1.25);
        assert_eq!(back.tick_ns, vec![5, 6, 7]);
        assert_eq!(back.exact["allocs_per_tick"], 12.5);
        assert_eq!(back.layers["sim.advance_floor_ms"], 0.25);
        assert_eq!(back.failures, vec!["p1 off by 7 %".to_owned()]);
        assert_eq!(back.digest, "abc");
    }

    #[test]
    fn chrome_trace_keeps_the_first_ticks() {
        let spans = [
            sp("a", 0, 1000, NO_PARENT, 5, 1),
            sp("a", 2000, 3000, NO_PARENT, 6, 1),
        ];
        let json = chrome_trace(&spans, 1);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert!(json.ends_with("]}"));
    }
}
