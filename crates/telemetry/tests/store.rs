//! The long-term store against its oracles: the writer's catalog equals
//! a walk of the directory at every step of a store's life, retention
//! order depends only on what was appended, `newest_t` agrees with a full
//! scan, integers survive every representation exactly, the query
//! source's cached index follows the file, and a tail read from its end
//! gives what a forward scan of it gives, crash leftovers and hand-made
//! damage included, a sealing store is a never-sealing twin with every
//! sealed tail encoded by the slice-walking encoder, and a store holding
//! a sealed v1 segment is refused without a byte changed.

mod oracle;

use netqos_telemetry::{
    compact_store, decode_point_line, parse_json, report_flush, store_stats, verify_store, Counter,
    EventSink, FlushReport, Histogram, LtsConfig, LtsCounters, LtsReader, LtsRetention, LtsSource,
    LtsStore, Point, PointValue, QueryEngine, QueryResult, Resolution, SegmentCodec, SeriesSource,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netqos-store-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const KEEP_ALL: LtsRetention = LtsRetention {
    max_age_secs: 0,
    max_bytes: 0,
};

fn config(seal_points: usize, retention: LtsRetention) -> LtsConfig {
    LtsConfig {
        seal_points,
        retention,
        codec: SegmentCodec::Binary,
    }
}

/// Every file under `dir` with its content, by relative path.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .to_string();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn hist(values: &[u64]) -> PointValue {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    PointValue::Histogram(h.to_state())
}

/// Every series' canonical points at every resolution, as `LtsReader::query` text.
fn full_query(dir: &Path) -> String {
    let reader = LtsReader::open(dir);
    Resolution::ALL
        .map(|res| reader.query("*", 0, u64::MAX, res))
        .join("\n")
}

// ---------------------------------------------------------------------
// Catalog ≡ directory
// ---------------------------------------------------------------------

/// A store under test beside a twin that never deletes: the twin's
/// directory, walked by the oracle after each flush, says what the
/// subject's catalog should have decided.
struct Twins {
    subject_dir: PathBuf,
    twin_dir: PathBuf,
    subject: Option<LtsStore>,
    twin: Option<LtsStore>,
    gauges: LtsCounters,
    retention: LtsRetention,
    /// Newest appended time and the next to append.
    newest: u64,
    /// Sealed files seen at any step, by resolution directory.
    sealed_seen: BTreeSet<String>,
    deletions: Vec<oracle::Deletion>,
}

const SEAL_POINTS: usize = 4;
const SPACING: u64 = 600;

impl Twins {
    fn new(retention: LtsRetention) -> Twins {
        let mut t = Twins {
            subject_dir: tmpdir("subject"),
            twin_dir: tmpdir("twin"),
            subject: None,
            twin: None,
            gauges: LtsCounters::detached(),
            retention,
            newest: 1_700_000_000 - 1_700_000_000 % 3_600,
            sealed_seen: BTreeSet::new(),
            deletions: Vec::new(),
        };
        t.reopen(retention);
        t
    }

    /// Drops both writers and opens them again, the subject under
    /// `retention`.
    fn reopen(&mut self, retention: LtsRetention) {
        self.subject = None;
        self.twin = None;
        self.retention = retention;
        self.gauges = LtsCounters::detached();
        let open = |dir: &Path, retention, counters| {
            LtsStore::open(dir, config(SEAL_POINTS, retention), counters).unwrap()
        };
        let subject = open(&self.subject_dir, retention, self.gauges.clone());
        let twin = open(&self.twin_dir, KEEP_ALL, LtsCounters::detached());
        self.subject = Some(subject);
        self.twin = Some(twin);
        self.check("reopen");
    }

    fn append(&mut self, points: usize) {
        for _ in 0..points {
            self.newest += SPACING;
            let t = self.newest;
            for store in [self.subject.as_mut().unwrap(), self.twin.as_mut().unwrap()] {
                store.append("c_total", t, PointValue::Counter(t % 97));
                store.append("g{side=\"a\"}", t, PointValue::Gauge(50 - (t % 101) as i64));
                store.append("h_ns", t, hist(&[t % 1_000 + 1, 90_000]));
            }
        }
    }

    /// Flushes both; the subject's deletions must be the oracle's plan
    /// for the twin's directory, which the test then carries out there.
    fn flush(&mut self, step: &str) {
        let report = self.subject.as_mut().unwrap().flush().unwrap();
        self.twin.as_mut().unwrap().flush().unwrap();
        let plan = oracle::retention_plan(&self.twin_dir, self.retention, self.newest);
        let got: Vec<oracle::Deletion> = report
            .deleted
            .iter()
            .map(|d| (d.path.clone(), d.bytes, d.reason))
            .collect();
        assert_eq!(got, plan, "{step}: retention decisions");
        for (path, _, _) in &plan {
            fs::remove_file(self.twin_dir.join(path)).unwrap();
        }
        self.deletions.extend(plan);
        self.check(step);
    }

    fn compact(&mut self) {
        self.subject.as_mut().unwrap().compact().unwrap();
        self.twin.as_mut().unwrap().compact().unwrap();
        self.check("compact");
    }

    /// Same files in both directories; the subject's gauges equal a walk
    /// of its own.
    fn check(&mut self, step: &str) {
        let files = tree(&self.subject_dir);
        assert!(
            files == tree(&self.twin_dir),
            "{step}: the two stores' files differ"
        );
        let walked = oracle::disk_gauges(&self.subject_dir);
        let gauges = (self.gauges.segments.get(), self.gauges.bytes_on_disk.get());
        assert_eq!(gauges, walked, "{step}: gauges against the directory");
        self.sealed_seen.extend(
            files
                .keys()
                .filter(|p| p.contains("/seg-"))
                .map(|p| p[..2].to_string()),
        );
    }

    /// The same bytes appended to the same file in both directories.
    fn scribble(&self, rel: &str, bytes: &[u8]) {
        for dir in [&self.subject_dir, &self.twin_dir] {
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(rel))
                .unwrap();
            f.write_all(bytes).unwrap();
        }
    }
}

impl Drop for Twins {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.subject_dir);
        let _ = fs::remove_dir_all(&self.twin_dir);
    }
}

#[test]
fn catalog_equals_the_directory_through_a_stores_life() {
    let by_age = LtsRetention {
        max_age_secs: 12 * SPACING,
        max_bytes: 0,
    };
    let mut t = Twins::new(by_age);
    // Appends across seals at all three resolutions, old segments
    // ageing out as they go.
    for round in 0..14 {
        t.append(3);
        t.flush(&format!("age round {round}"));
    }
    assert_eq!(
        t.sealed_seen.iter().map(String::as_str).collect::<Vec<_>>(),
        ["1h", "1m", "1s"],
        "seals at every resolution"
    );
    assert!(t.deletions.iter().any(|d| d.2 == "age"));

    // The same store under a byte budget it is already over.
    let (_, bytes) = oracle::disk_gauges(&t.subject_dir);
    t.reopen(LtsRetention {
        max_age_secs: 0,
        max_bytes: bytes as u64 * 2 / 3,
    });
    for round in 0..6 {
        t.append(3);
        t.flush(&format!("size round {round}"));
    }
    assert!(t.deletions.iter().any(|d| d.2 == "size"));

    t.compact();
    t.append(5);
    t.flush("after compact");
    t.reopen(by_age);
    t.append(2);
    t.flush("after reopen");

    // A crash mid-append: a torn last line in a raw tail.
    let slug = LtsReader::open(&t.subject_dir)
        .index()
        .into_iter()
        .find(|i| i.name == "c_total")
        .unwrap()
        .slug;
    assert!(t.subject_dir.join(format!("1s/{slug}/open.seg")).exists());
    t.scribble(&format!("1s/{slug}/open.seg"), b"{\"t\":99,\"ki");
    t.reopen(by_age);
    t.append(1);
    t.flush("after torn tail");

    // A crash between writing a sealed segment and removing its
    // tail: seal the raw tail, then put an already sealed point back.
    while t.subject_dir.join(format!("1s/{slug}/open.seg")).exists() {
        t.append(1);
        t.flush("towards a seal");
    }
    let stale = format!("{{\"t\":{},\"kind\":\"counter\",\"v\":1}}\n", t.newest);
    t.scribble(&format!("1s/{slug}/open.seg"), stale.as_bytes());
    t.reopen(by_age);
    assert!(!t.subject_dir.join(format!("1s/{slug}/open.seg")).exists());
    t.append(4);
    t.flush("after stale tail");

    let report = verify_store(&t.subject_dir).unwrap();
    assert!(report.issues.is_empty(), "{:?}", report.issues);
}

// ---------------------------------------------------------------------
// Retention order
// ---------------------------------------------------------------------

/// A sink whose JSONL lines can be read back.
fn capturing_sink() -> (EventSink, Arc<Mutex<Vec<u8>>>) {
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Arc::new(Mutex::new(Vec::new()));
    (EventSink::to_writer(Box::new(Shared(buf.clone()))), buf)
}

/// A store of many series whose segments are all equally old, run under
/// a byte budget; returns every deletion and every `retention_delete`
/// event's fields, in order.
fn run_equally_old_series(tag: &str) -> (Vec<(String, u64, &'static str)>, Vec<String>) {
    let dir = tmpdir(tag);
    let retention = LtsRetention {
        max_age_secs: 0,
        max_bytes: 2_000,
    };
    let mut store = LtsStore::open(&dir, config(4, retention), LtsCounters::detached()).unwrap();
    let (sink, events) = capturing_sink();
    let deleted_total = Counter::new();
    let mut deletions = Vec::new();
    for t in 0..64u64 {
        for i in 0..12 {
            let name = format!("m_total{{dev=\"d{i:02}\"}}");
            store.append(&name, 1_000 + t, PointValue::Counter(t + i));
        }
        if t % 4 == 3 {
            let report: FlushReport = store.flush().unwrap();
            report_flush(&sink, &deleted_total, &report, &[]);
            deletions.extend(
                report
                    .deleted
                    .into_iter()
                    .map(|d| (d.path, d.bytes, d.reason)),
            );
        }
    }
    sink.flush();
    let text = String::from_utf8(events.lock().unwrap().clone()).unwrap();
    let fields = text
        .lines()
        .map(|l| parse_json(l).unwrap())
        .filter(|e| {
            let field = |k: &str| e.get(k).and_then(|v| v.as_str());
            (field("target"), field("kind")) == (Some("lts"), Some("retention_delete"))
        })
        .map(|e| format!("{:?}", e.get("fields").unwrap()))
        .collect();
    let _ = fs::remove_dir_all(&dir);
    (deletions, fields)
}

#[test]
fn retention_order_depends_only_on_what_was_appended() {
    let (first, first_events) = run_equally_old_series("order-a");
    let (second, second_events) = run_equally_old_series("order-b");
    assert!(first.len() > 12, "{} deletions", first.len());
    assert_eq!(first, second);
    assert_eq!(first_events, second_events);
    assert_eq!(first_events.len(), first.len());
    // Twelve series seal together, so their segments tie on `last`: a
    // tie goes by series name (here also the order of the slugs), not by
    // the order a directory listing happens to have.
    let last = |path: &str| path.rsplit('-').next().unwrap().to_string();
    let ties: Vec<_> = first
        .windows(2)
        .filter(|w| last(&w[0].0) == last(&w[1].0))
        .collect();
    assert!(ties.len() >= 11, "{} tied neighbours", ties.len());
    for pair in ties {
        assert!(pair[0].0 < pair[1].0, "{} before {}", pair[0].0, pair[1].0);
    }
}

// ---------------------------------------------------------------------
// newest_t
// ---------------------------------------------------------------------

#[test]
fn newest_t_agrees_with_a_full_scan() {
    let dir = tmpdir("newest");
    let cfg = config(8, KEEP_ALL);
    let agree = |store: &LtsStore, want: Option<u64>, what: &str| {
        assert_eq!(oracle::newest_t(&dir), want, "{what}: full scan");
        assert_eq!(LtsReader::open(&dir).newest_t(), want, "{what}: reader");
        assert_eq!(store.newest_t(), want, "{what}: writer");
    };
    let mut store = LtsStore::open(&dir, cfg.clone(), LtsCounters::detached()).unwrap();
    agree(&store, None, "empty store");

    // `sealed_total` ends exactly on a seal (no tail left), `tail_total`
    // has sealed segments and an open tail, `young` only a tail.
    for t in 100..116 {
        store.append("sealed_total", t, PointValue::Counter(1));
        store.append("tail_total", t + 3, PointValue::Counter(1));
    }
    store.flush().unwrap();
    agree(&store, Some(118), "sealed segments only");
    store.append("tail_total", 119, PointValue::Counter(1));
    store.append("tail_total", 120, PointValue::Counter(1));
    store.append("young", 117, PointValue::Gauge(-4));
    store.flush().unwrap();
    agree(&store, Some(120), "sealed segments and tails");
    // Buffered points are not stored points.
    store.append("young", 500, PointValue::Gauge(1));
    assert_eq!(store.newest_t(), Some(120));
    drop(store);

    let slug = |name: &str| {
        LtsReader::open(&dir)
            .index()
            .into_iter()
            .find(|i| i.name == name)
            .unwrap()
            .slug
    };
    // A torn final line after the newest point, and an empty tail beside
    // sealed segments.
    let tail = dir.join(format!("1s/{}/open.seg", slug("tail_total")));
    let mut f = fs::OpenOptions::new().append(true).open(&tail).unwrap();
    f.write_all(b"{\"t\":900,\"kind\":\"coun").unwrap();
    drop(f);
    let empty = dir.join(format!("1s/{}/open.seg", slug("sealed_total")));
    assert!(!empty.exists());
    fs::write(&empty, b"").unwrap();
    assert_eq!(oracle::newest_t(&dir), Some(120));
    assert_eq!(LtsReader::open(&dir).newest_t(), Some(120));

    // A tail far longer than the piece the reader looks at first, ending
    // in lines that do not decode.
    let store = LtsStore::open(&dir, cfg, LtsCounters::detached()).unwrap();
    agree(&store, Some(120), "reopened over a torn and an empty tail");
    drop(store);
    let mut long = String::new();
    for t in 200..1_200 {
        long.push_str(&format!("{{\"t\":{t},\"kind\":\"gauge\",\"v\":{t}}}\n"));
    }
    long.push_str(&"x".repeat(20_000));
    long.push('\n');
    fs::write(dir.join(format!("1s/{}/open.seg", slug("young"))), long).unwrap();
    assert_eq!(oracle::newest_t(&dir), Some(1_199));
    assert_eq!(LtsReader::open(&dir).newest_t(), Some(1_199));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Exact integers
// ---------------------------------------------------------------------

#[test]
fn integers_above_2_53_read_the_same_from_every_representation() {
    const ODD: u64 = (1 << 53) + 1;
    let dir = tmpdir("exact");
    let cfg = config(8, KEEP_ALL);
    let mut store = LtsStore::open(&dir, cfg.clone(), LtsCounters::detached()).unwrap();
    let append = |store: &mut LtsStore, t: u64, first: bool| {
        // One point a minute: every point is its own `1m` window, and
        // the hourly sums stay inside `u64`.
        let big = if first { u64::MAX - 1 } else { 0 };
        store.append("big_total", t, PointValue::Counter(big));
        store.append("odd_total", t, PointValue::Counter(ODD));
        store.append("low", t, PointValue::Gauge(i64::MIN + 1));
        let mut h = Histogram::new().to_state();
        (h.count, h.sum, h.min, h.max) = (1, ODD, ODD, ODD);
        h.buckets = vec![(400, 1)];
        store.append("h_ns", t, PointValue::Histogram(h));
    };
    for i in 0..4 {
        append(&mut store, 6_000 + i * 60, i == 0);
    }
    store.flush().unwrap();

    // Through the open tail: exact.
    let reader = LtsReader::open(&dir);
    let points = |name: &str| {
        let info = reader.index().into_iter().find(|i| i.name == name).unwrap();
        reader.series_points(&info, Resolution::Raw1s, 0, 6_000 + 3 * 60)
    };
    let snapshot = || ["big_total", "odd_total", "low", "h_ns"].map(&points);
    let from_tail = snapshot();
    assert_eq!(from_tail[0][0].value, PointValue::Counter(u64::MAX - 1));
    assert_eq!(from_tail[1][3].value, PointValue::Counter(ODD));
    assert_eq!(from_tail[2][0].value, PointValue::Gauge(i64::MIN + 1));
    let PointValue::Histogram(h) = &from_tail[3][0].value else {
        panic!("histogram expected");
    };
    assert_eq!((h.sum, h.min, h.max), (ODD, ODD, ODD));
    let text = reader.query("*", 0, 6_000 + 3 * 60, Resolution::Raw1s);
    for exact in [
        "18446744073709551614",
        "9007199254740993",
        "-9223372036854775807",
    ] {
        assert!(text.contains(exact), "{exact} in {text}");
    }

    // Force the seal: the same points now come from a binary segment.
    for i in 4..8 {
        append(&mut store, 6_000 + i * 60, false);
    }
    let report = store.flush().unwrap();
    assert_eq!(report.segments_sealed, 4, "the four raw tails");
    assert_eq!(snapshot(), from_tail, "after the seal");
    drop(store);

    let whole = full_query(&dir);
    let store = LtsStore::open(&dir, cfg, LtsCounters::detached()).unwrap();
    drop(store);
    assert_eq!(snapshot(), from_tail, "after a reopen");
    assert_eq!(full_query(&dir), whole);

    let report = verify_store(&dir).unwrap();
    assert!(report.issues.is_empty(), "{:?}", report.issues);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The query source's index
// ---------------------------------------------------------------------

#[test]
fn one_source_follows_the_index_across_queries() {
    let dir = tmpdir("index-cache");
    let cfg = config(64, KEEP_ALL);
    let mut store = LtsStore::open(&dir, cfg.clone(), LtsCounters::detached()).unwrap();
    let engine =
        QueryEngine::new().with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
    let samples = |query: &str| match engine.instant(query, 1_010, Resolution::Raw1s) {
        Ok(out) => match out.result {
            QueryResult::Vector(v) => v.len(),
            other => panic!("{query}: {other:?}"),
        },
        Err(e) => panic!("{query}: {e}"),
    };
    assert_eq!(samples("a_total"), 0, "nothing flushed yet");
    for t in 1_000..1_010 {
        store.append("a_total", t, PointValue::Counter(1));
    }
    store.flush().unwrap();
    assert_eq!(samples("a_total"), 1);
    assert_eq!(samples("b_total"), 0);

    // A series that first appears between two queries.
    for name in ["b_total", "c_total"] {
        store.append(name, 1_009, PointValue::Counter(7));
    }
    store.flush().unwrap();
    assert_eq!(samples("b_total"), 1);
    assert_eq!(samples("c_total"), 1);
    drop(store);

    // A foreign line in the middle of the index: readers pass over it,
    // recovery cuts the index there, and the series after the cut stop
    // being served.
    let index = dir.join("series.idx");
    let lines: Vec<String> = fs::read_to_string(&index)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    let (kept, cut): (Vec<&String>, Vec<&String>) =
        lines.iter().partition(|l| !l.contains("c_total"));
    assert_eq!((kept.len(), cut.len()), (2, 1));
    fs::write(
        &index,
        format!("{}\n{}\nnot an index line\n{}\n", kept[0], kept[1], cut[0]),
    )
    .unwrap();
    assert_eq!(samples("c_total"), 1, "readers skip what they cannot parse");
    let mut store = LtsStore::open(&dir, cfg, LtsCounters::detached()).unwrap();
    assert_eq!(store.take_warnings().len(), 1);
    assert_eq!(samples("c_total"), 0, "the truncated index was read again");
    assert_eq!(samples("a_total"), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_query_sources_newest_t_follows_the_store() {
    let dir = tmpdir("source-newest");
    let cfg = config(4, KEEP_ALL);
    let mut store = LtsStore::open(&dir, cfg, LtsCounters::detached()).unwrap();
    // One source throughout: it answers from its cached index.
    let source = LtsSource::new(LtsReader::open(&dir));
    let agree = |want: Option<u64>, what: &str| {
        assert_eq!(oracle::newest_t(&dir), want, "{what}: full scan");
        assert_eq!(source.newest_t(), want, "{what}: query source");
    };
    agree(None, "empty store");
    for t in 10..16 {
        store.append("a_total", t, PointValue::Counter(1));
    }
    store.flush().unwrap();
    agree(Some(15), "a sealed segment and no tail");
    store.append("b_depth", 20, PointValue::Gauge(-1));
    store.flush().unwrap();
    agree(Some(20), "a series the cached index had not seen");
    drop(store);
    let slug = &LtsReader::open(&dir).index()[1].slug;
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(dir.join(format!("1s/{slug}/open.seg")))
        .unwrap();
    f.write_all(b"{\"t\":900,\"kind\":\"gau").unwrap();
    agree(Some(20), "a torn final line");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Tails read from their end
// ---------------------------------------------------------------------

/// Holds every raw window `[start, end]` of `c_total` to the forward
/// scan, and the fold over `(start, end]` too wherever it answers.
/// Returns whether it answered everywhere.
fn reads_agree(dir: &Path, starts: &[u64], ends: &[u64], what: &str) -> bool {
    let raw = Resolution::Raw1s;
    let reader = LtsReader::open(dir);
    let info = reader
        .index()
        .into_iter()
        .find(|i| i.name == "c_total")
        .unwrap();
    let mut folded = true;
    for &start in starts {
        for &end in ends.iter().filter(|e| **e >= start) {
            assert_eq!(
                reader.series_points(&info, raw, start, end),
                oracle::series_points(dir, &info, raw, start, end),
                "{what}: [{start}, {end}]"
            );
            folded &= oracle::fold_agrees(dir, &info, raw, Some(start), end);
        }
    }
    folded
}

#[test]
fn hand_made_tails_read_like_a_forward_scan() {
    let dir = tmpdir("tail-walk");
    let cfg = config(8, KEEP_ALL);
    let mut store = LtsStore::open(&dir, cfg, LtsCounters::detached()).unwrap();
    for t in 100..108 {
        store.append("c_total", t, PointValue::Counter(t));
    }
    assert_eq!(store.flush().unwrap().segments_sealed, 1);
    for t in 108..111 {
        store.append("c_total", t, PointValue::Counter(t));
    }
    store.flush().unwrap();
    drop(store);
    let slug = LtsReader::open(&dir).index()[0].slug.clone();
    let sdir = dir.join("1s").join(slug);
    let tail = sdir.join("open.seg");
    let line = |t: u64| format!("{{\"t\":{t},\"kind\":\"counter\",\"v\":{t}}}\n");
    let lines = |ts: &[u64]| ts.iter().map(|t| line(*t)).collect::<String>();
    let all = [0, 99, 100, 104, 107, 108, 109, 110, 111, u64::MAX];

    // A sealed segment and a tail far shorter than one piece.
    assert!(reads_agree(&dir, &all, &all, "as written"));

    // A torn final line.
    let written = fs::read_to_string(&tail).unwrap();
    fs::write(&tail, format!("{written}{{\"t\":111,\"kind\":\"coun")).unwrap();
    assert!(reads_agree(&dir, &all, &all, "torn final line"));

    // Blank lines and lines that do not decode, mid-tail.
    let damaged = format!(
        "{}\n\nnot json\n{}{{\"t\":1}}\n \t\r\n{}",
        line(108),
        line(109),
        line(110)
    );
    fs::write(&tail, damaged).unwrap();
    assert!(reads_agree(&dir, &all, &all, "blank and undecodable lines"));

    // No tail, and an empty one.
    fs::remove_file(&tail).unwrap();
    assert!(reads_agree(&dir, &all, &all, "missing tail"));
    fs::write(&tail, "").unwrap();
    assert!(reads_agree(&dir, &all, &all, "empty tail"));

    // Many pieces, with lines that decode and one that does not each
    // longer than a piece — the last longer than the first two pieces
    // together — so that line ends fall anywhere in a piece or in none.
    let padded = |t: u64, pad: usize| {
        let pad = "x".repeat(pad);
        format!("{{\"t\":{t},\"pad\":\"{pad}\",\"kind\":\"counter\",\"v\":5}}\n")
    };
    let mut long = String::new();
    for t in 108..3_000u64 {
        match t {
            1_000 => long.push_str(&padded(t, 20_000)),
            2_000 => long.push_str(&format!("{}\n", "y".repeat(20_000))),
            _ => long.push_str(&line(t)),
        }
    }
    long.push_str(&padded(3_000, 40_000));
    fs::write(&tail, &long).unwrap();
    let far = [
        0,
        107,
        108,
        999,
        1_000,
        1_001,
        1_999,
        2_000,
        2_001,
        2_999,
        3_000,
        3_001,
        u64::MAX,
    ];
    assert!(reads_agree(&dir, &far, &far, "tail of many pieces"));

    // Times that go backwards where the walk reads them: no writer
    // leaves that (`verify` says so), the fold stands down and the read
    // goes forward over the whole file.
    fs::write(&tail, lines(&[108, 109, 115, 112, 116, 116, 120])).unwrap();
    let issues = verify_store(&dir).unwrap().issues;
    assert!(
        issues.iter().any(|i| i.contains("time not increasing")),
        "{issues:?}"
    );
    let folded = reads_agree(&dir, &[0, 104, 108, 112], &all, "times go backwards");
    assert!(!folded, "the fold answered over a tail out of order");
    assert!(reads_agree(
        &dir,
        &[117, 120, 121],
        &all,
        "disorder before the window"
    ));

    // What a crash between sealing a tail and removing it leaves: the
    // sealed points once more, then newer ones. Reads keep the first
    // copy of each; the fold stands down.
    fs::write(
        &tail,
        lines(&[100, 101, 102, 103, 104, 105, 106, 107, 108, 109]),
    )
    .unwrap();
    assert!(!reads_agree(&dir, &all, &all, "stale tail"));
    fs::write(&tail, lines(&[106, 107, 108])).unwrap();
    assert!(!reads_agree(
        &dir,
        &all,
        &all,
        "tail overlapping the sealed range"
    ));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Seals ≡ the oracle's encoding of the lines a never-sealing twin keeps
// ---------------------------------------------------------------------

/// One step in the life of a pair of stores.
#[derive(Debug, Clone)]
enum TailOp {
    /// Points this many seconds apart, to every series.
    Append(Vec<u64>),
    Flush,
    /// The writer is dropped (what it had not flushed is lost) and the
    /// store opened again, after a crash mid-append if `torn`.
    Reopen {
        torn: bool,
    },
    /// The sealing store compacts (a flush first); its twin flushes.
    Compact,
}

/// Runs `ops` on a store sealing every `seal_points` points beside a
/// twin that never seals, so the twin's tails hold every line the store
/// ever wrote. After every step the sealing store must be its twin file
/// for file: the same index, each sealed `.bin` the oracle's v2 encoding
/// of exactly the twin's points in its `[first, last]` — whichever
/// process began the tail, however many flushes it spanned — every
/// point sealed or in the tail, and each tail, byte for byte, the twin's
/// lines past the last seal. Returns the sealing store's files at the
/// end.
fn binary_store_is_its_jsonl_twin_sealed_by_the_oracle(
    seal_points: usize,
    ops: &[TailOp],
) -> BTreeMap<String, Vec<u8>> {
    let dirs = [tmpdir("seal-bin"), tmpdir("seal-tails")];
    let open = || {
        [seal_points, usize::MAX].map(|seal_points| {
            let dir = &dirs[usize::from(seal_points == usize::MAX)];
            LtsStore::open(dir, config(seal_points, KEEP_ALL), LtsCounters::detached()).unwrap()
        })
    };
    let mut stores = Some(open());
    let mut t = 1_700_000_000u64;
    for (step, op) in ops.iter().enumerate() {
        let pair = stores.as_mut().unwrap();
        match op {
            TailOp::Append(gaps) => {
                for gap in gaps {
                    t += gap;
                    // Counters past 2^53, gauges below zero, histograms
                    // empty and not.
                    let c = if t.is_multiple_of(3) {
                        (1 << 53) + t % 1_000
                    } else {
                        t % 17
                    };
                    let h: Vec<u64> = (0..t % 4).map(|k| (t % 13 + k) * 100).collect();
                    for store in pair.iter_mut() {
                        store.append("c_total", t, PointValue::Counter(c));
                        store.append("depth", t, PointValue::Gauge((t % 97) as i64 - 60));
                        store.append("lat_ns", t, hist(&h));
                    }
                }
                continue;
            }
            TailOp::Flush => pair.iter_mut().for_each(|s| {
                s.flush().unwrap();
            }),
            TailOp::Compact => {
                pair[0].compact().unwrap();
                pair[1].flush().unwrap();
            }
            TailOp::Reopen { torn } => {
                drop(stores.take());
                for dir in dirs.iter().filter(|_| *torn) {
                    for tail in tree(dir).keys().filter(|p| p.ends_with("/open.seg")) {
                        let f = fs::OpenOptions::new().append(true).open(dir.join(tail));
                        f.unwrap().write_all(b"{\"t\":17000").unwrap();
                    }
                }
                stores = Some(open());
            }
        }
        let kinds: BTreeMap<String, _> = LtsReader::open(&dirs[1])
            .index()
            .into_iter()
            .map(|i| (i.slug, i.kind))
            .collect();
        let twin = tree(&dirs[1]);
        let mut sealing = tree(&dirs[0]);
        assert_eq!(
            sealing.remove("series.idx"),
            twin.get("series.idx").cloned(),
            "step {step}, {op:?}: index"
        );
        for (path, lines) in &twin {
            let Some(series) = path.strip_suffix("/open.seg") else {
                assert_eq!(path, "series.idx", "step {step}, {op:?}: twin sealed");
                continue;
            };
            let kind = kinds[series.split('/').nth(1).unwrap()];
            let lines: Vec<(Point, &str)> = std::str::from_utf8(lines)
                .unwrap()
                .split_inclusive('\n')
                .map(|l| (decode_point_line(l.trim_end()).unwrap(), l))
                .collect();
            let mut sealed_last = None;
            let mut covered = 0;
            let segs: Vec<String> = sealing
                .keys()
                .filter(|p| p.starts_with(&format!("{series}/seg-")))
                .cloned()
                .collect();
            for seg in segs {
                let bytes = sealing.remove(&seg).unwrap();
                let range = seg.rsplit('/').next().unwrap();
                let range = range.strip_prefix("seg-").unwrap().strip_suffix(".bin");
                let (first, last) = range.unwrap().split_once('-').unwrap();
                let (first, last) = (first.parse().unwrap(), last.parse::<u64>().unwrap());
                let pts: Vec<Point> = lines
                    .iter()
                    .map(|(p, _)| p.clone())
                    .filter(|p| (first..=last).contains(&p.t))
                    .collect();
                covered += pts.len();
                sealed_last = sealed_last.max(Some(last));
                assert!(
                    bytes == oracle::encode_segment_v2(kind, &pts),
                    "step {step}, {op:?}: {seg}"
                );
            }
            let rest: String = lines
                .iter()
                .filter(|(p, _)| sealed_last.is_none_or(|s| p.t > s))
                .map(|(_, l)| *l)
                .collect();
            assert_eq!(
                covered + rest.lines().count(),
                lines.len(),
                "step {step}, {op:?}: {series} lost a point"
            );
            let tail = sealing.remove(&format!("{series}/open.seg"));
            assert_eq!(
                tail.map(String::from_utf8),
                (!rest.is_empty()).then_some(Ok(rest)),
                "step {step}, {op:?}: {series} tail"
            );
        }
        assert!(sealing.is_empty(), "step {step}, {op:?}: {sealing:?}");
    }
    drop(stores);
    assert_eq!(verify_store(&dirs[0]).unwrap().issues, Vec::<String>::new());
    let files = tree(&dirs[0]);
    for dir in &dirs {
        let _ = fs::remove_dir_all(dir);
    }
    files
}

/// The case the seal used to re-read the tail for: begun by one
/// process, torn by its crash, sealed by the next.
#[test]
fn a_tail_begun_by_one_process_is_sealed_by_the_next_from_memory() {
    let files = binary_store_is_its_jsonl_twin_sealed_by_the_oracle(
        10,
        &[
            TailOp::Append(vec![1; 7]),
            TailOp::Flush,
            TailOp::Reopen { torn: true },
            TailOp::Append(vec![1; 7]),
            TailOp::Flush,
        ],
    );
    let sealed: Vec<&String> = files.keys().filter(|p| p.ends_with(".bin")).collect();
    assert_eq!(sealed.len(), 3, "{sealed:?}");
    assert!(sealed.iter().all(|p| p.starts_with("1s/")), "{sealed:?}");
    assert!(!files
        .keys()
        .any(|p| p.starts_with("1s/") && p.ends_with("open.seg")));
}

fn tail_op() -> impl Strategy<Value = TailOp> {
    let gap = prop_oneof![1u64..4, 1u64..4, 1u64..4, 20u64..200, 1_000u64..5_000];
    prop_oneof![
        prop::collection::vec(gap, 1..30).prop_map(TailOp::Append),
        prop::collection::vec(1u64..3, 1..30).prop_map(TailOp::Append),
        Just(TailOp::Flush),
        Just(TailOp::Flush),
        any::<bool>().prop_map(|torn| TailOp::Reopen { torn }),
        Just(TailOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_binary_seal_is_the_oracles_encoding_of_its_tail(
        seal_points in 5usize..=50,
        ops in prop::collection::vec(tail_op(), 10..50),
    ) {
        let mut ops = ops;
        ops.push(TailOp::Flush);
        binary_store_is_its_jsonl_twin_sealed_by_the_oracle(seal_points, &ops);
    }
}

// ---------------------------------------------------------------------
// A sealed v1 segment is refused, not half-read
// ---------------------------------------------------------------------

#[test]
fn a_store_holding_a_v1_segment_is_refused_by_every_entry() {
    let dir = tmpdir("v1");
    // Tails only: every series directory holds an `open.seg` and nothing
    // else, and that store opens.
    let mut store =
        LtsStore::open(&dir, config(usize::MAX, KEEP_ALL), LtsCounters::detached()).unwrap();
    for t in 100..110 {
        store.append("c_total", t, PointValue::Counter(t));
        store.append("depth", t, PointValue::Gauge(-(t as i64)));
    }
    store.flush().unwrap();
    drop(store);
    let written = tree(&dir);
    assert!(written.keys().any(|p| p.ends_with("/open.seg")));
    assert!(!written.keys().any(|p| p.contains("/seg-")));
    let mut store =
        LtsStore::open(&dir, config(usize::MAX, KEEP_ALL), LtsCounters::detached()).unwrap();
    assert!(store.take_warnings().is_empty());
    drop(store);
    assert!(tree(&dir) == written, "opening a tails-only store wrote");
    let answers = full_query(&dir);

    let slug = &LtsReader::open(&dir).index()[1].slug;
    let v1 = dir.join(format!("1s/{slug}/seg-000000000100-000000000104.seg"));
    let lines: String = (100..105)
        .map(|t| format!("{{\"t\":{t},\"kind\":\"gauge\",\"v\":{t}}}\n"))
        .collect();
    fs::write(&v1, lines).unwrap();
    let on_disk = tree(&dir);
    let refused = |what: &str, err: std::io::Error| {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        let msg = err.to_string();
        assert!(msg.contains(&v1.display().to_string()), "{what}: {msg}");
        assert!(msg.contains("no longer read"), "{what}: {msg}");
        assert!(tree(&dir) == on_disk, "{what} changed the store");
    };
    let opened = LtsStore::open(&dir, config(4, KEEP_ALL), LtsCounters::detached());
    refused("open", opened.err().unwrap());
    refused("verify", verify_store(&dir).unwrap_err());
    refused("stats", store_stats(&dir).unwrap_err());
    refused("compact", compact_store(&dir).unwrap_err());

    fs::remove_file(&v1).unwrap();
    assert_eq!(full_query(&dir), answers);
    let _ = fs::remove_dir_all(&dir);
}
