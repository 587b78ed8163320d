//! The `QuantileBaseline` the library shipped until its windows became
//! sparse bucket lists: two dense, lock-free `Histogram`s (496 atomic
//! buckets each, ≈ 8 KiB a baseline whatever it has seen) and a third
//! one allocated and merged into by every `quantile` once a window has
//! rotated. Every answer and every state of the sparse baseline is held
//! to this one.

use netqos_telemetry::{BaselineState, Histogram};
use parking_lot::Mutex;

struct Windows {
    active: Histogram,
    previous: Histogram,
}

/// The dense baseline.
pub struct DenseBaseline {
    window: u64,
    inner: Mutex<Windows>,
}

impl DenseBaseline {
    /// A baseline rotating after `window` samples (min 1).
    pub fn new(window: u64) -> Self {
        DenseBaseline {
            window: window.max(1),
            inner: Mutex::new(Windows {
                active: Histogram::new(),
                previous: Histogram::new(),
            }),
        }
    }

    /// Records a sample, rotating the windows when the active one fills.
    pub fn record(&self, v: u64) {
        let mut w = self.inner.lock();
        if w.active.count() >= self.window {
            w.previous = std::mem::take(&mut w.active);
        }
        w.active.record(v);
    }

    /// Percentile rank of `v` against the merged windows.
    pub fn rank(&self, v: u64) -> f64 {
        let w = self.inner.lock();
        let total = w.active.count() + w.previous.count();
        if total == 0 {
            return 0.0;
        }
        let le = w.active.count_le(v) + w.previous.count_le(v);
        (le.min(total) as f64) / total as f64
    }

    /// The value at quantile `q` over the merged windows.
    pub fn quantile(&self, q: f64) -> u64 {
        let w = self.inner.lock();
        if w.previous.count() == 0 {
            return w.active.quantile(q);
        }
        let merged = Histogram::new();
        merged.merge_from(&w.active);
        merged.merge_from(&w.previous);
        merged.quantile(q)
    }

    /// Total samples across both windows.
    pub fn count(&self) -> u64 {
        let w = self.inner.lock();
        w.active.count() + w.previous.count()
    }

    /// A serializable copy of both windows.
    pub fn to_state(&self) -> BaselineState {
        let w = self.inner.lock();
        BaselineState {
            window: self.window,
            active: w.active.to_state(),
            previous: w.previous.to_state(),
        }
    }

    /// Rebuilds a baseline from a saved state.
    pub fn from_state(state: &BaselineState) -> Self {
        DenseBaseline {
            window: state.window.max(1),
            inner: Mutex::new(Windows {
                active: Histogram::from_state(&state.active),
                previous: Histogram::from_state(&state.previous),
            }),
        }
    }
}
