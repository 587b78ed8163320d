//! Counter and uptime delta arithmetic (paper §3.1).
//!
//! MIB-II counters are cumulative and wrap at 2^32; `sysUpTime` is in
//! hundredths of a second and also wraps (after ~497 days). The monitor
//! subtracts consecutive polls of both to obtain per-interval rates:
//!
//! > "Because the polling results are cumulative numbers, this data has to
//! > be polled periodically. The old value is subtracted from the new one
//! > to determine statistics for the polling interval. The time interval
//! > between two polling processes can be found using the system uptime
//! > data."

/// Wrap-safe difference of two Counter32 samples: the delta modulo 2^32,
/// so a rollover (`new < old`) still yields the true increment as long as
/// the counter wrapped at most once between polls.
#[inline]
pub fn counter_delta(old: u32, new: u32) -> u32 {
    new.wrapping_sub(old)
}

/// Whether two consecutive Counter32 samples crossed the 2^32 boundary.
/// At 100 Mb/s an `ifInOctets` counter wraps every ~5.7 minutes, so this
/// is routine operation, not an anomaly — but it is worth counting, since
/// a poll period longer than one wrap interval would silently undercount
/// ([`wraps_ambiguous`] is how the monitor refuses such a rate).
#[inline]
pub fn counter_wrapped(old: u32, new: u32) -> bool {
    new < old
}

/// Whether an interface of `speed_bps` could have carried 2^32 octets or
/// more in `interval_ticks`: then its Counter32 may have wrapped more than
/// once, the number of wraps cannot be known, and no rate formed from the
/// modular delta can be trusted.
#[inline]
pub fn wraps_ambiguous(speed_bps: u64, interval_ticks: u32) -> bool {
    // octets = speed / 8 * ticks / 100, compared without rounding.
    speed_bps.saturating_mul(u64::from(interval_ticks)) >= 800 << 32
}

/// Wrap-safe difference of two TimeTicks samples, in ticks (10 ms units).
#[inline]
pub fn ticks_delta(old: u32, new: u32) -> u32 {
    new.wrapping_sub(old)
}

/// Longest plausible gap between two polls of the same device: one hour
/// in TimeTicks. Distinguishes the ~497-day `sysUpTime` wrap from a
/// reboot: a genuine wrap crossed by a poll yields a wrapping delta of at
/// most the poll interval (old hugs `u32::MAX`, new sits just past zero),
/// while a reboot resets uptime to ~0 from an arbitrary point, making the
/// wrapping delta `2^32 - old + new` — far beyond any real interval
/// unless the device happened to reboot right at the wrap boundary,
/// where the two cases are genuinely indistinguishable.
const MAX_PLAUSIBLE_INTERVAL_TICKS: u32 = 360_000;

/// Whether a `sysUpTime` step indicates the device rebooted between
/// polls. Rates must not be formed across a reboot: the counters
/// restarted from zero, so their deltas are garbage and the real elapsed
/// time is unknowable (the uptime delta is non-positive in real time
/// even though the wrapping tick delta is huge).
#[inline]
pub fn uptime_reset(old: u32, new: u32) -> bool {
    new < old && ticks_delta(old, new) > MAX_PLAUSIBLE_INTERVAL_TICKS
}

/// Converts an octet delta over a tick interval into bits per second.
/// Returns `None` when the interval is zero (two polls inside the same
/// 10 ms tick cannot produce a rate).
#[inline]
pub fn rate_bps(octets_delta: u32, interval_ticks: u32) -> Option<u64> {
    if interval_ticks == 0 {
        return None;
    }
    // bits = octets * 8; seconds = ticks / 100.
    Some((octets_delta as u64 * 8 * 100) / interval_ticks as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_delta() {
        assert_eq!(counter_delta(1000, 2500), 1500);
    }

    #[test]
    fn wrap_delta() {
        assert_eq!(counter_delta(u32::MAX - 99, 100), 200);
        assert_eq!(ticks_delta(u32::MAX, 9), 10);
    }

    #[test]
    fn rate_conversion() {
        // 125_000 octets in 100 ticks (1 s) = 1 Mb/s.
        assert_eq!(rate_bps(125_000, 100), Some(1_000_000));
        // Same octets in 2 s = 500 kb/s.
        assert_eq!(rate_bps(125_000, 200), Some(500_000));
        // 10 ms interval scales up.
        assert_eq!(rate_bps(1_250, 1), Some(1_000_000));
    }

    #[test]
    fn zero_interval_yields_none() {
        assert_eq!(rate_bps(1000, 0), None);
    }

    #[test]
    fn wrap_detection() {
        assert!(!counter_wrapped(1000, 2500));
        assert!(counter_wrapped(u32::MAX - 99, 100));
        // A counter standing still did not wrap.
        assert!(!counter_wrapped(500, 500));
    }

    #[test]
    fn rate_across_wrap_boundary() {
        // ifInOctets rolls over between polls: old near the top, new past
        // zero. The modular delta is 125_000 octets over 1 s = 1 Mb/s —
        // not the huge value a naive `new - old` as i64 would produce.
        let old = u32::MAX - 100_000;
        let new = 24_999u32;
        assert!(counter_wrapped(old, new));
        let d = counter_delta(old, new);
        assert_eq!(d, 125_000);
        assert_eq!(rate_bps(d, 100), Some(1_000_000));
    }

    #[test]
    fn wraps_become_ambiguous_at_2_pow_32_octets_per_interval() {
        // 100 Mb/s moves 12.5 MB/s: 2^32 octets take 343.597 s.
        assert!(!wraps_ambiguous(100_000_000, 34_359));
        assert!(wraps_ambiguous(100_000_000, 34_360));
        // 10 Gb/s wraps every 3.44 s.
        assert!(!wraps_ambiguous(10_000_000_000, 343));
        assert!(wraps_ambiguous(10_000_000_000, 344));
        // Exactly 2^32 octets is already ambiguous: zero or one wrap.
        assert!(wraps_ambiguous(8 << 32, 100));
        assert!(!wraps_ambiguous((8 << 32) - 1, 100));
        // An unknown (zero) speed never flags.
        assert!(!wraps_ambiguous(0, u32::MAX));
    }

    #[test]
    fn reboot_vs_genuine_uptime_wrap() {
        // Reboot: uptime fell backwards from anywhere in the range.
        assert!(uptime_reset(1_000_000, 50));
        assert!(uptime_reset(u32::MAX / 2, 100));
        assert!(uptime_reset(3_000_000_000, 0));
        // Genuine 497-day wrap: old hugs the boundary, delta is small.
        assert!(!uptime_reset(u32::MAX - 49, 50));
        assert!(!uptime_reset(u32::MAX - 100, 359_000));
        // Normal forward progress.
        assert!(!uptime_reset(100, 200));
        assert!(!uptime_reset(100, 100));
    }

    #[test]
    fn rate_handles_max_counter_delta() {
        // Full 2^32-1 octet wrap in one second must not overflow u64.
        let r = rate_bps(u32::MAX, 100).unwrap();
        assert_eq!(r, u32::MAX as u64 * 8);
    }
}
