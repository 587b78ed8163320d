//! The in-simulation load generator: a [`UdpApp`] that executes a
//! [`LoadProfile`] against a destination host's DISCARD port.
//!
//! The generator wakes on a fixed tick (default 10 ms), reads the
//! commanded rate for *now*, and emits the accumulated byte quota as UDP
//! datagrams of at most `chunk_bytes` payload each. Accumulation in
//! fractional bytes makes the long-run average rate exact even when the
//! per-tick quota is not an integral number of chunks.

use crate::profile::LoadProfile;
use bytes::Bytes;
use netqos_sim::app::{AppCtx, UdpApp};
use netqos_sim::packet::DISCARD_PORT;
use netqos_sim::time::SimDuration;
use netqos_sim::Ipv4Addr;

/// A profile-driven UDP traffic source.
pub struct ProfiledSource {
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
    /// Destination UDP port (DISCARD by default).
    pub dst_port: u16,
    /// Source port stamped on emitted datagrams.
    pub src_port: u16,
    /// The schedule.
    pub profile: LoadProfile,
    /// Tick between emissions.
    pub tick: SimDuration,
    /// Max payload bytes per datagram (the paper's generator used packets
    /// near the MTU; default 1400).
    pub chunk_bytes: usize,
    /// `chunk_bytes` zeros, shared by every datagram sent while that is
    /// the chunk size: a send clones a reference, not the payload.
    zeros: Bytes,
    carry: f64,
    sent_bytes: u64,
}

impl ProfiledSource {
    /// Creates a generator toward the DISCARD port of `dst_ip`.
    pub fn new(dst_ip: Ipv4Addr, profile: LoadProfile) -> Self {
        ProfiledSource {
            dst_ip,
            dst_port: DISCARD_PORT,
            src_port: 20000,
            profile,
            tick: SimDuration::from_millis(10),
            chunk_bytes: 1400,
            zeros: Bytes::new(),
            carry: 0.0,
            sent_bytes: 0,
        }
    }

    /// Application bytes emitted so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }
}

impl UdpApp for ProfiledSource {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.schedule(self.tick, 0);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _token: u64) {
        let rate = self.profile.rate_at(ctx.now());
        if rate > 0 {
            self.carry += rate as f64 * self.tick.as_secs_f64();
            while self.carry >= self.chunk_bytes as f64 {
                self.carry -= self.chunk_bytes as f64;
                self.sent_bytes += self.chunk_bytes as u64;
                if self.zeros.len() != self.chunk_bytes {
                    self.zeros = Bytes::from(vec![0u8; self.chunk_bytes]);
                }
                ctx.send_udp(
                    self.src_port,
                    self.dst_ip,
                    self.dst_port,
                    self.zeros.clone(),
                );
            }
        } else {
            // Drop any sub-chunk remainder when the profile goes silent so
            // a later segment starts clean.
            self.carry = 0.0;
        }
        // Keep ticking while the profile can still produce load.
        let done = match self.profile.end_s() {
            Some(end) => ctx.now().as_secs_f64() > end as f64 + 1.0,
            None => true,
        };
        if !done {
            ctx.schedule(self.tick, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netqos_sim::app::DiscardSink;
    use netqos_sim::builder::LanBuilder;
    use netqos_sim::time::SimTime;
    use netqos_sim::PortIx;

    fn run_profile(profile: LoadProfile, seconds: u64) -> u64 {
        let src = ProfiledSource::new("10.0.0.2".parse().unwrap(), profile);
        run_source(src, seconds).1
    }

    /// Datagrams and payload bytes `src` delivers to B's DISCARD sink.
    fn run_source(src: ProfiledSource, seconds: u64) -> (u64, u64) {
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.add_nic(a, "eth0", 100_000_000).unwrap();
        let d = b.add_host("B", "10.0.0.2").unwrap();
        b.add_nic(d, "eth0", 100_000_000).unwrap();
        b.connect((a, PortIx(0)), (d, PortIx(0))).unwrap();
        let (sink, handle) = DiscardSink::with_handle();
        b.install_app(d, Box::new(sink), Some(DISCARD_PORT))
            .unwrap();
        b.install_app(a, Box::new(src), None).unwrap();
        let mut lan = b.build();
        lan.run_until(SimTime::ZERO + SimDuration::from_secs(seconds));
        let stats = handle.borrow();
        (stats.datagrams, stats.payload_bytes)
    }

    #[test]
    fn constant_profile_delivers_commanded_volume() {
        // 100 KB/s for 20 s -> 2 MB ± 2%.
        let got = run_profile(LoadProfile::pulse(0, 20, 100_000), 25) as f64;
        let expect = 2_000_000.0;
        assert!((got - expect).abs() / expect < 0.02, "got {got}");
    }

    #[test]
    fn staircase_total_volume_matches_profile() {
        let p = LoadProfile::staircase(2, 50_000, 50_000, 4, 3);
        let expect = p.total_bytes() as f64; // 4s*(50+100+150) KB = 1.2 MB
        let got = run_profile(p, 20) as f64;
        assert!(
            (got - expect).abs() / expect < 0.02,
            "got {got} vs {expect}"
        );
    }

    #[test]
    fn silent_profile_sends_nothing() {
        assert_eq!(run_profile(LoadProfile::silent(), 5), 0);
    }

    #[test]
    fn pulse_respects_start_time() {
        // Pulse only in [10, 12): nothing should arrive in the first 10 s.
        let got = run_profile(LoadProfile::pulse(10, 12, 100_000), 9);
        assert_eq!(got, 0);
    }

    #[test]
    fn every_datagram_carries_the_chunk_size_it_was_sent_with() {
        for chunk_bytes in [1400, 500] {
            let mut src = ProfiledSource::new(
                "10.0.0.2".parse().unwrap(),
                LoadProfile::pulse(0, 5, 100_000),
            );
            src.chunk_bytes = chunk_bytes;
            let (datagrams, bytes) = run_source(src, 6);
            assert!(datagrams > 0);
            assert_eq!(bytes, datagrams * chunk_bytes as u64, "{chunk_bytes}");
        }
    }

    #[test]
    fn sub_chunk_rates_average_out() {
        // 1 KB/s with 1400-byte chunks: one chunk every 1.4 s, so 9 or 10
        // chunks depending on tick alignment at the profile boundary.
        let got = run_profile(LoadProfile::pulse(0, 14, 1_000), 20);
        assert!(got == 9 * 1400 || got == 10 * 1400, "got {got}");
    }
}
