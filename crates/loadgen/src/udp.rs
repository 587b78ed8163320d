//! Real-socket load generation, for exercising the monitor against live
//! agents (the "distributed monitoring" deployment).
//!
//! [`UdpLoadGenerator::run_blocking`] executes a [`LoadProfile`] against a
//! real destination with wall-clock pacing. Like the paper's generator it
//! sends UDP datagrams to the DISCARD port and reports the achieved
//! application rate (which excludes the 28 bytes/packet of UDP/IP header
//! overhead the network additionally carries).

use crate::profile::LoadProfile;
use netqos_sim::time::SimTime;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// A wall-clock UDP load generator.
pub struct UdpLoadGenerator {
    /// Destination address (e.g. `"127.0.0.1:9"`).
    pub dest: SocketAddr,
    /// The schedule.
    pub profile: LoadProfile,
    /// Payload bytes per datagram.
    pub chunk_bytes: usize,
    /// Pacing tick.
    pub tick: Duration,
}

/// Outcome of a finished generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenReport {
    /// Application bytes sent.
    pub bytes_sent: u64,
    /// Datagrams sent.
    pub datagrams: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl UdpLoadGenerator {
    /// Creates a generator.
    pub fn new(dest: impl ToSocketAddrs, profile: LoadProfile) -> std::io::Result<Self> {
        let dest = dest
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("destination resolved to nothing"))?;
        Ok(UdpLoadGenerator {
            dest,
            profile,
            chunk_bytes: 1400,
            tick: Duration::from_millis(10),
        })
    }

    /// Runs the whole profile to completion (or `max_wall` if sooner),
    /// blocking the calling thread.
    pub fn run_blocking(&self, max_wall: Duration) -> std::io::Result<GenReport> {
        let socket = UdpSocket::bind("0.0.0.0:0")?;
        socket.connect(self.dest)?;
        let chunk = vec![0u8; self.chunk_bytes];
        let start = Instant::now();
        let mut carry = 0.0f64;
        let mut bytes_sent = 0u64;
        let mut datagrams = 0u64;
        let profile_end = self.profile.end_s().unwrap_or(0);

        loop {
            let elapsed = start.elapsed();
            if elapsed > max_wall || elapsed.as_secs() >= profile_end {
                break;
            }
            let sim_now = SimTime::from_micros(elapsed.as_micros() as u64);
            let rate = self.profile.rate_at(sim_now);
            if rate > 0 {
                carry += rate as f64 * self.tick.as_secs_f64();
                while carry >= self.chunk_bytes as f64 {
                    carry -= self.chunk_bytes as f64;
                    socket.send(&chunk)?;
                    bytes_sent += self.chunk_bytes as u64;
                    datagrams += 1;
                }
            } else {
                carry = 0.0;
            }
            std::thread::sleep(self.tick);
        }
        Ok(GenReport {
            bytes_sent,
            datagrams,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_against_a_real_socket() {
        // A local sink plays DISCARD.
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let dest = sink.local_addr().unwrap();

        let profile = LoadProfile::pulse(0, 1, 200_000); // 200 KB/s for 1 s
        let generator = UdpLoadGenerator::new(dest, profile).unwrap();
        let handle =
            std::thread::spawn(move || generator.run_blocking(Duration::from_secs(3)).unwrap());

        let mut received = 0u64;
        let mut buf = vec![0u8; 2048];
        let deadline = Instant::now() + Duration::from_secs(3);
        while Instant::now() < deadline {
            match sink.recv(&mut buf) {
                Ok(n) => received += n as u64,
                Err(_) => {
                    if received > 0 {
                        break; // stream ended
                    }
                }
            }
        }
        let report = handle.join().unwrap();
        assert!(report.bytes_sent >= 150_000, "{report:?}");
        // Loopback should deliver nearly everything.
        assert!(received as f64 >= report.bytes_sent as f64 * 0.8);
        assert_eq!(report.bytes_sent, report.datagrams * 1400);
    }

    #[test]
    fn silent_profile_ends_immediately() {
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let generator =
            UdpLoadGenerator::new(sink.local_addr().unwrap(), LoadProfile::silent()).unwrap();
        let report = generator.run_blocking(Duration::from_secs(2)).unwrap();
        assert_eq!(report.bytes_sent, 0);
        assert!(report.elapsed < Duration::from_secs(1));
    }
}
