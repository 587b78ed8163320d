//! Request/response transports for the synchronous manager.
//!
//! * [`LoopbackTransport`] — an in-process agent; zero configuration, used
//!   by tests and by single-host deployments.
//! * [`UdpTransport`] — real sockets on port 161 (or any port), with
//!   timeout and retry, one connected socket per agent.
//! * the simulated LAN — `netqos-monitor`'s `SimNetwork::link` is a
//!   [`Transport`] over the simulator (it needs the simulator types), so
//!   the same manager talks to simulated, in-process and real agents.
//!
//! `netqos-monitor`'s networks poll through none of these: their round
//! keeps many requests in flight over one wire, with the two halves of a
//! Get ([`Manager::encode_get`](crate::client::Manager::encode_get),
//! [`Manager::visit_answer`](crate::client::Manager::visit_answer)).

use crate::agent::SnmpAgent;
use crate::client::peek_request_id;
use crate::error::SnmpError;
use crate::mib::ScalarMib;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// A blocking request/response exchange with one agent.
pub trait Transport {
    /// Sends `request` and returns the datagram that answers it — the one
    /// carrying its request-id, not a late answer to an earlier request —
    /// or [`SnmpError::Timeout`] when the agent stays silent.
    /// Retransmission is the transport's business: a caller that gets
    /// `Timeout` does not try again.
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError>;
}

/// A borrowed transport is a transport.
impl<T: Transport + ?Sized> Transport for &mut T {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        (**self).exchange(request)
    }
}

/// In-process transport: requests are handled immediately by an owned
/// agent over an owned MIB.
pub struct LoopbackTransport {
    agent: SnmpAgent,
    mib: ScalarMib,
}

impl LoopbackTransport {
    /// Creates a loopback transport.
    pub fn new(agent: SnmpAgent, mib: ScalarMib) -> Self {
        LoopbackTransport { agent, mib }
    }

    /// Mutable access to the MIB, so tests can change counters between
    /// polls.
    pub fn mib_mut(&mut self) -> &mut ScalarMib {
        &mut self.mib
    }
}

impl Transport for LoopbackTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        crate::agent::with_answer_buffer(|answer| {
            if self.agent.handle_into(request, &self.mib, answer) {
                Ok(answer.clone())
            } else {
                Err(SnmpError::Timeout)
            }
        })
    }
}

/// A closure-backed transport for fault-injection tests: the handler may
/// drop (return `None`), delay, corrupt, or duplicate responses.
pub struct FnTransport<F>(pub F);

impl<F> Transport for FnTransport<F>
where
    F: FnMut(&[u8]) -> Option<Vec<u8>>,
{
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        (self.0)(request).ok_or(SnmpError::Timeout)
    }
}

/// UDP transport with timeout and retransmission.
pub struct UdpTransport {
    socket: UdpSocket,
    peer: SocketAddr,
    timeout: Duration,
    retries: u32,
    /// Receive buffer, one maximum-size datagram, reused by every
    /// exchange.
    recv_buf: Vec<u8>,
}

impl UdpTransport {
    /// Connects a fresh ephemeral socket to `peer` (e.g.
    /// `"127.0.0.1:10161"`). Default timeout 1 s, 2 retransmissions.
    pub fn connect(peer: impl ToSocketAddrs) -> Result<Self, SnmpError> {
        let peer = peer
            .to_socket_addrs()
            .map_err(|e| SnmpError::Transport(e.to_string()))?
            .next()
            .ok_or_else(|| SnmpError::Transport("peer address resolved to nothing".into()))?;
        let bind_addr = if peer.is_ipv4() {
            "0.0.0.0:0"
        } else {
            "[::]:0"
        };
        let socket = UdpSocket::bind(bind_addr).map_err(|e| SnmpError::Transport(e.to_string()))?;
        socket
            .connect(peer)
            .map_err(|e| SnmpError::Transport(e.to_string()))?;
        Ok(UdpTransport {
            socket,
            peer,
            timeout: Duration::from_secs(1),
            retries: 2,
            recv_buf: vec![0u8; 65_535],
        })
    }

    /// Sets the per-attempt receive timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Sets how many times a request is retransmitted after a timeout.
    pub fn set_retries(&mut self, retries: u32) {
        self.retries = retries;
    }

    /// The agent address this transport talks to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }
}

impl Transport for UdpTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError> {
        let wanted = peek_request_id(request)
            .ok_or_else(|| SnmpError::Transport("request carries no request-id".into()))?;
        for _ in 0..=self.retries {
            self.socket
                .send(request)
                .map_err(|e| SnmpError::Transport(e.to_string()))?;
            let deadline = Instant::now() + self.timeout;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                self.socket
                    .set_read_timeout(Some(remaining))
                    .map_err(|e| SnmpError::Transport(e.to_string()))?;
                match self.socket.recv(&mut self.recv_buf) {
                    Ok(n) if peek_request_id(&self.recv_buf[..n]) == Some(wanted) => {
                        return Ok(self.recv_buf[..n].to_vec());
                    }
                    // A late answer to a retransmitted request.
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        Err(SnmpError::Timeout)
    }
}

/// A minimal blocking UDP agent server: binds a socket and answers
/// requests against MIB snapshots produced by `view_fn`. Runs until the
/// returned [`UdpAgentHandle`] is stopped.
///
/// This is the building block of the "distributed network monitoring"
/// extension: each managed host runs one of these.
pub struct UdpAgentServer;

/// Handle controlling a background [`UdpAgentServer`].
pub struct UdpAgentHandle {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    local_addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl UdpAgentHandle {
    /// The bound address of the agent socket.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the server and joins its thread.
    pub fn stop(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for UdpAgentHandle {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl UdpAgentServer {
    /// Spawns an agent thread bound to `addr` (use port 0 for ephemeral).
    /// `view_fn` is called per request to produce the current MIB.
    pub fn spawn<F>(
        addr: impl ToSocketAddrs,
        community: &str,
        mut view_fn: F,
    ) -> Result<UdpAgentHandle, SnmpError>
    where
        F: FnMut() -> ScalarMib + Send + 'static,
    {
        let socket = UdpSocket::bind(addr).map_err(|e| SnmpError::Transport(e.to_string()))?;
        let local_addr = socket
            .local_addr()
            .map_err(|e| SnmpError::Transport(e.to_string()))?;
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| SnmpError::Transport(e.to_string()))?;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let mut agent = SnmpAgent::new(community);
        let thread = std::thread::spawn(move || {
            let mut buf = vec![0u8; 65_535];
            let mut answer = Vec::new();
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                match socket.recv_from(&mut buf) {
                    Ok((n, from)) => {
                        let view = view_fn();
                        if agent.handle_into(&buf[..n], &view, &mut answer) {
                            let _ = socket.send_to(&answer, from);
                        }
                    }
                    Err(_) => continue, // timeout tick: check stop flag
                }
            }
        });
        Ok(UdpAgentHandle {
            stop,
            local_addr,
            thread: Some(thread),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SnmpClient;
    use crate::mib2::{self, SystemInfo};

    fn mib_with_uptime(ticks: u32) -> ScalarMib {
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, &SystemInfo::new("udp-test"), ticks);
        mib
    }

    #[test]
    fn udp_end_to_end() {
        let server = UdpAgentServer::spawn("127.0.0.1:0", "public", || mib_with_uptime(31337))
            .expect("spawn agent");
        let t = UdpTransport::connect(server.local_addr()).unwrap();
        let mut client = SnmpClient::new(t, "public");
        let v = client
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .unwrap();
        assert_eq!(v, crate::value::SnmpValue::TimeTicks(31337));
        server.stop();
    }

    #[test]
    fn udp_timeout_and_retry_reported() {
        // Nothing listening here.
        let mut t = UdpTransport::connect("127.0.0.1:1").unwrap();
        t.set_timeout(Duration::from_millis(30));
        t.set_retries(1);
        let mut client = SnmpClient::new(t, "public");
        let err = client
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .unwrap_err();
        assert_eq!(err, SnmpError::Timeout);
    }

    #[test]
    fn udp_passes_over_answers_to_other_requests() {
        // An agent that answers three times: with something that is not
        // SNMP, under a request-id nobody asked with, then properly.
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = socket.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut agent = SnmpAgent::new("public");
            let mib = mib_with_uptime(5);
            let mut buf = [0u8; 1500];
            let (n, from) = socket.recv_from(&mut buf).unwrap();
            let id = peek_request_id(&buf[..n]).unwrap();
            let oids = [mib2::system::sys_uptime_instance()];
            let other = crate::client::build_get("public", id + 1000, &oids).unwrap();
            socket.send_to(b"garbage", from).unwrap();
            socket
                .send_to(&agent.handle(&other, &mib).unwrap(), from)
                .unwrap();
            socket
                .send_to(&agent.handle(&buf[..n], &mib).unwrap(), from)
                .unwrap();
        });
        let mut client = SnmpClient::new(UdpTransport::connect(addr).unwrap(), "public");
        let v = client
            .session()
            .get_one(&mib2::system::sys_uptime_instance());
        assert_eq!(v, Ok(crate::value::SnmpValue::TimeTicks(5)));
        server.join().unwrap();
        // A request without a readable request-id matches no answer, and
        // is refused before it is sent.
        let refused = client.transport_mut().exchange(b"garbage");
        assert!(
            matches!(refused, Err(SnmpError::Transport(_))),
            "{refused:?}"
        );
    }

    #[test]
    fn udp_wrong_community_gets_no_answer() {
        let server = UdpAgentServer::spawn("127.0.0.1:0", "secret", || mib_with_uptime(1))
            .expect("spawn agent");
        let mut t = UdpTransport::connect(server.local_addr()).unwrap();
        t.set_timeout(Duration::from_millis(30));
        t.set_retries(0);
        let mut client = SnmpClient::new(t, "public");
        assert!(client
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .is_err());
        server.stop();
    }

    #[test]
    fn fn_transport_fault_injection() {
        // Drop the first request, answer the second.
        let mut agent = SnmpAgent::new("public");
        let mib = mib_with_uptime(9);
        let mut calls = 0;
        let t = FnTransport(move |req: &[u8]| {
            calls += 1;
            if calls == 1 {
                None
            } else {
                agent.handle(req, &mib)
            }
        });
        let mut client = SnmpClient::new(t, "public");
        // First get fails (drop)...
        assert!(client
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .is_err());
        // ...second succeeds.
        assert!(client
            .session()
            .get_one(&mib2::system::sys_uptime_instance())
            .is_ok());
    }
}
