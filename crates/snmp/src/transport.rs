//! Request/response transports for the synchronous manager, and a UDP
//! agent.
//!
//! * [`LoopbackTransport`] — an in-process agent; zero configuration, used
//!   by tests and by the benchmark harness.
//! * [`FnTransport`] — a closure standing in for the agent, for
//!   fault-injection tests.
//! * a network's agent — `netqos-monitor`'s `Network::link` is a
//!   [`Transport`] over the simulator or a UDP socket (it needs the
//!   monitor's types), so the same manager talks to simulated, in-process
//!   and real agents.
//! * [`UdpAgentServer`] — the other end of a real wire: a thread that
//!   answers requests on a UDP socket.
//!
//! `netqos-monitor`'s networks poll through none of these transports:
//! their round keeps many requests in flight over one wire, retransmits
//! each on its own, and encodes and reads each Get with
//! [`Manager::encode_get`](crate::client::Manager::encode_get) and
//! [`Manager::visit_answer`](crate::client::Manager::visit_answer).

use crate::agent::SnmpAgent;
use crate::error::SnmpError;
use crate::mib::ScalarMib;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

/// A blocking request/response exchange with one agent.
pub trait Transport {
    /// Sends `request` and returns the datagram that answers it — the one
    /// carrying its request-id, not a late answer to an earlier request —
    /// or [`SnmpError::Timeout`] when the agent stays silent. A caller
    /// that gets `Timeout` does not try again: a transport that
    /// retransmits has done so before it answers.
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, SnmpError>;
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
    use crate::client::{self, SnmpClient};
    use crate::mib2::{self, SystemInfo};
    use crate::value::SnmpValue;

    fn mib_with_uptime(ticks: u32) -> ScalarMib {
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, &SystemInfo::new("udp-test"), ticks);
        mib
    }

    /// A plain socket of a manager's, connected to `server`.
    fn manager_socket(server: &UdpAgentHandle) -> UdpSocket {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(server.local_addr()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        socket
    }

    /// A Get of `sysUpTime.0` under `community` and `id`.
    fn get_uptime(community: &str, id: i32) -> Vec<u8> {
        client::build_get(community, id, &[mib2::system::sys_uptime_instance()]).unwrap()
    }

    /// The next datagram on `socket`, as a response.
    fn answer(socket: &UdpSocket) -> client::Response {
        let mut buf = [0u8; 1500];
        let n = socket.recv(&mut buf).expect("an answer");
        client::parse_response(&buf[..n]).unwrap()
    }

    #[test]
    fn the_agent_server_answers_a_get_with_its_mibs_value() {
        let server = UdpAgentServer::spawn("127.0.0.1:0", "public", || mib_with_uptime(31337))
            .expect("spawn agent");
        let socket = manager_socket(&server);
        socket.send(&get_uptime("public", 7)).unwrap();
        let answer = answer(&socket);
        assert_eq!(answer.request_id, 7);
        assert_eq!(answer.bindings[0].value, SnmpValue::TimeTicks(31337));
        server.stop();
    }

    // The server answers its datagrams in order, so the first answer to
    // come back shows what the datagrams sent before it got: nothing.

    #[test]
    fn the_agent_server_is_silent_under_a_wrong_community() {
        let server = UdpAgentServer::spawn("127.0.0.1:0", "secret", || mib_with_uptime(1))
            .expect("spawn agent");
        let socket = manager_socket(&server);
        socket.send(&get_uptime("public", 1)).unwrap();
        socket.send(&get_uptime("secret", 2)).unwrap();
        assert_eq!(answer(&socket).request_id, 2);
        server.stop();
    }

    #[test]
    fn a_garbage_datagram_gets_no_answer_and_the_next_get_is_answered() {
        let server = UdpAgentServer::spawn("127.0.0.1:0", "public", || mib_with_uptime(3))
            .expect("spawn agent");
        let socket = manager_socket(&server);
        socket.send(b"garbage").unwrap();
        socket.send(&get_uptime("public", 2)).unwrap();
        let answer = answer(&socket);
        assert_eq!(answer.request_id, 2);
        assert_eq!(answer.bindings[0].value, SnmpValue::TimeTicks(3));
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
