//! Metric handles for the SNMP stack.
//!
//! Handle bundles are resolved once from a [`Registry`] and then recorded
//! through lock-free; the codec handles live in a process-wide
//! `OnceLock` so `SnmpMessage::encode`/`decode` stay allocation- and
//! lock-free on the hot path.

use netqos_telemetry::{Counter, Histogram, Registry};
use std::sync::OnceLock;

/// Manager-side metrics, recorded by [`crate::client::SnmpClient`].
#[derive(Clone)]
pub struct ClientTelemetry {
    /// Requests sent (one per logical operation attempt).
    pub requests: Counter,
    /// Successful request/response exchanges.
    pub responses: Counter,
    /// Exchanges that ended in a transport or protocol error.
    pub errors: Counter,
    /// Round-trip time of successful exchanges, nanoseconds.
    pub rtt_ns: Histogram,
    /// Request bytes handed to the transport.
    pub bytes_sent: Counter,
    /// Response bytes received from the transport.
    pub bytes_received: Counter,
}

impl ClientTelemetry {
    /// Resolves the client metric handles from `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        ClientTelemetry {
            requests: registry.counter("netqos_snmp_client_requests_total"),
            responses: registry.counter("netqos_snmp_client_responses_total"),
            errors: registry.counter("netqos_snmp_client_errors_total"),
            rtt_ns: registry.histogram("netqos_snmp_client_rtt_ns"),
            bytes_sent: registry.counter("netqos_snmp_client_bytes_sent_total"),
            bytes_received: registry.counter("netqos_snmp_client_bytes_received_total"),
        }
    }

    /// Handles bound to the process-wide registry.
    pub fn global() -> Self {
        Self::from_registry(netqos_telemetry::global())
    }
}

/// UDP transport metrics, recorded by [`crate::transport::UdpTransport`].
#[derive(Clone)]
pub struct TransportTelemetry {
    /// Receive timeouts (per attempt).
    pub timeouts: Counter,
    /// Retransmissions after a timeout.
    pub retransmits: Counter,
    /// Datagrams passed over because they answer another request (late
    /// answers to a retransmitted one).
    pub stale_responses: Counter,
    /// Exchanges that exhausted every retry.
    pub exchange_failures: Counter,
}

impl TransportTelemetry {
    /// Resolves the transport metric handles from `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        TransportTelemetry {
            timeouts: registry.counter("netqos_snmp_udp_timeouts_total"),
            retransmits: registry.counter("netqos_snmp_udp_retransmits_total"),
            stale_responses: registry.counter("netqos_snmp_udp_stale_responses_total"),
            exchange_failures: registry.counter("netqos_snmp_udp_exchange_failures_total"),
        }
    }

    /// Handles bound to the process-wide registry.
    pub fn global() -> Self {
        Self::from_registry(netqos_telemetry::global())
    }
}

/// Codec metrics: one encode per message written, one decode (or decode
/// error) per datagram parsed, whichever entry point did it.
pub struct CodecTelemetry {
    /// Messages encoded.
    pub encodes: Counter,
    /// Bytes produced by encoding.
    pub encoded_bytes: Counter,
    /// Successfully decoded messages.
    pub decodes: Counter,
    /// Bytes consumed by successful decodes.
    pub decoded_bytes: Counter,
    /// Decode attempts rejected as malformed.
    pub decode_errors: Counter,
}

/// The codec handles, resolved once against the global registry.
pub fn codec() -> &'static CodecTelemetry {
    static CODEC: OnceLock<CodecTelemetry> = OnceLock::new();
    CODEC.get_or_init(|| {
        let registry = netqos_telemetry::global();
        CodecTelemetry {
            encodes: registry.counter("netqos_snmp_codec_encodes_total"),
            encoded_bytes: registry.counter("netqos_snmp_codec_encoded_bytes_total"),
            decodes: registry.counter("netqos_snmp_codec_decodes_total"),
            decoded_bytes: registry.counter("netqos_snmp_codec_decoded_bytes_total"),
            decode_errors: registry.counter("netqos_snmp_codec_decode_errors_total"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_handles_are_shared() {
        let before = codec().encodes.get();
        codec().encodes.inc();
        assert_eq!(codec().encodes.get(), before + 1);
    }

    #[test]
    fn client_telemetry_from_private_registry() {
        let reg = Registry::new();
        let t = ClientTelemetry::from_registry(&reg);
        t.requests.inc();
        t.rtt_ns.record(1_000);
        assert_eq!(reg.counter("netqos_snmp_client_requests_total").get(), 1);
        assert_eq!(reg.histogram("netqos_snmp_client_rtt_ns").count(), 1);
    }
}
