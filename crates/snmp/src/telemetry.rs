//! Metric handles for the SNMP stack.
//!
//! Handle bundles are resolved once from a [`Registry`] and then recorded
//! through lock-free; the codec handles live in a process-wide
//! `OnceLock` so `SnmpMessage::decode` stays allocation- and lock-free on
//! the hot path.

use netqos_telemetry::{Counter, Registry};
use std::sync::OnceLock;

/// Manager-side metrics, recorded by [`crate::client::SnmpClient`].
#[derive(Clone)]
pub struct ClientTelemetry {
    /// Requests sent (one per logical operation attempt).
    pub requests: Counter,
}

impl ClientTelemetry {
    /// Resolves the client metric handles from `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        ClientTelemetry {
            requests: registry.counter("netqos_snmp_client_requests_total"),
        }
    }

    /// Handles bound to the process-wide registry.
    pub fn global() -> Self {
        Self::from_registry(netqos_telemetry::global())
    }
}

/// Codec metrics: one decode (or decode error) per datagram parsed,
/// whichever entry point did it.
pub struct CodecTelemetry {
    /// Successfully decoded messages.
    pub decodes: Counter,
    /// Decode attempts rejected as malformed.
    pub decode_errors: Counter,
}

/// The codec handles, resolved once against the global registry.
pub fn codec() -> &'static CodecTelemetry {
    static CODEC: OnceLock<CodecTelemetry> = OnceLock::new();
    CODEC.get_or_init(|| {
        let registry = netqos_telemetry::global();
        CodecTelemetry {
            decodes: registry.counter("netqos_snmp_codec_decodes_total"),
            decode_errors: registry.counter("netqos_snmp_codec_decode_errors_total"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_handles_are_shared() {
        let before = codec().decodes.get();
        codec().decodes.inc();
        assert_eq!(codec().decodes.get(), before + 1);
    }

    #[test]
    fn client_telemetry_from_private_registry() {
        let reg = Registry::new();
        let t = ClientTelemetry::from_registry(&reg);
        t.requests.inc();
        assert_eq!(reg.counter("netqos_snmp_client_requests_total").get(), 1);
    }
}
