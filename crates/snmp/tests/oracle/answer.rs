//! The manager's answer decoding as it was before it read an answer
//! against the names it asked: the whole message decoded into owned
//! bindings, every name decoded, then judged as `Session::get_many`
//! judges it. Written on the BER element, integer, octet, OID and value
//! readers, not on the library's binding decoder, which is what is under
//! test.

use netqos_snmp::ber::{tag, Reader};
use netqos_snmp::error::BerError;
use netqos_snmp::{ErrorStatus, PduType, SnmpError, SnmpValue, SnmpVersion, VarBind};

/// What `Session::get_many` returns for the datagram `answer` to the Get
/// it sent under request-id `id`.
pub fn get_many(answer: &[u8], id: i32) -> Result<Vec<VarBind>, SnmpError> {
    let mut outer = Reader::new(answer);
    let mut rest = outer.expect_element(tag::SEQUENCE)?;
    SnmpVersion::from_code(rest.read_integer()?)?;
    rest.read_octets()?;
    let pdu = match rest.peek_tag()? {
        tag::TRAP => {
            let mut content = rest.expect_element(tag::TRAP)?;
            content.read_oid()?;
            if !matches!(content.read_value()?, SnmpValue::IpAddress(_)) {
                return Err(BerError::BadIpAddress.into());
            }
            content.read_integer()?;
            content.read_integer()?;
            content.read_unsigned(tag::TIME_TICKS)?;
            decode_varbinds(&mut content.expect_element(tag::SEQUENCE)?)?;
            content.finish()?;
            None
        }
        tag::GET_BULK_REQUEST => {
            let mut content = rest.expect_element(tag::GET_BULK_REQUEST)?;
            for _ in 0..3 {
                content.read_integer()?;
            }
            decode_varbinds(&mut content.expect_element(tag::SEQUENCE)?)?;
            content.finish()?;
            None
        }
        _ => {
            let (t, mut content) = rest.read_element()?;
            let pdu_type = PduType::from_tag(t).ok_or(SnmpError::UnknownPduType(t))?;
            let request_id = content.read_integer()? as i32;
            let status = ErrorStatus::from_code(content.read_integer()?);
            let index = content.read_integer()?.max(0) as u32;
            let bindings = decode_varbinds(&mut content.expect_element(tag::SEQUENCE)?)?;
            content.finish()?;
            Some((pdu_type, request_id, status, index, bindings))
        }
    };
    rest.finish()?;
    outer.finish()?;
    match pdu {
        Some((PduType::GetResponse, request_id, status, index, bindings)) => {
            if request_id != id {
                Err(SnmpError::RequestIdMismatch {
                    expected: id,
                    got: request_id,
                })
            } else if !status.is_ok() {
                Err(SnmpError::ErrorStatus { status, index })
            } else {
                Ok(bindings)
            }
        }
        _ => Err(SnmpError::NotAResponse),
    }
}

fn decode_varbinds(list: &mut Reader<'_>) -> Result<Vec<VarBind>, BerError> {
    let mut bindings = Vec::new();
    while !list.is_empty() {
        let mut binding = list.expect_element(tag::SEQUENCE)?;
        let oid = binding.read_oid()?;
        let value = binding.read_value()?;
        binding.finish()?;
        bindings.push(VarBind { oid, value });
    }
    Ok(bindings)
}
