//! The poll path the streaming decode replaced, kept as the reference: the
//! manager decoded a whole GetResponse into owned bindings
//! (`client::parse_response` over `Pdu::decode`), `Session::get_many`
//! judged the request-id and the error status, and `poll::parse_snapshot`
//! parsed the bindings into a fresh snapshot.
//!
//! Written on the BER primitives the library still exports (element,
//! integer, unsigned, octets and OID readers), not on its binding decoder,
//! which is what is under test. One deliberate change from the code it
//! reproduces: a row counts the columns it has seen, not the bindings, so
//! a row that repeats one column and lacks another is incomplete (the
//! library parse was fixed alike).

use netqos_monitor::poll::{DeviceSnapshot, IfSample};
use netqos_monitor::MonitorError;
use netqos_snmp::ber::{tag, Reader};
use netqos_snmp::error::BerError;
use netqos_snmp::mib2::{interfaces as ifc, system};
use netqos_snmp::{ErrorStatus, PduType, SnmpError, SnmpValue, SnmpVersion, VarBind};

/// The per-interface columns a poll asks for.
const COLUMNS: [u32; 6] = [
    ifc::column::IF_DESCR,
    ifc::column::IF_SPEED,
    ifc::column::IF_IN_OCTETS,
    ifc::column::IF_OUT_OCTETS,
    ifc::column::IF_IN_UCAST_PKTS,
    ifc::column::IF_OUT_NUCAST_PKTS,
];

/// What the replaced decode-to-vector poll returned for the datagram
/// `answer` to the Get it sent under request-id `id`.
pub fn poll(
    answer: &[u8],
    id: i32,
    node: &str,
    if_count: u32,
) -> Result<DeviceSnapshot, MonitorError> {
    let bindings = get_many(answer, id).map_err(|e| MonitorError::from_snmp(e, node))?;
    parse_snapshot(&bindings, if_count)
}

/// `Session::get_many` after the exchange.
fn get_many(answer: &[u8], id: i32) -> Result<Vec<VarBind>, SnmpError> {
    let pdu = parse_response(answer)?;
    if pdu.request_id != id {
        return Err(SnmpError::RequestIdMismatch {
            expected: id,
            got: pdu.request_id,
        });
    }
    if !pdu.error_status.is_ok() {
        return Err(SnmpError::ErrorStatus {
            status: pdu.error_status,
            index: pdu.error_index,
        });
    }
    Ok(pdu.bindings)
}

struct Pdu {
    pdu_type: PduType,
    request_id: i32,
    error_status: ErrorStatus,
    error_index: u32,
    bindings: Vec<VarBind>,
}

/// `client::parse_response`: the message wrapper, the PDU, no trailing
/// bytes; a trap or a GetBulk decodes but is not a response.
fn parse_response(bytes: &[u8]) -> Result<Pdu, SnmpError> {
    let mut outer = Reader::new(bytes);
    let mut rest = outer.expect_element(tag::SEQUENCE)?;
    SnmpVersion::from_code(rest.read_integer()?)?;
    rest.read_octets()?;
    let pdu = match rest.peek_tag()? {
        tag::TRAP => {
            decode_trap(&mut rest)?;
            None
        }
        tag::GET_BULK_REQUEST => {
            decode_bulk(&mut rest)?;
            None
        }
        _ => Some(decode_pdu(&mut rest)?),
    };
    rest.finish()?;
    outer.finish()?;
    pdu.filter(|pdu| pdu.pdu_type == PduType::GetResponse)
        .ok_or(SnmpError::NotAResponse)
}

fn decode_pdu(r: &mut Reader<'_>) -> Result<Pdu, SnmpError> {
    let (t, mut content) = r.read_element()?;
    let pdu_type = PduType::from_tag(t).ok_or(SnmpError::UnknownPduType(t))?;
    let request_id = content.read_integer()? as i32;
    let error_status = ErrorStatus::from_code(content.read_integer()?);
    let error_index = content.read_integer()?.max(0) as u32;
    let bindings = decode_varbinds(&mut content.expect_element(tag::SEQUENCE)?)?;
    content.finish()?;
    Ok(Pdu {
        pdu_type,
        request_id,
        error_status,
        error_index,
        bindings,
    })
}

fn decode_trap(r: &mut Reader<'_>) -> Result<(), SnmpError> {
    let mut content = r.expect_element(tag::TRAP)?;
    content.read_oid()?;
    match read_value(&mut content)? {
        SnmpValue::IpAddress(_) => {}
        _ => return Err(SnmpError::Ber(BerError::BadIpAddress)),
    }
    content.read_integer()?;
    content.read_integer()?;
    content.read_unsigned(tag::TIME_TICKS)?;
    decode_varbinds(&mut content.expect_element(tag::SEQUENCE)?)?;
    content.finish()?;
    Ok(())
}

fn decode_bulk(r: &mut Reader<'_>) -> Result<(), SnmpError> {
    let mut content = r.expect_element(tag::GET_BULK_REQUEST)?;
    for _ in 0..3 {
        content.read_integer()?;
    }
    decode_varbinds(&mut content.expect_element(tag::SEQUENCE)?)?;
    content.finish()?;
    Ok(())
}

fn decode_varbinds(list: &mut Reader<'_>) -> Result<Vec<VarBind>, BerError> {
    let mut bindings = Vec::new();
    while !list.is_empty() {
        let mut binding = list.expect_element(tag::SEQUENCE)?;
        let oid = binding.read_oid()?;
        let value = read_value(&mut binding)?;
        binding.finish()?;
        bindings.push(VarBind { oid, value });
    }
    Ok(bindings)
}

/// `Reader::read_value`: the element first, then its content judged by
/// its tag.
fn read_value(r: &mut Reader<'_>) -> Result<SnmpValue, BerError> {
    Ok(match r.peek_tag()? {
        tag::OCTET_STRING => SnmpValue::OctetString(r.read_octets()?.to_vec()),
        tag::OID => SnmpValue::oid(r.read_oid()?),
        tag::OPAQUE => SnmpValue::Opaque(r.expect_element(tag::OPAQUE)?.rest().to_vec()),
        tag::INTEGER => SnmpValue::Integer(r.read_integer()?),
        tag::NULL => {
            r.read_element()?;
            SnmpValue::Null
        }
        tag::IP_ADDRESS => {
            let content = r.read_element()?.1.rest();
            SnmpValue::IpAddress(content.try_into().map_err(|_| BerError::BadIpAddress)?)
        }
        tag::COUNTER32 => SnmpValue::Counter32(r.read_unsigned(tag::COUNTER32)?),
        tag::GAUGE32 => SnmpValue::Gauge32(r.read_unsigned(tag::GAUGE32)?),
        tag::TIME_TICKS => SnmpValue::TimeTicks(r.read_unsigned(tag::TIME_TICKS)?),
        tag::NO_SUCH_OBJECT => {
            r.read_element()?;
            SnmpValue::NoSuchObject
        }
        tag::NO_SUCH_INSTANCE => {
            r.read_element()?;
            SnmpValue::NoSuchInstance
        }
        tag::END_OF_MIB_VIEW => {
            r.read_element()?;
            SnmpValue::EndOfMibView
        }
        other => {
            r.read_element()?;
            return Err(BerError::UnknownTag(other));
        }
    })
}

fn wrong_type(vb: &VarBind) -> MonitorError {
    MonitorError::WrongType {
        oid: vb.oid.to_string(),
        got: vb.value.type_name(),
    }
}

fn need_u32(vb: &VarBind) -> Result<u32, MonitorError> {
    vb.value.as_u32().ok_or_else(|| wrong_type(vb))
}

/// `poll::parse_snapshot`, with a bit per column where it counted
/// bindings.
pub fn parse_snapshot(bindings: &[VarBind], if_count: u32) -> Result<DeviceSnapshot, MonitorError> {
    let mut uptime_ticks = None;
    let mut samples: Vec<IfSample> = (1..=if_count)
        .map(|i| IfSample {
            if_index: i,
            descr: String::new(),
            speed_bps: 0,
            in_octets: 0,
            out_octets: 0,
            in_ucast_pkts: 0,
            out_nucast_pkts: 0,
        })
        .collect();
    let mut seen = vec![0u8; if_count as usize];

    for vb in bindings {
        let (col, ifindex) = match *vb.oid.arcs() {
            // sysUpTime.0
            [1, 3, 6, 1, 2, 1, 1, 3, 0] => {
                uptime_ticks = Some(need_u32(vb)?);
                continue;
            }
            // ifEntry.<column>.<ifIndex>
            [1, 3, 6, 1, 2, 1, 2, 2, 1, col, ifindex] if (1..=if_count).contains(&ifindex) => {
                (col, ifindex)
            }
            _ => continue, // tolerate extra objects
        };
        let s = &mut samples[(ifindex - 1) as usize];
        match col {
            ifc::column::IF_DESCR => {
                s.descr = vb.value.as_text().ok_or_else(|| wrong_type(vb))?.to_owned();
            }
            ifc::column::IF_SPEED => s.speed_bps = need_u32(vb)? as u64,
            ifc::column::IF_IN_OCTETS => s.in_octets = need_u32(vb)?,
            ifc::column::IF_OUT_OCTETS => s.out_octets = need_u32(vb)?,
            ifc::column::IF_IN_UCAST_PKTS => s.in_ucast_pkts = need_u32(vb)?,
            ifc::column::IF_OUT_NUCAST_PKTS => s.out_nucast_pkts = need_u32(vb)?,
            _ => continue,
        }
        let bit = COLUMNS
            .iter()
            .position(|&c| c == col)
            .expect("a polled column");
        seen[(ifindex - 1) as usize] |= 1 << bit;
    }

    let uptime_ticks = uptime_ticks
        .ok_or_else(|| MonitorError::MissingObject(system::sys_uptime_instance().to_string()))?;
    for (i, &columns) in seen.iter().enumerate() {
        if columns.count_ones() < COLUMNS.len() as u32 {
            return Err(MonitorError::MissingObject(format!(
                "ifTable row {} incomplete ({}/{} columns)",
                i + 1,
                columns.count_ones(),
                COLUMNS.len()
            )));
        }
    }
    Ok(DeviceSnapshot {
        uptime_ticks,
        interfaces: samples,
    })
}
