//! The MIB-II `system` group (RFC 1213 §3.4): seven scalar objects under
//! 1.3.6.1.2.1.1.

use crate::mib::ScalarMib;
use crate::oid::Oid;
use crate::value::SnmpValue;

/// Arcs of `system.sysUpTime` (1.3.6.1.2.1.1.3), without the `.0` instance.
pub const SYS_UPTIME_ARCS: [u32; 8] = [1, 3, 6, 1, 2, 1, 1, 3];

fn scalar(leaf: u32) -> Oid {
    Oid::from([1, 3, 6, 1, 2, 1, 1, leaf, 0])
}

/// `sysDescr.0`
pub fn sys_descr_instance() -> Oid {
    scalar(1)
}

/// `sysObjectID.0`
pub fn sys_object_id_instance() -> Oid {
    scalar(2)
}

/// `sysUpTime.0` — the paper's polling-interval clock.
pub fn sys_uptime_instance() -> Oid {
    scalar(3)
}

/// `sysContact.0`
pub fn sys_contact_instance() -> Oid {
    scalar(4)
}

/// `sysName.0`
pub fn sys_name_instance() -> Oid {
    scalar(5)
}

/// `sysLocation.0`
pub fn sys_location_instance() -> Oid {
    scalar(6)
}

/// `sysServices.0`
pub fn sys_services_instance() -> Oid {
    scalar(7)
}

/// Static identity of a managed system; `sysUpTime` is supplied separately
/// at install time because it changes on every poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemInfo {
    /// `sysDescr`: textual description.
    pub descr: String,
    /// `sysObjectID`: vendor identification OID.
    pub object_id: Oid,
    /// `sysContact`.
    pub contact: String,
    /// `sysName`: administratively assigned node name.
    pub name: String,
    /// `sysLocation`.
    pub location: String,
    /// `sysServices`: layer-service bitmask (72 = application + end-to-end).
    pub services: i64,
}

impl SystemInfo {
    /// A reasonable default identity with the given name/description.
    pub fn new(name: &str) -> Self {
        SystemInfo {
            descr: format!("netqos managed node {name}"),
            object_id: Oid::from([1, 3, 6, 1, 4, 1, 99999, 1]),
            contact: "lirtss@netqos".to_owned(),
            name: name.to_owned(),
            location: "LIRTSS laboratory".to_owned(),
            services: 72,
        }
    }
}

/// Installs the system group into `mib` with the given uptime (TimeTicks,
/// hundredths of a second).
pub fn install(mib: &mut ScalarMib, info: &SystemInfo, uptime_ticks: u32) {
    mib.extend(instances(info, uptime_ticks));
}

/// The seven instances of the system group, in MIB order.
pub fn instances(info: &SystemInfo, uptime_ticks: u32) -> [(Oid, SnmpValue); 7] {
    [
        (sys_descr_instance(), SnmpValue::text(&info.descr)),
        (
            sys_object_id_instance(),
            SnmpValue::oid(info.object_id.clone()),
        ),
        (sys_uptime_instance(), SnmpValue::TimeTicks(uptime_ticks)),
        (sys_contact_instance(), SnmpValue::text(&info.contact)),
        (sys_name_instance(), SnmpValue::text(&info.name)),
        (sys_location_instance(), SnmpValue::text(&info.location)),
        (sys_services_instance(), SnmpValue::Integer(info.services)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mib::MibView;
    use crate::value::ValueRef;

    #[test]
    fn install_populates_all_seven_scalars() {
        let mut mib = ScalarMib::new();
        install(&mut mib, &SystemInfo::new("S1"), 4242);
        assert_eq!(mib.len(), 7);
        assert_eq!(
            mib.get(&sys_uptime_instance()),
            Some(ValueRef::TimeTicks(4242))
        );
        assert_eq!(
            mib.get(&sys_name_instance()),
            Some(ValueRef::OctetString(b"S1"))
        );
    }

    #[test]
    fn uptime_oid_matches_paper() {
        assert_eq!(sys_uptime_instance().to_string(), "1.3.6.1.2.1.1.3.0");
    }

    #[test]
    fn reinstall_updates_uptime_in_place() {
        let mut mib = ScalarMib::new();
        let info = SystemInfo::new("S1");
        install(&mut mib, &info, 1);
        install(&mut mib, &info, 2);
        assert_eq!(mib.len(), 7);
        assert_eq!(
            mib.get(&sys_uptime_instance()),
            Some(ValueRef::TimeTicks(2))
        );
    }
}
