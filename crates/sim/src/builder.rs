//! Assembling a [`Lan`].
//!
//! The builder mirrors the topology operations of `netqos-topology` so a
//! parsed specification can be lowered mechanically: add devices, add
//! NICs, cable ports, install apps, build.

use crate::addr::{Ipv4Addr, MacAddr};
use crate::app::UdpApp;
use crate::error::SimError;
use crate::events::{AppId, DeviceId, LinkId, PortIx};
use crate::nic::Nic;
use crate::time::{SimDuration, SimTime};
use crate::world::{Device, DeviceKind, KeyMap, Lan, Link};
use std::collections::HashMap;

/// Builder for a [`Lan`].
pub struct LanBuilder {
    devices: Vec<Device>,
    links: Vec<Link>,
    arp: KeyMap<Ipv4Addr, (DeviceId, MacAddr)>,
    name_index: HashMap<String, DeviceId>,
    mac_seed: u64,
    default_propagation: SimDuration,
}

impl Default for LanBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl LanBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        LanBuilder {
            devices: Vec::new(),
            links: Vec::new(),
            arp: KeyMap::default(),
            name_index: HashMap::new(),
            mac_seed: 1,
            default_propagation: SimDuration::from_micros(2), // ~400 m of cable
        }
    }

    fn add_device(&mut self, name: &str, kind: DeviceKind) -> Result<DeviceId, SimError> {
        if self.name_index.contains_key(name) {
            return Err(SimError::DuplicateName(name.to_owned()));
        }
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Device {
            name: name.to_owned(),
            kind,
            nics: Vec::new(),
            apps: Vec::new(),
            udp_bindings: KeyMap::default(),
            epoch: SimTime::ZERO,
        });
        self.name_index.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Adds a host with the given IP.
    pub fn add_host(&mut self, name: &str, ip: &str) -> Result<DeviceId, SimError> {
        let ip: Ipv4Addr = ip
            .parse()
            .map_err(|_| SimError::DuplicateIp(Ipv4Addr::new(0, 0, 0, 0)))?;
        self.add_host_addr(name, ip)
    }

    /// Adds a host with a parsed IP.
    pub fn add_host_addr(&mut self, name: &str, ip: Ipv4Addr) -> Result<DeviceId, SimError> {
        if self.arp.contains_key(&ip) {
            return Err(SimError::DuplicateIp(ip));
        }
        let id = self.add_device(
            name,
            DeviceKind::Host {
                ip,
                routes: KeyMap::default(),
            },
        )?;
        // ARP registration completes when the first NIC appears; reserve
        // the entry now with a placeholder MAC and fix it in add_nic.
        self.arp.insert(ip, (id, MacAddr::from_seed(0)));
        Ok(id)
    }

    /// Adds a switch; pass a management IP to make it SNMP-manageable.
    pub fn add_switch(&mut self, name: &str, mgmt_ip: Option<&str>) -> Result<DeviceId, SimError> {
        let mgmt = match mgmt_ip {
            Some(s) => {
                let ip: Ipv4Addr = s
                    .parse()
                    .map_err(|_| SimError::DuplicateIp(Ipv4Addr::new(0, 0, 0, 0)))?;
                if self.arp.contains_key(&ip) {
                    return Err(SimError::DuplicateIp(ip));
                }
                let mac = MacAddr::from_seed(0xAAAA_0000 + self.mac_seed);
                self.mac_seed += 1;
                Some((ip, mac))
            }
            None => None,
        };
        let id = self.add_device(
            name,
            DeviceKind::Switch {
                mgmt,
                mac_table: KeyMap::default(),
            },
        )?;
        if let Some((ip, mac)) = mgmt {
            self.arp.insert(ip, (id, mac));
        }
        Ok(id)
    }

    /// Adds a hub with the given shared-medium rate.
    pub fn add_hub(&mut self, name: &str, medium_bps: u64) -> Result<DeviceId, SimError> {
        self.add_device(
            name,
            DeviceKind::Hub {
                medium_bps,
                medium_free_at: SimTime::ZERO,
            },
        )
    }

    /// Adds a NIC/port to a device; returns its port index.
    pub fn add_nic(
        &mut self,
        dev: DeviceId,
        descr: &str,
        speed_bps: u64,
    ) -> Result<PortIx, SimError> {
        let d = self
            .devices
            .get_mut(dev.index())
            .ok_or(SimError::NoSuchDevice(dev))?;
        let mac = MacAddr::from_seed(self.mac_seed);
        self.mac_seed += 1;
        let port = PortIx(d.nics.len() as u32);
        d.nics.push(Nic::new(mac, descr, speed_bps));
        // The host's first NIC defines its ARP-visible MAC.
        if port == PortIx(0) {
            if let DeviceKind::Host { ip, .. } = &d.kind {
                self.arp.insert(*ip, (dev, mac));
            }
        }
        Ok(port)
    }

    /// Cables two ports together. The link rate is the minimum of the two
    /// NIC speeds (auto-negotiation).
    pub fn connect(
        &mut self,
        a: (DeviceId, PortIx),
        b: (DeviceId, PortIx),
    ) -> Result<LinkId, SimError> {
        if a == b {
            return Err(SimError::SelfLink(a.0, a.1));
        }
        for (dev, port) in [a, b] {
            let d = self
                .devices
                .get(dev.index())
                .ok_or(SimError::NoSuchDevice(dev))?;
            let nic = d
                .nics
                .get(port.index())
                .ok_or(SimError::NoSuchPort(dev, port))?;
            if nic.link.is_some() {
                return Err(SimError::PortAlreadyLinked(dev, port));
            }
        }
        let rate = self.devices[a.0.index()].nics[a.1.index()]
            .speed_bps
            .min(self.devices[b.0.index()].nics[b.1.index()].speed_bps);
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            bits_per_sec: rate,
            propagation: self.default_propagation,
            loss_probability: 0.0,
        });
        self.devices[a.0.index()].nics[a.1.index()].link = Some(id);
        self.devices[b.0.index()].nics[b.1.index()].link = Some(id);
        Ok(id)
    }

    /// Adds a static route on a multi-homed host: traffic for `dst_ip`
    /// leaves through `port`.
    pub fn add_route(&mut self, dev: DeviceId, dst_ip: &str, port: PortIx) -> Result<(), SimError> {
        let ip: Ipv4Addr = dst_ip
            .parse()
            .map_err(|_| SimError::DuplicateIp(Ipv4Addr::new(0, 0, 0, 0)))?;
        let d = self
            .devices
            .get_mut(dev.index())
            .ok_or(SimError::NoSuchDevice(dev))?;
        if port.index() >= d.nics.len() {
            return Err(SimError::NoSuchPort(dev, port));
        }
        match &mut d.kind {
            DeviceKind::Host { routes, .. } => {
                routes.insert(ip, port);
                Ok(())
            }
            _ => Err(SimError::NotAHost(dev)),
        }
    }

    /// Installs an app on a device, optionally binding it to a UDP port.
    pub fn install_app(
        &mut self,
        dev: DeviceId,
        app: Box<dyn UdpApp>,
        udp_port: Option<u16>,
    ) -> Result<AppId, SimError> {
        let d = self
            .devices
            .get_mut(dev.index())
            .ok_or(SimError::NoSuchDevice(dev))?;
        let id = AppId(d.apps.len() as u32);
        if let Some(port) = udp_port {
            if d.udp_bindings.contains_key(&port) {
                return Err(SimError::UdpPortTaken(dev, port));
            }
            d.udp_bindings.insert(port, id);
        }
        d.apps.push(Some(app));
        Ok(id)
    }

    /// Finalizes the LAN and starts all apps.
    pub fn build(self) -> Lan {
        let mut lan = Lan::from_parts(self.devices, self.links, self.arp, self.name_index);
        lan.start();
        lan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_rejected() {
        let mut b = LanBuilder::new();
        b.add_host("A", "10.0.0.1").unwrap();
        assert!(matches!(
            b.add_host("A", "10.0.0.2"),
            Err(SimError::DuplicateName(_))
        ));
    }

    #[test]
    fn duplicate_ips_rejected() {
        let mut b = LanBuilder::new();
        b.add_host("A", "10.0.0.1").unwrap();
        assert!(matches!(
            b.add_host("B", "10.0.0.1"),
            Err(SimError::DuplicateIp(_))
        ));
    }

    #[test]
    fn connect_validates_ports() {
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        let a0 = b.add_nic(a, "eth0", 100).unwrap();
        let c = b.add_host("B", "10.0.0.2").unwrap();
        let c0 = b.add_nic(c, "eth0", 100).unwrap();
        assert!(matches!(
            b.connect((a, a0), (a, a0)),
            Err(SimError::SelfLink(..))
        ));
        assert!(matches!(
            b.connect((a, PortIx(9)), (c, c0)),
            Err(SimError::NoSuchPort(..))
        ));
        b.connect((a, a0), (c, c0)).unwrap();
        // Port is taken now.
        let d = b.add_host("D", "10.0.0.3").unwrap();
        let d0 = b.add_nic(d, "eth0", 100).unwrap();
        assert!(matches!(
            b.connect((a, a0), (d, d0)),
            Err(SimError::PortAlreadyLinked(..))
        ));
    }

    #[test]
    fn link_rate_is_min_of_nics() {
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        let a0 = b.add_nic(a, "eth0", 100_000_000).unwrap();
        let c = b.add_host("B", "10.0.0.2").unwrap();
        let c0 = b.add_nic(c, "eth0", 10_000_000).unwrap();
        b.connect((a, a0), (c, c0)).unwrap();
        assert_eq!(b.links[0].bits_per_sec, 10_000_000);
    }

    #[test]
    fn udp_port_conflict_rejected() {
        use crate::app::DiscardSink;
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.install_app(a, Box::new(DiscardSink::default()), Some(9))
            .unwrap();
        assert!(matches!(
            b.install_app(a, Box::new(DiscardSink::default()), Some(9)),
            Err(SimError::UdpPortTaken(..))
        ));
        // Unbound apps are fine in any number.
        b.install_app(a, Box::new(DiscardSink::default()), None)
            .unwrap();
    }

    #[test]
    fn routes_only_on_hosts() {
        let mut b = LanBuilder::new();
        let sw = b.add_switch("sw", None).unwrap();
        b.add_nic(sw, "p1", 100).unwrap();
        assert!(matches!(
            b.add_route(sw, "10.0.0.9", PortIx(0)),
            Err(SimError::NotAHost(_))
        ));
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.add_nic(a, "eth0", 100).unwrap();
        b.add_nic(a, "eth1", 100).unwrap();
        b.add_route(a, "10.0.0.9", PortIx(1)).unwrap();
    }

    #[test]
    fn build_produces_named_devices() {
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.add_nic(a, "eth0", 100).unwrap();
        let lan = b.build();
        assert_eq!(lan.device_by_name("A"), Some(a));
        assert_eq!(lan.device_name(a).unwrap(), "A");
        assert_eq!(lan.device_ip(a).unwrap(), Some("10.0.0.1".parse().unwrap()));
    }
}
