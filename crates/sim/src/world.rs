//! The LAN world: devices, links, and the discrete-event engine.
//!
//! ## Forwarding model
//!
//! * **Hosts** accept frames addressed to their NIC's MAC (or broadcast);
//!   everything else is filtered in "hardware" and — matching real
//!   non-promiscuous NICs — not counted by the interface counters. UDP
//!   datagrams are delivered to the app bound to the destination port.
//!   The filter is applied where the frame is put on the cable
//!   (`put_on_cable`): a frame the NIC at the far end would filter is
//!   carried and counted but its arrival is never an event — except on a
//!   lossy cable, where every arrival is one (see
//!   [`Lan::set_link_loss`]).
//! * **Switches** are store-and-forward learning bridges: the source MAC
//!   of every frame is learned against its ingress port, a unicast frame
//!   goes out the learned port only, and broadcasts flood. A managed
//!   switch additionally owns a management MAC/IP and delivers frames
//!   addressed to it to its own apps (the SNMP agent).
//! * **Addresses resolve before a bridge floods.** There are no ARP
//!   frames: senders read the LAN's static ARP table. A bridge about to
//!   flood a unicast UDP frame to a MAC it has not learned asks that table
//!   first (`Lan::resolve`), and it and every bridge between it and the
//!   station learn the port toward the station — what the ARP reply before
//!   a real unicast would have taught them. Only broadcasts, MACs no NIC
//!   owns and stations no cable reaches flood.
//! * **Hubs** repeat every arriving frame out all other ports through one
//!   shared medium: the repeat serializes at the hub's rate through a
//!   single `medium_free_at` gate, so concurrent senders share the hub's
//!   capacity — the physical property behind the paper's hub-sum
//!   bandwidth rule.
//!
//! ## Timing model
//!
//! A transmitted frame occupies its out-port for `wire_len / link_rate`
//! (frames queue FIFO behind `tx_free_at`, with tail-drop past the port's
//! backlog limit) and arrives after the link's propagation delay. Hub
//! repeats additionally serialize through the shared medium. Timing is
//! intentionally simple — the monitor under test observes *byte counters*,
//! not microsecond latencies — but capacity limits and queue losses are
//! real, so overload behaves like overload.

use crate::addr::{Ipv4Addr, MacAddr};
use crate::app::{Action, AppCtx, UdpApp};
use crate::error::SimError;
use crate::events::{AppId, DeviceId, Event, EventQueue, PortIx};
use crate::nic::{Nic, NicCounters, NicSnapshot};
use crate::packet::{fragment_sizes, Frame, FramePayload, UdpDatagram};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher of the simulator's lookup tables, whose keys — MACs, IPs, UDP
/// ports — are a few bytes the builder assigned: nobody crafts them to
/// collide, so a bridge hop need not pay SipHash twice. Each word of the
/// key, read as one integer, is multiplied into the state and the high
/// half of the 128-bit product folded onto the low. The fold is the
/// point: `HashMap` picks the bucket from a hash's low bits, and in a
/// product alone those depend only on the low bits of the word — measured
/// with the key's first bytes there, all constant across builder MACs,
/// every station of a LAN shared one probe chain and the tick was slower
/// than under SipHash.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[8 - chunk.len()..].copy_from_slice(chunk);
            let product =
                u128::from(self.0 ^ u64::from_be_bytes(word)) * 0x9E37_79B9_7F4A_7C15_u128;
            self.0 = product as u64 ^ (product >> 64) as u64;
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The one map type of the tables above. Nothing may depend on its
/// iteration order (`fdb_snapshot`, the only iteration, sorts).
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Role-specific device state.
#[derive(Debug)]
pub(crate) enum DeviceKind {
    /// An end host.
    Host {
        ip: Ipv4Addr,
        /// Static routes: destination IP → out port. Missing entries fall
        /// back to port 0 (hosts are usually single-homed).
        routes: KeyMap<Ipv4Addr, PortIx>,
    },
    /// A learning switch, optionally managed (management IP + MAC).
    Switch {
        mgmt: Option<(Ipv4Addr, MacAddr)>,
        mac_table: KeyMap<MacAddr, PortIx>,
    },
    /// A repeater hub with a shared medium.
    Hub {
        medium_bps: u64,
        medium_free_at: SimTime,
    },
}

pub(crate) struct Device {
    pub(crate) name: String,
    pub(crate) kind: DeviceKind,
    pub(crate) nics: Vec<Nic>,
    pub(crate) apps: Vec<Option<Box<dyn UdpApp>>>,
    pub(crate) udp_bindings: KeyMap<u16, AppId>,
    pub(crate) epoch: SimTime,
}

impl Device {
    fn ip(&self) -> Option<Ipv4Addr> {
        match &self.kind {
            DeviceKind::Host { ip, .. } => Some(*ip),
            DeviceKind::Switch { mgmt, .. } => mgmt.map(|(ip, _)| ip),
            DeviceKind::Hub { .. } => None,
        }
    }
}

/// A cable between two ports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    pub(crate) a: (DeviceId, PortIx),
    pub(crate) b: (DeviceId, PortIx),
    pub(crate) bits_per_sec: u64,
    pub(crate) propagation: SimDuration,
    /// Probability in [0, 1] that a frame is corrupted in transit and
    /// dropped at the receiver (counted as an input error). Zero on
    /// healthy cables; used for failure injection.
    pub(crate) loss_probability: f64,
}

impl Link {
    fn far_end(&self, dev: DeviceId, port: PortIx) -> (DeviceId, PortIx) {
        if (dev, port) == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// Global engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanStats {
    /// Frames carried to a device port: counted on arrival, or — a frame
    /// the host NIC at the far end filters — when put on the cable.
    pub frames_delivered: u64,
    /// Frames a switch forwarded to a known port.
    pub frames_forwarded: u64,
    /// Frames flooded (unknown destination or broadcast).
    pub frames_flooded: u64,
    /// Frames dropped at a full transmit queue.
    pub frames_dropped_queue: u64,
    /// Frames a hub dropped because the shared medium backlog was full.
    pub frames_dropped_medium: u64,
    /// Datagrams delivered to applications.
    pub datagrams_delivered: u64,
    /// Datagrams arriving on an unbound UDP port (silently discarded).
    pub datagrams_unbound: u64,
    /// Frames corrupted on a lossy link and dropped at the receiver.
    pub frames_dropped_loss: u64,
    /// Sends that failed for lack of an ARP entry.
    pub arp_failures: u64,
    /// App timer events dispatched.
    pub timers_fired: u64,
}

/// The simulated LAN.
pub struct Lan {
    pub(crate) devices: Vec<Device>,
    pub(crate) links: Vec<Link>,
    pub(crate) queue: EventQueue,
    pub(crate) now: SimTime,
    pub(crate) arp: KeyMap<Ipv4Addr, (DeviceId, MacAddr)>,
    pub(crate) name_index: HashMap<String, DeviceId>,
    pub(crate) stats: LanStats,
    pub(crate) rng: StdRng,
    /// The buffer app callbacks push their deferred actions into: lent to
    /// the callback's context by `with_app` and taken back drained, so a
    /// dispatch allocates none of its own.
    actions: Vec<Action>,
    /// `resolve`'s breadth-first search, both sized to the device count
    /// at build and reused: per device reached, the neighbour one step
    /// closer to the station and its own port toward it; and the devices
    /// reached, in order — the search's queue, and the list of what to
    /// clear when it ends.
    resolve_via: Vec<Option<(DeviceId, PortIx)>>,
    resolve_queue: Vec<DeviceId>,
    started: bool,
}

impl Lan {
    pub(crate) fn from_parts(
        devices: Vec<Device>,
        links: Vec<Link>,
        arp: KeyMap<Ipv4Addr, (DeviceId, MacAddr)>,
        name_index: HashMap<String, DeviceId>,
    ) -> Self {
        let device_count = devices.len();
        Lan {
            resolve_via: vec![None; device_count],
            resolve_queue: Vec::with_capacity(device_count),
            devices,
            links,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            arp,
            name_index,
            stats: LanStats::default(),
            rng: StdRng::seed_from_u64(0xC0FF_EE00),
            actions: Vec::new(),
            started: false,
        }
    }

    /// Sets the corruption probability of the link attached to the given
    /// port (failure injection). Frames lost this way increment the
    /// receiver's `ifInErrors`.
    ///
    /// Loss applies to frames put on the cable from now on, which is every
    /// frame when it is set before traffic starts. Raising it from 0 while
    /// frames are in flight misses one kind: a unicast frame already on its
    /// way to a host NIC that will filter it was counted as carried when it
    /// was sent and has no arrival left to corrupt (see `put_on_cable`). All
    /// it could still have done is bump `ifInErrors` on a NIC it was not
    /// addressed to and draw once from the loss RNG. Frames in flight
    /// toward a NIC that accepts them, a switch or a hub are subject to the
    /// new loss as ever.
    pub fn set_link_loss(
        &mut self,
        dev: DeviceId,
        port: PortIx,
        probability: f64,
    ) -> Result<(), SimError> {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability out of range"
        );
        let link_id = self
            .device(dev)?
            .nics
            .get(port.index())
            .ok_or(SimError::NoSuchPort(dev, port))?
            .link
            .ok_or(SimError::NoSuchPort(dev, port))?;
        self.links[link_id.index()].loss_probability = probability;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine statistics.
    pub fn stats(&self) -> LanStats {
        self.stats
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Device lookup by name.
    pub fn device_by_name(&self, name: &str) -> Option<DeviceId> {
        self.name_index.get(name).copied()
    }

    /// A device's name.
    pub fn device_name(&self, dev: DeviceId) -> Result<&str, SimError> {
        Ok(&self.device(dev)?.name)
    }

    /// A device's IP (hosts and managed switches).
    pub fn device_ip(&self, dev: DeviceId) -> Result<Option<Ipv4Addr>, SimError> {
        Ok(self.device(dev)?.ip())
    }

    /// Snapshot of one NIC's counters.
    pub fn nic_counters(&self, dev: DeviceId, port: PortIx) -> Result<NicCounters, SimError> {
        let d = self.device(dev)?;
        d.nics
            .get(port.index())
            .map(|n| n.counters)
            .ok_or(SimError::NoSuchPort(dev, port))
    }

    /// Snapshots of all NICs of a device in ifIndex order.
    pub fn nic_snapshots(&self, dev: DeviceId) -> Result<Vec<NicSnapshot>, SimError> {
        let d = self.device(dev)?;
        Ok(d.nics
            .iter()
            .enumerate()
            .map(|(i, n)| NicSnapshot {
                if_index: i as u32 + 1,
                descr: n.descr.clone(),
                speed_bps: n.speed_bps,
                mac: n.mac,
                counters: n.counters,
            })
            .collect())
    }

    /// `sysUpTime` of a device at the current instant, in TimeTicks.
    pub fn uptime_ticks(&self, dev: DeviceId) -> Result<u32, SimError> {
        Ok(self.now.timeticks_since(self.device(dev)?.epoch))
    }

    /// Pre-loads a NIC's octet counters (e.g. to just below the 2^32 wrap
    /// point), so tests can exercise counter-wrap handling without
    /// simulating gigabytes of traffic. Mirrors a host that has been up
    /// for a long time before monitoring starts.
    pub fn preload_octet_counters(
        &mut self,
        dev: DeviceId,
        port: PortIx,
        in_octets: u32,
        out_octets: u32,
    ) -> Result<(), SimError> {
        let d = self
            .devices
            .get_mut(dev.index())
            .ok_or(SimError::NoSuchDevice(dev))?;
        let nic = d
            .nics
            .get_mut(port.index())
            .ok_or(SimError::NoSuchPort(dev, port))?;
        nic.counters.in_octets = crate::counters::Counter32::with_value(in_octets);
        nic.counters.out_octets = crate::counters::Counter32::with_value(out_octets);
        Ok(())
    }

    fn device(&self, dev: DeviceId) -> Result<&Device, SimError> {
        self.devices
            .get(dev.index())
            .ok_or(SimError::NoSuchDevice(dev))
    }

    // ------------------------------------------------------------------
    // External stimulation
    // ------------------------------------------------------------------

    /// Injects a UDP send from a device, as if one of its apps called
    /// [`AppCtx::send_udp`]. Used by external drivers (e.g. the monitor
    /// runtime posting SNMP polls).
    pub fn post_udp(
        &mut self,
        dev: DeviceId,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        payload: Bytes,
    ) -> Result<(), SimError> {
        self.device(dev)?;
        self.send_udp_internal(dev, src_port, dst_ip, dst_port, payload)
    }

    /// Arms a timer for an installed app from outside the simulation.
    pub fn post_timer(
        &mut self,
        dev: DeviceId,
        app: AppId,
        after: SimDuration,
        token: u64,
    ) -> Result<(), SimError> {
        let d = self.device(dev)?;
        if app.index() >= d.apps.len() {
            return Err(SimError::NoSuchApp(dev, app.0));
        }
        self.queue
            .push(self.now + after, Event::Timer { dev, app, token });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Engine
    // ------------------------------------------------------------------

    /// Runs `on_start` for every installed app (idempotent; invoked by the
    /// builder's `build()`).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for dev_ix in 0..self.devices.len() {
            let dev = DeviceId(dev_ix as u32);
            let app_count = self.devices[dev_ix].apps.len();
            for app_ix in 0..app_count {
                self.with_app(dev, AppId(app_ix as u32), |app, ctx| app.on_start(ctx));
            }
        }
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(scheduled) = self.queue.pop() else {
            return false;
        };
        debug_assert!(scheduled.at >= self.now, "time went backwards");
        self.now = scheduled.at;
        match scheduled.event {
            Event::FrameArrive { dev, port, frame } => self.handle_frame_arrive(dev, port, frame),
            Event::Timer { dev, app, token } => {
                self.stats.timers_fired += 1;
                self.with_app(dev, app, |a, ctx| a.on_timer(ctx, token));
            }
        }
        true
    }

    /// Runs until simulated time reaches `until` (events after `until`
    /// stay queued; `now` advances to exactly `until`).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        if self.now < until {
            self.now = until;
        }
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Number of pending events (for tests and progress reporting).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Processes one event if it is due at or before `deadline`; returns
    /// `true` if an event was processed. When nothing is due, the clock
    /// advances to `deadline` and `false` is returned. This lets external
    /// drivers (e.g. the SNMP poll runtime) interleave with the engine
    /// while checking conditions between events.
    pub fn step_before(&mut self, deadline: SimTime) -> bool {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => self.step(),
            _ => {
                if self.now < deadline {
                    self.now = deadline;
                }
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // App dispatch
    // ------------------------------------------------------------------

    fn with_app<F>(&mut self, dev: DeviceId, app: AppId, f: F)
    where
        F: FnOnce(&mut Box<dyn UdpApp>, &mut AppCtx<'_>),
    {
        let dev_ix = dev.index();
        if dev_ix >= self.devices.len() {
            return;
        }
        let Some(slot) = self.devices[dev_ix].apps.get_mut(app.index()) else {
            return;
        };
        let Some(mut obj) = slot.take() else {
            return; // re-entrant dispatch; cannot happen with deferred actions
        };
        // A dispatch made while actions are being applied (loopback
        // delivery) finds the buffer already lent and starts an empty one.
        let mut actions = std::mem::take(&mut self.actions);
        {
            let d = &self.devices[dev_ix];
            let fdb = match &d.kind {
                DeviceKind::Switch { mac_table, .. } => Some(mac_table),
                _ => None,
            };
            let mut ctx = AppCtx {
                now: self.now,
                dev,
                device_name: &d.name,
                device_ip: d.ip(),
                epoch: d.epoch,
                nics: &d.nics,
                fdb,
                actions,
            };
            f(&mut obj, &mut ctx);
            actions = ctx.actions;
        }
        self.devices[dev_ix].apps[app.index()] = Some(obj);
        self.apply_actions(dev, app, &mut actions);
        self.actions = actions;
    }

    fn apply_actions(&mut self, dev: DeviceId, app: AppId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::SendUdp {
                    src_port,
                    dst_ip,
                    dst_port,
                    payload,
                } => {
                    // Failures (no ARP entry) are counted, not propagated:
                    // a real sendto() to an unresolvable peer also fails
                    // asynchronously from the app's perspective.
                    if self
                        .send_udp_internal(dev, src_port, dst_ip, dst_port, payload)
                        .is_err()
                    {
                        self.stats.arp_failures += 1;
                    }
                }
                Action::SendRawBroadcast { ip_len, port } => {
                    let port = port.unwrap_or(PortIx(0));
                    let Ok(d) = self.device(dev) else { continue };
                    let Some(nic) = d.nics.get(port.index()) else {
                        continue;
                    };
                    let frame = Frame::raw(nic.mac, MacAddr::BROADCAST, ip_len);
                    self.transmit(dev, port, Cow::Owned(frame));
                }
                Action::Timer { after, token } => {
                    self.queue
                        .push(self.now + after, Event::Timer { dev, app, token });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    fn send_udp_internal(
        &mut self,
        dev: DeviceId,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        payload: Bytes,
    ) -> Result<(), SimError> {
        let src_ip = self.device(dev)?.ip().ok_or(SimError::NotAHost(dev))?;

        // Loopback: deliver directly without touching the wire.
        if src_ip == dst_ip {
            let dgram = UdpDatagram {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                payload,
            };
            self.deliver_udp(dev, dgram);
            return Ok(());
        }

        let (_dst_dev, dst_mac) = *self.arp.get(&dst_ip).ok_or(SimError::NoArpEntry(dst_ip))?;

        // Fragment to MTU.
        let mut offset = 0usize;
        for size in fragment_sizes(payload.len()) {
            let chunk = payload.slice(offset..offset + size);
            offset += size;
            let dgram = UdpDatagram {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                payload: chunk,
            };
            let out_port = self.pick_out_port(dev, dst_ip, dst_mac)?;
            match out_port {
                OutPort::Port(p) => {
                    let src_mac = self.device(dev)?.nics[p.index()].mac;
                    let frame = Frame::udp(src_mac, dst_mac, dgram);
                    self.transmit(dev, p, Cow::Owned(frame));
                }
                OutPort::FloodAll => {
                    // Management stack with a destination it cannot
                    // resolve: send a copy out of every port (a real
                    // bridge floods).
                    let nports = self.device(dev)?.nics.len() as u32;
                    for p in (0..nports).map(PortIx) {
                        let src_mac = self.device(dev)?.nics[p.index()].mac;
                        let frame = Frame::udp(src_mac, dst_mac, dgram.clone());
                        self.transmit(dev, p, Cow::Owned(frame));
                    }
                }
            }
        }
        Ok(())
    }

    fn pick_out_port(
        &mut self,
        dev: DeviceId,
        dst_ip: Ipv4Addr,
        dst_mac: MacAddr,
    ) -> Result<OutPort, SimError> {
        let d = self.device(dev)?;
        if d.nics.is_empty() {
            return Err(SimError::NoNic(dev));
        }
        let learned = match &d.kind {
            DeviceKind::Host { routes, .. } => {
                return Ok(OutPort::Port(
                    routes.get(&dst_ip).copied().unwrap_or(PortIx(0)),
                ))
            }
            DeviceKind::Switch { mac_table, .. } => mac_table.get(&dst_mac).copied(),
            DeviceKind::Hub { .. } => return Ok(OutPort::Port(PortIx(0))),
        };
        let out = learned.or_else(|| self.resolve(dev, dst_ip, dst_mac));
        Ok(out.map_or(OutPort::FloodAll, OutPort::Port))
    }

    /// The port through which the bridge `bridge` reaches the station
    /// that `dst_ip` resolves to, if the static ARP table maps `dst_ip` to
    /// `dst_mac` and a cable path leads there: what the ARP reply that
    /// precedes a unicast on a real LAN would have taught it. The bridge
    /// and every bridge between it and the station learn their port
    /// toward it, so the station is found once per path, not per frame.
    ///
    /// One breadth-first search over the device graph, from the station
    /// outward through switches and hubs (hosts do not forward) until it
    /// reaches `bridge`. It starts at the NIC that owns `dst_mac` — a
    /// multi-homed host is learned toward that NIC, not toward whichever
    /// of its NICs is nearer — or, for a management MAC, at the switch
    /// itself. `None`, and the caller floods, for a MAC no NIC owns (a host
    /// with an address and no NIC), a NIC with no cable and a station no
    /// path joins to `bridge`. The search allocates nothing: it runs in
    /// buffers sized to the device count at build.
    fn resolve(&mut self, bridge: DeviceId, dst_ip: Ipv4Addr, dst_mac: MacAddr) -> Option<PortIx> {
        let &(station, mac) = self.arp.get(&dst_ip)?;
        if mac != dst_mac || station == bridge {
            return None;
        }
        let owner = &self.devices[station.index()];
        let is_mgmt =
            matches!(owner.kind, DeviceKind::Switch { mgmt: Some((_, m)), .. } if m == dst_mac);
        let (via, queue) = (&mut self.resolve_via, &mut self.resolve_queue);
        if is_mgmt {
            // Only marks the switch as reached; the walk below stops there.
            via[station.index()] = Some((station, PortIx(0)));
            queue.push(station);
        } else {
            let nic = owner.nics.iter().position(|n| n.mac == dst_mac)?;
            let nic = PortIx(nic as u32);
            let link = &self.links[owner.nics[nic.index()].link?.index()];
            let (next, port) = link.far_end(station, nic);
            if matches!(self.devices[next.index()].kind, DeviceKind::Host { .. }) {
                return None;
            }
            via[next.index()] = Some((station, port));
            queue.push(next);
        }
        let mut head = 0;
        while via[bridge.index()].is_none() && head < queue.len() {
            let at = queue[head];
            head += 1;
            for (p, nic) in self.devices[at.index()].nics.iter().enumerate() {
                let Some(link) = nic.link else { continue };
                let (next, port) = self.links[link.index()].far_end(at, PortIx(p as u32));
                if via[next.index()].is_some()
                    || matches!(self.devices[next.index()].kind, DeviceKind::Host { .. })
                {
                    continue;
                }
                via[next.index()] = Some((at, port));
                queue.push(next);
            }
        }
        let toward = via[bridge.index()].map(|(_, port)| port);
        if toward.is_some() {
            let mut at = bridge;
            while at != station {
                let (closer, port) = via[at.index()].expect("on the search tree");
                if let DeviceKind::Switch { mac_table, .. } = &mut self.devices[at.index()].kind {
                    mac_table.insert(dst_mac, port);
                }
                at = closer;
            }
        }
        for reached in queue.drain(..) {
            via[reached.index()] = None;
        }
        toward
    }

    /// Serializes a frame out of a port onto its link. A borrowed frame
    /// is cloned only if its arrival is scheduled.
    fn transmit(&mut self, dev: DeviceId, port: PortIx, frame: Cow<'_, Frame>) {
        let Ok(d) = self.device(dev) else { return };
        let Some(nic) = d.nics.get(port.index()) else {
            return;
        };
        let Some(link_id) = nic.link else {
            return; // uncabled port: frame disappears (cable unplugged)
        };
        let link = self.links[link_id.index()];
        let rate = link.bits_per_sec;
        let wire = frame.wire_len();
        let now = self.now;

        let nic = &mut self.devices[dev.index()].nics[port.index()];
        let start = nic.tx_free_at.max(now);
        if start.duration_since(now) > nic.queue_limit {
            nic.counters.out_discards.inc();
            self.stats.frames_dropped_queue += 1;
            return;
        }
        let ser = SimDuration::serialization(wire, rate);
        nic.tx_free_at = start + ser;
        nic.counters.record_tx(&frame);

        let arrive = start + ser + link.propagation;
        self.put_on_cable(&link, link.far_end(dev, port), arrive, frame);
    }

    /// Carries a frame down `link` to the port at its far end, to arrive at
    /// `arrive` — the one place that decides whether an arrival is an
    /// event.
    ///
    /// A unicast frame reaching a *host* NIC it is not addressed to is
    /// dropped by that NIC's hardware filter without touching a counter, so
    /// its arrival can change nothing: the filter is applied here and the
    /// frame only counted as carried. A lossy cable is exempt and schedules
    /// everything, because there the receiver decides corruption before it
    /// filters — it bumps `ifInErrors` and draws from the loss RNG even
    /// for frames meant for somebody else.
    fn put_on_cable(
        &mut self,
        link: &Link,
        (dev, port): (DeviceId, PortIx),
        arrive: SimTime,
        frame: Cow<'_, Frame>,
    ) {
        let far = &self.devices[dev.index()];
        if matches!(far.kind, DeviceKind::Host { .. })
            && frame.dst != far.nics[port.index()].mac
            && !frame.is_broadcast()
            && link.loss_probability == 0.0
        {
            self.stats.frames_delivered += 1;
            return;
        }
        let frame = frame.into_owned();
        self.queue
            .push(arrive, Event::FrameArrive { dev, port, frame });
    }

    // ------------------------------------------------------------------
    // Receiving / forwarding
    // ------------------------------------------------------------------

    fn handle_frame_arrive(&mut self, dev: DeviceId, port: PortIx, frame: Frame) {
        let dev_ix = dev.index();
        if dev_ix >= self.devices.len() || port.index() >= self.devices[dev_ix].nics.len() {
            return;
        }

        // Failure injection: a lossy cable corrupts the frame; the
        // receiver detects the bad FCS and drops it as an input error.
        if let Some(link_id) = self.devices[dev_ix].nics[port.index()].link {
            let p = self.links[link_id.index()].loss_probability;
            if p > 0.0 && self.rng.gen::<f64>() < p {
                self.devices[dev_ix].nics[port.index()]
                    .counters
                    .in_errors
                    .inc();
                self.stats.frames_dropped_loss += 1;
                return;
            }
        }
        self.stats.frames_delivered += 1;

        enum Disposition {
            HostDeliver(Option<UdpDatagram>),
            HostFiltered,
            SwitchToMgmt,
            SwitchForward(PortIx),
            /// A unicast to a MAC the bridge has not learned.
            SwitchUnlearned,
            SwitchFlood,
            HubRepeat,
        }

        let disposition = {
            let d = &mut self.devices[dev_ix];
            match &mut d.kind {
                DeviceKind::Host { ip, .. } => {
                    let nic = &mut d.nics[port.index()];
                    if frame.dst == nic.mac || frame.is_broadcast() {
                        nic.counters.record_rx(&frame);
                        match &frame.payload {
                            FramePayload::Udp(dgram)
                                if dgram.dst_ip == *ip && !frame.is_broadcast() =>
                            {
                                Disposition::HostDeliver(Some(dgram.clone()))
                            }
                            _ => Disposition::HostDeliver(None),
                        }
                    } else {
                        // Hardware MAC filter: frame not for us (hub
                        // segment): silently ignored, not counted.
                        Disposition::HostFiltered
                    }
                }
                DeviceKind::Switch {
                    mgmt, mac_table, ..
                } => {
                    d.nics[port.index()].counters.record_rx(&frame);
                    // Learn the sender's location.
                    if !frame.src.is_broadcast() {
                        mac_table.insert(frame.src, port);
                    }
                    if matches!(mgmt, Some((_, mac)) if frame.dst == *mac) {
                        Disposition::SwitchToMgmt
                    } else if frame.is_broadcast() {
                        Disposition::SwitchFlood
                    } else {
                        match mac_table.get(&frame.dst) {
                            Some(&out) if out != port => Disposition::SwitchForward(out),
                            Some(_) => {
                                // Destination lives on the ingress port
                                // segment: filter (already delivered).
                                return;
                            }
                            None => Disposition::SwitchUnlearned,
                        }
                    }
                }
                DeviceKind::Hub { .. } => {
                    d.nics[port.index()].counters.record_rx(&frame);
                    Disposition::HubRepeat
                }
            }
        };

        match disposition {
            Disposition::HostFiltered | Disposition::HostDeliver(None) => {}
            Disposition::HostDeliver(Some(dgram)) => self.deliver_udp(dev, dgram),
            Disposition::SwitchToMgmt => {
                if let FramePayload::Udp(dgram) = &frame.payload {
                    let dgram = dgram.clone();
                    self.deliver_udp(dev, dgram);
                }
            }
            Disposition::SwitchForward(out) => self.forward(dev, out, frame),
            Disposition::SwitchUnlearned => {
                let resolved = match &frame.payload {
                    FramePayload::Udp(dgram) => self.resolve(dev, dgram.dst_ip, frame.dst),
                    FramePayload::Raw { .. } => None,
                };
                match resolved {
                    // The station lives on the ingress port segment: filter.
                    Some(out) if out == port => {}
                    Some(out) => self.forward(dev, out, frame),
                    None => self.flood(dev, port, &frame),
                }
            }
            Disposition::SwitchFlood => self.flood(dev, port, &frame),
            Disposition::HubRepeat => self.hub_repeat(dev, port, frame),
        }
    }

    /// Sends a frame out of a bridge's learned port.
    fn forward(&mut self, dev: DeviceId, out: PortIx, frame: Frame) {
        self.stats.frames_forwarded += 1;
        self.transmit(dev, out, Cow::Owned(frame));
    }

    /// Sends a copy of a frame out of every bridge port but the one it
    /// came in on.
    fn flood(&mut self, dev: DeviceId, in_port: PortIx, frame: &Frame) {
        self.stats.frames_flooded += 1;
        let nports = self.devices[dev.index()].nics.len() as u32;
        for p in (0..nports).map(PortIx) {
            if p != in_port {
                self.transmit(dev, p, Cow::Borrowed(frame));
            }
        }
    }

    /// Repeats a frame out of all other hub ports through the shared
    /// medium.
    fn hub_repeat(&mut self, dev: DeviceId, in_port: PortIx, frame: Frame) {
        let dev_ix = dev.index();
        let wire = frame.wire_len();
        let now = self.now;

        let after_medium = {
            let DeviceKind::Hub {
                medium_bps,
                medium_free_at,
            } = &mut self.devices[dev_ix].kind
            else {
                return;
            };
            let start = (*medium_free_at).max(now);
            // Shared-medium backlog limit: mirror the per-port queue depth.
            if start.duration_since(now) > SimDuration::from_millis(200) {
                self.stats.frames_dropped_medium += 1;
                self.devices[dev_ix].nics[in_port.index()]
                    .counters
                    .in_discards
                    .inc();
                return;
            }
            let busy = SimDuration::serialization(wire, *medium_bps);
            *medium_free_at = start + busy;
            start + busy
        };

        let nports = self.devices[dev_ix].nics.len();
        for p in 0..nports {
            let p = PortIx(p as u32);
            if p == in_port {
                continue;
            }
            let nic = &mut self.devices[dev_ix].nics[p.index()];
            let Some(link_id) = nic.link else { continue };
            // Count the repeat on the hub's own egress port.
            nic.counters.record_tx(&frame);
            let link = self.links[link_id.index()];
            let arrive = after_medium + link.propagation;
            self.put_on_cable(&link, link.far_end(dev, p), arrive, Cow::Borrowed(&frame));
        }
    }

    fn deliver_udp(&mut self, dev: DeviceId, dgram: UdpDatagram) {
        let dev_ix = dev.index();
        let Some(&app) = self.devices[dev_ix].udp_bindings.get(&dgram.dst_port) else {
            self.stats.datagrams_unbound += 1;
            return;
        };
        self.stats.datagrams_delivered += 1;
        self.with_app(dev, app, |a, ctx| a.on_datagram(ctx, &dgram));
    }
}

enum OutPort {
    Port(PortIx),
    FloodAll,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{DiscardSink, EchoResponder, Mailbox};
    use crate::builder::LanBuilder;
    use crate::packet::{DISCARD_PORT, ECHO_PORT};

    /// A <-> switch <-> B plus C on the switch, and D, an address with no
    /// NIC: its ARP entry names a MAC no station owns.
    fn three_hosts_on_switch() -> (Lan, DeviceId, DeviceId, DeviceId) {
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.add_nic(a, "eth0", 100_000_000).unwrap();
        let h2 = b.add_host("B", "10.0.0.2").unwrap();
        b.add_nic(h2, "eth0", 100_000_000).unwrap();
        let h3 = b.add_host("C", "10.0.0.3").unwrap();
        b.add_nic(h3, "eth0", 100_000_000).unwrap();
        let sw = b.add_switch("sw", None).unwrap();
        for i in 1..=3 {
            b.add_nic(sw, &format!("p{i}"), 100_000_000).unwrap();
        }
        b.connect((a, PortIx(0)), (sw, PortIx(0))).unwrap();
        b.connect((h2, PortIx(0)), (sw, PortIx(1))).unwrap();
        b.connect((h3, PortIx(0)), (sw, PortIx(2))).unwrap();
        b.install_app(h2, Box::new(DiscardSink::default()), Some(DISCARD_PORT))
            .unwrap();
        b.install_app(h3, Box::new(DiscardSink::default()), Some(DISCARD_PORT))
            .unwrap();
        b.add_host("D", "10.0.0.4").unwrap();
        (b.build(), a, h2, h3)
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// The keys the builder hands out are sequential: MACs that differ in
    /// their last octets only, addresses of one subnet. `HashMap` takes a
    /// key's bucket from the low bits of its hash and a 7-bit tag from the
    /// top, so both ends must spread as a random function's would — 4 096
    /// keys thrown at 4 096 buckets hit 63 % of them.
    #[test]
    fn sequential_keys_spread_over_both_ends_of_the_hash() {
        use std::collections::HashSet;
        use std::hash::{BuildHasher, Hash};
        const KEYS: u64 = 4096;
        fn spread<K: Hash>(what: &str, key: impl Fn(u64) -> K) {
            let build = BuildHasherDefault::<KeyHasher>::default();
            let hashes: Vec<u64> = (1..=KEYS).map(|i| build.hash_one(key(i))).collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h % KEYS).collect();
            assert!(
                buckets.len() as u64 > KEYS * 55 / 100,
                "{what}: {} of {KEYS} buckets",
                buckets.len()
            );
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert_eq!(tags.len(), 128, "{what}: tags");
        }
        spread("NIC MACs", MacAddr::from_seed);
        spread("management MACs", |i| MacAddr::from_seed(0xAAAA_0000 + i));
        spread("addresses", |i| {
            Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8)
        });
        spread("ports", |i| i as u16);
    }

    #[test]
    fn unicast_reaches_destination_only() {
        let (mut lan, a, bdev, c) = three_hosts_on_switch();
        let sw = lan.device_by_name("sw").unwrap();
        // B has never transmitted, yet the first frame to it is not
        // flooded: the switch resolves B's address and learns its port.
        lan.post_udp(a, 5000, ip("10.0.0.2"), DISCARD_PORT, vec![0u8; 100].into())
            .unwrap();
        lan.run_for(SimDuration::from_millis(10));
        let toward_c = lan.nic_counters(sw, PortIx(2)).unwrap();
        assert_eq!(
            toward_c.out_octets.value(),
            0,
            "switch must isolate unicast traffic"
        );
        assert_eq!(lan.nic_counters(c, PortIx(0)).unwrap().in_octets.value(), 0);
        assert_eq!(lan.stats().frames_flooded, 0);
        let b_ctr = lan.nic_counters(bdev, PortIx(0)).unwrap();
        assert!(b_ctr.in_octets.value() > 0);
    }

    #[test]
    fn unknown_destination_floods() {
        let (mut lan, a, bdev, c) = three_hosts_on_switch();
        let sw = lan.device_by_name("sw").unwrap();
        // D's MAC is on no NIC, so nothing can resolve it.
        lan.post_udp(a, 5000, ip("10.0.0.4"), DISCARD_PORT, vec![0u8; 100].into())
            .unwrap();
        lan.run_for(SimDuration::from_millis(10));
        assert_eq!(lan.stats().frames_flooded, 1);
        // The frame was flooded, so B's and C's ports transmitted it; but
        // their NICs filter it (wrong dst MAC) and must NOT count it.
        for (port, host) in [(PortIx(1), bdev), (PortIx(2), c)] {
            let egress = lan.nic_counters(sw, port).unwrap();
            assert_eq!(egress.out_ucast_pkts.value(), 1);
            let nic = lan.nic_counters(host, PortIx(0)).unwrap();
            assert_eq!(nic.in_octets.value(), 0);
        }
    }

    /// A resolution searches buffers sized at build and leaves them clear,
    /// whether it found the station or not.
    #[test]
    fn resolving_leaves_its_buffers_clear_and_their_size_unchanged() {
        let (mut lan, a, _b, _c) = three_hosts_on_switch();
        let devices = lan.device_count();
        for to in ["10.0.0.2", "10.0.0.3", "10.0.0.4"] {
            lan.post_udp(a, 5000, ip(to), DISCARD_PORT, vec![0u8; 10].into())
                .unwrap();
            lan.run_for(SimDuration::from_millis(1));
            assert!(lan.resolve_via.iter().all(Option::is_none), "after {to}");
            assert!(lan.resolve_queue.is_empty(), "after {to}");
            assert_eq!(lan.resolve_via.len(), devices);
            assert_eq!(lan.resolve_queue.capacity(), devices);
        }
        assert_eq!(lan.stats().frames_flooded, 1, "D only");
    }

    #[test]
    fn payload_bytes_arrive_intact() {
        let (mut lan, a, bdev, _c) = three_hosts_on_switch();
        let (sink, handle) = DiscardSink::with_handle();
        // Rebind port 9 on B is not allowed; bind a different port.
        let app = lan.devices[bdev.index()].apps.len();
        lan.devices[bdev.index()].apps.push(Some(Box::new(sink)));
        lan.devices[bdev.index()]
            .udp_bindings
            .insert(4000, AppId(app as u32));
        lan.post_udp(a, 5000, ip("10.0.0.2"), 4000, vec![7u8; 5000].into())
            .unwrap();
        lan.run_for(SimDuration::from_millis(50));
        let s = handle.borrow();
        assert_eq!(s.payload_bytes, 5000);
        assert_eq!(s.datagrams, 4); // 1472*3 + 584
    }

    #[test]
    fn echo_round_trip() {
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.add_nic(a, "eth0", 10_000_000).unwrap();
        let e = b.add_host("E", "10.0.0.2").unwrap();
        b.add_nic(e, "eth0", 10_000_000).unwrap();
        b.connect((a, PortIx(0)), (e, PortIx(0))).unwrap();
        b.install_app(e, Box::new(EchoResponder), Some(ECHO_PORT))
            .unwrap();
        let (mbox, inbox) = Mailbox::with_handle();
        b.install_app(a, Box::new(mbox), Some(6000)).unwrap();
        let mut lan = b.build();
        lan.post_udp(
            a,
            6000,
            ip("10.0.0.2"),
            ECHO_PORT,
            Bytes::from_static(b"ping"),
        )
        .unwrap();
        lan.run_for(SimDuration::from_millis(20));
        let inbox = inbox.borrow();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1.payload.as_ref(), b"ping");
        // RTT is positive: serialization both ways.
        assert!(inbox[0].0 > SimTime::ZERO);
    }

    #[test]
    fn loopback_delivery_bypasses_wire() {
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.add_nic(a, "eth0", 10_000_000).unwrap();
        let (sink, handle) = DiscardSink::with_handle();
        b.install_app(a, Box::new(sink), Some(DISCARD_PORT))
            .unwrap();
        let mut lan = b.build();
        lan.post_udp(a, 5000, ip("10.0.0.1"), DISCARD_PORT, vec![0u8; 10].into())
            .unwrap();
        lan.run_for(SimDuration::from_millis(1));
        assert_eq!(handle.borrow().datagrams, 1);
        let ctr = lan.nic_counters(a, PortIx(0)).unwrap();
        assert_eq!(ctr.out_octets.value(), 0, "loopback must not touch the NIC");
    }

    #[test]
    fn no_arp_entry_counted() {
        let (mut lan, a, _, _) = three_hosts_on_switch();
        assert!(matches!(
            lan.post_udp(a, 1, ip("10.9.9.9"), 9, Bytes::new()),
            Err(SimError::NoArpEntry(_))
        ));
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let (mut lan, a, _b, _c) = three_hosts_on_switch();
        // Saturate: 100 Mb/s link, 200 ms queue ≈ 2.5 MB of backlog.
        // Posting 10 MB at one instant must overflow.
        for _ in 0..100 {
            lan.post_udp(
                a,
                5000,
                ip("10.0.0.2"),
                DISCARD_PORT,
                vec![0u8; 100_000].into(),
            )
            .unwrap();
        }
        lan.run_for(SimDuration::from_secs(2));
        let stats = lan.stats();
        assert!(stats.frames_dropped_queue > 0, "{stats:?}");
        let ctr = lan.nic_counters(a, PortIx(0)).unwrap();
        assert!(ctr.out_discards.value() > 0);
    }

    #[test]
    fn throughput_respects_link_rate() {
        // 10 Mb/s bottleneck: 2 seconds of full blast delivers ~2.5 MB max.
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.add_nic(a, "eth0", 10_000_000).unwrap();
        let d = b.add_host("B", "10.0.0.2").unwrap();
        b.add_nic(d, "eth0", 10_000_000).unwrap();
        b.connect((a, PortIx(0)), (d, PortIx(0))).unwrap();
        let (sink, handle) = DiscardSink::with_handle();
        b.install_app(d, Box::new(sink), Some(DISCARD_PORT))
            .unwrap();
        let mut lan = b.build();
        // Offer 2 MB instantly (queue holds 200ms = 250 KB; rest drops).
        for _ in 0..20 {
            lan.post_udp(
                a,
                1,
                ip("10.0.0.2"),
                DISCARD_PORT,
                vec![0u8; 100_000].into(),
            )
            .unwrap();
        }
        lan.run_for(SimDuration::from_secs(1));
        let received = handle.borrow().payload_bytes;
        // Can never exceed line rate * time.
        assert!(received <= 10_000_000 / 8, "received {received}");
        assert!(received > 0);
    }

    #[test]
    fn uptime_advances_with_time() {
        let (mut lan, a, _, _) = three_hosts_on_switch();
        assert_eq!(lan.uptime_ticks(a).unwrap(), 0);
        lan.run_for(SimDuration::from_secs(5));
        assert_eq!(lan.uptime_ticks(a).unwrap(), 500);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut lan, _, _, _) = three_hosts_on_switch();
        lan.run_until(SimTime::from_micros(123_456));
        assert_eq!(lan.now(), SimTime::from_micros(123_456));
    }

    #[test]
    fn timers_fire_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Recorder(Rc<RefCell<Vec<u64>>>);
        impl UdpApp for Recorder {
            fn on_timer(&mut self, _ctx: &mut AppCtx<'_>, token: u64) {
                self.0.borrow_mut().push(token);
            }
        }
        let mut b = LanBuilder::new();
        let a = b.add_host("A", "10.0.0.1").unwrap();
        b.add_nic(a, "eth0", 10_000_000).unwrap();
        let log = Rc::new(RefCell::new(Vec::new()));
        let app = b
            .install_app(a, Box::new(Recorder(log.clone())), None)
            .unwrap();
        let mut lan = b.build();
        lan.post_timer(a, app, SimDuration::from_millis(30), 3)
            .unwrap();
        lan.post_timer(a, app, SimDuration::from_millis(10), 1)
            .unwrap();
        lan.post_timer(a, app, SimDuration::from_millis(20), 2)
            .unwrap();
        lan.run_for(SimDuration::from_millis(100));
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }
}
