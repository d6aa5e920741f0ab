//! Network assembly helpers, including the paper's Figure 10 test bed.
//!
//! "Fault injections were performed on a three-node network consisting of
//! one PC … two SUN UltraSPARC workstations, and an 8-port Myrinet
//! switch. Each node had a 1.2+1.2 Gbps host interface card installed."
//! The fault injector sits on the link between one host and the switch.

use netfi_core::InjectorDevice;
use netfi_myrinet::addr::{EthAddr, NodeAddress};
use netfi_myrinet::event::{connect, ConnectError, Ev};
use netfi_myrinet::interface::InterfaceConfig;
use netfi_myrinet::mapper::Topology;
use netfi_myrinet::switch::{Switch, SwitchConfig};
use netfi_phy::Link;
use netfi_sim::{ComponentId, Engine, NullProbe, Probe, SimTime};

use crate::host::{Host, HostCmd, HostConfig};

/// Handles to a built test-bed network.
///
/// Generic over the engine's observation [`Probe`]; the default
/// ([`NullProbe`]) is the unobserved test bed every existing harness uses.
#[derive(Debug)]
pub struct Testbed<P: Probe = NullProbe> {
    /// The event engine, ready to run.
    pub engine: Engine<Ev, P>,
    /// Host component ids, in address order (index 0 = lowest).
    pub hosts: Vec<ComponentId>,
    /// The switch.
    pub switch: ComponentId,
    /// The fault injector, if one was spliced in.
    pub injector: Option<ComponentId>,
}

/// Options for [`build_testbed`].
#[derive(Debug, Clone)]
pub struct TestbedOptions {
    /// Number of hosts (the paper uses 3).
    pub hosts: usize,
    /// Link parameters (the paper's SAN runs 1.28 Gb/s; campaigns use the
    /// 640 Mb/s configuration of footnote 5).
    pub link: Link,
    /// Splice the injector between host `intercepted` and the switch.
    pub intercept_host: Option<usize>,
    /// Paper-era host timing (~117.5 µs per send or receive, with
    /// jitter) instead of [`HostConfig::fast`] hosts.
    pub paper_era_hosts: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// The switch's buffering and timeout parameters.
    pub switch_config: SwitchConfig,
}

impl Default for TestbedOptions {
    fn default() -> Self {
        TestbedOptions {
            hosts: 3,
            link: Link::myrinet_640(1.0),
            intercept_host: None,
            paper_era_hosts: false,
            seed: 0x6e65_7466,
            switch_config: SwitchConfig::default(),
        }
    }
}

/// Builds the Figure 10 test bed: `hosts` hosts on one 8-port switch,
/// optionally with the fault injector spliced into one host's link.
///
/// `customize` is called once per host (with its index) so callers can add
/// workloads before the components are boxed. All hosts receive a
/// [`HostCmd::Start`] at time zero.
///
/// # Errors
///
/// Returns [`ConnectError`] if wiring fails — impossible for components
/// this function itself creates, but surfaced rather than panicking.
///
/// # Panics
///
/// Panics if more than 8 hosts are requested.
pub fn build_testbed(
    options: TestbedOptions,
    customize: impl FnMut(usize, &mut Host),
) -> Result<Testbed, ConnectError> {
    build_testbed_probed(options, NullProbe, customize)
}

/// [`build_testbed`], but with an observation [`Probe`] installed on the
/// engine. The probe sees every event dispatch; observation never feeds
/// back into the simulation, so a probed test bed follows the exact same
/// trajectory as an unprobed one with the same options and seed.
///
/// # Errors
///
/// Returns [`ConnectError`] if wiring fails (see [`build_testbed`]).
///
/// # Panics
///
/// Panics if more than 8 hosts are requested.
pub fn build_testbed_probed<P: Probe>(
    options: TestbedOptions,
    probe: P,
    mut customize: impl FnMut(usize, &mut Host),
) -> Result<Testbed<P>, ConnectError> {
    assert!(options.hosts <= 8, "the test-bed switch has 8 ports");
    let mut engine: Engine<Ev, P> = Engine::with_probe(probe);
    let topo = Topology::single_switch(8);
    let switch = engine.add_component(Box::new(Switch::new(
        "sw0",
        8,
        options.switch_config.clone(),
    )));
    let mut hosts = Vec::new();
    let mut injector = None;

    for i in 0..options.hosts {
        let addr = NodeAddress(100 + i as u64);
        let mac = EthAddr::myricom(i as u32 + 1);
        let iface = InterfaceConfig::new(addr, mac, (0, i as u8), topo.clone());
        let seed = options.seed.wrapping_add(i as u64);
        let mut host = Host::new(if options.paper_era_hosts {
            HostConfig::paper_era(iface, seed)
        } else {
            HostConfig::fast(iface, seed)
        });
        customize(i, &mut host);
        let h = engine.add_component(Box::new(host));

        if options.intercept_host == Some(i) {
            let dev = engine.add_component(Box::new(InjectorDevice::with_name(format!(
                "fi-host{i}"
            ))));
            connect::<Host, InjectorDevice, _>(&mut engine, (h, 0), (dev, 0), &options.link)?;
            connect::<InjectorDevice, Switch, _>(&mut engine, (dev, 1), (switch, i as u8), &options.link)?;
            injector = Some(dev);
        } else {
            connect::<Host, Switch, _>(&mut engine, (h, 0), (switch, i as u8), &options.link)?;
        }
        engine.schedule(SimTime::ZERO, h, Ev::App(Box::new(HostCmd::Start)));
        hosts.push(h);
    }

    Ok(Testbed {
        engine,
        hosts,
        switch,
        injector,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Workload;
    use crate::SINK_PORT;
    use netfi_core::Direction;
    use netfi_sim::SimDuration;

    #[test]
    fn testbed_maps_and_carries_traffic() {
        let mut tb = build_testbed(TestbedOptions::default(), |i, host| {
            if i == 0 {
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(3),
                    interval: SimDuration::from_ms(5),
                    payload_len: 64,
                    forbidden: vec![],
                    burst: 1,
                });
            }
        })
        .unwrap();
        tb.engine.run_until(SimTime::from_secs(3));
        let h2 = tb.engine.component_as::<Host>(tb.hosts[2]).unwrap();
        assert!(h2.rx_count(SINK_PORT) > 100);
        // Highest-addressed host is mapper.
        assert!(h2.nic().is_mapper());
    }

    #[test]
    fn testbed_with_injector_is_transparent() {
        let options = TestbedOptions {
            intercept_host: Some(2),
            ..TestbedOptions::default()
        };
        let mut tb = build_testbed(options, |i, host| {
            if i == 0 {
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(3),
                    interval: SimDuration::from_ms(5),
                    payload_len: 64,
                    forbidden: vec![],
                    burst: 1,
                });
            }
        })
        .unwrap();
        tb.engine.run_until(SimTime::from_secs(3));
        let h2 = tb.engine.component_as::<Host>(tb.hosts[2]).unwrap();
        // Traffic and mapping both flow through the device: host 2 is
        // reachable AND became mapper through the injector link.
        assert!(h2.rx_count(SINK_PORT) > 100);
        assert!(h2.nic().is_mapper());
        // And the device observed both mapping and data packets.
        let dev = tb.injector.unwrap();
        let device = tb
            .engine
            .component_as::<netfi_core::InjectorDevice>(dev)
            .unwrap();
        let now = tb.engine.now();
        let stats = device.channel_stats(Direction::AToB, now);
        assert!(stats.packets > 0);
        let stats_b = device.channel_stats(Direction::BToA, now);
        assert!(stats_b.mapping_packets > 0, "scout replies pass B->A");
    }

    #[test]
    #[should_panic(expected = "8 ports")]
    fn too_many_hosts_rejected() {
        let options = TestbedOptions {
            hosts: 9,
            ..TestbedOptions::default()
        };
        let _ = build_testbed(options, |_, _| {});
    }
}
