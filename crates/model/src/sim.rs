//! A discrete-event simulator for the operational semantics of Figure 3.
//!
//! The simulator executes the small-step rules of the paper (IN, OUT, PROCESS,
//! FORWARD, UPDATE, INCR, FLUSH) on a concrete schedule: at every tick each
//! link delivers its queued packets to the adjacent switch, which processes
//! them with its *current* table, and the controller issues at most one
//! command (updates take a configurable number of ticks, modelling the
//! seconds-long rule-installation latency the paper cites).
//!
//! This is the substrate for reproducing Figure 2(a) of the paper: probe
//! packets are injected while an update executes and the report counts the
//! probes sent, delivered and dropped.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::command::{Command, CommandSeq};
use crate::config::Configuration;
use crate::error::ModelError;
use crate::packet::Packet;
use crate::topology::{Endpoint, Topology};
use crate::types::{Epoch, HostId, PortId, SwitchId};

/// Options controlling the simulator's timing model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulatorOptions {
    /// Number of ticks it takes the controller to install one switch update.
    /// The paper notes single-switch updates can take orders of magnitude
    /// longer than packet transit, so this defaults to a value much larger
    /// than one hop per tick.
    pub ticks_per_update: u64,
    /// Number of ticks consumed by an `incr` command.
    pub ticks_per_incr: u64,
    /// Safety bound on the total number of ticks a single `run` may take.
    pub max_ticks: u64,
    /// Maximum number of hops a packet may take before the simulator declares
    /// a forwarding loop and drops it (recording the drop).
    pub max_hops: u32,
}

impl Default for SimulatorOptions {
    fn default() -> Self {
        SimulatorOptions {
            ticks_per_update: 20,
            ticks_per_incr: 1,
            max_ticks: 100_000,
            max_hops: 64,
        }
    }
}

/// A packet in flight, carrying its ingress epoch and a hop counter.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlight {
    packet: Packet,
    epoch: Epoch,
    hops: u32,
}

/// A periodically injected probe stream, used to reproduce Figure 2(a).
#[derive(Debug, Clone)]
struct ProbeStream {
    host: HostId,
    packet: Packet,
    period: u64,
}

/// Summary of a probe experiment: how many probes were sent, delivered and
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProbeReport {
    /// Probes injected.
    pub sent: usize,
    /// Probes delivered to any host.
    pub received: usize,
    /// Probes dropped inside the network.
    pub dropped: usize,
}

impl ProbeReport {
    /// Total number of probes sent.
    pub fn total_sent(&self) -> usize {
        self.sent
    }

    /// Total number of probes received.
    pub fn total_received(&self) -> usize {
        self.received
    }

    /// Total number of probes dropped.
    pub fn total_dropped(&self) -> usize {
        self.dropped
    }

    /// Fraction of probes received, in `[0, 1]`.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.received as f64 / self.sent as f64
        }
    }
}

/// Pending controller work derived from a [`CommandSeq`].
#[derive(Debug, Clone)]
enum ControllerState {
    Idle,
    /// Waiting `remaining` ticks before the command at the head of the queue
    /// takes effect.
    Busy {
        remaining: u64,
    },
    /// Blocked on a flush: waiting for all packets with epoch `< target` to
    /// leave the network.
    Flushing {
        target: Epoch,
    },
}

/// The discrete-event simulator.
///
/// See the [module documentation](self) for the timing model.
#[derive(Debug, Clone)]
pub struct Simulator {
    topology: Arc<Topology>,
    config: Configuration,
    options: SimulatorOptions,
    /// Per-link FIFO queues of in-flight packets, indexed by link id.
    link_queues: Vec<VecDeque<InFlight>>,
    commands: VecDeque<Command>,
    controller: ControllerState,
    epoch: Epoch,
    tick: u64,
    probes: Vec<ProbeStream>,
    report: ProbeReport,
}

impl Simulator {
    /// Creates a simulator over `topology` starting from `initial` tables.
    ///
    /// The topology is shared (`Arc`); passing an owned [`Topology`] wraps it
    /// without copying, and callers that already hold an `Arc` share it.
    pub fn new(topology: impl Into<Arc<Topology>>, initial: Configuration) -> Self {
        let topology = topology.into();
        let link_queues = vec![VecDeque::new(); topology.num_links()];
        Simulator {
            topology,
            config: initial,
            options: SimulatorOptions::default(),
            link_queues,
            commands: VecDeque::new(),
            controller: ControllerState::Idle,
            epoch: Epoch::ZERO,
            tick: 0,
            probes: Vec::new(),
            report: ProbeReport::default(),
        }
    }

    /// Overrides the timing options.
    #[must_use]
    pub fn with_options(mut self, options: SimulatorOptions) -> Self {
        self.options = options;
        self
    }

    /// Schedules a command sequence for the controller to execute.
    pub fn schedule_commands(&mut self, cmds: CommandSeq) {
        self.commands.extend(cmds);
    }

    /// Registers a probe stream: starting at tick 0, a copy of `packet` is
    /// injected at `host` every `period` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn add_probe_stream(&mut self, host: HostId, packet: Packet, period: u64) {
        assert!(period > 0, "probe period must be positive");
        self.probes.push(ProbeStream {
            host,
            packet,
            period,
        });
    }

    /// The current configuration installed in the data plane.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// The current controller epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The current tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Returns `true` if no packets are in flight anywhere in the network.
    pub fn is_quiescent(&self) -> bool {
        self.link_queues.iter().all(VecDeque::is_empty)
    }

    /// Runs the simulation for `ticks` ticks (or until the configured
    /// `max_ticks` budget is exhausted).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StepBudgetExceeded`] if the run would exceed the
    /// configured tick budget.
    pub fn run(&mut self, ticks: u64) -> Result<&ProbeReport, ModelError> {
        if self.tick + ticks > self.options.max_ticks {
            return Err(ModelError::StepBudgetExceeded {
                budget: self.options.max_ticks as usize,
            });
        }
        for _ in 0..ticks {
            self.step();
        }
        Ok(&self.report)
    }

    /// Runs until the controller has executed every scheduled command and the
    /// network has quiesced (no packets in flight and no probes scheduled).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StepBudgetExceeded`] if the tick budget runs out
    /// first (e.g. because a forwarding loop keeps packets alive forever).
    pub fn run_to_completion(&mut self) -> Result<&ProbeReport, ModelError> {
        while !(self.commands.is_empty()
            && matches!(self.controller, ControllerState::Idle)
            && self.is_quiescent())
        {
            if self.tick >= self.options.max_ticks {
                return Err(ModelError::StepBudgetExceeded {
                    budget: self.options.max_ticks as usize,
                });
            }
            self.step();
        }
        Ok(&self.report)
    }

    /// The probe report accumulated so far.
    pub fn report(&self) -> &ProbeReport {
        &self.report
    }

    /// Executes one tick: controller action, packet forwarding, probe
    /// injection.
    pub fn step(&mut self) {
        self.step_controller();
        self.step_data_plane();
        self.step_probes();
        self.tick += 1;
    }

    // ---- controller plane -------------------------------------------------

    fn step_controller(&mut self) {
        match self.controller {
            ControllerState::Idle => {
                if let Some(cmd) = self.commands.front() {
                    let delay = match cmd {
                        Command::Update(..) => self.options.ticks_per_update,
                        Command::Incr => self.options.ticks_per_incr,
                        Command::Flush => 0,
                    };
                    if delay == 0 {
                        self.execute_front_command();
                    } else {
                        self.controller = ControllerState::Busy { remaining: delay };
                    }
                }
            }
            ControllerState::Busy { remaining } => {
                if remaining <= 1 {
                    self.controller = ControllerState::Idle;
                    self.execute_front_command();
                } else {
                    self.controller = ControllerState::Busy {
                        remaining: remaining - 1,
                    };
                }
            }
            ControllerState::Flushing { target } => {
                if self.min_inflight_epoch().is_none_or(|e| e >= target) {
                    self.controller = ControllerState::Idle;
                }
            }
        }
    }

    fn execute_front_command(&mut self) {
        let Some(cmd) = self.commands.pop_front() else {
            return;
        };
        match cmd {
            Command::Update(sw, table) => {
                self.config.set_table(sw, table);
            }
            Command::Incr => self.epoch = self.epoch.next(),
            Command::Flush => self.controller = ControllerState::Flushing { target: self.epoch },
        }
    }

    fn min_inflight_epoch(&self) -> Option<Epoch> {
        self.link_queues.iter().flatten().map(|p| p.epoch).min()
    }

    // ---- data plane --------------------------------------------------------

    fn step_data_plane(&mut self) {
        // Collect the packets delivered to each switch this tick, then process
        // them against the switch's *current* table; outputs are enqueued on
        // outgoing links and will be handled next tick (one hop per tick).
        let mut arrivals: Vec<(SwitchId, PortId, InFlight)> = Vec::new();

        for (idx, queue) in self.link_queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            let link = self.topology.links()[idx];
            while let Some(pkt) = queue.pop_front() {
                match link.dst {
                    Endpoint::SwitchPort(sw, pt) => arrivals.push((sw, pt, pkt)),
                    Endpoint::Host(_) => self.report.received += 1,
                }
            }
        }

        for (sw, pt, inflight) in arrivals {
            if inflight.hops >= self.options.max_hops {
                self.report.dropped += 1;
                continue;
            }
            let outputs = self.config.table(sw).process(&inflight.packet, pt);
            if outputs.is_empty() {
                self.report.dropped += 1;
                continue;
            }
            for (packet, out_port) in outputs {
                match self.topology.link_from_port(sw, out_port) {
                    None => self.report.dropped += 1,
                    Some((link_id, _)) => {
                        self.link_queues[link_id.0].push_back(InFlight {
                            packet,
                            epoch: inflight.epoch,
                            hops: inflight.hops + 1,
                        });
                    }
                }
            }
        }
    }

    fn step_probes(&mut self) {
        let tick = self.tick;
        let epoch = self.epoch;
        let mut to_inject = Vec::new();
        for probe in &self.probes {
            if tick.is_multiple_of(probe.period) {
                to_inject.push((probe.host, probe.packet.clone()));
            }
        }
        for (host, packet) in to_inject {
            self.inject(host, packet, epoch);
        }
    }

    /// Injects a single packet at `host` immediately (rule IN).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownHost`] if the host has no ingress link.
    pub fn inject_packet(&mut self, host: HostId, packet: Packet) -> Result<(), ModelError> {
        if self.topology.switch_of_host(host).is_none() {
            return Err(ModelError::UnknownHost(host));
        }
        let epoch = self.epoch;
        self.inject(host, packet, epoch);
        Ok(())
    }

    fn inject(&mut self, host: HostId, packet: Packet, epoch: Epoch) {
        let Some(link_id) = self
            .topology
            .ingress_links()
            .find(|(_, l)| l.src == Endpoint::host(host))
            .map(|(id, _)| id)
        else {
            return;
        };
        self.report.sent += 1;
        self.link_queues[link_id.0].push_back(InFlight {
            packet,
            epoch,
            hops: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::packet::Field;
    use crate::pattern::Pattern;
    use crate::rule::Rule;
    use crate::table::Table;
    use crate::types::Priority;

    /// h0 -- s0 -- s1 -- h1, forwarding dst=1 toward h1.
    fn line() -> (Topology, Configuration, HostId, HostId, SwitchId, SwitchId) {
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(1));
        topo.add_duplex_link(s0, PortId(2), s1, PortId(1));
        topo.attach_host(h1, s1, PortId(2));
        let fwd = |port: u32| {
            Table::new(vec![Rule::new(
                Priority(1),
                Pattern::any().with_field(Field::Dst, 1),
                vec![Action::Forward(PortId(port))],
            )])
        };
        let config = Configuration::new()
            .with_table(s0, fwd(2))
            .with_table(s1, fwd(2));
        (topo, config, h0, h1, s0, s1)
    }

    fn probe() -> Packet {
        Packet::new()
            .with_field(Field::Dst, 1)
            .with_field(Field::Typ, 1)
    }

    #[test]
    fn packet_traverses_line() {
        let (topo, config, h0, _h1, ..) = line();
        let mut sim = Simulator::new(topo, config);
        sim.inject_packet(h0, probe()).unwrap();
        sim.run(10).unwrap();
        assert_eq!(sim.report().total_received(), 1);
        assert_eq!(sim.report().total_dropped(), 0);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn empty_table_drops_packet() {
        let (topo, _config, h0, ..) = line();
        let mut sim = Simulator::new(topo, Configuration::new());
        sim.inject_packet(h0, probe()).unwrap();
        sim.run(10).unwrap();
        assert_eq!(sim.report().total_received(), 0);
        assert_eq!(sim.report().total_dropped(), 1);
    }

    #[test]
    fn unknown_host_rejected() {
        let (topo, config, ..) = line();
        let mut sim = Simulator::new(topo, config);
        assert_eq!(
            sim.inject_packet(HostId(99), probe()),
            Err(ModelError::UnknownHost(HostId(99)))
        );
    }

    #[test]
    fn probe_stream_counts_sent_and_received() {
        let (topo, config, h0, ..) = line();
        let mut sim = Simulator::new(topo, config);
        sim.add_probe_stream(h0, probe(), 2);
        sim.run(20).unwrap();
        assert_eq!(sim.report().total_sent(), 10);
        // All probes that have had time to traverse are delivered.
        assert!(sim.report().total_received() >= 8);
        assert_eq!(sim.report().total_dropped(), 0);
    }

    #[test]
    fn update_command_changes_forwarding() {
        let (topo, config, h0, _h1, s0, _s1) = line();
        let mut sim = Simulator::new(topo, config).with_options(SimulatorOptions {
            ticks_per_update: 1,
            ..SimulatorOptions::default()
        });
        // Replace s0's table with an empty one: packets start being dropped.
        let mut cmds = CommandSeq::new();
        cmds.push_update(s0, Table::empty());
        sim.schedule_commands(cmds);
        sim.add_probe_stream(h0, probe(), 1);
        sim.run(20).unwrap();
        assert!(sim.report().total_dropped() > 0);
    }

    #[test]
    fn flush_completes_once_drained() {
        let (topo, config, h0, ..) = line();
        let mut sim = Simulator::new(topo, config);
        sim.inject_packet(h0, probe()).unwrap();
        let mut cmds = CommandSeq::new();
        cmds.push_wait();
        sim.schedule_commands(cmds);
        // `run_to_completion` returns only once the flush has completed.
        sim.run_to_completion().unwrap();
        assert_eq!(sim.epoch(), Epoch(1));
    }

    #[test]
    fn loop_is_cut_by_hop_budget() {
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(1));
        topo.add_duplex_link(s0, PortId(2), s1, PortId(1));
        let fwd = |port: u32| {
            Table::new(vec![Rule::new(
                Priority(1),
                Pattern::any(),
                vec![Action::Forward(PortId(port))],
            )])
        };
        let config = Configuration::new()
            .with_table(s0, fwd(2))
            .with_table(s1, fwd(1));
        let mut sim = Simulator::new(topo, config).with_options(SimulatorOptions {
            max_hops: 8,
            ..SimulatorOptions::default()
        });
        sim.inject_packet(h0, Packet::new()).unwrap();
        sim.run(100).unwrap();
        assert_eq!(sim.report().total_dropped(), 1);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn run_budget_is_enforced() {
        let (topo, config, ..) = line();
        let mut sim = Simulator::new(topo, config).with_options(SimulatorOptions {
            max_ticks: 5,
            ..SimulatorOptions::default()
        });
        assert!(matches!(
            sim.run(10),
            Err(ModelError::StepBudgetExceeded { .. })
        ));
    }
}
