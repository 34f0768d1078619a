//! # netupd-model
//!
//! The SDN network model underlying the network-update synthesizer.
//!
//! This crate implements the formal model of Section 3 of *Efficient Synthesis
//! of Network Updates* (PLDI 2015): packets with header fields, prioritized
//! forwarding rules and tables with their denotational semantics, switches,
//! links, hosts and topologies, the controller command language
//! (switch-granularity updates, `incr`, `flush`, and the derived `wait`), and
//! the full small-step operational semantics (rules IN, OUT, PROCESS, FORWARD,
//! UPDATE, INCR, FLUSH) as an executable discrete-event simulator.
//!
//! It also provides single-packet traces (Definition 1 of the paper),
//! loop-detection, trace equivalence of configurations, and the notion of
//! *stable* networks used in the definition of update correctness.
//!
//! # Quick example
//!
//! ```
//! use netupd_model::prelude::*;
//!
//! // A tiny topology: one host -> one switch -> one host.
//! let mut topo = Topology::new();
//! let h_in = topo.add_host();
//! let h_out = topo.add_host();
//! let sw = topo.add_switch();
//! topo.add_link(Endpoint::host(h_in), Endpoint::port(sw, PortId(1)));
//! topo.add_link(Endpoint::port(sw, PortId(2)), Endpoint::host(h_out));
//!
//! // Forward everything arriving on port 1 out of port 2.
//! let mut config = Configuration::new();
//! config.set_table(
//!     sw,
//!     Table::new(vec![Rule::new(
//!         Priority(10),
//!         Pattern::any().with_in_port(PortId(1)),
//!         vec![Action::Forward(PortId(2))],
//!     )]),
//! );
//!
//! let net = Network::new(topo, config);
//! let class = TrafficClass::new().with_field(Field::Dst, 7);
//! let traces = net.single_packet_traces(&class);
//! assert_eq!(traces.len(), 1);
//! assert!(traces[0].reaches_host(h_out));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod action;
pub mod command;
pub mod config;
pub mod error;
pub mod network;
pub mod packet;
pub mod pattern;
pub mod rule;
pub mod sim;
pub mod table;
pub mod topology;
pub mod trace;
pub mod types;

pub use action::Action;
pub use command::{Command, CommandSeq};
pub use config::Configuration;
pub use error::ModelError;
pub use network::Network;
pub use packet::{Field, Packet, TrafficClass};
pub use pattern::Pattern;
pub use rule::Rule;
pub use sim::{ProbeReport, Simulator, SimulatorOptions};
pub use table::Table;
pub use topology::{Endpoint, Link, LinkId, Topology};
pub use trace::{Observation, Trace};
pub use types::{Epoch, HostId, PortId, Priority, SwitchId};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::action::Action;
    pub use crate::command::{Command, CommandSeq};
    pub use crate::config::Configuration;
    pub use crate::error::ModelError;
    pub use crate::network::Network;
    pub use crate::packet::{Field, Packet, TrafficClass};
    pub use crate::pattern::Pattern;
    pub use crate::rule::Rule;
    pub use crate::sim::{ProbeReport, Simulator, SimulatorOptions};
    pub use crate::table::Table;
    pub use crate::topology::{Endpoint, Link, LinkId, Topology};
    pub use crate::trace::{Observation, Trace};
    pub use crate::types::{Epoch, HostId, PortId, Priority, SwitchId};
}
