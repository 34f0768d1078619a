//! # netupd-kripke
//!
//! DAG-like Kripke structures and the network-to-Kripke encoding of
//! *Efficient Synthesis of Network Updates* (PLDI 2015, §3.3 and Definition 9).
//!
//! A network configuration is encoded as a Kripke structure with one disjoint
//! component per traffic class: states are `(switch, port, class)` triples,
//! transitions follow the forwarding tables, packets that egress or are
//! dropped end in sink states with self-loops, and every state is labeled
//! with the atomic propositions ([`netupd_ltl::Prop`]) that hold there.
//!
//! The crate provides:
//!
//! * [`Kripke`] — the structure itself, with completeness and DAG-likeness
//!   checks, topological ordering, ancestor computation, and in-place
//!   transition updates (the `swUpdate` operation of the synthesis
//!   algorithm);
//! * [`NetworkKripke`] — the encoder that builds a [`Kripke`] from a
//!   topology, a configuration, and a set of traffic classes — restricted,
//!   once asked to [`cover`](NetworkKripke::cover) an update's
//!   configurations, to the states their rules can reach — and that can
//!   incrementally re-encode a single switch after an update, reporting the
//!   set of changed states;
//! * [`StateSet`] — a dense bitmap over state ids, the representation the
//!   incremental checkers use for region and dirty tracking.
//!
//! Labels are interned: each [`Kripke`] owns a
//! [`PropTable`](netupd_ltl::PropTable) and stores labels in a flat bitset
//! arena, handing out [`PropSetRef`](netupd_ltl::PropSetRef) views (see
//! `DESIGN.md` §"Interned core representation").
//!
//! # Example
//!
//! ```
//! use netupd_kripke::NetworkKripke;
//! use netupd_model::prelude::*;
//!
//! let mut topo = Topology::new();
//! let h0 = topo.add_host();
//! let h1 = topo.add_host();
//! let s0 = topo.add_switch();
//! topo.attach_host(h0, s0, PortId(1));
//! topo.attach_host(h1, s0, PortId(2));
//!
//! let table = Table::new(vec![Rule::new(
//!     Priority(1),
//!     Pattern::any().with_in_port(PortId(1)),
//!     vec![Action::Forward(PortId(2))],
//! )]);
//! let config = Configuration::new().with_table(s0, table);
//!
//! let encoder = NetworkKripke::new(topo, vec![TrafficClass::new()]);
//! let kripke = encoder.encode(&config);
//! assert!(kripke.is_complete());
//! assert!(kripke.is_dag_like());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod stateset;
pub mod structure;

pub use builder::NetworkKripke;
pub use stateset::StateSet;
pub use structure::{Kripke, StateId, StateKey, StateRole};
