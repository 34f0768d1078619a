//! # netupd-mc
//!
//! Model-checking backends for network-update synthesis.
//!
//! The synthesis algorithm of *Efficient Synthesis of Network Updates*
//! (PLDI 2015) poses a long series of closely related model-checking
//! questions: "does this intermediate configuration satisfy the LTL
//! specification?". This crate provides the checkers the paper evaluates,
//! behind one [`ModelChecker`] trait:
//!
//! * [`IncrementalChecker`] — the paper's contribution (§5): states of the
//!   DAG-like Kripke structure are labeled with the sets of
//!   maximally-consistent subsets of `ecl(ϕ)` satisfied by some trace from
//!   the state; after a switch update only the ancestors of the changed
//!   states are relabeled, and relabeling stops early when a label does not
//!   change.
//! * [`BatchChecker`] — the same labeling engine run from scratch on every
//!   query (the paper's "Batch" baseline).
//! * [`HeaderSpaceChecker`] — a NetPlumber-style incremental header-space
//!   reachability checker: it tracks forwarding paths per traffic class,
//!   updates them incrementally, checks properties over the paths, and —
//!   like NetPlumber — does not produce counterexamples.
//!
//! The paper also compares against a monolithic checker (NuSMV) that checks
//! the whole network on every query; the figure harness reports what that
//! labels as a column, `whole-network relabels`, rather than as a backend.
//!
//! Every backend fails a structure in which an initial state reaches a
//! forwarding loop: a trace that enters a loop never ends, and it satisfies
//! no specification.
//!
//! ```
//! use netupd_kripke::NetworkKripke;
//! use netupd_ltl::{builders, Prop};
//! use netupd_mc::{IncrementalChecker, ModelChecker};
//! use netupd_model::prelude::*;
//!
//! let mut topo = Topology::new();
//! let h0 = topo.add_host();
//! let h1 = topo.add_host();
//! let s0 = topo.add_switch();
//! topo.attach_host(h0, s0, PortId(1));
//! topo.attach_host(h1, s0, PortId(2));
//! let table = Table::new(vec![Rule::new(
//!     Priority(1),
//!     Pattern::any().with_in_port(PortId(1)),
//!     vec![Action::Forward(PortId(2))],
//! )]);
//! let config = Configuration::new().with_table(s0, table);
//!
//! let encoder =
//!     NetworkKripke::new(topo, vec![TrafficClass::new()]).with_ingress_hosts([h0]);
//! let kripke = encoder.encode(&config);
//! let spec = builders::reachability(Prop::AtHost(h1));
//!
//! let mut checker = IncrementalChecker::new();
//! assert!(checker.check(&kripke, &spec).holds);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod checker;
pub mod headerspace;
pub mod incremental;
pub mod labeling;
mod spec;

pub use batch::BatchChecker;
pub use checker::{
    Backend, CheckOutcome, CheckStats, Counterexample, ModelChecker, SequenceOutcome, SequenceStep,
};
pub use headerspace::HeaderSpaceChecker;
pub use incremental::IncrementalChecker;
pub use labeling::Labeling;
