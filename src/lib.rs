//! # netupd
//!
//! Umbrella crate for the netupd workspace, a Rust reproduction of
//! *Efficient Synthesis of Network Updates* (McClurg, Hojjat, Černý,
//! Foster — PLDI 2015).
//!
//! The system takes an initial and a final network configuration plus an LTL
//! correctness property, and synthesizes an ordering of per-switch updates
//! (with `wait` barriers) such that **every** intermediate configuration
//! encountered during the transition satisfies the property — or reports
//! that no such ordering exists.
//!
//! Each layer lives in its own crate; this crate re-exports them under short
//! module names and owns the workspace-level integration tests (`tests/`)
//! and runnable walkthroughs (`examples/`):
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`model`] | `netupd-model` | packets, rules, tables, topologies, command language, operational semantics |
//! | [`ltl`] | `netupd-ltl` | LTL formulas in NNF, closure node table over interned label rows, reference trace semantics |
//! | [`topo`] | `netupd-topo` | topology generators and update-scenario builders |
//! | [`kripke`] | `netupd-kripke` | Kripke structures over `(switch, port, class)` states, one component per traffic class |
//! | [`mc`] | `netupd-mc` | incremental model checking + header-space baseline backend |
//! | [`synth`] | `netupd-synth` | counterexample-guided synthesis core |
//! | [`serve`] | `netupd-serve` | multi-tenant serving layer: engine pool, worker fleet, admission control |
//!
//! # Quickstart
//!
//! Synthesize a correct update ordering for a generated diamond scenario:
//!
//! ```
//! use netupd::synth::{Synthesizer, UpdateProblem};
//! use netupd::topo::generators;
//! use netupd::topo::scenario::{diamond_scenario, PropertyKind};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = generators::small_world(40, 4, 0.1, &mut rng);
//! let scenario = diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
//!     .expect("scenario generation succeeds");
//! let problem = UpdateProblem::from_scenario(&scenario);
//!
//! let update = Synthesizer::new(problem)
//!     .synthesize()
//!     .expect("a correct ordering exists for the diamond scenario");
//! assert!(update.commands.num_updates() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use netupd_kripke as kripke;
pub use netupd_ltl as ltl;
pub use netupd_mc as mc;
pub use netupd_model as model;
pub use netupd_serve as serve;
pub use netupd_synth as synth;
pub use netupd_topo as topo;
