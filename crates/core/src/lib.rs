//! # netupd-synth
//!
//! Synthesis of correct network update sequences — the primary contribution
//! of *Efficient Synthesis of Network Updates* (PLDI 2015).
//!
//! Given an initial configuration, a final configuration, and an LTL
//! specification over single-packet traces, the synthesizer searches for an
//! ordering of switch updates (interleaved with `wait` commands) such that
//! every intermediate configuration satisfies the specification. Two
//! [`SearchStrategy`] implementations share one search run — the checks,
//! the refutations, the learnt store and the verdict — and differ only in
//! which unit they try next (see [`strategy`]):
//!
//! * [`SearchStrategy::Dfs`] (the default) is the paper's `OrderUpdate`
//!   algorithm: a depth-first search over simple, careful command sequences
//!   that checks every candidate configuration with an incremental model
//!   checker (labels are reused between the closely-related queries), learns
//!   each counterexample once into [`constraints::UnitOrdering`], which then
//!   prunes every future configuration that agrees with the counterexample
//!   on its updated/not-updated switches and terminates the search early
//!   when the accumulated ordering constraints admit no total order (decided
//!   by one walk over the applied-unit sets they leave open).
//! * [`SearchStrategy::SatGuided`] runs the same §4.2 B store as a CEGIS
//!   loop: the store *proposes* a constraint-consistent total order, the
//!   backend verifies it prefix by prefix up to its first failing prefix,
//!   and the failure is learnt back as one new clause — until a proposal
//!   verifies or the clause set goes unsatisfiable.
//!
//! Either way, unnecessary `wait` commands are removed in a
//! reachability-based post-pass.
//!
//! Baselines used in the paper's evaluation — the naïve update and the
//! two-phase (versioned) consistent update — are provided in [`baselines`],
//! and [`exec`] replays command sequences against the operational-semantics
//! simulator to measure probe loss and rule overhead (Figure 2).
//!
//! For *streams* of related requests over one topology (rolling
//! configuration churn), the long-lived [`UpdateEngine`] amortizes the
//! per-request construction — encoder skeleton, Kripke structures, checker
//! labelings — across requests; [`Synthesizer::synthesize`]
//! is a thin one-shot wrapper over a single-request engine.
//!
//! # Example
//!
//! ```
//! use netupd_synth::{SynthesisOptions, Synthesizer, UpdateProblem};
//! use netupd_topo::{generators, scenario::{diamond_scenario, PropertyKind}};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = generators::fat_tree(4);
//! let scenario = diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).unwrap();
//! let problem = UpdateProblem::from_scenario(&scenario);
//! let result = Synthesizer::new(problem)
//!     .with_options(SynthesisOptions::default())
//!     .synthesize()
//!     .expect("a correct ordering exists for a simple diamond");
//! assert!(result.commands.is_simple());
//! assert!(result.commands.num_updates() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod constraints;
pub(crate) mod context;
pub mod engine;
pub mod exec;
pub mod explain;
pub mod options;
pub mod problem;
pub mod search;
pub mod strategy;
pub mod units;
pub mod wait_removal;

pub use engine::UpdateEngine;
pub use explain::ConflictConstraint;
pub use options::{Granularity, SearchStrategy, SynthesisOptions};
pub use problem::UpdateProblem;
pub use search::{SynthStats, SynthesisError, Synthesizer, UpdateSequence};
pub use units::UpdateUnit;
