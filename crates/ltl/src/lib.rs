//! # netupd-ltl
//!
//! Linear Temporal Logic over single-packet traces.
//!
//! This crate provides the specification language of *Efficient Synthesis of
//! Network Updates* (PLDI 2015, §3.2 and §5.1):
//!
//! * atomic propositions over packet observations ([`Prop`]): the switch and
//!   port at which a packet is being processed, its header-field values,
//!   whether it was dropped, and the host at which it egresses;
//! * LTL formulas in negation normal form ([`Ltl`]) with the derived
//!   operators `F`, `G`, and implication;
//! * the *extended closure* `ecl(ϕ)` and the machinery the incremental model
//!   checker needs: a flat table of subformula [`Node`]s ([`Closure`]),
//!   truth assignments over them ([`closure::Assignment`]) evaluated against
//!   interned labels, and the `follows` relation;
//! * the interned proposition core ([`intern`]): [`PropTable`] maps
//!   propositions to dense [`PropId`]s, and a label is a row of bitset words
//!   read through [`PropSetRef`], the one label type every checking hot path
//!   operates on;
//! * finite-trace semantics with final-state stuttering ([`semantics`]): the
//!   reference the checkers are tested against, evaluated by the textbook
//!   definitions and sharing no code with the closure;
//! * builders for the properties evaluated in the paper (reachability,
//!   waypointing, service chaining) and several others ([`builders`]).
//!
//! # Example
//!
//! ```
//! use netupd_ltl::{builders, Ltl, Prop};
//! use netupd_model::SwitchId;
//!
//! // "Traffic must eventually reach switch 7."
//! let spec = builders::reachability(Prop::Switch(SwitchId(7)));
//! assert_eq!(spec.to_string(), "F s7");
//!
//! // Formulas are already in negation normal form; negation dualizes.
//! let neg = spec.negated();
//! assert_eq!(neg.to_string(), "G !s7");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod builders;
pub mod closure;
pub mod intern;
pub mod prop;
pub mod semantics;

pub use ast::Ltl;
pub use closure::{Assignment, Closure, Node, ResolvedProps};
pub use intern::{PropId, PropSetRef, PropTable};
pub use prop::Prop;
