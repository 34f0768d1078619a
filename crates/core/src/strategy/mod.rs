//! The pluggable search strategies behind
//! [`SearchStrategy`](crate::SearchStrategy).
//!
//! Both strategies solve the same problem — order the update units so that
//! every intermediate configuration satisfies the specification — over the
//! same substrate: applied-unit sets as [`UnitSet`](crate::units::UnitSet)
//! rows, the one store of learnt facts
//! ([`UnitOrdering`](crate::constraints::UnitOrdering), learnt into through
//! one counterexample→clause function, read as the wrong-set `W` and as the
//! ordering constraints), prefix checking through the sync-by-diff
//! `CheckContext` the engine persists across requests, and the unified
//! [`SynthStats`](crate::SynthStats) / [`finish_sequence`](crate::search)
//! commit path of [`crate::search`]. Each is a `solve` function of the same
//! signature over `(CheckContext, UnitSet, UnitOrdering)`.
//!
//! * `dfs` is the paper's `OrderUpdate` depth-first search (§4): it
//!   explores prefixes one candidate unit at a time, prunes with the visited
//!   rows and the store's [`excludes`](crate::constraints::UnitOrdering::excludes),
//!   and otherwise asks the store only whether any total order is left —
//!   when none is, the search terminates early.
//! * `sat_guided` runs the same store forward as a CEGIS loop (§4.2 B):
//!   the store *proposes* the lex-min total order consistent with every
//!   learnt precedence clause, the configured backend verifies the candidate
//!   sequence prefix by prefix up to its first failing prefix, and the
//!   failure is learnt back as one new clause — until a proposal verifies
//!   (success) or the clause set goes unsatisfiable (infeasible, strictly
//!   subsuming the DFS's early termination).
//!
//! Each is one propose / check / learn loop on the calling thread; the search
//! is single-threaded because a step is a ~4 µs incremental recheck
//! (`mc.recheck_us` 3.4–4.3 µs in the repo benchmark's traced `oneshot-dfs`
//! runs, `--seed 7 --seconds 6 --trace 1`, on a 2-core Xeon container),
//! cheaper than handing it to another thread (EXPERIMENTS.md, "Earn-or-remove
//! audit").
//!
//! Each strategy is individually deterministic: for a fixed problem and
//! options, commands, unit order, verdict, and statistics are byte-identical
//! across runs. The strategies agree on the verdict and commit the *same*
//! order: the DFS's first success in index order is the lex-min correct
//! order, which is what `propose` commits.

use std::collections::HashMap;

use netupd_model::SwitchId;

use crate::options::{Granularity, SynthesisOptions};
use crate::units::UpdateUnit;

pub(crate) mod dfs;
pub(crate) mod sat_guided;

/// The switch → unit index a run learns counterexamples through
/// ([`UnitOrdering::learn_counterexample`](crate::constraints::UnitOrdering)),
/// built once per request — or `None` when the run learns none: a
/// counterexample is a statement about switches, so it needs every unit to be
/// a switch, and the ablation can turn learning off.
pub(crate) fn counterexample_units(
    options: &SynthesisOptions,
    units: &[UpdateUnit],
) -> Option<HashMap<SwitchId, usize>> {
    (options.use_counterexamples && options.granularity == Granularity::Switch).then(|| {
        (units.iter().enumerate())
            .map(|(i, unit)| (unit.switch(), i))
            .collect()
    })
}
