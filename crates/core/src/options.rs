//! Synthesis options.

use std::fmt;

use netupd_mc::Backend;

/// The granularity at which the update is decomposed into atomic steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// One step per switch: the switch's whole table is replaced atomically
    /// (the paper's default).
    #[default]
    Switch,
    /// One step per rule addition or removal. Finer-grained, slower to
    /// search, but can solve instances that are impossible at switch
    /// granularity (Figure 8(h)/(i)).
    Rule,
}

/// The search strategy used to order the update units (see
/// [`crate::strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// The paper's `OrderUpdate` depth-first search (§4): explore unit
    /// prefixes, check each incrementally, learn counterexamples into the
    /// wrong-set, and use the ordering constraints only to detect
    /// infeasibility early.
    #[default]
    Dfs,
    /// The CEGIS completion of §4.2 B: ask the ordering store for the
    /// lex-min total order consistent with every learnt precedence
    /// constraint, verify the candidate sequence prefix by prefix with the
    /// configured backend, learn the failure back as a new clause, and repeat
    /// until a proposal verifies (success) or the constraints go
    /// unsatisfiable (infeasible).
    SatGuided,
}

impl SearchStrategy {
    /// All strategies, in a stable order (DFS first).
    pub const ALL: [SearchStrategy; 2] = [SearchStrategy::Dfs, SearchStrategy::SatGuided];

    /// A short, stable name used in benchmark output and reports.
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategy::Dfs => "dfs",
            SearchStrategy::SatGuided => "sat-guided",
        }
    }
}

impl fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Options controlling the synthesis search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// The model-checking backend to use.
    pub backend: Backend,
    /// The search strategy (DFS or SAT-guided CEGIS).
    pub strategy: SearchStrategy,
    /// Update granularity.
    pub granularity: Granularity,
    /// Learn from counterexamples and prune configurations known to be wrong
    /// (§4.2 A). Disabling this is only useful for ablation studies.
    pub use_counterexamples: bool,
    /// Terminate the search as soon as the accumulated ordering constraints
    /// become unsatisfiable (§4.2 B).
    pub early_termination: bool,
    /// Hard bound on the number of model-checker calls before the search
    /// gives up (guards against pathological instances). The bound is
    /// applied to the schedule
    /// ([`SynthStats::charged_calls`](crate::SynthStats)), which depends on
    /// nothing but the problem and these options.
    pub max_checks: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            backend: Backend::Incremental,
            strategy: SearchStrategy::Dfs,
            granularity: Granularity::Switch,
            use_counterexamples: true,
            early_termination: true,
            max_checks: 1_000_000,
        }
    }
}

impl SynthesisOptions {
    /// Convenience constructor selecting a backend with otherwise default
    /// options.
    pub fn with_backend(backend: Backend) -> Self {
        SynthesisOptions {
            backend,
            ..SynthesisOptions::default()
        }
    }

    /// Builder-style setter for the search strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style setter for the granularity.
    #[must_use]
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Builder-style setter for counterexample pruning.
    #[must_use]
    pub fn counterexamples(mut self, enabled: bool) -> Self {
        self.use_counterexamples = enabled;
        self
    }

    /// Builder-style setter for early termination.
    #[must_use]
    pub fn early_termination(mut self, enabled: bool) -> Self {
        self.early_termination = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_optimizations() {
        let options = SynthesisOptions::default();
        assert_eq!(options.backend, Backend::Incremental);
        assert_eq!(options.strategy, SearchStrategy::Dfs);
        assert_eq!(options.granularity, Granularity::Switch);
        assert!(options.use_counterexamples);
        assert!(options.early_termination);
    }

    #[test]
    fn builder_setters() {
        let options = SynthesisOptions::with_backend(Backend::Batch)
            .strategy(SearchStrategy::SatGuided)
            .granularity(Granularity::Rule)
            .counterexamples(false)
            .early_termination(false);
        assert_eq!(options.backend, Backend::Batch);
        assert_eq!(options.strategy, SearchStrategy::SatGuided);
        assert_eq!(options.granularity, Granularity::Rule);
        assert!(!options.use_counterexamples);
        assert!(!options.early_termination);
    }

    /// The option surface is closed: a seventh field or a third strategy is a
    /// second path through the search that tests and benchmarks must cover
    /// (a thread count, a portfolio strategy, a checkpoint budget and a
    /// carry-forward switch were measured and deleted, EXPERIMENTS.md "PR 21"
    /// and "PR 23"). Adding one means editing this test on purpose.
    #[test]
    fn the_option_surface_is_six_fields_and_two_strategies() {
        let SynthesisOptions {
            backend: _,
            strategy,
            granularity: _,
            use_counterexamples: _,
            early_termination: _,
            max_checks: _,
        } = SynthesisOptions::default();
        match strategy {
            SearchStrategy::Dfs | SearchStrategy::SatGuided => {}
        }
        assert_eq!(SearchStrategy::ALL.len(), 2);
    }
}
