//! The behavior matrix: every case runs through 3 backends × 2 search
//! strategies, each both as a fresh synthesis per request and through a
//! long-lived [`UpdateEngine`] reused across the stream.
//!
//! Cross-checks, in order:
//!
//! 1. **engine vs fresh** — per cell and request, the reused engine must
//!    return byte-identical commands/order (or the identical error, its
//!    statistics compared by their schedule view) to the fresh synthesis
//!    under the same options;
//! 2. **verdict agreement** — all cells must agree per request on the
//!    verdict kind (a failure matches whatever its core and statistics, as
//!    in `tests/strategy_differential.rs`);
//! 3. **order agreement** — on a solved request every cell must commit the
//!    same unit order and the same commands. Check outcomes are a pure
//!    function of the configuration on every backend, and both strategies
//!    commit the lex-min correct order (DFS walks units in index order and
//!    prunes only orders no correct one extends; SAT-guided proposes the
//!    lex-min order its learnt clauses allow), so the committed order is a
//!    function of the problem alone;
//! 4. **trace oracle** — the agreed sequence is replayed prefix by prefix
//!    through `netupd_synth::exec::check_on_traces` (the trace semantics, no
//!    model checker involved);
//! 5. **probe simulator** — the sequence, whose waits the synthesizer has
//!    already minimized, is executed against the operational semantics with
//!    a probe stream; a solved update must not drop a probe.

use netupd_mc::Backend;
use netupd_model::CommandSeq;
use netupd_synth::exec::{check_on_traces, run_with_probes, ProbeExperiment};
use netupd_synth::{
    Granularity, SearchStrategy, SynthesisError, SynthesisOptions, Synthesizer, UpdateEngine,
    UpdateProblem, UpdateSequence,
};

/// One cell of the behavior matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Model-checking backend.
    pub backend: Backend,
    /// Search strategy.
    pub strategy: SearchStrategy,
}

impl Cell {
    /// Every cell, backend-major.
    pub fn all() -> Vec<Cell> {
        let mut cells = Vec::new();
        for backend in Backend::ALL {
            for strategy in SearchStrategy::ALL {
                cells.push(Cell { backend, strategy });
            }
        }
        cells
    }

    /// Display label, e.g. `incremental/sat-guided`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.backend, self.strategy.name())
    }

    fn options(&self, granularity: Granularity) -> SynthesisOptions {
        SynthesisOptions::with_backend(self.backend)
            .granularity(granularity)
            .strategy(self.strategy)
    }
}

/// A cross-implementation or oracle discrepancy found while checking one
/// request stream.
#[derive(Debug, Clone)]
pub struct MatrixFailure {
    /// Index of the offending request within the stream.
    pub request: usize,
    /// What disagreed, with the cells involved.
    pub detail: String,
}

/// Aggregate statistics of a clean matrix run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Requests for which every cell committed the same sequence, verified
    /// against the trace oracle and the probe simulator.
    pub solved: usize,
    /// Requests every cell reported as having no correct ordering.
    pub infeasible: usize,
    /// Requests rejected because an endpoint configuration violates the spec.
    pub endpoint_violations: usize,
}

impl StreamStats {
    /// Merges the statistics of another stream into this one.
    pub fn absorb(&mut self, other: StreamStats) {
        self.solved += other.solved;
        self.infeasible += other.infeasible;
        self.endpoint_violations += other.endpoint_violations;
    }
}

/// The normalized verdict all cells must agree on.
fn verdict(result: &Result<UpdateSequence, SynthesisError>) -> String {
    match result {
        Ok(_) => "solved".to_string(),
        Err(SynthesisError::NoOrderingExists { .. }) => "no-ordering-exists".to_string(),
        Err(SynthesisError::SearchBudgetExhausted { .. }) => "search-budget-exhausted".to_string(),
        Err(other) => format!("{other:?}"),
    }
}

/// Executes `commands` under the operational semantics with a probe stream;
/// a correct update must not drop a probe.
fn probe_check(problem: &UpdateProblem, commands: &CommandSeq) -> Result<(), String> {
    let mut experiment = ProbeExperiment::for_problem(problem);
    // The update completes within a few ticks per command; a short window
    // keeps 200-case debug runs fast while still covering the transition.
    experiment.duration = 200 + 20 * commands.len() as u64;
    let report = run_with_probes(problem, commands, &experiment)
        .map_err(|e| format!("probe simulation failed: {e}"))?;
    if report.total_dropped() > 0 {
        return Err(format!(
            "dropped {}/{} probes",
            report.total_dropped(),
            report.total_sent()
        ));
    }
    Ok(())
}

/// Runs one request stream through the full matrix and cross-checks every
/// implementation against the others and against the oracles.
pub fn check_stream(
    problems: &[UpdateProblem],
    granularity: Granularity,
) -> Result<StreamStats, MatrixFailure> {
    let cells = Cell::all();
    let fail = |request: usize, detail: String| MatrixFailure { request, detail };

    // Outcomes per cell per request, fresh synthesis; the engine axis is
    // compared inline.
    let mut outcomes: Vec<Vec<Result<UpdateSequence, SynthesisError>>> =
        Vec::with_capacity(cells.len());
    for cell in &cells {
        let options = cell.options(granularity);
        let mut fresh = Vec::with_capacity(problems.len());
        for problem in problems {
            fresh.push(
                Synthesizer::new(problem.clone())
                    .with_options(options.clone())
                    .synthesize(),
            );
        }
        {
            let mut engine = UpdateEngine::for_problem(&problems[0], options);
            for (request, problem) in problems.iter().enumerate() {
                let reused = engine.solve(problem);
                let agreed = match (&fresh[request], &reused) {
                    (Ok(a), Ok(b)) => a.commands == b.commands && a.order == b.order,
                    (Err(a), Err(b)) => a.schedule_view() == b.schedule_view(),
                    _ => false,
                };
                if !agreed {
                    return Err(fail(
                        request,
                        format!(
                            "{}: engine reuse diverged from fresh synthesis \
                             (fresh: {}, reused: {})",
                            cell.label(),
                            verdict(&fresh[request]),
                            verdict(&reused)
                        ),
                    ));
                }
            }
        }
        outcomes.push(fresh);
    }

    let mut stats = StreamStats::default();
    for (request, problem) in problems.iter().enumerate() {
        // Verdict and order agreement across every cell.
        let reference = verdict(&outcomes[0][request]);
        for (c, cell) in cells.iter().enumerate().skip(1) {
            let v = verdict(&outcomes[c][request]);
            if v != reference {
                return Err(fail(
                    request,
                    format!(
                        "verdict mismatch: {} says {reference}, {} says {v}",
                        cells[0].label(),
                        cell.label()
                    ),
                ));
            }
            if let (Ok(a), Ok(b)) = (&outcomes[0][request], &outcomes[c][request]) {
                if a.order != b.order || a.commands != b.commands {
                    return Err(fail(
                        request,
                        format!(
                            "order mismatch: {} and {} commit different sequences",
                            cells[0].label(),
                            cell.label()
                        ),
                    ));
                }
            }
        }
        match reference.as_str() {
            "solved" => stats.solved += 1,
            "no-ordering-exists" => stats.infeasible += 1,
            _ => stats.endpoint_violations += 1,
        }

        // Oracle and probe verification of the one committed sequence.
        if let Ok(update) = &outcomes[0][request] {
            check_on_traces(problem, &update.commands).map_err(|e| fail(request, e))?;
            probe_check(problem, &update.commands).map_err(|e| fail(request, e))?;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_has_six_uniquely_labelled_cells() {
        let cells = Cell::all();
        assert_eq!(cells.len(), 6);
        let labels: std::collections::BTreeSet<String> = cells.iter().map(Cell::label).collect();
        assert_eq!(labels.len(), 6);
    }
}
