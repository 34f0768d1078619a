//! Seeded differential fuzzing for the update synthesizer.
//!
//! The harness generates random update-synthesis cases — topologies,
//! configuration changes, enriched LTL specifications, and failure-injected
//! churn streams — and runs every case through the full behavior matrix
//! (3 model-checking backends × 2 search strategies, both
//! fresh per request and through a reused [`UpdateEngine`]), cross-checking
//! all results against each other and against two implementation-independent
//! oracles: the finite-trace LTL semantics and the probe simulator.
//!
//! Everything is deterministic by seed: one master seed derives one
//! independent stream per case via splitmix64, so `same seed ⇒ same cases ⇒
//! same outcomes`, and any discrepancy is reproducible from the two numbers
//! printed in its report. Failing cases are auto-minimized (stream →
//! topology → configuration delta → spec) before being rendered as
//! self-contained reproducers.
//!
//! [`UpdateEngine`]: netupd_synth::UpdateEngine
//!
//! # Quickstart
//!
//! ```
//! let report = netupd_fuzz::run(&netupd_fuzz::FuzzOptions {
//!     seed: 0xfeed,
//!     cases: 4,
//!     minimize: true,
//! });
//! assert_eq!(report.cases_run, 4);
//! assert!(report.discrepancies.is_empty(), "{}", report.summary());
//! ```

pub mod generator;
pub mod matrix;
pub mod shrink;

use std::fmt::Write as _;

pub use generator::{case_seed, generate_case, FuzzCase};
pub use matrix::{check_stream, Cell, MatrixFailure, StreamStats};
pub use shrink::{minimize, render_reproducer};

/// What to fuzz and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Master seed; every per-case seed is derived from it.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Whether to minimize failing cases before reporting them.
    pub minimize: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0x5eed_cafe,
            cases: 200,
            minimize: true,
        }
    }
}

/// One confirmed discrepancy, already minimized when minimization is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discrepancy {
    /// Index of the case within the run.
    pub case_index: usize,
    /// The derived per-case seed.
    pub seed: u64,
    /// Human-readable description of the generated case.
    pub descriptor: String,
    /// Index of the offending request within the case's stream.
    pub request: usize,
    /// What disagreed.
    pub detail: String,
    /// Self-contained reproducer (topology, configs, classes, spec).
    pub reproducer: String,
}

/// Outcome of a fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Master seed the run used.
    pub seed: u64,
    /// Cases generated and checked.
    pub cases_run: usize,
    /// Aggregate statistics over all clean cases.
    pub stats: StreamStats,
    /// All discrepancies found.
    pub discrepancies: Vec<Discrepancy>,
    /// One digest line per case, in order — two runs with the same seed must
    /// produce identical digests (the determinism contract).
    pub case_digests: Vec<String>,
}

impl FuzzReport {
    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "fuzz(seed={:#x}): {} case(s), {} solved, {} infeasible, {} endpoint-violating, \
             {} discrepanc{}",
            self.seed,
            self.cases_run,
            self.stats.solved,
            self.stats.infeasible,
            self.stats.endpoint_violations,
            self.discrepancies.len(),
            if self.discrepancies.len() == 1 {
                "y"
            } else {
                "ies"
            },
        );
        for d in &self.discrepancies {
            let _ = write!(
                out,
                "\n  case {} (seed {:#x}): {}",
                d.case_index, d.seed, d.detail
            );
        }
        out
    }
}

/// Reads the case budget from `NETUPD_FUZZ_BUDGET`, falling back to
/// `default` when unset or unparsable.
pub fn budget_from_env(default: usize) -> usize {
    std::env::var("NETUPD_FUZZ_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Checks one already-generated case, minimizing any failure.
///
/// Returns the clean statistics or the discrepancy.
pub fn check_case(case: &FuzzCase, minimize_failures: bool) -> Result<StreamStats, Discrepancy> {
    match check_stream(&case.problems, case.granularity) {
        Ok(stats) => Ok(stats),
        Err(failure) => {
            let (problems, failure) = if minimize_failures {
                minimize(case.problems.clone(), case.granularity, failure)
            } else {
                (case.problems.clone(), failure)
            };
            let reproducer =
                render_reproducer(&case.descriptor, case.seed, case.index, &problems, &failure);
            Err(Discrepancy {
                case_index: case.index,
                seed: case.seed,
                descriptor: case.descriptor.clone(),
                request: failure.request,
                detail: failure.detail,
                reproducer,
            })
        }
    }
}

/// Runs the fuzzer: generates `options.cases` cases from `options.seed` and
/// checks each through the full matrix.
///
/// Never panics on a discrepancy — failures are collected in the report so a
/// run surveys the whole seed range even when something is broken.
pub fn run(options: &FuzzOptions) -> FuzzReport {
    let mut report = FuzzReport {
        seed: options.seed,
        cases_run: 0,
        stats: StreamStats::default(),
        discrepancies: Vec::new(),
        case_digests: Vec::with_capacity(options.cases),
    };
    for index in 0..options.cases {
        let case = generate_case(options.seed, index);
        let digest = match check_case(&case, options.minimize) {
            Ok(stats) => {
                report.stats.absorb(stats);
                format!(
                    "{}: ok solved={} infeasible={} endpoint={}",
                    case.descriptor, stats.solved, stats.infeasible, stats.endpoint_violations
                )
            }
            Err(discrepancy) => {
                let digest = format!("{}: FAIL {}", case.descriptor, discrepancy.detail);
                report.discrepancies.push(discrepancy);
                digest
            }
        };
        report.case_digests.push(digest);
        report.cases_run += 1;
    }
    report
}

/// Re-runs a single case by `(master_seed, index)` — the two numbers printed
/// in a discrepancy report — and returns its outcome.
pub fn reproduce(master_seed: u64, index: usize) -> Result<StreamStats, Discrepancy> {
    let case = generate_case(master_seed, index);
    check_case(&case, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_env_overrides_default() {
        std::env::remove_var("NETUPD_FUZZ_BUDGET");
        assert_eq!(budget_from_env(7), 7);
        std::env::set_var("NETUPD_FUZZ_BUDGET", "42");
        assert_eq!(budget_from_env(7), 42);
        std::env::set_var("NETUPD_FUZZ_BUDGET", "nonsense");
        assert_eq!(budget_from_env(7), 7);
        std::env::remove_var("NETUPD_FUZZ_BUDGET");
    }

    #[test]
    fn a_small_run_is_deterministic_and_clean() {
        let options = FuzzOptions {
            seed: 0xabad_1dea,
            cases: 3,
            minimize: true,
        };
        let first = run(&options);
        let second = run(&options);
        assert_eq!(first, second, "same seed must reproduce the same report");
        assert_eq!(first.cases_run, 3);
        assert!(first.discrepancies.is_empty(), "{}", first.summary());
    }

    #[test]
    fn summary_mentions_discrepancies() {
        let report = FuzzReport {
            seed: 1,
            cases_run: 1,
            stats: StreamStats::default(),
            discrepancies: vec![Discrepancy {
                case_index: 0,
                seed: 99,
                descriptor: "demo".into(),
                request: 0,
                detail: "verdict mismatch".into(),
                reproducer: String::new(),
            }],
            case_digests: vec!["demo: FAIL verdict mismatch".into()],
        };
        let text = report.summary();
        assert!(text.contains("1 discrepancy"));
        assert!(text.contains("verdict mismatch"));
    }
}
