//! Differential fuzzing smoke test: a budgeted, fixed-seed pass over the
//! full behavior matrix.
//!
//! This is the CI entry point for the fuzzer (the `fuzz-smoke` job). The
//! seed is fixed so the run is reproducible; the case budget defaults to 200
//! and can be adjusted through `NETUPD_FUZZ_BUDGET` without touching code.
//! Any discrepancy fails the test and prints the minimized reproducer plus
//! the `(seed, index)` pair needed to replay exactly that case.

use netupd_fuzz::{run, Cell, FuzzOptions};

/// The fixed master seed for the smoke pass. Changing it invalidates the
/// corpus expectations in `tests/fuzz_regressions.rs`, so don't.
const SMOKE_SEED: u64 = 0x5eed_cafe;

#[test]
fn the_behavior_matrix_is_fully_populated() {
    // The differential claim below is only as strong as the matrix is wide:
    // 3 backends × 2 strategies.
    let cells = Cell::all();
    assert_eq!(cells.len(), 6);
    let backends: std::collections::BTreeSet<String> =
        cells.iter().map(|c| format!("{}", c.backend)).collect();
    assert_eq!(backends.len(), 3, "expected 3 distinct backends");
}

#[test]
fn fuzz_smoke() {
    let options = FuzzOptions {
        seed: SMOKE_SEED,
        cases: netupd_fuzz::budget_from_env(200),
        minimize: true,
    };
    let report = run(&options);
    assert_eq!(report.cases_run, options.cases);
    if !report.discrepancies.is_empty() {
        for d in &report.discrepancies {
            eprintln!("{}", d.reproducer);
            eprintln!(
                "replay with: netupd_fuzz::reproduce({:#x}, {})",
                report.seed, d.case_index
            );
        }
        panic!("{}", report.summary());
    }
    // The budget must actually exercise the synthesizer, not just generate.
    assert!(
        report.stats.solved > 0,
        "no case solved anything: {}",
        report.summary()
    );
}

#[test]
fn fuzzing_is_deterministic_by_seed() {
    // Two full runs with one seed must match case for case — descriptors,
    // verdict mix, verified-sequence counts, everything in the digest.
    let options = FuzzOptions {
        seed: SMOKE_SEED ^ 0xd15c_0bad_u64,
        cases: 12,
        minimize: true,
    };
    let first = run(&options);
    let second = run(&options);
    assert_eq!(
        first, second,
        "same seed must reproduce byte-identical reports"
    );

    // And a different seed must (overwhelmingly) generate different cases.
    let other = run(&FuzzOptions {
        seed: options.seed + 1,
        ..options
    });
    assert_ne!(
        first.case_digests, other.case_digests,
        "distinct seeds should draw distinct case streams"
    );
}
