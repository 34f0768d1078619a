//! Pinned fuzz corpus: regression tests over specific generated cases.
//!
//! Each entry replays one `(master seed, index)` case through the full
//! behavior matrix and asserts its exact digest — the generated case's
//! descriptor plus its verdict mix. The corpus was picked from a clean
//! `fuzz_smoke` run to cover every scenario shape (diamond, multi-diamond,
//! double-diamond, churn, failure-injected churn with rollbacks and link
//! failures, partially-applied requests), both granularities, every
//! enrichment family, and all three verdict classes (solved, infeasible,
//! endpoint-violating).
//!
//! If one of these digests changes, generator determinism or synthesizer
//! behavior changed for that case — investigate before updating the
//! expectation. Any future discrepancy found by the fuzzer should land here
//! as a new pinned entry once minimized and fixed.
//!
//! The digests carry no count of oracle-verified sequences: every cell must
//! commit the same sequence on a solved request, and that one sequence is
//! verified, so the count would always equal `solved`.

use netupd_fuzz::{check_case, generate_case};

/// Master seed shared with `tests/fuzz_smoke.rs`.
const CORPUS_SEED: u64 = 0x5eed_cafe;

/// `(case index, expected digest)` — digests come from the fuzzer itself.
const CORPUS: &[(usize, &str)] = &[
    (
        0,
        "seed=0xf9684fd62e22e083 topo=waxman(n=11) kind=waypointing shape=churn[3] \
         gran=switch enrich=response: ok solved=3 infeasible=0 endpoint=0",
    ),
    (
        1,
        "seed=0xfcbc2a31276c7aae topo=small_world(n=12) kind=waypointing \
         shape=double-diamond gran=switch enrich=none: ok solved=0 infeasible=0 \
         endpoint=1",
    ),
    (
        4,
        "seed=0xc5ff16c224524798 topo=figure1 kind=waypointing shape=partially-applied \
         gran=rule enrich=until-chain: ok solved=1 infeasible=0 endpoint=1",
    ),
    (
        7,
        "seed=0x6aecea827bd4cd4f topo=fat_tree(4) kind=reachability shape=churn[3] \
         gran=rule enrich=until-chain: ok solved=3 infeasible=0 endpoint=0",
    ),
    (
        9,
        "seed=0x6f7f615a771732f4 topo=small_world(n=14) kind=waypointing \
         shape=failure-churn[reroute,rollback,reroute] gran=switch enrich=fairness: \
         ok solved=3 infeasible=0 endpoint=0",
    ),
    (
        13,
        "seed=0xe2cd797a816eedc4 topo=waxman(n=9) kind=service-chaining \
         shape=failure-churn[reroute,link-failure,reroute] gran=switch enrich=response: \
         ok solved=3 infeasible=0 endpoint=0",
    ),
    (
        15,
        "seed=0xc78239ed57b995bd topo=figure1 kind=reachability shape=partially-applied \
         gran=switch enrich=no-drops: ok solved=1 infeasible=0 endpoint=1",
    ),
    (
        16,
        "seed=0x8fcc6a079ea37944 topo=figure1 kind=reachability shape=double-diamond \
         gran=switch enrich=none: ok solved=0 infeasible=1 endpoint=0",
    ),
    (
        21,
        "seed=0x86ef71a4740814da topo=fat_tree(4) kind=waypointing \
         shape=multi-diamond[2] gran=switch enrich=until-chain: ok solved=1 \
         infeasible=0 endpoint=0",
    ),
    (
        22,
        "seed=0x5245339c16fe769a topo=waxman(n=12) kind=service-chaining shape=diamond \
         gran=rule enrich=none: ok solved=1 infeasible=0 endpoint=0",
    ),
];

fn digest_of(index: usize) -> String {
    let case = generate_case(CORPUS_SEED, index);
    match check_case(&case, true) {
        Ok(stats) => format!(
            "{}: ok solved={} infeasible={} endpoint={}",
            case.descriptor, stats.solved, stats.infeasible, stats.endpoint_violations
        ),
        Err(d) => format!("{}: FAIL {}\n{}", case.descriptor, d.detail, d.reproducer),
    }
}

#[test]
fn pinned_corpus_replays_exactly() {
    let mut mismatches = Vec::new();
    for (index, expected) in CORPUS {
        let expected: String = expected.split_whitespace().collect::<Vec<_>>().join(" ");
        let actual = digest_of(*index);
        if actual != expected {
            mismatches.push(format!(
                "case {index}:\n  expected: {expected}\n  actual:   {actual}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "pinned fuzz corpus diverged:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn corpus_covers_the_interesting_shapes() {
    // Guard the corpus itself: if entries are ever swapped out, keep the
    // coverage intent — failure injection, partial application, both
    // granularities, and at least one infeasible and one endpoint-violating
    // case must stay represented.
    let all = CORPUS.iter().map(|(_, d)| *d).collect::<String>();
    for needle in [
        "shape=failure-churn",
        "link-failure",
        "rollback",
        "shape=partially-applied",
        "shape=churn",
        "shape=double-diamond",
        "shape=multi-diamond",
        "gran=rule",
        "gran=switch",
        "enrich=until-chain",
        "enrich=fairness",
        "enrich=response",
        "enrich=no-drops",
        "infeasible=1",
        "endpoint=1",
    ] {
        assert!(all.contains(needle), "corpus lost coverage of {needle}");
    }
}
