//! A held recheck allocates nothing.
//!
//! The incremental checker keeps its working storage (the label being
//! computed, the ancestor region, the evaluation order, the dirty set) on
//! its labeling, and a closure of at most 64 subformulas keeps each
//! assignment's row inline. So once a walk over configurations has grown
//! those buffers, repeating the walk must not touch the heap in any recheck
//! whose outcome holds. A failing recheck builds its counterexample and may
//! allocate.
//!
//! This binary installs a counting global allocator. Its counter is
//! thread-local, so the harness's other threads do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd_kripke::NetworkKripke;
use netupd_mc::{IncrementalChecker, ModelChecker};
use netupd_model::HostId;
use netupd_topo::generators;
use netupd_topo::scenario::{diamond_scenario, PropertyKind};

thread_local! {
    static HEAP_CALLS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every call on the calling thread.
struct Counting;

fn count() {
    // `try_with`: a thread's last frees may come after its locals are gone.
    let _ = HEAP_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn heap_calls() -> usize {
    HEAP_CALLS.with(Cell::get)
}

/// On `fat_tree(4)` diamonds, walk from the initial configuration to the
/// final one a switch at a time and back, rechecking after each step, twice.
/// In the second walk every recheck that holds must make no heap call.
#[test]
fn a_held_recheck_allocates_nothing_once_warm() {
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::fat_tree(4);
    let kinds = [
        PropertyKind::Reachability,
        PropertyKind::Waypoint,
        PropertyKind::ServiceChain { length: 2 },
    ];
    for kind in kinds {
        let scenario =
            diamond_scenario(&graph, kind, &mut rng).expect("fat-trees admit diamond scenarios");
        let ingress: Vec<HostId> = scenario.pairs.iter().map(|p| p.src_host).collect();
        let encoder = NetworkKripke::new(scenario.topology().clone(), scenario.classes())
            .with_ingress_hosts(ingress);
        let switches = scenario.initial.differing_switches(&scenario.final_config);
        let mut kripke = encoder.encode(&scenario.initial);
        let mut checker = IncrementalChecker::new();
        assert!(checker.check(&kripke, &scenario.spec).holds);

        let mut changed = Vec::with_capacity(kripke.len());
        let mut held = Vec::new();
        for round in 0..2 {
            for config in [&scenario.final_config, &scenario.initial] {
                for &switch in &switches {
                    let table = config.table(switch);
                    changed.clear();
                    encoder.apply_switch_update_into(&mut kripke, switch, &table, &mut changed);
                    let before = heap_calls();
                    let outcome = checker.recheck(&kripke, &scenario.spec, &changed);
                    let calls = heap_calls() - before;
                    if round == 1 && outcome.holds {
                        held.push(calls);
                    }
                }
            }
        }
        assert!(!held.is_empty(), "{kind:?}: no recheck held");
        assert!(
            held.iter().all(|calls| *calls == 0),
            "{kind:?}: heap calls per held recheck {held:?}"
        );
    }
}
