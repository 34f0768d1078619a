//! The layer replay: re-drives a committed update through the layers' public
//! functions, one span per call, outside the timed request. This is how the
//! cost of the *solution path* is attributed layer by layer without any
//! instrumentation inside the program.

use std::time::Instant;

use netupd_kripke::NetworkKripke;
use netupd_ltl::Closure;
use netupd_mc::{Backend, SequenceStep};
use netupd_synth::{
    constraints::UnitOrdering, units::plan_units, wait_removal::remove_unnecessary_waits,
    UpdateSequence,
};

use crate::oracle;
use crate::trace::Tracer;
use crate::workloads::Instance;

/// Counts read at the layer boundaries, summed over every replay.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub replays: usize,
    pub closure_size: usize,
    pub kripke_states: usize,
    pub kripke_transitions: usize,
    pub steps: usize,
    pub changed_states: usize,
    pub reset_changed_states: usize,
    pub check_states_labeled: usize,
    pub recheck_states_labeled: usize,
    /// States a from-scratch check would label, summed over the rechecks.
    pub recheck_states_total: usize,
    pub units: usize,
    pub waits_before: usize,
    pub waits_after: usize,
    pub sat_decisions: u64,
    pub sat_conflicts: u64,
    pub sat_clauses: usize,
    pub sat_vars: usize,
    /// Replays where a layer disagreed with the committed result.
    pub disagreements: Vec<String>,
}

/// Replays one instance. `update` is the committed sequence, or `None` when
/// the verdict was "no ordering exists" (then only the layers a verdict
/// passes through are driven). `batch` adds the from-scratch checker replay.
pub fn replay(
    tracer: &mut Tracer,
    request: u32,
    instance: &Instance,
    update: Option<&UpdateSequence>,
    batch: bool,
    counts: &mut ReplayCounts,
) {
    let problem = &instance.problem;
    let spec = &problem.spec;
    let replay = tracer.open("replay", None, request);
    let root = Some(replay);
    let mut disagree = |what: &str| {
        counts
            .disagreements
            .push(format!("request {request}: {what}"))
    };
    counts.replays += 1;

    let closure = tracer.time("ltl.closure", root, request, || Closure::new(spec));
    counts.closure_size += closure.len();
    let units = tracer.time("core.plan_units", root, request, || {
        plan_units(problem, instance.options.granularity)
    });
    counts.units += units.len();

    // A fresh encoder, as a fresh request has: the first encode also builds
    // the configuration-independent skeleton.
    let encoder = NetworkKripke::new(problem.topology.clone(), problem.classes.clone())
        .with_ingress_hosts(problem.ingress_hosts.iter().copied());
    let mut kripke = tracer.time("kripke.encode", root, request, || {
        encoder.encode(&problem.initial)
    });
    counts.kripke_states += kripke.len();
    counts.kripke_transitions += kripke.num_transitions();
    let mut checker = Backend::Incremental.instantiate();
    let outcome = tracer.time("mc.check", root, request, || checker.check(&kripke, spec));
    counts.check_states_labeled += outcome.stats.states_labeled;
    if !outcome.holds {
        disagree("the initial configuration fails the incremental check");
    }

    let Some(update) = update else {
        tracer.close(replay);
        return;
    };

    // The committed order, step by step, on the incremental checker.
    let mut config = problem.initial.clone();
    let mut steps = Vec::with_capacity(update.order.len());
    for unit in &update.order {
        let table = unit.apply(&config);
        let changed = tracer.time("kripke.apply_update", root, request, || {
            encoder.apply_switch_update(&mut kripke, unit.switch(), &table)
        });
        let outcome = tracer.time("mc.recheck", root, request, || {
            checker.recheck(&kripke, spec, &changed)
        });
        counts.steps += 1;
        counts.changed_states += changed.len();
        counts.recheck_states_labeled += outcome.stats.states_labeled;
        counts.recheck_states_total += outcome.stats.total_states;
        if !outcome.holds {
            disagree("a committed prefix fails the incremental recheck");
        }
        config.set_table(unit.switch(), table.clone());
        steps.push(SequenceStep {
            switch: unit.switch(),
            table,
        });
    }

    // Re-pointing a structure at another configuration, as an engine does
    // between requests, then the whole order in one first-failing-prefix call.
    let mut kripke = encoder.encode(&problem.initial);
    let changed = tracer.time("kripke.reset", root, request, || {
        encoder.reset_to(&mut kripke, &problem.final_config)
    });
    counts.reset_changed_states += changed.len();
    encoder.reset_to(&mut kripke, &problem.initial);
    let mut checker = Backend::Incremental.instantiate();
    checker.check(&kripke, spec);
    let walked = tracer.time("mc.check_sequence", root, request, || {
        checker.check_sequence(&encoder, &mut kripke, spec, &[], &steps)
    });
    if walked.first_failure.is_some() {
        disagree("check_sequence rejects the committed order");
    }

    if batch {
        let mut kripke = encoder.encode(&problem.initial);
        let mut checker = Backend::Batch.instantiate();
        checker.check(&kripke, spec);
        for step in &steps {
            let changed = encoder.apply_switch_update(&mut kripke, step.switch, &step.table);
            let outcome = tracer.time("mc.batch_recheck", root, request, || {
                checker.recheck(&kripke, spec, &changed)
            });
            if !outcome.holds {
                disagree("a committed prefix fails the batch recheck");
            }
        }
    }

    // Pin the committed order one adjacent pair at a time and ask for a
    // proposal after each, as the CEGIS loop does after each learnt clause.
    let order: Vec<usize> = update
        .order
        .iter()
        .map(|unit| {
            units
                .iter()
                .position(|u| u == unit)
                .expect("a committed unit is a planned unit")
        })
        .collect();
    let mut ordering = UnitOrdering::new(units.len());
    let pinning = tracer.open("sat.order_replay", root, request);
    let sat = Some(pinning);
    let mut proposal = tracer.time("sat.propose", sat, request, || ordering.propose());
    for pair in order.windows(2) {
        ordering.require_some_before(&pair[..1], &pair[1..]);
        proposal = tracer.time("sat.propose", sat, request, || ordering.propose());
    }
    tracer.close(pinning);
    if proposal.as_deref() != Some(&order[..]) {
        disagree("the pinned ordering does not propose the committed order");
    }
    let solver = ordering.solver_stats();
    counts.sat_decisions += solver.decisions;
    counts.sat_conflicts += solver.conflicts;
    counts.sat_clauses += solver.clauses;
    counts.sat_vars += solver.vars;

    let commands = tracer.time("core.wait_removal", root, request, || {
        remove_unnecessary_waits(problem, &update.order)
    });
    counts.waits_before += update.stats.waits_before_removal;
    counts.waits_after += commands.num_waits();
    if commands != update.commands {
        disagree("wait removal does not reproduce the committed commands");
    }
    tracer.close(replay);
}

/// Runs the oracle on `update` inside a `model.oracle` span.
pub fn oracle_span(
    tracer: &mut Tracer,
    request: u32,
    instance: &Instance,
    update: &UpdateSequence,
) -> Result<(), String> {
    let start = Instant::now();
    let verdict = oracle::check(&instance.problem, &update.commands);
    tracer.record("model.oracle", None, request, start, Instant::now());
    verdict
}
