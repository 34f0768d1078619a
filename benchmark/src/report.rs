//! One workload's run from set-up to the printed metrics: the metric tables
//! `/BENCHMARK.json` mirrors, validation, and the per-layer numbers derived
//! from the spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use netupd_synth::SynthesisError;

use crate::oracle;
use crate::replay::{self, ReplayCounts};
use crate::run::{CoreCounts, Sample, Session};
use crate::stats::{mean, median, ms, percentile, samples_beyond, sorted, MIN_TAIL_SAMPLES};
use crate::trace::{self, Tracer};
use crate::workloads::{Expect, Shape};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a user of the system sees. The same seven on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_rps", "req/s", true, 0.25),
    e2e("request_p50_ms", "ms", false, 0.2),
    e2e("request_p90_ms", "ms", false, 0.25),
    e2e("ok_share", "ratio", true, 0.01),
    e2e("peak_rss_mb", "MB", false, 0.1),
    e2e("waits_per_update", "ratio", false, 0.12),
];

/// Single-layer metrics, printed by the traced run, in this order.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("topology.generate_ms", "ms"),
    ("topology.scenario_ms", "ms"),
    ("ltl.closure_ms", "ms"),
    ("ltl.closure_size", "count"),
    ("kripke.encode_ms", "ms"),
    ("kripke.states", "count"),
    ("kripke.transitions", "count"),
    ("kripke.apply_update_us", "us"),
    ("kripke.changed_states", "count"),
    ("kripke.reset_ms", "ms"),
    ("kripke.reset_changed_states", "count"),
    ("mc.check_ms", "ms"),
    ("mc.check_states_labeled", "count"),
    ("mc.recheck_us", "us"),
    ("mc.recheck_states_labeled", "count"),
    ("mc.relabel_share", "ratio"),
    ("mc.check_sequence_ms", "ms"),
    ("mc.batch_recheck_us", "us"),
    ("mc.incremental_speedup", "ratio"),
    ("sat.propose_ms", "ms"),
    ("sat.order_replay_ms", "ms"),
    ("sat.decisions", "count"),
    ("sat.conflicts", "count"),
    ("sat.clauses", "count"),
    ("sat.vars", "count"),
    ("core.plan_units_us", "us"),
    ("core.units", "count"),
    ("core.wait_removal_ms", "ms"),
    ("core.waits_before", "count"),
    ("core.waits_after", "count"),
    ("core.solve_ms", "ms"),
    ("core.path_replay_ms", "ms"),
    ("core.search_self_ms", "ms"),
    ("core.search_self_share", "ratio"),
    ("core.model_checker_calls", "count"),
    ("core.charged_calls", "count"),
    ("core.states_relabeled", "count"),
    ("core.backtracks", "count"),
    ("core.counterexamples_learnt", "count"),
    ("core.configurations_pruned", "count"),
    ("core.sat_constraints", "count"),
    ("core.cegis_iterations", "count"),
    ("core.sat_conflicts", "count"),
    ("core.sat_decisions", "count"),
    ("core.useful_check_share", "ratio"),
    ("core.engine_cold_solve_ms", "ms"),
    ("core.engine_warm_solve_ms", "ms"),
    ("core.engine_rebuilds", "count"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p90_ms", "ms"),
    ("serve.service_hit_p50_ms", "ms"),
    ("serve.service_miss_p50_ms", "ms"),
    ("serve.engine_hit_share", "ratio"),
    ("serve.engines_evicted", "count"),
    ("serve.shed", "count"),
    ("serve.utilization", "ratio"),
    ("serve.backlog_end", "count"),
    ("serve.e2e_p99_ms", "ms"),
    ("serve.generator_late_p99_us", "us"),
    ("serve.drain_rps", "req/s"),
    ("model.oracle_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("bench.machine_speed", "ratio"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Instances the layer replay covers (the first ones; on the open loop, the
/// first timed ones), and how many of those also get the batch-checker replay.
const REPLAY_INSTANCES: usize = 256;
const BATCH_REPLAYS: usize = 16;

/// The outcome of one workload's run, as printed.
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub digest: String,
    pub metrics: Vec<(String, f64, String)>,
    /// The human-readable lines (every metric by name, with its unit).
    pub text: String,
}

impl Report {
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }

    /// The last line of a run: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads back what [`json`](Report::json) and the text lines printed (the
    /// parent process does; it is not a general JSON parser).
    pub fn parse(workload: &str, text: &str, json: &str) -> Option<Report> {
        let field = |key: &str| {
            json.split_once(&format!("\"{key}\": "))?
                .1
                .split([',', '}'])
                .next()
        };
        let mut metrics = Vec::new();
        for entry in json.split_once("\"metrics\": {")?.1.split("}, ") {
            let (name, rest) = entry
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            metrics.push((
                name.to_string(),
                value.parse().ok()?,
                unit.trim_end_matches(['"', '}']).to_string(),
            ));
        }
        Some(Report {
            workload: workload.to_string(),
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            digest: text
                .lines()
                .find_map(|l| l.strip_prefix("counters_digest "))?
                .to_string(),
            metrics,
            text: text.to_string(),
        })
    }
}

/// Sets up, measures and validates one workload. `None` for an unknown name.
pub fn measure(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Report> {
    // The traced run splits its time between requests and the layer replay.
    let request_seconds = if traced { 0.5 * seconds } else { seconds };
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..if traced { 1 } else { SETUP_REPEATS } {
        drop(session.take());
        let start = Instant::now();
        let ready = Session::set_up(name, seed, request_seconds)?;
        setups.push(start.elapsed().as_secs_f64() * ready.setup_speed);
        session = Some(ready);
    }
    let mut session = session.expect("set up at least once");
    let mut tracer = traced.then(Tracer::new);
    let wall = session.measure(request_seconds, tracer.as_mut());
    let peak_rss_mb = peak_rss_mb();

    let mut replays = ReplayCounts::default();
    if let Some(tracer) = tracer.as_mut() {
        layer_replay(&session, tracer, 0.5 * seconds, &mut replays);
    }
    let validation = validate(&session, tracer.as_mut());

    let recorder = &session.recorder;
    let timed = timed_samples(&session);
    let attempted = recorder.samples.len() + recorder.shed;
    let failed = (recorder.over_limit
        + recorder.changed_repeats
        + recorder.shed
        + validation.wrong_requests)
        .min(attempted);
    let open_loop = matches!(session.workload.shape, Shape::OpenLoop { .. });
    let digest_ok = open_loop || session.pass_counts.windows(2).all(|w| w[0] == w[1]);
    let correct = failed == 0 && digest_ok && replays.disagreements.is_empty();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {name} seed {seed} trace {} timed_s {:.2} requests {attempted} passes {} instances {}",
        u8::from(traced),
        wall.as_secs_f64(),
        session.pass_counts.len(),
        session.workload.instances.len()
    );
    for problem in validation
        .problems
        .iter()
        .chain(&replays.disagreements)
        .take(10)
    {
        let _ = writeln!(text, "  WRONG {problem}");
    }
    if !digest_ok {
        let _ = writeln!(text, "  WRONG the core's counts differ from pass to pass");
    }

    let metrics: Vec<(String, f64, String)> = if let Some(tracer) = &tracer {
        let values = per_layer(&session, tracer, &replays, &timed);
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    *values
                        .get(name)
                        .unwrap_or_else(|| panic!("{name} was not measured")),
                    unit.to_string(),
                )
            })
            .collect()
    } else {
        let windows = latency_windows(&timed, |_| true);
        let tail = windows
            .iter()
            .map(|w| samples_beyond(w.len(), 90.0))
            .min()
            .unwrap_or(0);
        if tail < MIN_TAIL_SAMPLES {
            let _ = writeln!(text, "  NOTE a window has only {tail} samples beyond its request_p90_ms, fewer than {MIN_TAIL_SAMPLES}");
        }
        // Every figure is the median over the windows (passes, slices of the
        // arrivals, drain bursts) of the window's own figure.
        let over_windows = |p: f64| median(windows.iter().map(|w| percentile(w, p)).collect());
        let values = [
            median(setups),
            median(session.window_rates()),
            over_windows(50.0),
            over_windows(90.0),
            1.0 - failed as f64 / attempted as f64,
            peak_rss_mb,
            validation.waits as f64 / validation.updates as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), v, m.unit.to_string()))
            .collect()
    };
    for (name, value, unit) in &metrics {
        let _ = writeln!(text, "  {name:<32} {value:>14.4} {unit}");
    }
    if open_loop {
        let late = percentile(&sorted(session.open.late_us.clone()), 99.0);
        if session.open.backlog_end > 20 || late > 1000.0 {
            let _ = writeln!(
                text,
                "  INVALID the generator ran {late:.0} us late at p99 and {} requests were queued when arrivals ended: the offered rate was not met or not kept up with",
                session.open.backlog_end
            );
        }
    }
    // The first pass's sums; on the open loop, the timed arrivals'.
    let digest = session.pass_counts[0].digest(open_loop);
    let speeds = sorted(session.calibrator.speeds.clone());
    let _ = writeln!(
        text,
        "machine_speed median {:.3} min {:.3} max {:.3} over {} samples (end-to-end times are scaled by it; per-layer times are as measured)",
        percentile(&speeds, 50.0),
        speeds[0],
        speeds[speeds.len() - 1],
        speeds.len()
    );
    let _ = writeln!(text, "counters_digest {}", digest.hex());

    if let Some(tracer) = &tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}.jsonl"));
        if let Err(error) = trace::write_jsonl(&path, tracer.spans()) {
            eprintln!("could not write {}: {error}", path.display());
        }
    }
    Some(Report {
        workload: name.to_string(),
        correct,
        attempted,
        failed,
        digest: digest.hex(),
        metrics,
        text,
    })
}

/// The calibrated latencies of the samples `keep` accepts, sorted, one list
/// per window.
fn latency_windows(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<Vec<f64>> {
    let mut windows: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for sample in samples.iter().filter(|s| keep(s)) {
        windows
            .entry(sample.window)
            .or_default()
            .push(sample.calibrated_ms());
    }
    windows.into_values().map(sorted).collect()
}

/// The samples latency statistics are taken over: every closed-loop request;
/// on the open loop the timed arrivals (not the drain burst, whose latency is
/// its position in the burst).
fn timed_samples(session: &Session) -> Vec<Sample> {
    let range = match &session.workload.shape {
        Shape::OpenLoop {
            warmup, arrivals, ..
        } => *warmup..warmup + arrivals.len(),
        _ => 0..session.workload.instances.len(),
    };
    session
        .recorder
        .samples
        .iter()
        .filter(|s| range.contains(&s.instance))
        .copied()
        .collect()
}

struct Validation {
    /// Requests whose instance's answer is wrong.
    wrong_requests: usize,
    problems: Vec<String>,
    /// Over the committed sequences.
    waits: usize,
    updates: usize,
}

/// Checks each instance's first outcome (repeats were compared to it as they
/// came) against its known answer and, for a sequence, the oracle.
fn validate(session: &Session, mut tracer: Option<&mut Tracer>) -> Validation {
    let mut validation = Validation {
        wrong_requests: 0,
        problems: Vec::new(),
        waits: 0,
        updates: 0,
    };
    let recorder = &session.recorder;
    for (index, (instance, outcome)) in session
        .workload
        .instances
        .iter()
        .zip(&recorder.first)
        .enumerate()
    {
        let Some(outcome) = outcome else { continue };
        let verdict = match (instance.expect, outcome) {
            (Expect::Sequence, Ok(update)) => {
                validation.waits += update.commands.num_waits();
                validation.updates += update.commands.num_updates();
                match tracer.as_deref_mut() {
                    Some(tracer) => replay::oracle_span(tracer, index as u32, instance, update),
                    None => oracle::check(&instance.problem, &update.commands),
                }
            }
            (Expect::NoOrdering, Err(SynthesisError::NoOrderingExists { .. })) => Ok(()),
            (Expect::Sequence, Err(error)) => Err(format!("solvable, but the answer was: {error}")),
            (Expect::NoOrdering, Ok(_)) => {
                Err("no switch order exists, but one was returned".to_string())
            }
            (Expect::NoOrdering, Err(error)) => Err(format!(
                "no switch order exists, but the answer was: {error}"
            )),
        };
        if let Err(problem) = verdict {
            validation.wrong_requests += recorder.served[index];
            validation
                .problems
                .push(format!("instance {index}: {problem}"));
        }
    }
    validation
}

/// Whole passes of the layer replay over the first instances, for about
/// `seconds`, at least once.
fn layer_replay(session: &Session, tracer: &mut Tracer, seconds: f64, counts: &mut ReplayCounts) {
    let first = match session.workload.shape {
        Shape::OpenLoop { warmup, .. } => warmup,
        _ => 0,
    };
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut batch_left = if pass == 0 { BATCH_REPLAYS } else { 0 };
        for index in first..(first + REPLAY_INSTANCES).min(session.workload.instances.len()) {
            let Some(outcome) = &session.recorder.first[index] else {
                continue;
            };
            let update = outcome.as_ref().ok();
            let batch = update.is_some() && batch_left > 0;
            batch_left -= usize::from(batch);
            replay::replay(
                tracer,
                index as u32,
                &session.workload.instances[index],
                update,
                batch,
                counts,
            );
        }
        pass += 1;
    }
}

fn per_layer(
    session: &Session,
    tracer: &Tracer,
    replays: &ReplayCounts,
    timed: &[Sample],
) -> BTreeMap<&'static str, f64> {
    let totals = trace::totals_by_name(tracer.spans());
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
    let with_update = total("core.wait_removal").count;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    m.insert("topology.generate_ms", ms(session.workload.generate));
    m.insert("topology.scenario_ms", ms(session.workload.scenario));
    m.insert("ltl.closure_ms", total("ltl.closure").mean_s() * 1e3);
    m.insert(
        "ltl.closure_size",
        per(replays.closure_size as f64, replays.replays),
    );
    m.insert("kripke.encode_ms", total("kripke.encode").mean_s() * 1e3);
    m.insert(
        "kripke.states",
        per(replays.kripke_states as f64, replays.replays),
    );
    m.insert(
        "kripke.transitions",
        per(replays.kripke_transitions as f64, replays.replays),
    );
    m.insert(
        "kripke.apply_update_us",
        total("kripke.apply_update").mean_s() * 1e6,
    );
    m.insert(
        "kripke.changed_states",
        per(replays.changed_states as f64, replays.steps),
    );
    m.insert("kripke.reset_ms", total("kripke.reset").mean_s() * 1e3);
    m.insert(
        "kripke.reset_changed_states",
        per(replays.reset_changed_states as f64, with_update),
    );
    m.insert("mc.check_ms", total("mc.check").mean_s() * 1e3);
    m.insert(
        "mc.check_states_labeled",
        per(replays.check_states_labeled as f64, replays.replays),
    );
    m.insert("mc.recheck_us", total("mc.recheck").mean_s() * 1e6);
    m.insert(
        "mc.recheck_states_labeled",
        per(replays.recheck_states_labeled as f64, replays.steps),
    );
    m.insert(
        "mc.relabel_share",
        per(
            replays.recheck_states_labeled as f64,
            replays.recheck_states_total,
        ),
    );
    m.insert(
        "mc.check_sequence_ms",
        total("mc.check_sequence").mean_s() * 1e3,
    );
    let (recheck, batch) = (
        total("mc.recheck").mean_s(),
        total("mc.batch_recheck").mean_s(),
    );
    m.insert("mc.batch_recheck_us", batch * 1e6);
    m.insert(
        "mc.incremental_speedup",
        if recheck > 0.0 { batch / recheck } else { 0.0 },
    );
    m.insert("sat.propose_ms", total("sat.propose").mean_s() * 1e3);
    m.insert(
        "sat.order_replay_ms",
        total("sat.order_replay").mean_s() * 1e3,
    );
    m.insert(
        "sat.decisions",
        per(replays.sat_decisions as f64, with_update),
    );
    m.insert(
        "sat.conflicts",
        per(replays.sat_conflicts as f64, with_update),
    );
    m.insert("sat.clauses", per(replays.sat_clauses as f64, with_update));
    m.insert("sat.vars", per(replays.sat_vars as f64, with_update));
    m.insert(
        "core.plan_units_us",
        total("core.plan_units").mean_s() * 1e6,
    );
    m.insert("core.units", per(replays.units as f64, replays.replays));
    m.insert(
        "core.wait_removal_ms",
        total("core.wait_removal").mean_s() * 1e3,
    );
    m.insert(
        "core.waits_before",
        per(replays.waits_before as f64, with_update),
    );
    m.insert(
        "core.waits_after",
        per(replays.waits_after as f64, with_update),
    );

    // The entry point against the replayed solution path: what the request
    // spent beyond the calls the committed answer needs is search.
    let entry = match session.workload.shape {
        Shape::Fresh => total("core.synthesize"),
        Shape::EngineStreams { .. } => total("request"),
        Shape::OpenLoop { .. } => total("serve.service"),
    };
    let path_ns: u64 = [
        "ltl.closure",
        "core.plan_units",
        "kripke.encode",
        "mc.check",
        "kripke.apply_update",
        "mc.recheck",
        "core.wait_removal",
    ]
    .iter()
    .map(|name| total(name).total_ns)
    .sum();
    let solve_ms = entry.mean_s() * 1e3;
    let path_ms = per(path_ns as f64 / 1e6, replays.replays);
    m.insert("core.solve_ms", solve_ms);
    m.insert("core.path_replay_ms", path_ms);
    m.insert("core.search_self_ms", solve_ms - path_ms);
    m.insert(
        "core.search_self_share",
        if solve_ms > 0.0 {
            (solve_ms - path_ms) / solve_ms
        } else {
            0.0
        },
    );

    // One pass's sums; on the open loop, the timed arrivals'.
    let counts: CoreCounts = match session.workload.shape {
        Shape::OpenLoop { .. } => session.pass_counts[0],
        _ => *session.pass_counts.last().expect("at least one pass"),
    };
    for (metric, count) in [
        ("core.model_checker_calls", "model_checker_calls"),
        ("core.charged_calls", "charged_calls"),
        ("core.states_relabeled", "states_relabeled"),
        ("core.backtracks", "backtracks"),
        ("core.counterexamples_learnt", "counterexamples_learnt"),
        ("core.configurations_pruned", "configurations_pruned"),
        ("core.sat_constraints", "sat_constraints"),
        ("core.cegis_iterations", "cegis_iterations"),
        ("core.sat_conflicts", "sat_conflicts"),
        ("core.sat_decisions", "sat_decisions"),
    ] {
        m.insert(metric, counts.get(count) as f64);
    }
    // Committed units per check the search schedule issued.
    m.insert(
        "core.useful_check_share",
        per(
            counts.get("updates") as f64,
            counts.get("charged_calls") as usize,
        ),
    );

    let open = &session.open;
    let (cold, warm): (Vec<f64>, Vec<f64>) = match session.workload.shape {
        Shape::EngineStreams { steps } => {
            let (cold, warm): (Vec<&Sample>, Vec<&Sample>) =
                timed.iter().partition(|s| s.instance % steps == 0);
            (
                cold.iter().map(|s| s.latency_ms).collect(),
                warm.iter().map(|s| s.latency_ms).collect(),
            )
        }
        _ => (open.service_miss_ms.clone(), open.service_hit_ms.clone()),
    };
    m.insert("core.engine_cold_solve_ms", mean(&cold));
    m.insert("core.engine_warm_solve_ms", mean(&warm));
    m.insert("core.engine_rebuilds", session.engine_rebuilds as f64);

    let pct = |values: &[f64], p: f64| {
        if values.is_empty() {
            0.0
        } else {
            percentile(&sorted(values.to_vec()), p)
        }
    };
    let service: Vec<f64> = open
        .service_hit_ms
        .iter()
        .chain(&open.service_miss_ms)
        .copied()
        .collect();
    let e2e: Vec<f64> = if service.is_empty() {
        Vec::new()
    } else {
        timed.iter().map(|s| s.latency_ms).collect()
    };
    m.insert("serve.submit_us", mean(&open.submit_us));
    m.insert("serve.queue_wait_p50_ms", pct(&open.queue_wait_ms, 50.0));
    m.insert("serve.queue_wait_p90_ms", pct(&open.queue_wait_ms, 90.0));
    m.insert("serve.service_p50_ms", pct(&service, 50.0));
    m.insert("serve.service_p90_ms", pct(&service, 90.0));
    m.insert("serve.service_hit_p50_ms", pct(&open.service_hit_ms, 50.0));
    m.insert(
        "serve.service_miss_p50_ms",
        pct(&open.service_miss_ms, 50.0),
    );
    m.insert(
        "serve.engine_hit_share",
        per(open.service_hit_ms.len() as f64, service.len()),
    );
    m.insert("serve.engines_evicted", open.engines_evicted as f64);
    m.insert("serve.shed", session.recorder.shed as f64);
    m.insert(
        "serve.utilization",
        if service.is_empty() {
            0.0
        } else {
            service.iter().sum::<f64>() / ms(open.open_wall)
        },
    );
    m.insert("serve.backlog_end", open.backlog_end as f64);
    m.insert("serve.e2e_p99_ms", pct(&e2e, 99.0));
    m.insert("serve.generator_late_p99_us", pct(&open.late_us, 99.0));
    let drain = match session.workload.shape {
        Shape::OpenLoop { .. } => session.window_rates(),
        _ => Vec::new(),
    };
    m.insert(
        "serve.drain_rps",
        if drain.is_empty() { 0.0 } else { median(drain) },
    );

    m.insert("model.oracle_ms", total("model.oracle").mean_s() * 1e3);
    let p50 = |traced: bool| {
        let windows = latency_windows(timed, |s| s.traced == traced);
        if windows.is_empty() {
            0.0
        } else {
            median(windows.iter().map(|w| percentile(w, 50.0)).collect())
        }
    };
    m.insert(
        "trace.overhead_share",
        if p50(false) > 0.0 {
            (p50(true) - p50(false)) / p50(false)
        } else {
            0.0
        },
    );
    m.insert("trace.spans", tracer.spans().len() as f64);
    m.insert(
        "bench.machine_speed",
        median(session.calibrator.speeds.clone()),
    );
    m
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    #[test]
    fn json_round_trips_through_the_parent_parser() {
        let report = Report {
            workload: "oneshot-dfs".to_string(),
            correct: true,
            attempted: 120,
            failed: 0,
            digest: "00ff".to_string(),
            metrics: vec![
                ("setup_s".to_string(), 0.8127, "s".to_string()),
                ("throughput_rps".to_string(), 39.25, "req/s".to_string()),
            ],
            text: "workload oneshot-dfs\ncounters_digest 00ff\n".to_string(),
        };
        let json = report.json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"throughput_rps\": {\"value\": 39.25, \"unit\": \"req/s\"}}}"
        );
        let parsed =
            Report::parse("oneshot-dfs", &report.text, &json).expect("parses its own output");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (120, 0));
        assert_eq!(parsed.digest, "00ff");
        assert_eq!(parsed.metrics, report.metrics);
        assert_eq!(parsed.metric("throughput_rps"), 39.25);
    }

    /// `/BENCHMARK.json` is written by hand; it must declare exactly the
    /// workloads and metrics this program prints.
    #[test]
    fn benchmark_json_declares_what_is_printed() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let names = |section: &str| -> Vec<String> {
            let body = declared
                .split_once(&format!("\"{section}\": ["))
                .expect("section present")
                .1;
            let body = body.split_once(']').expect("section closes").0;
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().expect("closing quote").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), NAMES);
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0));
        for metric in END_TO_END {
            let entry = declared
                .split_once(&format!("\"name\": \"{}\"", metric.name))
                .expect("declared")
                .1;
            let entry = entry.split_once('}').expect("entry closes").0;
            assert!(
                entry.contains(&format!("\"unit\": \"{}\"", metric.unit)),
                "{}: unit",
                metric.name
            );
            assert!(
                entry.contains(if metric.higher_is_better {
                    "\"higher\""
                } else {
                    "\"lower\""
                }),
                "{}: direction",
                metric.name
            );
            assert!(
                entry.contains(&format!("\"bound\": {}", metric.bound)),
                "{}: bound",
                metric.name
            );
        }
    }

    /// One second of every workload, untraced and traced: correct, and every
    /// declared metric is printed.
    #[test]
    fn smoke_run_of_every_workload() {
        for name in NAMES {
            let untraced = measure(name, 3, 1.0, false).expect("a known workload");
            assert!(untraced.correct, "{name}:\n{}", untraced.text);
            assert_eq!(untraced.failed, 0, "{name}");
            assert_eq!(untraced.metrics.len(), END_TO_END.len());
            assert!(
                untraced.metrics.iter().all(|m| m.1 > 0.0),
                "{name}: {:?}",
                untraced.metrics
            );
            let traced = measure(name, 3, 1.0, true).expect("a known workload");
            assert!(traced.correct, "{name}:\n{}", traced.text);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            // Same seed, same work, with or without spans (the open loop's
            // traced run offers a shorter schedule).
            if name != "serve-open" {
                assert_eq!(untraced.digest, traced.digest, "{name}");
            }
            assert_ne!(
                untraced.digest,
                measure(name, 4, 1.0, false)
                    .expect("a known workload")
                    .digest,
                "{name}"
            );
        }
    }
}
