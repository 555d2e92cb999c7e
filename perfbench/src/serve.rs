//! `serve_poisson`: the fabric on the real clock under open-loop load.
//! One generator thread sends Poisson arrivals to a 1-shard fabric
//! serving a 2000-leaf tree over the 143-feature lRLA observation, with
//! the telemetry plane and a health observer explicitly enabled. Each
//! round runs three phases:
//!
//! * `low` — 20 000 rps; batches close on the `max_delay` deadline;
//! * `high` — 200 000 rps; batches close on size, and `Router::publish`
//!   alternates between two trees every few milliseconds;
//! * `burst` — every request due at once, four times; the median drain
//!   rate is the capacity.
//!
//! Latency is timed from each request's due time: the generator's
//! lateness in sending it plus the engine's own submit→answer span.
//! Every response is checked bit for bit against the offline
//! `DecisionTree::predict` of the epoch that served it.

use crate::report::Report;
use crate::stats::{batch_mean_from_requests, due_time_latency_s, median, Tail};
use crate::trace::{self, Tick, Tracer};
use crate::{affinity, alone};
use metis_dt::{fit, prune_to_leaves, Dataset, DecisionTree, Prediction, TreeConfig};
use metis_fabric::{FabricConfig, FabricResponse, Router, ScenarioSpec, TenantSpec};
use metis_flowsched::LRLA_STATE_DIM;
use metis_obs::{Observer, ObserverConfig};
use metis_serve::{Clock, ServeConfig};
use metis_telemetry::{FlushStamps, ShardTelemetry, Stage, Telemetry, CONTROL_SHARD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCENARIO: &str = "lrla";
const LEAVES: usize = 2000;
/// Leaves of the second tree `high` swaps to: the first one pruned.
const SWAP_LEAVES: usize = 1000;
const CLASSES: usize = 16;
const TRAIN_ROWS: usize = 5000;
/// Share of training labels drawn at random; the noise keeps the CART
/// fit splitting until it reaches the leaf budget.
const LABEL_NOISE: f64 = 0.6;
/// Request feature rows; request `k` carries row `rows[k]` of this pool.
const POOL_ROWS: usize = 4096;
const LOW_RPS: f64 = 20_000.0;
const HIGH_RPS: f64 = 200_000.0;
const LOW_S: f64 = 1.0;
const HIGH_S: f64 = 1.0;
const BURST: usize = 25_000;
const SWAP_EVERY: Duration = Duration::from_millis(10);
const TICK_EVERY: Duration = Duration::from_millis(10);
const SETUPS: usize = 3;
/// With the 200 µs deadline, `low` (about 4 arrivals per deadline)
/// closes batches on the deadline and `high` (about 40) on this size.
const MAX_BATCH: usize = 32;
const MIN_ROUNDS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Low,
    High,
    Burst,
}

/// One round: the two open-loop rates, then several bursts so the
/// capacity is a median of many drains.
const ROUND: [Phase; 6] = [
    Phase::Low,
    Phase::High,
    Phase::Burst,
    Phase::Burst,
    Phase::Burst,
    Phase::Burst,
];

struct Inputs {
    /// The two trees `high` alternates between; epoch `e` serves
    /// `trees[e % 2]`.
    trees: [DecisionTree; 2],
    pool: Vec<Vec<f64>>,
    /// `oracle[t][r]`: the offline `DecisionTree::predict` of tree `t`
    /// on pool row `r`.
    oracle: [Vec<Prediction>; 2],
}

fn random_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            (0..LRLA_STATE_DIM)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect()
}

/// A 2000-leaf tree over the lRLA feature space (its content does not
/// matter for the cost of a walk; its depth and branching do).
fn serving_tree(rng: &mut StdRng) -> DecisionTree {
    let x = random_rows(rng, TRAIN_ROWS);
    let y: Vec<usize> = x
        .iter()
        .map(|xi| {
            if rng.gen_range(0.0..1.0) < LABEL_NOISE {
                rng.gen_range(0..CLASSES)
            } else {
                ((xi[0] * 17.0 + xi[5] * 9.0 + xi[40] * 4.0) as usize) % CLASSES
            }
        })
        .collect();
    fit(
        &Dataset::classification(x, y, CLASSES).expect("valid dataset"),
        &TreeConfig {
            max_leaf_nodes: LEAVES,
            ..Default::default()
        },
    )
    .expect("fit cannot fail on a valid dataset")
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = serving_tree(&mut rng);
    let pruned = prune_to_leaves(&tree, SWAP_LEAVES);
    let trees = [tree, pruned];
    let pool = random_rows(&mut rng, POOL_ROWS);
    let oracle = [0, 1].map(|t| pool.iter().map(|r| trees[t].predict(r)).collect());
    Inputs {
        trees,
        pool,
        oracle,
    }
}

/// The 1-shard real-clock fabric, telemetry plane explicitly enabled.
fn router(initial: &DecisionTree) -> Router {
    Router::new(
        vec![TenantSpec::new("flows")],
        vec![ScenarioSpec::new(SCENARIO, "flows", initial.clone())],
        FabricConfig {
            serve: ServeConfig {
                max_batch: MAX_BATCH,
                max_delay: Duration::from_micros(200),
                // Flushes run on the batcher thread, leaving the other
                // core to the generator.
                threads: 1,
                ..Default::default()
            },
            mirror_batch: 0,
            clock: Clock::real(),
            telemetry: Telemetry::enabled(),
        },
    )
}

/// One phase's arrivals: due offsets from the phase start (seconds,
/// ascending) and the pool row each request carries.
struct Schedule {
    due_s: Vec<f64>,
    rows: Vec<u32>,
}

fn schedule(rng: &mut StdRng, phase: Phase) -> Schedule {
    let (n, rate) = match phase {
        Phase::Low => ((LOW_RPS * LOW_S) as usize, LOW_RPS),
        Phase::High => ((HIGH_RPS * HIGH_S) as usize, HIGH_RPS),
        Phase::Burst => (BURST, f64::INFINITY),
    };
    let mut t = 0.0;
    let mut due_s = Vec::with_capacity(n);
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        if rate.is_finite() {
            // Exponential gap: -ln(U) / rate with U in (0, 1].
            let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
            t += -u.ln() / rate;
        }
        due_s.push(t);
        rows.push(rng.gen_range(0..POOL_ROWS as u32));
    }
    Schedule { due_s, rows }
}

/// What one phase measured.
#[derive(Default)]
struct PhaseResult {
    sent: u64,
    answered: u64,
    mismatches: u64,
    swaps: u64,
    /// Due-time latency of the answered requests, seconds.
    due: Tail,
    /// `response.latency_s` alone, seconds.
    engine: Tail,
    /// Generator lateness, seconds.
    late: Tail,
    /// The first engine latencies of the phase, seconds: a batch's worth
    /// for the telemetry timing.
    engine_sample: Vec<f64>,
    batch_mean: f64,
    /// Wall seconds from the first send to the last answer.
    drain_s: f64,
    /// Mean `FabricHandle::submit` time (traced runs).
    submit_ns: f64,
    collect_ns: f64,
    queue_wait_p50_s: f64,
    kernel_p50_s: f64,
}

/// The control thread's work: observer ticks throughout, hot swaps
/// while `swapping` is set.
struct Control {
    stop: AtomicBool,
    swapping: AtomicBool,
}

struct ControlLog {
    /// `(layer, start, end)` spans of ticks and publishes.
    spans: Vec<(usize, Tick, Tick)>,
    tick_ns: Vec<f64>,
    publish_us: Vec<f64>,
    /// Publishes whose epoch broke the `e % 2` alternation.
    bad_epochs: u64,
}

fn control_loop(
    ctl: &Control,
    router: &Router,
    observer: &Observer,
    trees: &[DecisionTree; 2],
) -> ControlLog {
    let mut log = ControlLog {
        spans: Vec::new(),
        tick_ns: Vec::new(),
        publish_us: Vec::new(),
        bad_epochs: 0,
    };
    let registry = Arc::clone(router.registry(SCENARIO));
    let mut next_tick = Instant::now();
    let mut next_swap = Instant::now();
    while !ctl.stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= next_tick {
            let t0 = trace::now();
            let i0 = Instant::now();
            observer.tick_now();
            log.tick_ns.push(i0.elapsed().as_nanos() as f64);
            log.spans.push((TICK, t0, trace::now()));
            next_tick = now + TICK_EVERY;
        }
        if ctl.swapping.load(Ordering::Acquire) && now >= next_swap {
            let next = registry.epoch() + 1;
            let tree = trees[(next % 2) as usize].clone();
            let t0 = trace::now();
            let i0 = Instant::now();
            let epoch = router.publish(SCENARIO, tree);
            log.publish_us.push(i0.elapsed().as_secs_f64() * 1e6);
            log.spans.push((PUBLISH, t0, trace::now()));
            if epoch != next {
                log.bad_epochs += 1;
            }
            next_swap = now + SWAP_EVERY;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    log
}

/// Send one phase open-loop, then collect and check every answer.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    phase: Phase,
    sched: &Schedule,
    handle: &mut metis_fabric::FabricHandle<'_>,
    inp: &Inputs,
    router: &Router,
    scope: &ShardTelemetry,
    ctl: &Control,
    traced: bool,
    tracer: &mut Tracer,
    phase_id: u64,
) -> PhaseResult {
    let n = sched.due_s.len();
    let registry = router.registry(SCENARIO);
    let swaps_before = registry.swap_count();
    let queue_before = scope.stage_sketch(Stage::QueueWait).snapshot();
    let kernel_before = scope.stage_sketch(Stage::KernelCompute).snapshot();
    let mut sent_s = Vec::with_capacity(n);
    let mut submit_ticks = 0u64;
    let mut first_id = None;
    ctl.swapping.store(phase == Phase::High, Ordering::Release);
    let phase_tick = trace::now();
    let span = tracer.open(PHASE, phase_id, phase_tick);
    // A short lead so the first arrival is not already late.
    let start = Instant::now() + Duration::from_micros(200);
    for k in 0..n {
        let due = start + Duration::from_secs_f64(sched.due_s[k]);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let wait = due - now;
            if wait > Duration::from_micros(300) {
                std::thread::sleep(wait - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let features = inp.pool[sched.rows[k] as usize].clone();
        let sent = Instant::now();
        sent_s.push((sent - start).as_secs_f64());
        let t0 = trace::now();
        let id = handle.submit(0, k as u64, features);
        if traced {
            let t1 = trace::now();
            tracer.record(SUBMIT, id, span, t0, t1);
            submit_ticks += t1 - t0;
        }
        first_id.get_or_insert(id);
    }
    ctl.swapping.store(false, Ordering::Release);
    let c0 = trace::now();
    let responses: Vec<FabricResponse> = handle.collect();
    let c1 = trace::now();
    let drain_s = start.elapsed().as_secs_f64();
    tracer.record(COLLECT, phase_id, span, c0, c1);
    tracer.close(PHASE, span, phase_tick, trace::now());
    let first_id = first_id.unwrap_or(0);

    let mut r = PhaseResult {
        sent: n as u64,
        answered: responses.len() as u64,
        swaps: registry.swap_count() - swaps_before,
        drain_s,
        collect_ns: (c1 - c0) as f64 * tracer.ns_per_tick() / n.max(1) as f64,
        ..Default::default()
    };
    r.submit_ns = submit_ticks as f64 * tracer.ns_per_tick() / n.max(1) as f64;
    let mut due = Vec::with_capacity(n);
    let mut engine = Vec::with_capacity(n);
    let mut late = Vec::with_capacity(n);
    for resp in &responses {
        let k = (resp.id - first_id) as usize;
        let row = sched.rows[k] as usize;
        let want = inp.oracle[(resp.response.epoch % 2) as usize][row];
        if !same_prediction(resp.response.prediction, want) {
            r.mismatches += 1;
        }
        let engine_s = resp.response.latency_s;
        late.push((sent_s[k] - sched.due_s[k]).max(0.0));
        engine.push(engine_s);
        due.push(due_time_latency_s(sched.due_s[k], sent_s[k], engine_s));
    }
    r.engine_sample = engine.iter().take(MAX_BATCH).copied().collect();
    r.due = Tail::of(&due);
    r.engine = Tail::of(&engine);
    r.late = Tail::of(&late);
    r.batch_mean = batch_mean_from_requests(responses.iter().map(|x| x.response.batch_size));
    let delta_p50 = |before: &metis_telemetry::SketchSnapshot, stage: Stage| {
        scope
            .stage_sketch(stage)
            .snapshot()
            .saturating_delta(before)
            .quantile(0.5)
            .unwrap_or(0.0)
    };
    r.queue_wait_p50_s = delta_p50(&queue_before, Stage::QueueWait);
    r.kernel_p50_s = delta_p50(&kernel_before, Stage::KernelCompute);
    r
}

fn same_prediction(a: Prediction, b: Prediction) -> bool {
    match (a, b) {
        (Prediction::Class(x), Prediction::Class(y)) => x == y,
        (Prediction::Value(x), Prediction::Value(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// Set-up: the trees, the request pool and its oracle answers, the
/// fabric, and a short untimed burst so the batcher and allocator are
/// warm. The fabric's threads are pinned to the second CPU (the first
/// when there is one), leaving the other to the generator.
fn setup(seed: u64, cpus: &[usize]) -> (Inputs, Router) {
    affinity::unpin(cpus);
    let inp = inputs(seed);
    affinity::pin_to(cpus, 1);
    let router = router(&inp.trees[0]);
    {
        let mut handle = router.handle();
        for k in 0..2000 {
            handle.submit(0, k, inp.pool[k as usize % POOL_ROWS].clone());
        }
        assert_eq!(handle.collect().len(), 2000);
    }
    (inp, router)
}

/// Layers of the traced run (indices into [`LAYERS`]).
const PHASE: usize = 0;
const SUBMIT: usize = 1;
const COLLECT: usize = 2;
const PUBLISH: usize = 3;
const TICK: usize = 4;
const LAYERS: &[&str] = &[
    "serve.phase",
    "fabric.submit",
    "fabric.collect",
    "fabric.publish",
    "obs.tick",
];

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let cpus = affinity::allowed_cpus();
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up's fabric before timing the next.
        drop(built.take());
        let t0 = Instant::now();
        built = Some(setup(seed, &cpus));
        times.push(t0.elapsed().as_secs_f64());
    }
    let (inp, router) = built.expect("at least one set-up");
    let mut run = Report::new(times);
    let observer = router.observer(ObserverConfig {
        tick_s: TICK_EVERY.as_secs_f64(),
        ..Default::default()
    });
    let scope = router
        .telemetry()
        .scopes()
        .into_iter()
        .find(|s| s.shard() != CONTROL_SHARD)
        .expect("the enabled plane registers the shard scope");
    let mut tracer = Tracer::new(LAYERS, 60_000);
    let ctl = Control {
        stop: AtomicBool::new(false),
        swapping: AtomicBool::new(false),
    };
    // Arrivals for every round come from the seed alone.
    let mut rng = StdRng::seed_from_u64(metis_rl::mix_seed(seed));
    let mut results: Vec<(Phase, PhaseResult)> = Vec::new();
    let control_log = std::thread::scope(|s| {
        // Spawned while this thread is still pinned beside the fabric.
        let control = s.spawn(|| control_loop(&ctl, &router, &observer, &inp.trees));
        affinity::pin_to(&cpus, 0);
        let mut handle = router.handle();
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            for phase in ROUND {
                let sched = schedule(&mut rng, phase);
                let r = run_phase(
                    phase,
                    &sched,
                    &mut handle,
                    &inp,
                    &router,
                    &scope,
                    &ctl,
                    traced,
                    &mut tracer,
                    results.len() as u64,
                );
                results.push((phase, r));
            }
            rounds += 1;
            run.mark_rss();
        }
        ctl.stop.store(true, Ordering::Release);
        control.join().expect("control thread panicked")
    });
    let fabric = router.shutdown();
    let undelivered: u64 = fabric
        .scenarios
        .iter()
        .flat_map(|s| &s.shards)
        .map(|s| s.delivery_failures)
        .sum();

    for (i, (phase, r)) in results.iter().enumerate() {
        run.attempted += r.sent;
        let lost = r.sent - r.answered;
        let bad = lost + r.mismatches;
        run.failed += bad;
        if bad > 0 {
            run.note(format!(
                "serve_poisson phase {i} ({phase:?}): {lost} unanswered, {} mismatched",
                r.mismatches
            ));
        }
    }
    run.failed += undelivered + control_log.bad_epochs;
    if undelivered + control_log.bad_epochs > 0 {
        run.note(format!(
            "serve_poisson: {undelivered} undelivered responses, {} publishes off the alternation",
            control_log.bad_epochs
        ));
    }

    // Per-phase figures, reported as medians over that phase's runs.
    let of = |phase: Phase| {
        results
            .iter()
            .filter(move |(p, _)| *p == phase)
            .map(|(_, r)| r)
    };
    let each =
        |phase: Phase, f: &dyn Fn(&PhaseResult) -> f64| -> Vec<f64> { of(phase).map(f).collect() };
    let med = |phase: Phase, f: &dyn Fn(&PhaseResult) -> f64| -> f64 { median(&each(phase, f)) };
    let us = 1e6;
    run.timed(
        "p50_us_low",
        &each(Phase::Low, &|r| r.due.p50 * us),
        "us",
        "lower",
    );
    run.timed(
        "p99_us_low",
        &each(Phase::Low, &|r| r.due.p99 * us),
        "us",
        "lower",
    );
    run.p50_us = run.timed(
        "p50_us_high",
        &each(Phase::High, &|r| r.due.p50 * us),
        "us",
        "lower",
    );
    run.timed(
        "p99_us_high",
        &each(Phase::High, &|r| r.due.p99 * us),
        "us",
        "lower",
    );
    run.throughput_per_s = run.timed(
        "capacity_rps",
        &each(Phase::Burst, &|r| r.answered as f64 / r.drain_s),
        "1/s",
        "higher",
    );
    run.detail("phases", results.len() as f64, "count", "-");

    if traced {
        for &(layer, t0, t1) in &control_log.spans {
            tracer.record(layer, 0, None, t0, t1);
        }
        // Open-loop phases only; a burst is late by design. Percentiles
        // are medians of the per-phase ones, the maximum the largest.
        let open_loop = || of(Phase::Low).chain(of(Phase::High));
        let med_open = |f: &dyn Fn(&PhaseResult) -> f64| -> f64 {
            median(&open_loop().map(f).collect::<Vec<_>>())
        };
        run.layer("gen.late_us_p50", med_open(&|r| r.late.p50 * us));
        run.layer("gen.late_us_p99", med_open(&|r| r.late.p99 * us));
        run.layer(
            "gen.late_us_max",
            open_loop().map(|r| r.late.max * us).fold(0.0, f64::max),
        );
        run.layer("serve.engine_us_p50", med_open(&|r| r.engine.p50 * us));
        run.layer("serve.engine_us_p99", med_open(&|r| r.engine.p99 * us));
        run.layer("fabric.submit_ns", med_open(&|r| r.submit_ns));
        run.layer("fabric.collect_ns", med(Phase::Burst, &|r| r.collect_ns));
        run.layer(
            "serve.queue_wait_us_p50",
            med(Phase::High, &|r| r.queue_wait_p50_s * us),
        );
        run.layer(
            "serve.kernel_us_p50",
            med(Phase::High, &|r| r.kernel_p50_s * us),
        );
        let high_batch = med(Phase::High, &|r| r.batch_mean);
        run.layer(
            "dt.kernel_ns_per_row",
            alone::kernel_ns_per_row(
                &inp.trees[0],
                &inp.pool.concat(),
                LRLA_STATE_DIM,
                high_batch,
            ),
        );
        run.layer(
            "telemetry.record_ns_per_row",
            record_ns_per_row(
                high_batch,
                &of(Phase::High).next().expect("a high phase").engine_sample,
            ),
        );
        let ticks = &control_log.tick_ns;
        run.layer(
            "obs.tick_us",
            ticks.iter().sum::<f64>() / ticks.len().max(1) as f64 / 1e3,
        );
        run.layer(
            "serve.publish_us_max",
            control_log.publish_us.iter().copied().fold(0.0, f64::max),
        );
        for (phase, [batch, sent, answered, swaps, mismatches]) in [
            (
                Phase::Low,
                [
                    "serve.batch_rows_mean.low",
                    "gen.sent.low",
                    "serve.answered.low",
                    "serve.swaps.low",
                    "serve.mismatch_rows.low",
                ],
            ),
            (
                Phase::High,
                [
                    "serve.batch_rows_mean.high",
                    "gen.sent.high",
                    "serve.answered.high",
                    "serve.swaps.high",
                    "serve.mismatch_rows.high",
                ],
            ),
            (
                Phase::Burst,
                [
                    "serve.batch_rows_mean.burst",
                    "gen.sent.burst",
                    "serve.answered.burst",
                    "serve.swaps.burst",
                    "serve.mismatch_rows.burst",
                ],
            ),
        ] {
            let sum = |f: &dyn Fn(&PhaseResult) -> u64| of(phase).map(f).sum::<u64>() as f64;
            run.layer(batch, med(phase, &|r| r.batch_mean));
            run.layer(sent, sum(&|p| p.sent));
            run.layer(answered, sum(&|p| p.answered));
            run.layer(swaps, sum(&|p| p.swaps));
            run.layer(mismatches, sum(&|p| p.mismatches));
        }
        run.tracer = Some(tracer);
    }
    run
}

/// `ShardTelemetry::on_requests` plus `record_flush`, alone, on a scope
/// of its own, at the observed batch shape; latencies are drawn from the
/// run's observed engine latencies.
fn record_ns_per_row(batch_mean: f64, engine_s: &[f64]) -> f64 {
    let plane = Telemetry::enabled();
    let scope = plane
        .register_scope("probe", 0, "flows", 0)
        .expect("enabled plane");
    let batch = (batch_mean.round() as usize).max(1);
    let mut lat: Vec<f64> = engine_s.iter().take(batch).copied().collect();
    lat.resize(batch, 1e-4);
    lat.sort_by(|a, b| b.total_cmp(a));
    let waits: Vec<f64> = lat.iter().map(|l| l * 0.5).collect();
    let mut close_s = 0.0;
    alone::ns_per_item(batch, || {
        close_s += 1e-3;
        scope.on_batch_open();
        scope.record_flush(&FlushStamps {
            open_s: close_s - 2e-4,
            kernel_start_s: close_s - 1e-4,
            kernel_end_s: close_s - 5e-5,
            close_s,
            rows: batch,
            epoch: 0,
            width: 1,
        });
        scope.on_requests(close_s, &lat, &waits);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_come_from_the_seed_at_the_fixed_rates() {
        let a = schedule(&mut StdRng::seed_from_u64(3), Phase::Low);
        let b = schedule(&mut StdRng::seed_from_u64(3), Phase::Low);
        assert_eq!(a.due_s, b.due_s);
        assert_eq!(a.rows, b.rows);
        let n = a.due_s.len();
        assert_eq!(n, (LOW_RPS * LOW_S) as usize);
        let rate = n as f64 / a.due_s[n - 1];
        assert!((rate / LOW_RPS - 1.0).abs() < 0.05, "offered {rate} rps");
        assert!(a.due_s.windows(2).all(|w| w[0] <= w[1]));
        let burst = schedule(&mut StdRng::seed_from_u64(3), Phase::Burst);
        assert!(burst.due_s.iter().all(|&d| d == 0.0));
        assert!(burst.rows.iter().all(|&r| (r as usize) < POOL_ROWS));
    }
}
