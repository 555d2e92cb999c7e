//! `cosim_abr`: the closed-loop co-simulation. Tens of thousands of ABR
//! sessions drive a 2-shard virtual-clock fabric serving a small policy
//! tree through `metis_sim::run_abr_cosim`, with one model swap landing
//! mid-run and the telemetry plane off. A decision's wall cost here is
//! almost all request-path overhead (event queue, env step, feature
//! clone, channel hop, id maps, cross-shard merge); the tree walk is a
//! small share of it.
//!
//! The traced mode replays the same loop from public calls
//! ([`replay`]) with a clock read around each call, and checks that the
//! replay reproduces the untraced run's QoE digest bit for bit — so the
//! per-layer numbers describe the program path the end-to-end number
//! measures.

use crate::alone;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, Tracer};
use metis_abr::{hsdpa_corpus, AbrEnv, NetworkTrace, VideoModel, OBS_DIM};
use metis_dt::{fit, Dataset, DecisionTree, TreeConfig};
use metis_fabric::{FabricConfig, FabricReport, Router, ScenarioSpec, TenantSpec};
use metis_serve::{Clock, ServeConfig};
use metis_sim::{
    outcome_digest, run_abr_cosim, session_plan, CosimConfig, CosimEvent, ModelSwap,
    SessionOutcome, Simulation,
};
use metis_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCENARIO: &str = "pensieve";
const SESSIONS: usize = 20_000;
const CHUNKS: usize = 8;
const SHARDS: usize = 2;
/// Bandwidth traces sessions draw from; enough that one seed's mix of
/// slow and fast links looks like another's.
const TRACES: usize = 32;
/// Session placements a run cycles through.
const PLACEMENTS: usize = 4;
/// Sessions in the set-up's warm-up loop.
const WARMUP_SESSIONS: usize = 2_000;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Everything a co-simulation loop consumes, generated from the seed.
struct Inputs {
    video: Arc<VideoModel>,
    traces: Vec<Arc<NetworkTrace>>,
    initial: DecisionTree,
    swaps: Vec<ModelSwap>,
    /// One config per session placement; loops cycle through them, so a
    /// run's median covers several placements rather than one.
    cfgs: Vec<CosimConfig>,
}

/// A ~24-leaf ABR policy tree over the 25-feature observation whose
/// labels key off buffer and throughput features, so the policy branches.
fn abr_tree(rng: &mut StdRng, classes: usize) -> DecisionTree {
    let x: Vec<Vec<f64>> = (0..300)
        .map(|_| (0..OBS_DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[1] * 3.0 + xi[9] * 2.0 + xi[0]) as usize) % classes)
        .collect();
    fit(
        &Dataset::classification(x, y, classes).expect("valid dataset"),
        &TreeConfig {
            max_leaf_nodes: 24,
            ..Default::default()
        },
    )
    .expect("fit cannot fail on a valid dataset")
}

fn inputs(seed: u64, sessions: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let video = Arc::new(VideoModel::standard(CHUNKS, rng.next_u64()));
    let classes = video.n_qualities();
    let traces = hsdpa_corpus(TRACES, rng.next_u64())
        .into_iter()
        .map(Arc::new)
        .collect();
    let initial = abr_tree(&mut rng, classes);
    let swaps = vec![ModelSwap {
        at_s: 15.0,
        trees: vec![abr_tree(&mut rng, classes)],
    }];
    Inputs {
        video,
        traces,
        initial,
        swaps,
        cfgs: (0..PLACEMENTS)
            .map(|_| CosimConfig {
                sessions,
                seed: rng.next_u64(),
                start_window_s: 8.0,
                decision_quantum_s: 0.25,
                wave_cap: 4096,
            })
            .collect(),
    }
}

/// The 2-shard virtual-clock fabric, telemetry plane explicitly off.
fn router(initial: &DecisionTree) -> Router {
    Router::new(
        vec![TenantSpec::new("abr")],
        vec![ScenarioSpec::new(SCENARIO, "abr", initial.clone()).shards(SHARDS)],
        FabricConfig {
            serve: ServeConfig {
                max_batch: 512,
                // Never consulted: a virtual clock closes batches on
                // size or the collect's explicit flush.
                max_delay: Duration::from_secs(3600),
                // Each shard walks its batch on its own batcher thread;
                // fanning a 24-leaf tree walk across the pool costs more
                // than the walk.
                threads: 1,
                ..Default::default()
            },
            mirror_batch: 0,
            clock: Clock::virtual_at(0.0),
            telemetry: Telemetry::off(),
        },
    )
}

/// One untraced loop: `(digest, decisions, waves, wall seconds, fabric)`.
struct Loop {
    digest: u64,
    decisions: u64,
    waves: u64,
    wall_s: f64,
    fabric: FabricReport,
}

fn untraced_loop(inp: &Inputs, cfg: &CosimConfig) -> Loop {
    let router = router(&inp.initial);
    let start = Instant::now();
    let report = run_abr_cosim(&router, SCENARIO, &inp.video, &inp.traces, &inp.swaps, cfg);
    let wall_s = start.elapsed().as_secs_f64();
    Loop {
        digest: report.qoe_digest,
        decisions: report.decisions,
        waves: report.waves,
        wall_s,
        fabric: router.shutdown(),
    }
}

/// Set-up as a run pays it: generate the inputs, then one small
/// untimed loop so lazy initialisation (worker pool, allocator arenas)
/// is done before timing.
fn setup(seed: u64) -> Inputs {
    let warm_inputs = inputs(seed, WARMUP_SESSIONS);
    let warm = untraced_loop(&warm_inputs, &warm_inputs.cfgs[0]);
    assert_eq!(warm.fabric.served, warm.decisions);
    inputs(seed, SESSIONS)
}

fn timed_setups(seed: u64) -> (Inputs, Vec<f64>) {
    let mut times = Vec::new();
    let mut inp = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inp = Some(setup(seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (inp.expect("at least one set-up"), times)
}

/// Rows served per batch across the fabric's shards.
fn fabric_batch_mean(fabric: &FabricReport) -> f64 {
    let (mut served, mut batches) = (0u64, 0u64);
    for shard in fabric.scenarios.iter().flat_map(|s| &s.shards) {
        served += shard.served;
        batches += shard.batches;
    }
    served as f64 / batches.max(1) as f64
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let (inp, setup_times) = timed_setups(seed);
    let mut run = Report::new(setup_times);
    let expected = (SESSIONS * CHUNKS) as u64;
    let mut reference: Vec<Option<u64>> = vec![None; inp.cfgs.len()];
    // Gate one loop: its digest must equal the first loop's of the same
    // placement, and the fabric must have served exactly the decisions
    // taken.
    let mut gate = |run: &mut Report,
                    placement: usize,
                    digest: u64,
                    decisions: u64,
                    served: u64| {
        let want = *reference[placement].get_or_insert(digest);
        run.attempted += decisions;
        if digest != want || served != decisions || decisions != expected {
            run.failed += decisions.max(1);
            run.note(format!(
                "cosim_abr placement {placement}: digest {digest:016x} (want {want:016x}), served {served}, decisions {decisions} (want {expected})"
            ));
        }
    };
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last: Option<Loop> = None;
    let mut tracer = Tracer::new(LAYERS, 50_000);
    let mut sample_rows: Vec<f64> = Vec::new();
    let mut replayed = 0u64;
    // Every placement at least twice, so each digest is checked.
    while walls.len() < 2 * inp.cfgs.len() || start.elapsed().as_secs_f64() < seconds {
        let placement = walls.len() % inp.cfgs.len();
        let cfg = &inp.cfgs[placement];
        let l = untraced_loop(&inp, cfg);
        gate(&mut run, placement, l.digest, l.decisions, l.fabric.served);
        walls.push(l.wall_s);
        run.mark_rss();
        if traced {
            let router = router(&inp.initial);
            let r = replay(&router, &inp, cfg, &mut tracer, &mut sample_rows, 20_000);
            let fabric = router.shutdown();
            gate(&mut run, placement, r.digest, r.decisions, fabric.served);
            traced_walls.push(r.wall_s);
            replayed += r.decisions;
        }
        last = Some(l);
    }
    let last = last.expect("at least one loop");
    let rates: Vec<f64> = walls.iter().map(|w| expected as f64 / w).collect();
    run.throughput_per_s = run.timed("decisions_per_s", &rates, "1/s", "higher");
    run.p50_us = 1e6 / run.throughput_per_s;
    run.detail("us_per_decision", run.p50_us, "us", "lower");
    run.detail("loops", walls.len() as f64, "count", "-");
    if traced {
        let d = replayed as f64;
        let per = |layer: usize| tracer.total_ns(layer) / d;
        let wall_ns = traced_walls.iter().sum::<f64>() * 1e9 / d;
        let attributed: f64 = [EVENT, STEP, SUBMIT, COLLECT, RECORD, PUBLISH]
            .into_iter()
            .map(per)
            .sum();
        let batch_mean = fabric_batch_mean(&last.fabric);
        run.layer("sim.event_ns", per(EVENT));
        run.layer("abr.step_ns", per(STEP));
        run.layer("fabric.submit_ns", per(SUBMIT));
        run.layer("fabric.collect_ns", per(COLLECT));
        run.layer("cosim.record_ns", per(RECORD));
        run.detail("fabric.publish_ns", per(PUBLISH), "ns", "lower");
        run.layer("cosim.unattributed_ns", wall_ns - attributed);
        run.layer(
            "dt.kernel_ns_per_row",
            alone::kernel_ns_per_row(&inp.initial, &sample_rows, OBS_DIM, batch_mean),
        );
        run.layer("sim.waves", last.waves as f64);
        run.layer(
            "sim.wave_rows_mean",
            last.decisions as f64 / last.waves as f64,
        );
        run.layer("serve.batch_rows_mean", batch_mean);
        run.layer(
            "trace.overhead_pct",
            (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
        );
        run.tracer = Some(tracer);
    }
    run
}

/// Layers the traced replay stamps (indices into [`LAYERS`]).
const WAVE: usize = 0;
const EVENT: usize = 1;
const SUBMIT: usize = 2;
const COLLECT: usize = 3;
const STEP: usize = 4;
const RECORD: usize = 5;
const PUBLISH: usize = 6;
const LAYERS: &[&str] = &[
    "cosim.wave",
    "sim.event",
    "fabric.submit",
    "fabric.collect",
    "abr.step",
    "cosim.record",
    "fabric.publish",
];

struct Replay {
    digest: u64,
    decisions: u64,
    wall_s: f64,
}

struct SessionState {
    env: AbrEnv,
    obs: Vec<f64>,
    outcome: SessionOutcome,
}

/// `run_abr_cosim` rebuilt from the crates' public calls, with a span
/// around each: `Simulation::peek`/`pop`/`schedule_at`,
/// `FabricHandle::submit`/`collect`, `Router::publish`,
/// `AbrEnv::step_detailed` and `SessionOutcome::record_chunk`. Spans of
/// one decision carry the id of its wave. The first `keep_rows` rows
/// submitted are copied into `rows` for the kernel timing.
fn replay(
    router: &Router,
    inp: &Inputs,
    cfg: &CosimConfig,
    tracer: &mut Tracer,
    rows: &mut Vec<f64>,
    keep_rows: usize,
) -> Replay {
    let (video, traces, swaps) = (&inp.video, &inp.traces, &inp.swaps);
    let scen_idx = router.scenario_index(SCENARIO).expect("scenario exists");
    let n_actions = video.n_qualities();
    let start = Instant::now();
    let mut sim: Simulation<CosimEvent> =
        Simulation::with_clock(Arc::clone(router.clock()), cfg.seed);
    for (i, swap) in swaps.iter().enumerate() {
        sim.schedule_at(swap.at_s, CosimEvent::Swap(i as u32));
    }
    let plans = session_plan(cfg, traces);
    let mut states: Vec<SessionState> = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let mut env = AbrEnv::new(
            Arc::clone(video),
            Arc::clone(&traces[plan.trace_idx]),
            plan.offset_s,
        );
        let obs = metis_rl::Env::reset(&mut env);
        states.push(SessionState {
            env,
            obs,
            outcome: SessionOutcome::new(plan.trace_idx, plan.start_s),
        });
        sim.schedule_at(plan.start_s, CosimEvent::Decide(i as u32));
    }

    let mut handle = router.handle();
    let mut wave: Vec<(u32, f64)> = Vec::new();
    let mut decisions = 0u64;
    let mut wave_id = 0u64;
    while let Some(front) = sim.peek() {
        let front_time = front.time_s;
        match front.event {
            CosimEvent::Swap(k) => {
                sim.pop();
                let tree = swaps[k as usize].trees[0].clone();
                let t0 = trace::now();
                router.publish(SCENARIO, tree);
                tracer.record(PUBLISH, wave_id, None, t0, trace::now());
                continue;
            }
            CosimEvent::Tick => unreachable!("no observer in this workload"),
            CosimEvent::Decide(_) => {}
        }
        let horizon = front_time + cfg.decision_quantum_s;
        wave.clear();
        let wave_start = trace::now();
        let span = tracer.open(WAVE, wave_id, wave_start);
        let mut t = wave_start;
        while wave.len() < cfg.wave_cap {
            let take = match sim.peek() {
                Some(e) => {
                    matches!(e.event, CosimEvent::Decide(_))
                        && (wave.is_empty() || e.time_s < horizon)
                }
                None => false,
            };
            if !take {
                break;
            }
            let entry = sim.pop().expect("peeked");
            let popped = trace::now();
            tracer.record(EVENT, wave_id, span, t, popped);
            let CosimEvent::Decide(s) = entry.event else {
                unreachable!()
            };
            let features = states[s as usize].obs.clone();
            if rows.len() < keep_rows * OBS_DIM {
                rows.extend_from_slice(&features);
            }
            let t_submit = trace::now();
            handle.submit(scen_idx, s as u64, features);
            t = trace::now();
            tracer.record(SUBMIT, wave_id, span, t_submit, t);
            wave.push((s, entry.time_s));
        }
        let t_collect = trace::now();
        let responses = handle.collect();
        let mut t = trace::now();
        tracer.record(COLLECT, wave_id, span, t_collect, t);
        for (resp, &(s, time_s)) in responses.iter().zip(&wave) {
            let action = resp.response.prediction.class().min(n_actions - 1);
            let state = &mut states[s as usize];
            let (step, d) = state.env.step_detailed(action);
            let stepped = trace::now();
            tracer.record(STEP, wave_id, span, t, stepped);
            state.outcome.record_chunk(step.reward, &d);
            decisions += 1;
            let recorded = trace::now();
            tracer.record(RECORD, wave_id, span, stepped, recorded);
            if !step.done {
                state.obs = step.obs;
                sim.schedule_at(
                    time_s + d.download_time_s + d.sleep_s,
                    CosimEvent::Decide(s),
                );
            }
            t = trace::now();
            tracer.record(EVENT, wave_id, span, recorded, t);
        }
        tracer.close(WAVE, span, wave_start, t);
        wave_id += 1;
    }
    let sessions: Vec<SessionOutcome> = states.into_iter().map(|s| s.outcome).collect();
    Replay {
        digest: outcome_digest(&sessions),
        decisions,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay takes the same program path as `run_abr_cosim`: at a
    /// small size its QoE digest equals the untraced loop's bit for bit,
    /// and the fabric serves the same number of decisions.
    #[test]
    fn replay_reproduces_the_untraced_digest() {
        let inp = inputs(5, 300);
        let untraced = untraced_loop(&inp, &inp.cfgs[1]);
        let router = router(&inp.initial);
        let mut tracer = Tracer::new(LAYERS, 1000);
        let mut rows = Vec::new();
        let r = replay(&router, &inp, &inp.cfgs[1], &mut tracer, &mut rows, 50);
        let fabric = router.shutdown();
        assert_eq!(r.digest, untraced.digest);
        assert_eq!(r.decisions, untraced.decisions);
        assert_eq!(fabric.served, untraced.fabric.served);
        assert_eq!(r.decisions, (300 * CHUNKS) as u64);
        assert_eq!(rows.len(), 50 * OBS_DIM);
        assert_eq!(tracer.calls(STEP), r.decisions);
        assert_eq!(tracer.calls(PUBLISH), 1, "the swap landed");
        // A different seed is a different workload.
        // Another placement is another workload.
        assert_ne!(untraced_loop(&inp, &inp.cfgs[0]).digest, untraced.digest);
    }
}
