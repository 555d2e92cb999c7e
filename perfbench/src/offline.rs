//! `interpret_offline`: the paper's offline jobs (§3 conversion, §4 mask
//! search), the cost Fig. 31 reports. A Pensieve teacher trained in
//! set-up goes through `ConversionPipeline::with_value` — DAgger rounds,
//! critic-weighted Eq.-1 resampling, CART fit, CCP prune to 200 leaves —
//! and then a 300-step `optimize_mask` runs on RouteNet over NSFNet with
//! the Table 4 λ. The `nn`, `rl`, `dt`, `hypergraph` and worker-pool
//! layers do all the work; the serving stack does none.
//!
//! The traced mode replays the conversion from the crates' public calls
//! (`collect_seeded`, `resample_by_weight`, `fit`, `prune_to_leaves`,
//! `fidelity_sharded`), timing each stage, and checks the replayed tree
//! against the pipeline's.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, Tracer};
use metis_abr::{
    env_pool, hsdpa_corpus, pensieve_agent, train_pensieve, AbrEnv, PensieveArch, PensieveNet,
    VideoModel,
};
use metis_core::{
    ConversionConfig, ConversionPipeline, ConversionResult, MaskedRouting, TreePolicy,
};
use metis_dt::{fit, prune_to_leaves, Criterion, Dataset, TreeConfig};
use metis_hypergraph::{optimize_mask, MaskConfig, MaskResult, MaskedSystem};
use metis_rl::{
    collect_seeded, fidelity_sharded, mix_seed, resample_by_weight, states_matrix, ActorCritic,
    CollectConfig, Controller, Env, Policy, SampledState,
};
use metis_routing::{
    candidate_paths, demand_corpus, optimize_routing, Demand, LatencyModel, RouteNetModel, Routing,
    Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const TEACHER_EPOCHS: usize = 200;
/// The teacher is the model under interpretation, the same in every run:
/// how far the CART fit grows depends on its policy, and across training
/// seeds that moved the conversion's cost by a factor of two, while some
/// seeds train a near-constant policy whose tree is a single leaf. This
/// one converts to a 30-leaf tree at ~0.999 fidelity.
const TEACHER_SEED: u64 = 4;
const TRAIN_TRACES: usize = 12;
const EPISODES_PER_ROUND: usize = 96;
const DAGGER_ROUNDS: usize = 3;
const LEAVES: usize = 200;
const DEMANDS: usize = 60;
const ROUTENET_EPOCHS: usize = 30;
const MASK_STEPS: usize = 300;
const SETUPS: usize = 3;
/// Conversion seeds and demand samples a run cycles through.
const INSTANCES: usize = 3;

struct Inputs {
    agent: ActorCritic<PensieveNet>,
    pool: Vec<AbrEnv>,
    topo: Topology,
    model: RouteNetModel,
    /// Jobs cycle through these, so a run's median covers several.
    instances: Vec<Instance>,
}

/// One job's inputs: the conversion's seed and the demands (with their
/// optimised routing) the mask search interprets.
struct Instance {
    convert_seed: u64,
    demands: Vec<Demand>,
    routing: Routing,
}

fn conversion_config() -> ConversionConfig {
    ConversionConfig {
        max_leaf_nodes: LEAVES,
        episodes_per_round: EPISODES_PER_ROUND,
        max_steps: 512,
        dagger_rounds: DAGGER_ROUNDS,
        ..Default::default()
    }
}

fn mask_config(threads: usize) -> MaskConfig {
    // Table 4 λ for RouteNet: the defaults.
    MaskConfig {
        steps: MASK_STEPS,
        threads,
        ..Default::default()
    }
}

/// Train the teacher and the RouteNet model, and optimise the routing
/// the mask search interprets.
fn setup(seed: u64) -> Inputs {
    let mut teacher_rng = StdRng::seed_from_u64(TEACHER_SEED);
    let video = Arc::new(VideoModel::pensieve_default(teacher_rng.next_u64()));
    let traces: Vec<_> = hsdpa_corpus(TRAIN_TRACES, teacher_rng.next_u64())
        .into_iter()
        .map(Arc::new)
        .collect();
    let pool = env_pool(&video, &traces);
    let mut agent = pensieve_agent(PensieveArch::Original, 32, &mut teacher_rng);
    train_pensieve(&mut agent, &pool, TEACHER_EPOCHS, &mut teacher_rng);
    let mut rng = StdRng::seed_from_u64(seed);

    let topo = Topology::nsfnet();
    let latency = LatencyModel::default();
    let train: Vec<_> = demand_corpus(14, DEMANDS, 6, rng.next_u64())
        .into_iter()
        .map(|s| {
            let routing: Routing = s
                .demands
                .iter()
                .map(|d| {
                    let cands = candidate_paths(&topo, d.src, d.dst);
                    cands[rng.gen_range(0..cands.len())].clone()
                })
                .collect();
            let truth = latency.path_latencies(&topo, &s.demands, &routing);
            (s.demands, routing, truth)
        })
        .collect();
    let mut model = RouteNetModel::new(6, &mut rng);
    model.train(&topo, &train, ROUTENET_EPOCHS, 0.01);
    let instances = demand_corpus(14, DEMANDS, INSTANCES, rng.next_u64())
        .into_iter()
        .map(|sample| Instance {
            convert_seed: rng.next_u64(),
            routing: optimize_routing(&topo, &sample.demands, &latency, 1),
            demands: sample.demands,
        })
        .collect();
    Inputs {
        agent,
        pool,
        topo,
        model,
        instances,
    }
}

fn convert(inp: &Inputs, inst: &Instance) -> ConversionResult {
    ConversionPipeline::with_value(&inp.pool, &inp.agent.policy, inp.agent.value_estimate())
        .conversion(conversion_config())
        .seed(inst.convert_seed)
        .run()
}

fn masked_system<'a>(inp: &'a Inputs, inst: &'a Instance) -> MaskedRouting<'a> {
    MaskedRouting::new(&inp.model, &inp.topo, &inst.demands, &inst.routing)
}

fn mask(inp: &Inputs, inst: &Instance, threads: usize) -> MaskResult {
    optimize_mask(&masked_system(inp, inst), &mask_config(threads))
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One job's outputs, for the run-to-run identity gate.
struct Job {
    result: ConversionResult,
    mask: MaskResult,
    convert_s: f64,
    mask_s: f64,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut times = Vec::new();
    let mut inp = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inp = Some(setup(seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    let inp = inp.expect("at least one set-up");
    let mut run = Report::new(times);
    let mut tracer = Tracer::new(LAYERS, 10_000);
    let mut replays: Vec<ReplayTimes> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let start = Instant::now();
    // Every instance at least twice, so each is checked against itself.
    while jobs.len() < 2 * INSTANCES || start.elapsed().as_secs_f64() < seconds {
        let which = jobs.len() % INSTANCES;
        let inst = &inp.instances[which];
        let t0 = Instant::now();
        let result = convert(&inp, inst);
        let convert_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mask = mask(&inp, inst, 0);
        let mask_s = t1.elapsed().as_secs_f64();
        let job = Job {
            result,
            mask,
            convert_s,
            mask_s,
        };
        // Gate: every job reproduces its instance's first job bit for bit.
        run.attempted += 2;
        if let Some(first) = jobs.get(which) {
            if job.result.policy.tree != first.result.policy.tree
                || !same_bits(&job.result.fidelity_history, &first.result.fidelity_history)
            {
                run.failed += 1;
                run.note(format!(
                    "interpret_offline job {}: conversion differs from job {which}",
                    jobs.len()
                ));
            }
            if !same_bits(&job.mask.mask, &first.mask.mask) {
                run.failed += 1;
                run.note(format!(
                    "interpret_offline job {}: mask differs from job {which}",
                    jobs.len()
                ));
            }
        }
        if traced {
            let r = replay(&inp, inst, &mut tracer, jobs.len() as u64);
            run.attempted += 1;
            if !r.same_tree(&job.result) {
                run.failed += 1;
                run.note("interpret_offline: the traced replay fitted a different tree".into());
            }
            replays.push(r.times);
        }
        jobs.push(job);
        run.mark_rss();
    }
    // Gate: the mask does not depend on the thread count.
    let single = mask(&inp, &inp.instances[0], 1);
    run.attempted += 1;
    if !same_bits(&single.mask, &jobs[0].mask.mask) {
        run.failed += 1;
        run.note("interpret_offline: mask with threads = 1 differs from all cores".into());
    }

    let first = &jobs[0];
    let each = |f: &dyn Fn(&Job) -> f64| -> Vec<f64> { jobs.iter().map(f).collect() };
    let convert_s = run.timed("convert_s", &each(&|j| j.convert_s), "s", "lower");
    let mask_s = run.timed("mask_s", &each(&|j| j.mask_s), "s", "lower");
    let job_s = median(&each(&|j| j.convert_s + j.mask_s));
    run.p50_us = job_s * 1e6;
    run.throughput_per_s = run.timed(
        "states_per_s",
        &each(&|j| j.result.dataset_size as f64 / j.convert_s),
        "1/s",
        "higher",
    );
    let states = first.result.dataset_size as f64;
    let fidelity = *first.result.fidelity_history.last().unwrap_or(&0.0);
    run.detail("convert_fidelity", fidelity, "ratio", "higher");
    run.detail("jobs", jobs.len() as f64, "count", "-");

    if traced {
        let m =
            |f: &dyn Fn(&ReplayTimes) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
        run.layer("rl.collect_s", m(&|r| r.collect_s));
        run.layer("nn.label_rows_per_s", m(&|r| r.label_rows_per_s));
        run.layer("dt.fit_s", m(&|r| r.fit_s));
        run.layer("dt.prune_s", m(&|r| r.prune_s));
        run.layer("rl.fidelity_s", m(&|r| r.fidelity_s));
        run.layer(
            "core.unattributed_s",
            m(&|r| r.wall_s - r.collect_s - r.fit_s - r.prune_s - r.fidelity_s),
        );
        let stats = |f: &dyn Fn(&Job) -> f64| median(&each(f));
        run.layer("core.stats_collect_s", stats(&|j| j.result.stats.collect_s));
        run.layer("core.stats_fit_s", stats(&|j| j.result.stats.fit_s));
        run.layer(
            "trace.overhead_pct",
            (m(&|r| r.wall_s) / convert_s - 1.0) * 100.0,
        );
        let system = masked_system(&inp, &inp.instances[0]);
        run.layer("hypergraph.grad_ms", grad_ms(&system, &mut tracer));
        run.layer("hypergraph.step_ms", mask_s / MASK_STEPS as f64 * 1e3);
        run.layer("hypergraph.connections", system.n_connections() as f64);
        run.layer("rl.states", states);
        run.layer("dt.leaves", first.result.policy.tree.n_leaves() as f64);
        run.tracer = Some(tracer);
    }
    run
}

/// Layers of the traced replay (indices into [`LAYERS`]).
const ROUND: usize = 0;
const COLLECT: usize = 1;
const RESAMPLE: usize = 2;
const FIT: usize = 3;
const PRUNE: usize = 4;
const FIDELITY: usize = 5;
const LABEL: usize = 6;
const GRAD: usize = 7;
const LAYERS: &[&str] = &[
    "core.round",
    "rl.collect",
    "rl.resample",
    "dt.fit",
    "dt.prune",
    "rl.fidelity",
    "nn.label",
    "hypergraph.grad",
];

struct ReplayTimes {
    wall_s: f64,
    collect_s: f64,
    fit_s: f64,
    prune_s: f64,
    fidelity_s: f64,
    label_rows_per_s: f64,
}

struct ReplayOut {
    times: ReplayTimes,
    tree: metis_dt::DecisionTree,
    fidelity_history: Vec<f64>,
}

impl ReplayOut {
    fn same_tree(&self, result: &ConversionResult) -> bool {
        self.tree == result.policy.tree
            && same_bits(&self.fidelity_history, &result.fidelity_history)
    }
}

/// The pipeline's per-stage seed derivation.
fn stage_seed(base: u64, stage: u64) -> u64 {
    mix_seed(base ^ stage.wrapping_mul(0xD1B54A32D192ED03))
}

/// `ConversionPipeline::run` rebuilt from public calls with a span per
/// stage; every span of one round carries the round's id.
fn replay(inp: &Inputs, inst: &Instance, tracer: &mut Tracer, job: u64) -> ReplayOut {
    let cfg = conversion_config();
    let teacher = &inp.agent.policy;
    let value = inp.agent.value_estimate();
    let pool = &inp.pool;
    let n_actions = pool[0].n_actions();
    let collect_cfg = CollectConfig {
        episodes: cfg.episodes_per_round,
        max_steps: cfg.max_steps,
        gamma: cfg.gamma,
        weighted: cfg.resample,
    };
    let threads = 0;
    let wall = Instant::now();
    let mut t = ReplayTimes {
        wall_s: 0.0,
        collect_s: 0.0,
        fit_s: 0.0,
        prune_s: 0.0,
        fidelity_s: 0.0,
        label_rows_per_s: 0.0,
    };
    let mut all: Vec<SampledState> = Vec::new();
    let mut student: Option<TreePolicy> = None;
    let mut fidelity_history = Vec::new();
    for round in 0..=cfg.dagger_rounds {
        let id = job * 100 + round as u64;
        let r0 = trace::now();
        let span = tracer.open(ROUND, id, r0);
        let controller = match &student {
            None => Controller::Teacher,
            Some(s) => Controller::StudentWithTakeover(s, cfg.takeover_prob),
        };
        let i0 = Instant::now();
        let c0 = trace::now();
        let states = collect_seeded(
            pool,
            teacher,
            &value,
            &controller,
            &collect_cfg,
            stage_seed(inst.convert_seed, round as u64),
            threads,
        );
        tracer.record(COLLECT, id, span, c0, trace::now());
        t.collect_s += i0.elapsed().as_secs_f64();
        all.extend(states);

        let s0 = trace::now();
        let n = cfg.resample_size.unwrap_or(all.len());
        let mut rng = StdRng::seed_from_u64(stage_seed(inst.convert_seed, 0x0A00 + round as u64));
        let resampled = resample_by_weight(&all, n, &mut rng);
        let x: Vec<Vec<f64>> = resampled.iter().map(|s| s.obs.clone()).collect();
        let y: Vec<usize> = resampled.iter().map(|s| s.teacher_action).collect();
        let w: Vec<f64> = resampled.iter().map(|s| s.weight.max(1e-9)).collect();
        let ds = Dataset::classification_weighted(x, y, n_actions, w).expect("consistent states");
        tracer.record(RESAMPLE, id, span, s0, trace::now());

        let i0 = Instant::now();
        let f0 = trace::now();
        let grown = fit(
            &ds,
            &TreeConfig {
                max_leaf_nodes: cfg.max_leaf_nodes * cfg.ccp_overshoot.max(1),
                criterion: Criterion::Gini,
                threads,
                ..Default::default()
            },
        )
        .expect("classification fit");
        tracer.record(FIT, id, span, f0, trace::now());
        t.fit_s += i0.elapsed().as_secs_f64();

        let i0 = Instant::now();
        let p0 = trace::now();
        let pruned = TreePolicy::new(prune_to_leaves(&grown, cfg.max_leaf_nodes));
        tracer.record(PRUNE, id, span, p0, trace::now());
        t.prune_s += i0.elapsed().as_secs_f64();

        let i0 = Instant::now();
        let q0 = trace::now();
        fidelity_history.push(fidelity_sharded(&all, &pruned, teacher, threads));
        let q1 = trace::now();
        tracer.record(FIDELITY, id, span, q0, q1);
        t.fidelity_s += i0.elapsed().as_secs_f64();
        tracer.close(ROUND, span, r0, q1);
        student = Some(pruned);
    }
    t.wall_s = wall.elapsed().as_secs_f64();

    // The teacher's batched labelling pass, alone, on every state.
    let obs = states_matrix(&all);
    let l0 = trace::now();
    let i0 = Instant::now();
    std::hint::black_box(teacher.probs_and_greedy_batch(&obs));
    t.label_rows_per_s = all.len() as f64 / i0.elapsed().as_secs_f64();
    tracer.record(LABEL, job, None, l0, trace::now());

    let tree = student.expect("at least one round").tree;
    ReplayOut {
        times: t,
        tree,
        fidelity_history,
    }
}

/// Milliseconds per `MaskedSystem::d_value_grad` call at the search's
/// starting mask (every connection at 0.5).
fn grad_ms(system: &MaskedRouting<'_>, tracer: &mut Tracer) -> f64 {
    let reference = system.reference_output();
    let mask = vec![0.5; system.n_connections()];
    let mut per_call = Vec::new();
    for i in 0..9 {
        let g0 = trace::now();
        let i0 = Instant::now();
        std::hint::black_box(system.d_value_grad(&mask, &reference, 0));
        per_call.push(i0.elapsed().as_secs_f64() * 1e3);
        tracer.record(GRAD, i, None, g0, trace::now());
    }
    median(&per_call)
}
