//! Serve-while-converting: live tree serving and §3.2 conversion sharing
//! one thread budget.
//!
//! The deployment story the paper gestures at (§6.4) and the ROADMAP's
//! north star both need the same shape: a converted tree **keeps serving
//! decisions** while the conversion pipeline retrains behind it, each
//! freshly fitted round hot-swapping into the serving path with zero
//! dropped requests. [`serve_while_converting`] wires the pieces:
//!
//! * the [`crate::ConversionPipeline`] runs as one [`crate::Workload`]
//!   and publishes every round's student tree to a
//!   [`metis_serve::ModelRegistry`] via
//!   [`crate::ConversionPipeline::run_publishing`],
//! * an open-loop traffic schedule ([`metis_serve::ArrivalProcess`])
//!   drives a [`metis_serve::TreeServer`] as a second workload,
//! * both run under one [`crate::WorkloadRunner`] (shared admission
//!   budget); the engine's batches and the pipeline's stages share the
//!   process-wide worker pool under distinct fairness groups.
//!
//! Every response is bit-identical to `DecisionTree::predict` on the
//! epoch it reports — swaps change *which* tree answers, never *how*.

use crate::convert::ConversionResult;
use crate::pipeline::ConversionPipeline;
use crate::workload::{RunnerStats, Workload, WorkloadRunner};
use metis_dt::DecisionTree;
use metis_fabric::{
    FabricConfig, FabricReport, FabricResponse, Router, ScenarioSpec, ShadowConfig, TenantSpec,
};
use metis_rl::{Env, Policy, ValueEstimate};
use metis_serve::{
    drive_open_loop, ArrivalProcess, EngineReport, ModelRegistry, Response, ServeConfig, TreeServer,
};
use std::sync::Arc;
use std::time::Duration;

/// Everything one serve-while-converting run produces.
#[derive(Debug)]
pub struct ServeWhileConvertOutcome {
    /// The conversion pipeline's final result (identical to a solo run).
    pub conversion: ConversionResult,
    /// The serving engine's lifetime report (latency percentiles, batch
    /// shapes, per-epoch served counts).
    pub serving: EngineReport,
    /// Every response, sorted by request id.
    pub responses: Vec<Response>,
    /// Trees published by the pipeline (one per conversion round).
    pub published_epochs: u64,
    /// Admission-queue statistics of the shared runner.
    pub runner: RunnerStats,
}

enum Lane {
    Converted(Box<ConversionResult>),
    Served(Vec<Response>),
}

/// Run `pipeline` and an open-loop serving lane concurrently over one
/// shared [`WorkloadRunner`] budget. `initial` seeds the registry's
/// epoch 0 (traffic never waits for the first fit); each conversion
/// round's student is published as the next epoch. `features(k)` supplies
/// request `k`'s feature vector; `time_scale` stretches the arrival
/// schedule (0 = submit as fast as possible).
pub fn serve_while_converting<E, T, V>(
    pipeline: &ConversionPipeline<'_, E, T, V>,
    initial: DecisionTree,
    serve_cfg: ServeConfig,
    arrivals: &ArrivalProcess,
    features: impl FnMut(u64) -> Vec<f64> + Send,
    time_scale: f64,
) -> ServeWhileConvertOutcome
where
    E: Env + Sync,
    T: Policy + Sync + ?Sized,
    V: ValueEstimate,
{
    let registry = Arc::new(ModelRegistry::new(initial));
    let server = TreeServer::start(Arc::clone(&registry), serve_cfg);
    let mut handle = server.handle();
    let mut features = features;
    let (results, runner) = WorkloadRunner::new(2).run_detailed(vec![
        Workload::new("convert", {
            let registry = &registry;
            move || {
                Lane::Converted(Box::new(pipeline.run_publishing(|_, student| {
                    registry.publish(student.tree.clone());
                })))
            }
        }),
        Workload::new("serve", move || {
            Lane::Served(drive_open_loop(
                &mut handle,
                arrivals,
                &mut features,
                time_scale,
            ))
        }),
    ]);
    let mut conversion = None;
    let mut responses = Vec::new();
    for result in results {
        match result.value {
            Lane::Converted(c) => conversion = Some(*c),
            Lane::Served(r) => responses = r,
        }
    }
    let serving = server.shutdown();
    ServeWhileConvertOutcome {
        conversion: conversion.expect("conversion workload completed"),
        serving,
        responses,
        published_epochs: registry.swap_count(),
        runner,
    }
}

/// Everything one fabric-backed serve-while-converting run produces.
#[derive(Debug)]
pub struct FabricServeOutcome {
    /// The conversion pipeline's final result (identical to a solo run).
    pub conversion: ConversionResult,
    /// The fabric's merged shutdown report: per-shard engine reports,
    /// the scenario's shadow audit trail, per-tenant SLO accounting.
    pub fabric: FabricReport,
    /// Every response, sorted by submission id.
    pub responses: Vec<FabricResponse>,
    /// Admission-queue statistics of the shared runner.
    pub runner: RunnerStats,
}

enum FabricLane {
    Converted(Box<ConversionResult>),
    Served(Vec<FabricResponse>),
}

/// The scenario key the conversion lane publishes under.
pub const FABRIC_STUDENT_KEY: &str = "student";

/// [`serve_while_converting`] upgraded to the fabric: traffic flows
/// through a session-affine sharded [`Router`] while the conversion
/// pipeline retrains behind it, and each round's student tree is
/// **staged** into the scenario's shadow slot instead of being published
/// blind — mirrored traffic diffs it bit-exactly against the live model
/// and the `shadow` policy decides the swap
/// ([`metis_fabric::PromotePolicy::AfterAudit`] to hot-swap every round
/// with its behavioural diff on the record,
/// [`metis_fabric::PromotePolicy::OnZeroDiff`] to only ever auto-swap
/// no-op refreshes). `session(k)` names request `k`'s sticky session;
/// `shards` splits the scenario's batching across that many
/// session-affine micro-batchers. Conversion results stay bit-identical
/// to a solo [`ConversionPipeline::run`].
#[allow(clippy::too_many_arguments)]
pub fn serve_fabric_while_converting<E, T, V>(
    pipeline: &ConversionPipeline<'_, E, T, V>,
    initial: DecisionTree,
    fabric_cfg: FabricConfig,
    shadow: ShadowConfig,
    shards: usize,
    arrivals: &ArrivalProcess,
    features: impl FnMut(u64) -> Vec<f64> + Send,
    session: impl FnMut(u64) -> u64 + Send,
    time_scale: f64,
) -> FabricServeOutcome
where
    E: Env + Sync,
    T: Policy + Sync + ?Sized,
    V: ValueEstimate,
{
    run_fabric_serve(
        pipeline,
        initial,
        fabric_cfg,
        shadow,
        shards,
        arrivals,
        features,
        session,
        time_scale,
        |router, _, student| router.stage(FABRIC_STUDENT_KEY, student.tree.clone()),
    )
}

/// [`serve_fabric_while_converting`] with **ensemble staging**: after
/// round `r`, the candidate is a majority-vote [`metis_dt::Forest`] over
/// the last `min(ensemble_k, r + 1)` students (vote order = round order)
/// instead of round `r`'s tree alone — the serving-side analogue of
/// epoch averaging, smoothing round-to-round fit jitter while the same
/// mirrored audit and CAS promotion gate every swap. A window of one
/// stages a plain tree, so `ensemble_k == 1` is exactly
/// [`serve_fabric_while_converting`]. Conversion results stay
/// bit-identical to a solo [`ConversionPipeline::run`].
#[allow(clippy::too_many_arguments)]
pub fn serve_fabric_ensemble_while_converting<E, T, V>(
    pipeline: &ConversionPipeline<'_, E, T, V>,
    initial: DecisionTree,
    fabric_cfg: FabricConfig,
    shadow: ShadowConfig,
    shards: usize,
    ensemble_k: usize,
    arrivals: &ArrivalProcess,
    features: impl FnMut(u64) -> Vec<f64> + Send,
    session: impl FnMut(u64) -> u64 + Send,
    time_scale: f64,
) -> FabricServeOutcome
where
    E: Env + Sync,
    T: Policy + Sync + ?Sized,
    V: ValueEstimate,
{
    assert!(ensemble_k >= 1, "ensemble_k must be at least 1");
    let mut recent: Vec<DecisionTree> = Vec::new();
    run_fabric_serve(
        pipeline,
        initial,
        fabric_cfg,
        shadow,
        shards,
        arrivals,
        features,
        session,
        time_scale,
        move |router, _, student| {
            recent.push(student.tree.clone());
            if recent.len() > ensemble_k {
                recent.remove(0);
            }
            if recent.len() == 1 {
                router.stage(FABRIC_STUDENT_KEY, recent[0].clone());
            } else {
                router.stage_forest(FABRIC_STUDENT_KEY, recent.clone());
            }
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn run_fabric_serve<E, T, V>(
    pipeline: &ConversionPipeline<'_, E, T, V>,
    initial: DecisionTree,
    fabric_cfg: FabricConfig,
    shadow: ShadowConfig,
    shards: usize,
    arrivals: &ArrivalProcess,
    features: impl FnMut(u64) -> Vec<f64> + Send,
    session: impl FnMut(u64) -> u64 + Send,
    time_scale: f64,
    stage: impl FnMut(&Router, usize, &crate::TreePolicy) + Send,
) -> FabricServeOutcome
where
    E: Env + Sync,
    T: Policy + Sync + ?Sized,
    V: ValueEstimate,
{
    assert!(
        time_scale.is_finite() && time_scale >= 0.0,
        "time_scale must be finite and non-negative"
    );
    // The runner reports into the same plane the fabric serves on: its
    // scope rides shard slot `CONTROL_SHARD` under a synthetic "runner"
    // scenario, so health observers see admission queueing next to the
    // serving stages it competes with.
    let plane = fabric_cfg.telemetry.clone();
    let router = Router::new(
        vec![TenantSpec::new("convert-serve")],
        vec![
            ScenarioSpec::new(FABRIC_STUDENT_KEY, "convert-serve", initial)
                .shards(shards)
                .shadow(shadow),
        ],
        fabric_cfg,
    );
    let mut handle = router.handle();
    let mut features = features;
    let mut session = session;
    let mut stage = stage;
    let pace_clock = Arc::clone(router.clock());
    let mut workload_runner = WorkloadRunner::new(2);
    if let Some(scope) =
        plane.register_scope("runner", metis_telemetry::CONTROL_SHARD, "convert-serve", 0)
    {
        workload_runner = workload_runner.telemetry(scope);
    }
    let (results, runner) = workload_runner.run_detailed(vec![
        Workload::new("convert", {
            let router = &router;
            move || {
                FabricLane::Converted(Box::new(pipeline.run_publishing(|round, student| {
                    stage(router, round, student);
                })))
            }
        }),
        Workload::new("serve", move || {
            let start_s = pace_clock.now_s();
            let mut t = 0.0;
            for (k, gap) in arrivals.gaps_s().iter().enumerate() {
                if time_scale > 0.0 {
                    t += gap * time_scale;
                    // Paced on the fabric's clock: a real-clock fabric
                    // sleeps each gap out (no busy-spin tail — this lane
                    // shares its core budget with the conversion
                    // pipeline), a virtual-clock fabric advances time
                    // and submits immediately.
                    pace_clock.sleep_until(start_s + t, Duration::ZERO);
                }
                let k = k as u64;
                handle.submit(0, session(k), features(k));
            }
            FabricLane::Served(handle.collect())
        }),
    ]);
    let mut conversion = None;
    let mut responses = Vec::new();
    for result in results {
        match result.value {
            FabricLane::Converted(c) => conversion = Some(*c),
            FabricLane::Served(r) => responses = r,
        }
    }
    let fabric = router.shutdown();
    FabricServeOutcome {
        conversion: conversion.expect("conversion workload completed"),
        fabric,
        responses,
        runner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConversionConfig;
    use metis_rl::env::test_envs::BanditEnv;

    #[derive(Clone)]
    struct Oracle;
    impl Policy for Oracle {
        fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
            let mut p = vec![0.0; obs.len()];
            p[obs.iter().position(|&x| x == 1.0).unwrap()] = 1.0;
            p
        }
    }

    fn one_hot(k: u64) -> Vec<f64> {
        let mut v = vec![0.0; 3];
        v[(k % 3) as usize] = 1.0;
        v
    }

    #[test]
    fn traffic_is_served_across_conversion_epochs_with_zero_drops() {
        let pool: Vec<BanditEnv> = (0..3).map(|s| BanditEnv::new(3, 16, s)).collect();
        let cfg = ConversionConfig {
            max_leaf_nodes: 8,
            episodes_per_round: 6,
            max_steps: 16,
            dagger_rounds: 2,
            ..Default::default()
        };
        let pipeline = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .conversion(cfg)
            .seed(5);
        // Epoch 0: a quick teacher-round fit so serving never waits.
        let seed_states = pipeline.collect_teacher_states(4, 16);
        let initial = pipeline.fit_states(&seed_states, 3, 0).tree;
        let solo = pipeline.run();

        let arrivals = ArrivalProcess::poisson(20_000.0, 400, 9);
        let outcome = serve_while_converting(
            &pipeline,
            initial.clone(),
            ServeConfig {
                max_batch: 32,
                max_delay: Duration::from_micros(300),
                ..Default::default()
            },
            &arrivals,
            one_hot,
            1.0,
        );

        // Conversion is bit-identical to the solo run: serving never
        // perturbs the pipeline.
        assert_eq!(outcome.conversion.policy.tree, solo.policy.tree);
        assert_eq!(outcome.conversion.fidelity_history, solo.fidelity_history);
        // One publish per round (round 0 + 2 DAgger rounds).
        assert_eq!(outcome.published_epochs, 3);
        // Zero drops: every request answered, every answer consistent
        // with the epoch that served it.
        assert_eq!(outcome.responses.len(), 400);
        assert_eq!(outcome.serving.served, 400);
        assert_eq!(outcome.serving.delivery_failures, 0);
        let mut sources = vec![initial];
        // Rebuild the per-round students exactly as run_publishing saw
        // them, via a replay of the solo pipeline.
        pipeline.run_publishing(|_, student| sources.push(student.tree.clone()));
        for resp in &outcome.responses {
            let oracle = &sources[resp.epoch as usize];
            assert_eq!(
                resp.prediction,
                oracle.predict(&one_hot(resp.id)),
                "epoch {} diverged",
                resp.epoch
            );
        }
        let served_total: u64 = outcome.serving.per_epoch.iter().map(|(_, c)| c).sum();
        assert_eq!(served_total, 400);
        assert_eq!(outcome.serving.latency.count, 400);
        assert!(outcome.runner.peak_queue_depth >= 1);
    }

    #[test]
    fn fabric_variant_stages_rounds_and_stays_bit_identical_to_solo() {
        use metis_fabric::PromotePolicy;

        let pool: Vec<BanditEnv> = (0..3).map(|s| BanditEnv::new(3, 16, s)).collect();
        let cfg = ConversionConfig {
            max_leaf_nodes: 8,
            episodes_per_round: 6,
            max_steps: 16,
            dagger_rounds: 2,
            ..Default::default()
        };
        let pipeline = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .conversion(cfg)
            .seed(5);
        let seed_states = pipeline.collect_teacher_states(4, 16);
        let initial = pipeline.fit_states(&seed_states, 3, 0).tree;
        let solo = pipeline.run();

        let arrivals = ArrivalProcess::poisson(20_000.0, 500, 9);
        let telemetry = metis_telemetry::Telemetry::enabled();
        let outcome = serve_fabric_while_converting(
            &pipeline,
            initial.clone(),
            FabricConfig {
                serve: ServeConfig {
                    max_batch: 32,
                    max_delay: Duration::from_micros(300),
                    ..Default::default()
                },
                mirror_batch: 16,
                telemetry: telemetry.clone(),
                ..Default::default()
            },
            metis_fabric::ShadowConfig {
                audit_rows: 32,
                policy: PromotePolicy::AfterAudit,
            },
            2,
            &arrivals,
            one_hot,
            |k| k % 7, // seven sticky sessions
            1.0,
        );

        // Conversion is bit-identical to the solo run: the fabric never
        // perturbs the pipeline.
        assert_eq!(outcome.conversion.policy.tree, solo.policy.tree);
        assert_eq!(outcome.conversion.fidelity_history, solo.fidelity_history);
        // Zero drops, and session affinity held for every response.
        assert_eq!(outcome.responses.len(), 500);
        assert_eq!(outcome.fabric.served, 500);
        let scenario = outcome.fabric.scenario(FABRIC_STUDENT_KEY).unwrap();
        assert_eq!(scenario.shards.len(), 2);
        assert_eq!(scenario.served, 500);
        for report in &scenario.shards {
            assert_eq!(report.delivery_failures, 0);
        }
        let mut session_shard = std::collections::HashMap::new();
        for resp in &outcome.responses {
            assert_eq!(resp.session, resp.id % 7);
            let prev = session_shard.entry(resp.session).or_insert(resp.shard);
            assert_eq!(*prev, resp.shard, "session hopped shards");
            if resp.response.epoch == 0 {
                assert_eq!(
                    resp.response.prediction,
                    initial.predict(&one_hot(resp.id)),
                    "epoch-0 answers must come from the initial tree"
                );
            }
        }
        // One staging per round (round 0 + 2 DAgger rounds); every staged
        // candidate is accounted for as promoted, replaced, or pending.
        assert_eq!(scenario.shadow.staged, 3);
        let decided = scenario.shadow.promotions.len() as u64
            + scenario.shadow.replaced
            + scenario.shadow.rejected
            + u64::from(scenario.shadow.pending.is_some());
        assert_eq!(decided, 3, "shadow audit lost a candidate");
        // Promotions went live in order and were audited first.
        assert_eq!(scenario.swaps, scenario.shadow.promotions.len() as u64);
        for promo in &scenario.shadow.promotions {
            assert!(promo.audited_rows >= 32);
        }
        let tenant = outcome.fabric.tenant("convert-serve").unwrap();
        assert_eq!(tenant.served, 500);
        assert!(tenant.met_p99_budget);
        // The telemetry plane flowed through the fabric: one scope per
        // shard, the scenario's control scope, and the workload runner's
        // admission scope; every request accounted for, and each
        // concluded audit on the control scope's flight recorder.
        let scopes = telemetry.scopes();
        assert_eq!(
            scopes.len(),
            4,
            "2 shard scopes + 1 control scope + 1 runner scope"
        );
        let served: u64 = scopes
            .iter()
            .filter(|s| s.shard() != metis_telemetry::CONTROL_SHARD)
            .map(|s| s.served.get())
            .sum();
        assert_eq!(served, 500);
        let runner_scope = scopes
            .iter()
            .find(|s| s.scenario() == "runner")
            .expect("runner scope");
        // Both workloads (convert + serve) landed as runner requests.
        assert_eq!(runner_scope.latency.count(), 2);
        let control = scopes
            .iter()
            .find(|s| {
                s.shard() == metis_telemetry::CONTROL_SHARD && s.scenario() == FABRIC_STUDENT_KEY
            })
            .expect("control scope");
        let verdicts = control
            .events
            .events()
            .iter()
            .filter(|e| e.kind.name() == "audit_verdict")
            .count() as u64;
        let concluded = scenario.shadow.promotions.len() as u64
            + scenario.shadow.rejected
            + scenario.shadow.superseded;
        assert_eq!(verdicts, concluded, "every concluded audit is recorded");
    }

    /// The ensemble variant: each round stages a forest over the last
    /// `k` students. Conversion stays bit-identical to solo, every
    /// promotion records its ensemble width within the window bound, and
    /// the live model at shutdown is whatever the last promotion
    /// installed.
    #[test]
    fn ensemble_variant_stages_windowed_forests_and_preserves_conversion() {
        use metis_fabric::PromotePolicy;

        let pool: Vec<BanditEnv> = (0..3).map(|s| BanditEnv::new(3, 16, s)).collect();
        let cfg = ConversionConfig {
            max_leaf_nodes: 8,
            episodes_per_round: 6,
            max_steps: 16,
            dagger_rounds: 2,
            ..Default::default()
        };
        let pipeline = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .conversion(cfg)
            .seed(5);
        let seed_states = pipeline.collect_teacher_states(4, 16);
        let initial = pipeline.fit_states(&seed_states, 3, 0).tree;
        let solo = pipeline.run();

        let arrivals = ArrivalProcess::poisson(20_000.0, 500, 9);
        let outcome = serve_fabric_ensemble_while_converting(
            &pipeline,
            initial.clone(),
            FabricConfig {
                serve: ServeConfig {
                    max_batch: 32,
                    max_delay: Duration::from_micros(300),
                    ..Default::default()
                },
                mirror_batch: 16,
                ..Default::default()
            },
            metis_fabric::ShadowConfig {
                audit_rows: 32,
                policy: PromotePolicy::AfterAudit,
            },
            2,
            2, // ensemble_k: forests over the last two rounds
            &arrivals,
            one_hot,
            |k| k % 7,
            1.0,
        );

        // The staging hook never perturbs the conversion itself.
        assert_eq!(outcome.conversion.policy.tree, solo.policy.tree);
        assert_eq!(outcome.conversion.fidelity_history, solo.fidelity_history);
        assert_eq!(outcome.responses.len(), 500);
        assert_eq!(outcome.fabric.served, 500);
        let scenario = outcome.fabric.scenario(FABRIC_STUDENT_KEY).unwrap();
        // One staging per round; round 0 stages a lone tree, later rounds
        // two-tree forests — every promotion's width reflects its window.
        assert_eq!(scenario.shadow.staged, 3);
        for (i, promo) in scenario.shadow.promotions.iter().enumerate() {
            assert!(
                promo.trees == 1 || promo.trees == 2,
                "window bound violated: promotion {i} carries {} trees",
                promo.trees
            );
            assert!(promo.audited_rows >= 32);
        }
        assert_eq!(scenario.swaps, scenario.shadow.promotions.len() as u64);
        // The live model at shutdown is the last promotion's ensemble (or
        // still the epoch-0 tree when nothing promoted in time).
        match scenario.shadow.promotions.last() {
            Some(last) => {
                assert_eq!(scenario.live_trees, last.trees);
                assert_eq!(scenario.live_epoch, last.epoch);
            }
            None => assert_eq!(scenario.live_trees, 1),
        }
        // Epoch-0 answers must still come from the initial tree.
        for resp in &outcome.responses {
            if resp.response.epoch == 0 {
                assert_eq!(resp.response.prediction, initial.predict(&one_hot(resp.id)));
            }
        }
    }
}
