//! §4 mask-search determinism on real scenario observations: the
//! batched, thread-sharded critical-connection search must produce
//! identical ranked masks for `threads = 1` and `threads = N`, on both
//! the ABR (Pensieve) and flow-scheduling (AuTO lRLA) scenarios — and the
//! batched gradient must match the per-obs oracle bit for bit.
//!
//! The RouteNet search's hand-derived adjoint is pinned to the scalar-tape
//! gradient of the same system (the trait's default `d_value_grad`), and
//! its 300-step search to the tape search.

use metis::core::{interpret_policy_features, interpret_routing, MaskedRouting};
use metis::hypergraph::{optimize_mask, MaskConfig, MaskedMlp, MaskedSystem, OutputKind};
use metis::nn::tape::{Tape, Var};
use metis::nn::{Activation, Mlp};
use metis::rl::{rollout, ActionMode, Env, Policy, SoftmaxPolicy};
use metis::routing::{
    candidate_paths, demand_corpus, optimize_routing, Demand, LatencyModel, RouteNetModel, Routing,
    Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// Roll a policy through a pool and gather the visited observations.
fn collect_observations<E: Env>(
    pool: &[E],
    policy: &(impl Policy + Sync),
    max_steps: usize,
) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut obs = Vec::new();
    for env in pool {
        let mut env = env.clone();
        let traj = rollout(&mut env, policy, ActionMode::Greedy, max_steps, &mut rng);
        obs.extend(traj.observations);
    }
    obs
}

fn assert_thread_invariant(net: &Mlp, observations: Vec<Vec<f64>>, label: &str) {
    assert!(
        observations.len() >= 16,
        "{label}: need a real observation batch, got {}",
        observations.len()
    );
    // Bitwise gradient parity against the per-obs oracle first.
    let sys = MaskedMlp::new(net, observations.clone(), OutputKind::Discrete).block_rows(8);
    let mask: Vec<f64> = (0..sys.n_connections())
        .map(|i| 0.3 + 0.4 * ((i % 3) as f64) / 3.0)
        .collect();
    let reference = sys.reference_output();
    let (d_oracle, g_oracle) = sys.d_value_grad_per_obs(&mask);
    for threads in [1usize, 4] {
        let (d, g) = sys.d_value_grad(&mask, &reference, threads);
        assert_eq!(d.to_bits(), d_oracle.to_bits(), "{label}: D diverges");
        for (a, b) in g.iter().zip(g_oracle.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: gradient diverges");
        }
    }

    // Full search through the public entry point: identical ranked masks
    // for threads = 1 vs N.
    let run = |threads: usize| {
        interpret_policy_features(
            net,
            observations.clone(),
            None,
            &MaskConfig {
                steps: 40,
                threads,
                ..Default::default()
            },
            net.in_dim(),
        )
    };
    let (result_1, report_1) = run(1);
    let (result_n, report_n) = run(4);
    assert_eq!(result_1.mask, result_n.mask, "{label}: masks diverge");
    assert_eq!(
        result_1.ranked(),
        result_n.ranked(),
        "{label}: ranking diverges"
    );
    assert_eq!(result_1.loss_history, result_n.loss_history);
    let ranked_1: Vec<usize> = report_1.iter().map(|r| r.index).collect();
    let ranked_n: Vec<usize> = report_n.iter().map(|r| r.index).collect();
    assert_eq!(ranked_1, ranked_n);
}

#[test]
fn abr_scenario_mask_search_is_thread_invariant() {
    use metis::abr::{env_pool, NetworkTrace, VideoModel, OBS_DIM};
    let mut rng = StdRng::seed_from_u64(17);
    let net = Mlp::new(
        &[OBS_DIM, 16, 6],
        Activation::Tanh,
        Activation::Linear,
        &mut rng,
    );
    let video = Arc::new(VideoModel::standard(12, 3));
    let traces: Vec<Arc<NetworkTrace>> = metis::abr::hsdpa_corpus(3, 5)
        .into_iter()
        .map(Arc::new)
        .collect();
    let pool = env_pool(&video, &traces);
    let policy = SoftmaxPolicy::new(net.clone());
    let observations = collect_observations(&pool, &policy, 12);
    assert_thread_invariant(&net, observations, "ABR");
}

#[test]
fn flowsched_scenario_mask_search_is_thread_invariant() {
    use metis::flowsched::{
        generate_flows, FabricConfig, LrlaEnv, MlfqThresholds, SimConfig, SizeDistribution,
        LRLA_ACTIONS, LRLA_STATE_DIM,
    };
    let mut rng = StdRng::seed_from_u64(23);
    let net = Mlp::new(
        &[LRLA_STATE_DIM, 12, LRLA_ACTIONS],
        Activation::Tanh,
        Activation::Linear,
        &mut rng,
    );
    let config = SimConfig {
        fabric: FabricConfig {
            n_servers: 4,
            link_bps: 10e9,
        },
        thresholds: MlfqThresholds::default_web_search(),
        long_flow_cutoff_bytes: 1e6,
        decision_latency_s: 0.0,
    };
    let dist = SizeDistribution::web_search();
    let pool: Vec<LrlaEnv> = (0..2)
        .map(|i| {
            let mut wl = StdRng::seed_from_u64(300 + i);
            LrlaEnv::new(
                generate_flows(&dist, 4, 10e9, 0.7, 0.05, &mut wl),
                config.clone(),
            )
        })
        .collect();
    let policy = SoftmaxPolicy::new(net.clone());
    let observations = collect_observations(&pool, &policy, 30);
    assert_thread_invariant(&net, observations, "flowsched");
}

/// The RouteNet system with its gradient left to the trait's default
/// scalar tape over `masked_output`: the oracle for the hand adjoint.
struct TapeOracle<'a>(&'a MaskedRouting<'a>);

impl MaskedSystem for TapeOracle<'_> {
    fn n_connections(&self) -> usize {
        self.0.n_connections()
    }

    fn reference_output(&self) -> Vec<f64> {
        self.0.reference_output()
    }

    fn masked_output<'t>(&self, tape: &'t Tape, mask: &[Var<'t>]) -> Vec<Var<'t>> {
        self.0.masked_output(tape, mask)
    }

    fn output_kind(&self) -> OutputKind {
        self.0.output_kind()
    }
}

struct RoutingCase {
    topo: Topology,
    demands: Vec<Demand>,
    routing: Routing,
    model: RouteNetModel,
}

/// 60 demands on NSFNet, routed by the queueing model, interpreted through
/// a hidden-6 RouteNet trained on random routings of other samples.
fn nsfnet_60() -> RoutingCase {
    let topo = Topology::nsfnet();
    let latency = LatencyModel::default();
    let mut rng = StdRng::seed_from_u64(7);
    let train: Vec<_> = demand_corpus(14, 60, 3, rng.next_u64())
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
    model.train(&topo, &train, 10, 0.01);
    let demands = demand_corpus(14, 60, 1, rng.next_u64()).remove(0).demands;
    let routing = optimize_routing(&topo, &demands, &latency, 1);
    RoutingCase {
        topo,
        demands,
        routing,
        model,
    }
}

/// The three-demand instance of the `metis_core::interpret` unit tests.
fn small_case() -> RoutingCase {
    let topo = Topology::nsfnet();
    let demands = vec![
        Demand {
            src: 6,
            dst: 9,
            volume: 1.2,
        },
        Demand {
            src: 0,
            dst: 12,
            volume: 0.8,
        },
        Demand {
            src: 8,
            dst: 2,
            volume: 1.5,
        },
    ];
    let routing = optimize_routing(&topo, &demands, &LatencyModel::default(), 1);
    let model = RouteNetModel::new(4, &mut StdRng::seed_from_u64(11));
    RoutingCase {
        topo,
        demands,
        routing,
        model,
    }
}

fn close(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= 1e-12 || diff <= 1e-9 * a.abs().max(b.abs())
}

fn assert_adjoint_matches_tape(case: &RoutingCase, label: &str) {
    let sys = MaskedRouting::new(&case.model, &case.topo, &case.demands, &case.routing);
    let oracle = TapeOracle(&sys);
    let reference = sys.reference_output();
    let n = sys.n_connections();
    let masks: [(&str, Vec<f64>); 5] = [
        ("half", vec![0.5; n]),
        (
            "graded",
            (0..n)
                .map(|i| 0.05 + 0.9 * ((i * 7) % n) as f64 / n as f64)
                .collect(),
        ),
        ("near 0", vec![1e-5; n]),
        ("near 1", vec![1.0 - 1e-5; n]),
        ("ones", vec![1.0; n]),
    ];
    for (name, mask) in &masks {
        let (d, g) = sys.d_value_grad(mask, &reference, 1);
        let (d_tape, g_tape) = oracle.d_value_grad(mask, &reference, 1);
        assert!(close(d, d_tape), "{label}/{name}: D {d} vs tape {d_tape}");
        assert_eq!(g.len(), g_tape.len());
        for (i, (a, b)) in g.iter().zip(&g_tape).enumerate() {
            assert!(close(*a, *b), "{label}/{name}: dD/dm[{i}] {a} vs tape {b}");
        }
        // The adjoint is single-threaded: the budget changes no bit.
        let (d4, g4) = sys.d_value_grad(mask, &reference, 4);
        assert_eq!(
            d4.to_bits(),
            d.to_bits(),
            "{label}/{name}: D depends on threads"
        );
        assert_eq!(g4, g, "{label}/{name}: gradient depends on threads");
    }
}

#[test]
fn routenet_adjoint_matches_tape_gradient() {
    assert_adjoint_matches_tape(&small_case(), "3 demands");
    assert_adjoint_matches_tape(&nsfnet_60(), "60 demands");
}

#[test]
fn routenet_search_matches_tape_search_and_ignores_threads() {
    let case = nsfnet_60();
    let run = |threads: usize| {
        interpret_routing(
            &case.model,
            &case.topo,
            &case.demands,
            &case.routing,
            &MaskConfig {
                threads,
                ..Default::default()
            },
            5,
        )
        .0
    };
    let adjoint = run(1);
    assert_eq!(adjoint.loss_history.len(), 300);
    let sys = MaskedRouting::new(&case.model, &case.topo, &case.demands, &case.routing);
    let tape = optimize_mask(&TapeOracle(&sys), &MaskConfig::default());
    assert_eq!(
        adjoint.ranked(),
        tape.ranked(),
        "ranking differs from the tape search"
    );
    for (i, (a, b)) in adjoint.mask.iter().zip(&tape.mask).enumerate() {
        assert!((a - b).abs() < 1e-5, "mask[{i}]: {a} vs tape {b}");
    }

    let wide = run(4);
    assert!(
        adjoint
            .mask
            .iter()
            .zip(&wide.mask)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "masks differ between threads = 1 and 4"
    );
    assert!(
        adjoint
            .loss_history
            .iter()
            .zip(&wide.loss_history)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "loss history differs between threads = 1 and 4"
    );
}
