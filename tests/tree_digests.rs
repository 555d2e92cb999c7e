//! Golden digests of fitted trees.
//!
//! Each test fits one tree and hashes every node: the split's feature,
//! threshold bits and children, and the bits of the node statistics. The
//! pinned values were recorded before the CART split search was rewritten
//! to read column-major features, so any drift in the builder — including
//! code it shares with its in-crate `reference` oracle (the target
//! accumulators and impurity arithmetic) — changes a digest.
//!
//! Every fit also runs under `METIS_TEST_THREADS=<n>` when set (CI runs
//! the suite under two values); the digest must not depend on it.

use metis::abr::{env_pool, hsdpa_corpus, NetworkTrace, VideoModel, BITRATES_KBPS};
use metis::core::{ConversionConfig, ConversionPipeline};
use metis::dt::{fit, Criterion, Dataset, DecisionTree, NodeStats, TreeConfig};
use metis::rl::Policy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const PIPELINE_DIGEST: u64 = 0x42b8_9916_dd64_2130;
const LRLA_DIGEST: u64 = 0x7ebb_abb9_a219_c68b;
const REGRESSION_DIGEST: u64 = 0xb0b6_688b_0e78_539c;

/// Thread counts each fit runs under, plus an optional CI-injected one.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2];
    if let Ok(extra) = std::env::var("METIS_TEST_THREADS") {
        if let Ok(n) = extra.trim().parse::<usize>() {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Hash of every node of `tree`, in arena order.
fn tree_digest(tree: &DecisionTree) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(tree.node_count() as u64);
    for idx in 0..tree.node_count() {
        let node = tree.node(idx);
        match &node.split {
            Some(s) => {
                h.word(1);
                h.word(s.feature as u64);
                h.word(s.threshold.to_bits());
                h.word(s.left as u64);
                h.word(s.right as u64);
            }
            None => h.word(0),
        }
        match &node.stats {
            NodeStats::Class { dist } => {
                h.word(dist.len() as u64);
                for d in dist {
                    h.word(d.to_bits());
                }
            }
            NodeStats::Value { w, sum, sumsq } => {
                h.word(w.to_bits());
                h.word(sum.to_bits());
                h.word(sumsq.to_bits());
            }
        }
    }
    h.0
}

/// A buffer-driven ABR teacher built from rational arithmetic only (no
/// network, no `exp`), so its labels do not depend on the FMA or SIMD
/// features of the host.
struct BufferTeacher;

impl Policy for BufferTeacher {
    fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
        // obs[0]: last bitrate / 4300 kbps; obs[1]: buffer / 10 s.
        let target = (obs[1] * 2.5 + obs[0] * 2.0).min(5.0);
        let scores: Vec<f64> = (0..BITRATES_KBPS.len())
            .map(|a| {
                let d = a as f64 - target;
                1.0 / (1.0 + 4.0 * d * d)
            })
            .collect();
        let total: f64 = scores.iter().sum();
        scores.iter().map(|s| s / total).collect()
    }
}

#[test]
fn conversion_pipeline_tree_digest_is_pinned() {
    let video = Arc::new(VideoModel::standard(16, 3));
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(4, 23).into_iter().map(Arc::new).collect();
    let pool = env_pool(&video, &traces);
    let cfg = ConversionConfig {
        max_leaf_nodes: 40,
        episodes_per_round: 8,
        max_steps: 64,
        dagger_rounds: 1,
        ..Default::default()
    };
    for threads in thread_counts() {
        let result = ConversionPipeline::new(&pool, &BufferTeacher, |_| 0.0)
            .conversion(cfg.clone())
            .seed(2024)
            .threads(threads)
            .run();
        let tree = &result.policy.tree;
        assert!(tree.n_leaves() > 1, "teacher converted to a single leaf");
        assert_eq!(
            tree_digest(tree),
            PIPELINE_DIGEST,
            "pipeline tree drifted at threads={threads}"
        );
    }
}

#[test]
fn lrla_shaped_2000_leaf_fit_digest_is_pinned() {
    // The shape of the serving set-up tree: 143 features, 16 classes,
    // 5000 rows, 60% random labels so the fit uses its whole leaf budget.
    let mut rng = StdRng::seed_from_u64(143);
    let x: Vec<Vec<f64>> = (0..5000)
        .map(|_| (0..143).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| {
            if rng.gen_range(0.0..1.0) < 0.6 {
                rng.gen_range(0..16)
            } else {
                ((xi[0] * 17.0 + xi[5] * 9.0 + xi[40] * 4.0) as usize) % 16
            }
        })
        .collect();
    let ds = Dataset::classification(x, y, 16).unwrap();
    for threads in thread_counts() {
        let tree = fit(
            &ds,
            &TreeConfig {
                max_leaf_nodes: 2000,
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(tree.n_leaves(), 2000);
        assert_eq!(
            tree_digest(&tree),
            LRLA_DIGEST,
            "2000-leaf tree drifted at threads={threads}"
        );
    }
}

#[test]
fn weighted_regression_fit_digest_is_pinned() {
    let mut rng = StdRng::seed_from_u64(77);
    let x: Vec<Vec<f64>> = (0..3000)
        .map(|_| (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|xi| xi[0] * 3.0 - xi[3] * xi[7] + rng.gen_range(-0.1..0.1))
        .collect();
    let w: Vec<f64> = (0..x.len()).map(|_| rng.gen_range(0.1..2.0)).collect();
    let ds = Dataset::regression_weighted(x, y, w).unwrap();
    for threads in thread_counts() {
        let tree = fit(
            &ds,
            &TreeConfig {
                criterion: Criterion::Mse,
                max_leaf_nodes: 300,
                min_samples_leaf: 2,
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(tree.n_leaves(), 300);
        assert_eq!(
            tree_digest(&tree),
            REGRESSION_DIGEST,
            "regression tree drifted at threads={threads}"
        );
    }
}
