//! Cross-workload sharding: run many conversion pipelines concurrently
//! over **one** shared thread budget.
//!
//! The ROADMAP's serving goal is many simultaneous conversions — one
//! [`crate::ConversionPipeline`] per scenario/config (ABR, flow
//! scheduling, routing, parameter sweeps). Naively spawning each
//! pipeline's stages on their own threads multiplies the thread count
//! (workloads × stage threads) and oversubscribes the machine. The
//! [`WorkloadRunner`] instead drives every workload on a lightweight
//! driver thread whose parallel stages all execute on the persistent
//! [`metis_nn::par::global`] worker pool:
//!
//! * **Shared budget** — at most `budget` workloads are *admitted* (run
//!   their driver) at once; inner stages borrow pool workers rather than
//!   spawning, so the process-wide compute thread count stays bounded by
//!   the pool size regardless of how many workloads are queued.
//! * **Fair scheduling** — each workload's submissions are tagged with a
//!   fresh pool group ([`metis_nn::par::with_group`]); the pool
//!   round-robins across groups, so a long workload cannot starve the
//!   rest. Admission itself is FIFO in submission order.
//! * **Determinism** — workloads share no mutable state and every pool
//!   stage merges by index, so each workload's result is **bit-identical
//!   to running it alone**, for any budget, pool size, or interleaving;
//!   results return in submission order.
//!
//! ```
//! use metis_core::{ConversionPipeline, Workload, WorkloadRunner};
//! use metis_rl::env::test_envs::BanditEnv;
//! use metis_rl::UniformPolicy;
//!
//! let pool: Vec<BanditEnv> = (0..2).map(|s| BanditEnv::new(3, 10, s)).collect();
//! let teacher = UniformPolicy { n_actions: 3 };
//! let results = WorkloadRunner::new(0).run(
//!     (0..3)
//!         .map(|seed| {
//!             let pool = &pool;
//!             let teacher = &teacher;
//!             Workload::new(format!("sweep-{seed}"), move || {
//!                 ConversionPipeline::new(pool, teacher, |_| 0.0)
//!                     .seed(seed)
//!                     .run()
//!             })
//!         })
//!         .collect(),
//! );
//! assert_eq!(results.len(), 3);
//! assert_eq!(results[0].name, "sweep-0");
//! ```

use metis_telemetry::ShardTelemetry;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One named unit of work for the [`WorkloadRunner`] — typically a whole
/// conversion pipeline run, but any `FnOnce` closure works (the closure
/// may borrow from the caller's stack).
pub struct Workload<'a, R> {
    name: String,
    job: Box<dyn FnOnce() -> R + Send + 'a>,
}

impl<'a, R> Workload<'a, R> {
    pub fn new(name: impl Into<String>, job: impl FnOnce() -> R + Send + 'a) -> Self {
        Workload {
            name: name.into(),
            job: Box::new(job),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The outcome of one workload: its name, its return value, the wall
/// clock it held an admission slot, and how long it queued for one.
#[derive(Debug, Clone)]
pub struct WorkloadResult<R> {
    pub name: String,
    pub value: R,
    pub seconds: f64,
    /// Elapsed time between batch submission and this workload's
    /// admission (a driver picking it up). Workloads admitted immediately
    /// still record the microseconds of driver spawn + lock handoff, so
    /// treat small values as "no queueing", not exactly zero.
    pub queue_wait_s: f64,
}

/// Admission-queue statistics of one [`WorkloadRunner::run_detailed`]
/// batch — the observability the ROADMAP's time-sliced scheduler needs:
/// who waited, for how long, and how deep the queue ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunnerStats {
    /// Deepest the admission queue got (workloads still waiting at the
    /// moment some workload was admitted, including it).
    pub peak_queue_depth: usize,
    /// Mean queue wait across all workloads (seconds).
    pub mean_wait_s: f64,
    /// Worst queue wait (seconds).
    pub max_wait_s: f64,
}

/// Runs batches of [`Workload`]s concurrently over a shared thread
/// budget. See the module docs for the scheduling and determinism
/// contract.
pub struct WorkloadRunner {
    budget: usize,
    telemetry: Option<Arc<ShardTelemetry>>,
}

impl WorkloadRunner {
    /// A runner admitting at most `budget` concurrent workloads
    /// (0 = all available cores). The inner parallel stages of admitted
    /// workloads all share the persistent worker pool, so raising the
    /// budget never multiplies compute threads.
    pub fn new(budget: usize) -> Self {
        WorkloadRunner {
            budget: metis_nn::par::resolve_threads(budget).max(1),
            telemetry: None,
        }
    }

    /// Report into the live telemetry plane: each workload lands on
    /// `scope` as one request — full span = queue wait + run time,
    /// queue-wait share = its admission delay — with stamps in seconds
    /// since the batch's submission instant. The runner is wall-clock
    /// machinery, so these stamps are monitoring data, not part of the
    /// virtual-time determinism contract.
    pub fn telemetry(mut self, scope: Arc<ShardTelemetry>) -> Self {
        self.telemetry = Some(scope);
        self
    }

    /// Concurrent workload slots.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Run every workload and return their results **in submission
    /// order**. Each workload executes exactly as it would alone —
    /// bit-identical results — while sharing the pool fairly with its
    /// neighbours. Panics if a workload panics (after the others finish).
    ///
    /// Only `min(budget, workloads)` driver threads are spawned; they
    /// pull workloads from a shared queue in submission order, so
    /// admission is genuinely FIFO and a thousand-point sweep never
    /// creates a thousand OS threads.
    pub fn run<R: Send>(&self, workloads: Vec<Workload<'_, R>>) -> Vec<WorkloadResult<R>> {
        self.run_detailed(workloads).0
    }

    /// [`WorkloadRunner::run`] plus admission-queue statistics: per-result
    /// `queue_wait_s` is populated either way; [`RunnerStats`] adds the
    /// batch-level peak depth and wait aggregates.
    pub fn run_detailed<R: Send>(
        &self,
        workloads: Vec<Workload<'_, R>>,
    ) -> (Vec<WorkloadResult<R>>, RunnerStats) {
        let n = workloads.len();
        let drivers = self.budget.min(n).max(1);
        // Submission-ordered FIFO of (slot index, workload); each result
        // lands in its submission slot regardless of which driver ran it.
        // All workloads enqueue at `submitted`, so a workload's queue wait
        // is simply its admission instant.
        let submitted = Instant::now();
        let queue: Mutex<VecDeque<(usize, Workload<'_, R>)>> =
            Mutex::new(workloads.into_iter().enumerate().collect());
        let peak_depth = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<WorkloadResult<R>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..drivers)
                .map(|_| {
                    let queue = &queue;
                    let slots = &slots;
                    let peak_depth = &peak_depth;
                    let telemetry = self.telemetry.as_deref();
                    scope.spawn(move || loop {
                        let (idx, workload, depth) = {
                            let mut queue = queue.lock().unwrap();
                            let depth = queue.len();
                            let Some((idx, workload)) = queue.pop_front() else {
                                return;
                            };
                            (idx, workload, depth)
                        };
                        peak_depth.fetch_max(depth, std::sync::atomic::Ordering::Relaxed);
                        let queue_wait_s = submitted.elapsed().as_secs_f64();
                        let group = metis_nn::par::fresh_group();
                        let result = metis_nn::par::with_group(group, || {
                            let start = Instant::now();
                            let value = (workload.job)();
                            WorkloadResult {
                                name: workload.name,
                                value,
                                seconds: start.elapsed().as_secs_f64(),
                                queue_wait_s,
                            }
                        });
                        if let Some(scope) = telemetry {
                            // One workload = one request: spans are
                            // seconds since the batch submission.
                            scope.on_request(queue_wait_s + result.seconds, queue_wait_s);
                        }
                        *slots[idx].lock().unwrap() = Some(result);
                    })
                })
                .collect();
            let mut panicked = false;
            for handle in handles {
                panicked |= handle.join().is_err();
            }
            assert!(!panicked, "workload panicked");
        });
        let results: Vec<WorkloadResult<R>> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every submitted workload produced a result")
            })
            .collect();
        let stats = RunnerStats {
            peak_queue_depth: peak_depth.load(std::sync::atomic::Ordering::Relaxed),
            mean_wait_s: if results.is_empty() {
                0.0
            } else {
                results.iter().map(|r| r.queue_wait_s).sum::<f64>() / results.len() as f64
            },
            max_wait_s: results.iter().map(|r| r.queue_wait_s).fold(0.0, f64::max),
        };
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConversionConfig;
    use crate::pipeline::ConversionPipeline;
    use metis_rl::env::test_envs::BanditEnv;
    use metis_rl::Policy;

    #[derive(Clone)]
    struct Oracle;
    impl Policy for Oracle {
        fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
            let mut p = vec![0.0; obs.len()];
            p[obs.iter().position(|&x| x == 1.0).unwrap()] = 1.0;
            p
        }
    }

    #[test]
    fn results_return_in_submission_order() {
        let results = WorkloadRunner::new(2).run(
            (0..5)
                .map(|k| Workload::new(format!("w{k}"), move || k * k))
                .collect(),
        );
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["w0", "w1", "w2", "w3", "w4"]);
        let values: Vec<usize> = results.iter().map(|r| r.value).collect();
        assert_eq!(values, vec![0, 1, 4, 9, 16]);
        assert!(results.iter().all(|r| r.seconds >= 0.0));
    }

    #[test]
    fn budget_zero_resolves_to_cores() {
        assert!(WorkloadRunner::new(0).budget() >= 1);
        assert_eq!(WorkloadRunner::new(3).budget(), 3);
    }

    #[test]
    fn budget_bounds_concurrent_admissions() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        WorkloadRunner::new(2).run(
            (0..8)
                .map(|k| {
                    let active = &active;
                    let peak = &peak;
                    Workload::new(format!("w{k}"), move || {
                        let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        active.fetch_sub(1, Ordering::SeqCst);
                    })
                })
                .collect(),
        );
        assert!(peak.load(Ordering::SeqCst) <= 2, "budget exceeded");
    }

    /// The queue-observability satellite: FIFO admission under a tight
    /// budget produces monotone queue waits, a full-depth peak, and
    /// consistent aggregates.
    #[test]
    fn queue_stats_expose_depth_and_waits() {
        let (results, stats) = WorkloadRunner::new(1).run_detailed(
            (0..4)
                .map(|k| {
                    Workload::new(format!("w{k}"), move || {
                        std::thread::sleep(std::time::Duration::from_millis(3));
                        k
                    })
                })
                .collect::<Vec<_>>(),
        );
        // With one driver, admission is strictly FIFO: later submissions
        // wait at least as long as earlier ones.
        for pair in results.windows(2) {
            assert!(
                pair[1].queue_wait_s >= pair[0].queue_wait_s,
                "FIFO waits must be monotone: {:?}",
                results.iter().map(|r| r.queue_wait_s).collect::<Vec<_>>()
            );
        }
        // The first pop sees the whole batch queued.
        assert_eq!(stats.peak_queue_depth, 4);
        assert!(results[3].queue_wait_s >= 3.0 * 0.003 * 0.5, "tail waited");
        assert!(stats.max_wait_s >= stats.mean_wait_s);
        assert!((stats.max_wait_s - results[3].queue_wait_s).abs() < 1e-9);
        // A wide-open budget admits everything at depth n but with tiny
        // waits.
        let (results, stats) = WorkloadRunner::new(4).run_detailed(
            (0..2)
                .map(|k| Workload::new(format!("w{k}"), move || k))
                .collect::<Vec<_>>(),
        );
        assert_eq!(results.len(), 2);
        assert!(stats.peak_queue_depth >= 1 && stats.peak_queue_depth <= 2);
    }

    /// The telemetry hook: every workload lands on the attached scope as
    /// one request, with its admission delay as the queue-wait share.
    #[test]
    fn telemetry_scope_records_each_workload_as_a_request() {
        use metis_telemetry::{Stage, Telemetry, CONTROL_SHARD};

        let plane = Telemetry::enabled();
        let scope = plane
            .register("runner", CONTROL_SHARD, "batch")
            .expect("enabled plane registers");
        let results = WorkloadRunner::new(2).telemetry(Arc::clone(&scope)).run(
            (0..5)
                .map(|k| Workload::new(format!("w{k}"), move || k))
                .collect(),
        );
        assert_eq!(results.len(), 5);
        assert_eq!(scope.latency.count(), 5);
        assert_eq!(scope.stage_sketch(Stage::QueueWait).count(), 5);
        let p_max = scope.latency.quantile(1.0).expect("non-empty sketch");
        assert!(p_max >= 0.0, "workload spans are non-negative seconds");
    }

    /// The acceptance bar: concurrent scenario pipelines over a shared
    /// budget are bit-identical to running each pipeline alone, for any
    /// thread knob.
    #[test]
    fn concurrent_pipelines_bit_identical_to_solo_runs() {
        let pool: Vec<BanditEnv> = (0..4).map(|s| BanditEnv::new(3, 20, s)).collect();
        let cfg = ConversionConfig {
            max_leaf_nodes: 8,
            episodes_per_round: 6,
            max_steps: 16,
            ..Default::default()
        };
        let run_one = |seed: u64, threads: usize| {
            ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
                .conversion(cfg.clone())
                .seed(seed)
                .threads(threads)
                .run()
        };
        for threads in [1usize, 3] {
            let solo: Vec<_> = (0..3).map(|seed| run_one(seed, threads)).collect();
            let sharded = WorkloadRunner::new(0).run(
                (0..3)
                    .map(|seed| {
                        let run_one = &run_one;
                        Workload::new(format!("bandit-{seed}"), move || run_one(seed, threads))
                    })
                    .collect(),
            );
            for (alone, shared) in solo.iter().zip(sharded.iter()) {
                assert_eq!(alone.policy.tree, shared.value.policy.tree);
                assert_eq!(alone.fidelity_history, shared.value.fidelity_history);
                assert_eq!(alone.dataset_size, shared.value.dataset_size);
            }
        }
    }
}
