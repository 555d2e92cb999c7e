//! Merged fabric accounting: per-shard engine reports rolled up into
//! per-scenario, per-tenant and fabric-wide views, with SLO budgets
//! checked.
//!
//! One merge rule covers all three: the shards' latency sketches
//! ([`metis_serve::EngineReport::sketch`]) are added bucket-wise, which
//! is exact on the sketch, and the union is read with
//! [`LatencySummary::from_sketch`]. Counts are exact and every
//! percentile bounds the exact one from above within `γ = 2^(1/8)`, so a
//! tenant that meets its p99 budget here meets it exactly too.

use crate::router::TenantSpec;
use crate::shadow::ShadowReport;
use metis_serve::{EngineReport, LatencySummary};
use metis_telemetry::SketchSnapshot;
use serde::{Deserialize, Serialize};

/// One scenario's merged view: its shards' engine reports, the union
/// latency summary, and its shadow audit trail.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    pub key: String,
    /// Owning tenant's name.
    pub tenant: String,
    /// Requests served across all shards.
    pub served: u64,
    /// Hot swaps (audited promotions + direct publishes).
    pub swaps: u64,
    /// Epoch live at shutdown.
    pub live_epoch: u64,
    /// Ensemble width of the model live at shutdown (1 = a single tree,
    /// k = a k-tree majority-vote [`metis_dt::Forest`]).
    pub live_trees: usize,
    /// Percentile summary over the merge of all shards' sketches.
    pub latency: LatencySummary,
    /// Per-shard engine reports, in shard order.
    pub shards: Vec<EngineReport>,
    /// Shadow-serving audit trail.
    pub shadow: ShadowReport,
}

/// One tenant's SLO view across every scenario it owns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantReport {
    pub name: String,
    /// Deadline class its pool submissions carried (lower = more urgent).
    pub deadline_class: u8,
    /// The p99 budget the tenant declared (seconds).
    pub p99_budget_s: f64,
    /// Requests served for this tenant.
    pub served: u64,
    /// Percentile summary over every request the tenant's scenarios
    /// served (merged sketches).
    pub latency: LatencySummary,
    /// True when `latency.p99_s` is within `p99_budget_s` (an idle tenant
    /// cannot violate).
    pub met_p99_budget: bool,
}

impl TenantReport {
    /// A tenant's SLO view over the merge of its scenarios' shard
    /// sketches.
    pub(crate) fn new(spec: TenantSpec, served: u64, sketch: &SketchSnapshot) -> Self {
        let latency = LatencySummary::from_sketch(sketch);
        TenantReport {
            met_p99_budget: served == 0 || latency.meets_p99_slo(spec.p99_budget_s),
            name: spec.name,
            deadline_class: spec.deadline_class,
            p99_budget_s: spec.p99_budget_s,
            served,
            latency,
        }
    }
}

/// Everything one fabric run produced, returned by
/// [`crate::Router::shutdown`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricReport {
    /// Requests served across the whole fabric.
    pub served: u64,
    /// Percentile summary over every request the fabric served (merged
    /// sketches, the same rule as the per-scenario and per-tenant views).
    pub latency_rollup: LatencySummary,
    /// Per-scenario views, in construction order.
    pub scenarios: Vec<ScenarioReport>,
    /// Per-tenant SLO views, in construction order.
    pub tenants: Vec<TenantReport>,
}

impl FabricReport {
    /// Tenants that blew their p99 budget, most urgent class first —
    /// the page-worthy list.
    pub fn violations(&self) -> Vec<&TenantReport> {
        let mut out: Vec<&TenantReport> =
            self.tenants.iter().filter(|t| !t.met_p99_budget).collect();
        out.sort_by_key(|t| t.deadline_class);
        out
    }

    /// Look up one scenario's report by key.
    pub fn scenario(&self, key: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.key == key)
    }

    /// Look up one tenant's report by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::PromotionRecord;
    use metis_serve::summarize;
    use metis_telemetry::LogSketch;

    fn tenant(name: &str, class: u8, met: bool) -> TenantReport {
        TenantReport {
            name: name.into(),
            deadline_class: class,
            p99_budget_s: 0.5,
            served: 10,
            latency: summarize(&[0.1, 0.2, 0.3]),
            met_p99_budget: met,
        }
    }

    /// One shard's report over a sketch holding in-range, underflow,
    /// overflow and NaN samples.
    fn shard() -> EngineReport {
        let sketch = LogSketch::new();
        sketch.record_all(&[0.001, 0.002, 0.0, 5000.0, f64::NAN]);
        let sketch = sketch.snapshot();
        EngineReport {
            served: 5,
            batches: 2,
            delivery_failures: 0,
            max_batch_seen: 3,
            mean_batch: 2.5,
            latency: LatencySummary::from_sketch(&sketch),
            per_epoch: vec![(0, 3), (1, 2)],
            per_width: vec![(1, LatencySummary::from_sketch(&sketch))],
            sketch,
        }
    }

    fn report() -> FabricReport {
        let sketch = LogSketch::new();
        sketch.record_all(&[0.001, 0.002]);
        let latency = LatencySummary::from_sketch(&sketch.snapshot());
        FabricReport {
            served: 10,
            latency_rollup: latency,
            scenarios: vec![ScenarioReport {
                key: "abr".into(),
                tenant: "video".into(),
                served: 10,
                swaps: 1,
                live_epoch: 1,
                live_trees: 3,
                latency,
                shards: vec![shard()],
                shadow: ShadowReport {
                    staged: 2,
                    mirrored_rows: 67,
                    promotions: vec![PromotionRecord {
                        epoch: 1,
                        baseline_epoch: 0,
                        audited_rows: 64,
                        mismatches: 0,
                        trees: 3,
                    }],
                    pending: Some((3, 1)),
                    ..Default::default()
                },
            }],
            tenants: vec![
                tenant("video", 2, false),
                tenant("dc", 0, false),
                tenant("idle", 1, true),
            ],
        }
    }

    /// `violations` pages the blown budgets most-urgent-class first;
    /// the key/name lookups resolve hits and miss cleanly.
    #[test]
    fn violations_sort_by_urgency_and_lookups_resolve() {
        let report = report();
        let paged = report.violations();
        assert_eq!(paged.len(), 2, "the met tenant is not a violation");
        assert_eq!(paged[0].name, "dc", "class 0 pages before class 2");
        assert_eq!(paged[1].name, "video");
        assert_eq!(report.scenario("abr").unwrap().live_trees, 3);
        assert!(report.scenario("nope").is_none());
        assert_eq!(report.tenant("idle").unwrap().deadline_class, 1);
        assert!(report.tenant("nope").is_none());
    }

    /// Every report type serializes to JSON and deserializes back to an
    /// equivalent value (fixed-point re-serialization, since the reports
    /// don't implement `PartialEq`), shard sketches included.
    #[test]
    fn reports_round_trip_through_json() {
        let report = report();
        let json = serde_json::to_string(&report).expect("reports serialize");
        let back: FabricReport = serde_json::from_str(&json).expect("reports deserialize");
        assert_eq!(
            json,
            serde_json::to_string(&back).unwrap(),
            "round trip is a fixed point"
        );
        assert_eq!(back.served, report.served);
        assert_eq!(back.scenarios[0].shadow, report.scenarios[0].shadow);
        assert_eq!(back.tenants.len(), 3);
        assert_eq!(back.tenants[0].latency.count, 3);
        assert_eq!(
            back.latency_rollup.p99_s.to_bits(),
            report.latency_rollup.p99_s.to_bits()
        );
        let (shard, back_shard) = (&report.scenarios[0].shards[0], &back.scenarios[0].shards[0]);
        assert_ne!(shard.sketch, SketchSnapshot::default());
        assert_eq!(
            back_shard.sketch, shard.sketch,
            "the shard sketch round-trips"
        );
        assert_eq!(back_shard.per_epoch, shard.per_epoch);
        assert_eq!(back_shard.latency.count, 5);
        assert!(
            back_shard.latency.max_s.is_nan(),
            "the NaN tail survives JSON"
        );
    }
}
