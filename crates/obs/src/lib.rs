//! # metis-obs — the streaming health plane
//!
//! `metis_telemetry` (PR 9) made the serving fabric's internals visible
//! *at an instant*: gauges, spans, percentile sketches, a flight
//! recorder. This crate adds the missing dimension — **time** — and the
//! judgement layered on top of it:
//!
//! * [`ring`] — per-(scenario, shard) **time-series rings**: every
//!   observer tick snapshots each scope's counters, gauges, and sketches
//!   and retains the windowed *deltas* in a bounded ring, so "what did
//!   the last N seconds look like" is answerable mid-run,
//! * [`slo`] — **multi-window SLO burn-rate monitors** per tenant:
//!   the tenant's `TenantSpec` p99 budget plus an error-budget fraction
//!   define "how many requests may run over"; a fast window catches
//!   sharp regressions in seconds, a slow window catches smoulder, and
//!   hysteresis keeps alerts from flapping at the threshold,
//! * drift detection — the current window's latency histogram against a
//!   trailing merged baseline, scored as the worst quantile shift in
//!   **buckets** (multiples of the sketch's γ), so "the tail moved two
//!   buckets" is meaningful without choosing units,
//! * [`health`] — **tail attribution** and reporting: when an alert
//!   fires, the fired window's stage sketches (queue-wait / batch-form /
//!   kernel / collect / publish) are ranked by duration mass to say
//!   *which stage inflated the tail*, and the whole plane renders as a
//!   structured [`HealthReport`], a Prometheus-style text exposition,
//!   and a JSON snapshot.
//!
//! ## Determinism contract
//!
//! The [`Observer`] has no thread, no timer, and never reads a wall
//! clock: someone *ticks* it — a scraper thread under a real clock, a
//! scheduled `metis_sim` event in co-simulation. Under a virtual clock
//! every input (tick stamp, counter value, sketch bucket) is a pure
//! function of the submission/swap/tick schedule, so the alert stream
//! and [`HealthReport::digest`] are bit-identical across worker thread
//! counts and stripe widths (`tests/obs_determinism.rs`). Gauge
//! watermarks ride along in the rings for monitoring but are excluded
//! from digests, mirroring the telemetry plane's contract.
//!
//! ## Disabled cost
//!
//! A disabled telemetry plane registers no scopes, so a tick on it is a
//! single `is_enabled` test — the observer goes inert and
//! behaviour-invariant (`METIS_TELEMETRY=0` CI runs the same schedules
//! through it). The enabled cost is gated in `BENCH_serving.json`
//! (`obs_overhead_pct`, same ≤ 5% ceiling as the telemetry plane).

pub mod health;
pub mod ring;
pub mod slo;

pub use health::{Alert, AlertKind, HealthReport, ScopeSeries, StageShare, TenantHealth};
pub use ring::{TickSample, TimeSeriesRing};
pub use slo::{BurnMonitor, SloSpec};

use metis_serve::Clock;
use metis_telemetry::{SketchSnapshot, Stage, Telemetry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

const N_STAGES: usize = Stage::ALL.len();
/// Quantiles the drift score sweeps: median, body, tail.
const DRIFT_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Observer knobs. Windows are counted in **ticks**; the tick period
/// itself (`tick_s`) is chosen by whoever drives the observer (the
/// co-sim event loop, a scraper thread) and recorded here so derived
/// rates can be labeled.
#[derive(Debug, Clone)]
pub struct ObserverConfig {
    /// Nominal tick period in seconds (schedule hint for drivers).
    pub tick_s: f64,
    /// Ticks retained per scope ring.
    pub ring_capacity: usize,
    /// Fast burn window, in ticks — catches sharp regressions.
    pub fast_window: usize,
    /// Slow burn window, in ticks — catches sustained smoulder.
    pub slow_window: usize,
    /// Trailing baseline the drift detector merges, in ticks.
    pub baseline_window: usize,
    /// Error-budget fraction of the tenant's traffic allowed over its
    /// p99 budget (0.01 ⇒ 1% may exceed before burn rate hits 1.0).
    pub error_budget: f64,
    /// Burn-rate threshold for the fast window.
    pub fast_burn: f64,
    /// Burn-rate threshold for the slow window.
    pub slow_burn: f64,
    /// Consecutive calm ticks required before a firing alert clears
    /// (hysteresis; 0 clears on the first calm tick).
    pub clear_ticks: u32,
    /// Quantile shift (in sketch buckets, multiples of γ) at which the
    /// drift monitor fires.
    pub drift_buckets: i64,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            tick_s: 1.0,
            ring_capacity: 240,
            fast_window: 3,
            slow_window: 12,
            baseline_window: 24,
            error_budget: 0.01,
            fast_burn: 8.0,
            slow_burn: 2.0,
            clear_ticks: 2,
            drift_buckets: 4,
        }
    }
}

/// Per-scope incremental state: the previous cumulative snapshots the
/// next tick diffs against, plus the retained ring.
struct ScopeTrack {
    ring: TimeSeriesRing,
    prev_latency: SketchSnapshot,
    prev_stages: Vec<SketchSnapshot>,
    prev_served: u64,
    prev_batches: u64,
    tenant_idx: Option<usize>,
}

/// One tick's merged view of a tenant (across all of its scopes).
struct TenantTick {
    served: u64,
    over: u64,
    latency: SketchSnapshot,
    stages: Vec<SketchSnapshot>,
}

/// Per-tenant monitor state.
struct TenantTrack {
    spec: SloSpec,
    /// Recent ticks, newest last; capped at
    /// `max(slow_window, fast_window + baseline_window)`.
    window: VecDeque<TenantTick>,
    served_total: u64,
    over_total: u64,
    fast: BurnMonitor,
    slow: BurnMonitor,
    drift: BurnMonitor,
    last_fast_burn: f64,
    last_slow_burn: f64,
    last_drift: i64,
}

struct ObsState {
    ticks: u64,
    time_s: f64,
    scopes: Vec<ScopeTrack>,
    tenants: Vec<TenantTrack>,
    alerts: Vec<Alert>,
}

/// The streaming health plane. Layers on a [`Telemetry`] plane; holds
/// no thread and reads no wall clock — drive it via [`Observer::tick`]
/// (or [`Observer::tick_now`] when a [`Clock`] is attached).
pub struct Observer {
    plane: Telemetry,
    cfg: ObserverConfig,
    clock: Option<Arc<Clock>>,
    state: Mutex<ObsState>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap();
        f.debug_struct("Observer")
            .field("ticks", &st.ticks)
            .field("tenants", &st.tenants.len())
            .field("alerts", &st.alerts.len())
            .finish_non_exhaustive()
    }
}

impl Observer {
    /// Build an observer over `plane`, monitoring one SLO per entry in
    /// `slos` (normally derived from the fabric's `TenantSpec`s — see
    /// `Router::observer`).
    pub fn new(plane: Telemetry, slos: Vec<SloSpec>, cfg: ObserverConfig) -> Self {
        let tenants = slos
            .into_iter()
            .map(|spec| TenantTrack {
                spec,
                window: VecDeque::new(),
                served_total: 0,
                over_total: 0,
                fast: BurnMonitor::new(),
                slow: BurnMonitor::new(),
                drift: BurnMonitor::new(),
                last_fast_burn: 0.0,
                last_slow_burn: 0.0,
                last_drift: 0,
            })
            .collect();
        Observer {
            plane,
            cfg,
            clock: None,
            state: Mutex::new(ObsState {
                ticks: 0,
                time_s: 0.0,
                scopes: Vec::new(),
                tenants,
                alerts: Vec::new(),
            }),
        }
    }

    /// Attach the clock [`Observer::tick_now`] stamps from.
    pub fn with_clock(mut self, clock: Arc<Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    pub fn config(&self) -> &ObserverConfig {
        &self.cfg
    }

    /// The monitored SLOs, in monitor order.
    pub fn slos(&self) -> Vec<SloSpec> {
        self.state
            .lock()
            .unwrap()
            .tenants
            .iter()
            .map(|t| t.spec.clone())
            .collect()
    }

    /// Tick stamped from the attached clock (panics without one).
    pub fn tick_now(&self) {
        let clock = self
            .clock
            .as_ref()
            .expect("Observer::tick_now requires with_clock");
        self.tick(clock.now_s());
    }

    /// One observation cycle at stamp `now_s`: snapshot every telemetry
    /// scope, push windowed deltas into the rings, advance each
    /// tenant's burn/drift monitors, and append any alert transitions.
    ///
    /// Call only at quiescent points under a virtual clock (after
    /// `collect()`, or as a scheduled co-sim event) — that is what makes
    /// the alert stream a pure function of the schedule. A disabled
    /// telemetry plane makes this a no-op.
    pub fn tick(&self, now_s: f64) {
        if !self.plane.is_enabled() {
            return;
        }
        let scopes = self.plane.scopes();
        let mut st = self.state.lock().unwrap();
        let st = &mut *st;
        // Scope registration is append-only in a deterministic order, so
        // tracks stay index-aligned; adopt any scopes new since last tick.
        for scope in scopes.iter().skip(st.scopes.len()) {
            let tenant_idx = st
                .tenants
                .iter()
                .position(|t| t.spec.tenant == scope.tenant());
            st.scopes.push(ScopeTrack {
                ring: TimeSeriesRing::new(self.cfg.ring_capacity),
                prev_latency: SketchSnapshot::default(),
                prev_stages: vec![SketchSnapshot::default(); N_STAGES],
                prev_served: 0,
                prev_batches: 0,
                tenant_idx,
            });
        }
        let mut tenant_ticks: Vec<TenantTick> = st
            .tenants
            .iter()
            .map(|_| TenantTick {
                served: 0,
                over: 0,
                latency: SketchSnapshot::default(),
                stages: vec![SketchSnapshot::default(); N_STAGES],
            })
            .collect();
        for (track, scope) in st.scopes.iter_mut().zip(&scopes) {
            let latency = scope.latency.snapshot();
            let latency_delta = latency.saturating_delta(&track.prev_latency);
            track.prev_latency = latency;
            let mut stage_deltas = Vec::with_capacity(N_STAGES);
            for (si, stage) in Stage::ALL.iter().enumerate() {
                let snap = scope.stage_sketch(*stage).snapshot();
                stage_deltas.push(snap.saturating_delta(&track.prev_stages[si]));
                track.prev_stages[si] = snap;
            }
            let served = scope.served.get();
            let served_delta = served.saturating_sub(track.prev_served);
            track.prev_served = served;
            let batches = scope.batches.get();
            let batches_delta = batches.saturating_sub(track.prev_batches);
            track.prev_batches = batches;
            if let Some(ti) = track.tenant_idx {
                let tt = &mut tenant_ticks[ti];
                tt.served += served_delta;
                tt.latency = tt.latency.merged(&latency_delta);
                for (acc, d) in tt.stages.iter_mut().zip(&stage_deltas) {
                    *acc = acc.merged(d);
                }
            }
            track.ring.push(TickSample {
                time_s: now_s,
                served_delta,
                batches_delta,
                queue_depth: scope.queue_depth.get(),
                inflight_batches: scope.inflight_batches.get(),
                latency: latency_delta,
                stages: stage_deltas,
            });
        }
        let window_cap = self
            .cfg
            .slow_window
            .max(self.cfg.fast_window + self.cfg.baseline_window)
            .max(1);
        for (ti, mut tick) in tenant_ticks.into_iter().enumerate() {
            let tr = &mut st.tenants[ti];
            tick.over = tick.latency.count_over(tr.spec.p99_budget_s);
            tr.served_total += tick.served;
            tr.over_total += tick.over;
            while tr.window.len() >= window_cap {
                tr.window.pop_front();
            }
            tr.window.push_back(tick);
            let fast_burn = window_burn(&tr.window, self.cfg.fast_window, self.cfg.error_budget);
            let slow_burn = window_burn(&tr.window, self.cfg.slow_window, self.cfg.error_budget);
            let drift = drift_score(&tr.window, self.cfg.fast_window, self.cfg.baseline_window);
            tr.last_fast_burn = fast_burn;
            tr.last_slow_burn = slow_burn;
            tr.last_drift = drift;
            let transitions = [
                (
                    AlertKind::FastBurn,
                    tr.fast
                        .step(fast_burn >= self.cfg.fast_burn, self.cfg.clear_ticks),
                    fast_burn,
                    self.cfg.fast_window,
                ),
                (
                    AlertKind::SlowBurn,
                    tr.slow
                        .step(slow_burn >= self.cfg.slow_burn, self.cfg.clear_ticks),
                    slow_burn,
                    self.cfg.slow_window,
                ),
                (
                    AlertKind::Drift,
                    tr.drift
                        .step(drift >= self.cfg.drift_buckets, self.cfg.clear_ticks),
                    drift as f64,
                    self.cfg.fast_window,
                ),
            ];
            for (kind, fired, severity, window) in transitions {
                let Some(firing) = fired else { continue };
                st.alerts.push(Alert {
                    seq: st.alerts.len() as u64,
                    time_s: now_s,
                    tenant: tr.spec.tenant.clone(),
                    deadline_class: tr.spec.deadline_class,
                    kind,
                    firing,
                    severity,
                    attribution: if firing {
                        attribution(&tr.window, window)
                    } else {
                        Vec::new()
                    },
                });
            }
        }
        st.ticks += 1;
        st.time_s = now_s;
    }

    /// The full alert stream so far (fires and clears, in order).
    pub fn alerts(&self) -> Vec<Alert> {
        self.state.lock().unwrap().alerts.clone()
    }

    /// Structured snapshot of everything the observer knows.
    pub fn health_report(&self) -> HealthReport {
        let st = self.state.lock().unwrap();
        let scopes = self.plane.scopes();
        HealthReport {
            ticks: st.ticks,
            time_s: st.time_s,
            tenants: st
                .tenants
                .iter()
                .map(|t| {
                    let (window_over, window_served) = window_sums(&t.window, self.cfg.slow_window);
                    TenantHealth {
                        tenant: t.spec.tenant.clone(),
                        deadline_class: t.spec.deadline_class,
                        p99_budget_s: t.spec.p99_budget_s,
                        fast_burn: t.last_fast_burn,
                        slow_burn: t.last_slow_burn,
                        fast_firing: t.fast.firing(),
                        slow_firing: t.slow.firing(),
                        drift_score: t.last_drift,
                        drift_firing: t.drift.firing(),
                        window_served,
                        window_over,
                        served_total: t.served_total,
                        over_total: t.over_total,
                    }
                })
                .collect(),
            alerts: st.alerts.clone(),
            scopes: st
                .scopes
                .iter()
                .zip(&scopes)
                .map(|(track, scope)| ScopeSeries {
                    scenario: scope.scenario().to_string(),
                    shard: if scope.shard() == metis_telemetry::CONTROL_SHARD {
                        -1
                    } else {
                        scope.shard() as i64
                    },
                    tenant: scope.tenant().to_string(),
                    deadline_class: scope.deadline_class(),
                    evicted: track.ring.evicted(),
                    samples: track.ring.samples().to_vec(),
                })
                .collect(),
        }
    }

    /// Digest of the deterministic health surfaces — see
    /// [`HealthReport::digest`].
    pub fn digest(&self) -> u64 {
        self.health_report().digest()
    }

    /// Prometheus-style text exposition of the current health state.
    pub fn prometheus_text(&self) -> String {
        self.health_report().prometheus_text()
    }

    /// JSON snapshot of [`Observer::health_report`].
    pub fn health_json(&self) -> String {
        serde_json::to_string(&self.health_report()).expect("health report serializes infallibly")
    }

    /// The telemetry plane's Chrome trace document with every alert
    /// transition appended as a global instant mark, so health incidents
    /// line up with the span timeline in `chrome://tracing`.
    pub fn chrome_trace(&self) -> serde::Value {
        let mut doc = self.plane.chrome_trace();
        let alerts = self.alerts();
        if let serde::Value::Object(fields) = &mut doc {
            if let Some((_, serde::Value::Array(events))) =
                fields.iter_mut().find(|(k, _)| k == "traceEvents")
            {
                for a in &alerts {
                    events.push(a.trace_mark());
                }
            }
        }
        doc
    }

    /// [`Observer::chrome_trace`] rendered to a JSON string.
    pub fn chrome_trace_json(&self) -> String {
        serde_json::to_string(&self.chrome_trace()).expect("trace document serializes infallibly")
    }
}

/// Burn rate over the newest `window` ticks: the fraction of requests
/// that ran over budget, normalized by the error budget — 1.0 means
/// "exactly consuming budget", higher burns it faster. 0 on no traffic.
fn window_burn(window: &VecDeque<TenantTick>, ticks: usize, error_budget: f64) -> f64 {
    let (over, served) = window_sums(window, ticks);
    if served == 0 || error_budget <= 0.0 {
        return 0.0;
    }
    (over as f64 / served as f64) / error_budget
}

fn window_sums(window: &VecDeque<TenantTick>, ticks: usize) -> (u64, u64) {
    let skip = window.len().saturating_sub(ticks);
    window
        .iter()
        .skip(skip)
        .fold((0, 0), |(o, s), t| (o + t.over, s + t.latency.total))
}

/// Worst quantile shift (in buckets) between the merged latency of the
/// newest `current` ticks and the merged `baseline` ticks before them.
/// 0 until both windows hold traffic.
fn drift_score(window: &VecDeque<TenantTick>, current: usize, baseline: usize) -> i64 {
    let n = window.len();
    if n < current + 1 {
        return 0;
    }
    let cur = merge_range(window, n - current, n);
    let base_start = n.saturating_sub(current + baseline);
    let base = merge_range(window, base_start, n - current);
    if cur.total == 0 || base.total == 0 {
        return 0;
    }
    DRIFT_QUANTILES
        .iter()
        .filter_map(|&q| Some((cur.quantile_index(q)? - base.quantile_index(q)?).abs()))
        .max()
        .unwrap_or(0)
}

fn merge_range(window: &VecDeque<TenantTick>, from: usize, to: usize) -> SketchSnapshot {
    let mut merged = SketchSnapshot::default();
    for t in window.iter().skip(from).take(to.saturating_sub(from)) {
        merged = merged.merged(&t.latency);
    }
    merged
}

/// Rank the stages of the newest `ticks` ticks by duration mass: which
/// stage the inflated window's time actually went to. Empty when the
/// window carries no stage mass (e.g. a drift alert on idle churn).
fn attribution(window: &VecDeque<TenantTick>, ticks: usize) -> Vec<StageShare> {
    let skip = window.len().saturating_sub(ticks);
    let mut merged = vec![SketchSnapshot::default(); N_STAGES];
    for t in window.iter().skip(skip) {
        for (acc, s) in merged.iter_mut().zip(&t.stages) {
            *acc = acc.merged(s);
        }
    }
    let masses: Vec<f64> = merged.iter().map(SketchSnapshot::mass_s).collect();
    let total: f64 = masses.iter().sum();
    if total <= 0.0 || total.is_nan() {
        return Vec::new();
    }
    let mut shares: Vec<StageShare> = Stage::ALL
        .iter()
        .zip(&masses)
        .map(|(stage, &mass_s)| StageShare {
            stage: stage.name().to_string(),
            mass_s,
            share: mass_s / total,
        })
        .collect();
    // Stable sort: equal masses keep the canonical stage order.
    shares.sort_by(|a, b| b.mass_s.total_cmp(&a.mass_s));
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo(budget_s: f64) -> Vec<SloSpec> {
        vec![SloSpec {
            tenant: "gold".to_string(),
            deadline_class: 1,
            p99_budget_s: budget_s,
        }]
    }

    fn fast_cfg() -> ObserverConfig {
        ObserverConfig {
            fast_window: 2,
            slow_window: 4,
            baseline_window: 2,
            clear_ticks: 1,
            drift_buckets: 3,
            ..Default::default()
        }
    }

    /// Drive `n` requests of `latency_s` through a scope at `t`.
    fn serve(scope: &metis_telemetry::ShardTelemetry, t: f64, n: usize, latency_s: f64) {
        let latencies = vec![latency_s; n];
        let waits = vec![latency_s * 0.5; n];
        scope.on_requests(t, &latencies, &waits);
        scope.on_batch_open();
        scope.record_flush(&metis_telemetry::FlushStamps {
            open_s: t - latency_s,
            kernel_start_s: t,
            kernel_end_s: t,
            close_s: t,
            rows: n,
            epoch: 0,
            width: 1,
        });
    }

    #[test]
    fn burn_alert_fires_attributes_and_clears_with_hysteresis() {
        let plane = Telemetry::enabled();
        let scope = plane.register_scope("s", 0, "gold", 1).unwrap();
        let obs = Observer::new(plane, slo(0.010), fast_cfg());
        // Two healthy ticks: 1 ms latencies, far under the 10 ms budget.
        serve(&scope, 1.0, 100, 0.001);
        obs.tick(1.0);
        serve(&scope, 2.0, 100, 0.001);
        obs.tick(2.0);
        assert!(obs.alerts().is_empty());
        // A bad tick: half the traffic at 500 ms. Fast burn ≈ 50 ⇒ fire.
        serve(&scope, 3.0, 50, 0.5);
        serve(&scope, 3.5, 50, 0.001);
        obs.tick(4.0);
        let alerts = obs.alerts();
        assert!(
            alerts
                .iter()
                .any(|a| a.kind == AlertKind::FastBurn && a.firing),
            "fast burn must fire: {alerts:?}"
        );
        let fired = alerts
            .iter()
            .find(|a| a.kind == AlertKind::FastBurn)
            .unwrap();
        assert!(fired.severity > 8.0);
        assert!(!fired.attribution.is_empty(), "fired alerts attribute");
        let shares: f64 = fired.attribution.iter().map(|s| s.share).sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares normalize: {shares}");
        assert!(
            fired
                .attribution
                .windows(2)
                .all(|w| w[0].mass_s >= w[1].mass_s),
            "attribution is ranked by mass"
        );
        // One calm tick: hysteresis (clear_ticks = 1) holds it firing
        // through the calm count, then clears.
        serve(&scope, 5.0, 100, 0.001);
        obs.tick(5.0);
        serve(&scope, 6.0, 100, 0.001);
        obs.tick(6.0);
        let alerts = obs.alerts();
        let cleared = alerts
            .iter()
            .filter(|a| a.kind == AlertKind::FastBurn && !a.firing)
            .count();
        assert_eq!(cleared, 1, "fast burn clears once calm: {alerts:?}");
        let report = obs.health_report();
        assert!(!report.tenants[0].fast_firing);
        assert!(report.tenants[0].over_total >= 50);
        assert_ne!(report.digest(), 0);
    }

    #[test]
    fn drift_fires_on_a_distribution_shift_without_budget_misses() {
        let plane = Telemetry::enabled();
        let scope = plane.register_scope("s", 0, "gold", 1).unwrap();
        // Budget is generous: nothing ever misses it, only the shape moves.
        let obs = Observer::new(plane, slo(10.0), fast_cfg());
        for k in 0..4 {
            serve(&scope, k as f64, 100, 0.001);
            obs.tick(k as f64);
        }
        // The whole distribution jumps 1 ms → 100 ms: ~53 buckets of γ.
        for k in 4..6 {
            serve(&scope, k as f64, 100, 0.1);
            obs.tick(k as f64);
        }
        let alerts = obs.alerts();
        assert!(
            alerts
                .iter()
                .any(|a| a.kind == AlertKind::Drift && a.firing),
            "drift must fire: {alerts:?}"
        );
        assert!(
            !alerts.iter().any(|a| a.kind == AlertKind::FastBurn),
            "no burn without budget misses: {alerts:?}"
        );
        assert!(obs.health_report().tenants[0].drift_score >= 3);
    }

    #[test]
    fn disabled_plane_makes_the_observer_inert() {
        let plane = Telemetry::off();
        let obs = Observer::new(plane, slo(0.001), ObserverConfig::default());
        for k in 0..10 {
            obs.tick(k as f64);
        }
        let report = obs.health_report();
        assert_eq!(report.ticks, 0, "disabled plane: ticks are no-ops");
        assert!(report.alerts.is_empty());
        assert!(report.scopes.is_empty());
        assert_eq!(
            obs.digest(),
            Observer::new(Telemetry::off(), slo(0.001), ObserverConfig::default()).digest()
        );
    }

    #[test]
    fn rings_retain_windowed_deltas_and_count_evictions() {
        let plane = Telemetry::enabled();
        let scope = plane.register_scope("s", 0, "gold", 0).unwrap();
        let cfg = ObserverConfig {
            ring_capacity: 2,
            ..fast_cfg()
        };
        let obs = Observer::new(plane, slo(1.0), cfg);
        for k in 0..5 {
            serve(&scope, k as f64, 10 * (k + 1), 0.001);
            obs.tick(k as f64);
        }
        let report = obs.health_report();
        let series = &report.scopes[0];
        assert_eq!(series.samples.len(), 2, "ring capped");
        assert_eq!(series.evicted, 3);
        // Deltas, not cumulatives: the last tick served 50, not 150.
        assert_eq!(series.samples[1].served_delta, 50);
        assert_eq!(series.samples[1].latency.total, 50);
        assert_eq!(report.tenants[0].served_total, 150);
    }

    #[test]
    fn trace_export_carries_alert_marks() {
        let plane = Telemetry::enabled();
        let scope = plane.register_scope("s", 0, "gold", 1).unwrap();
        let obs = Observer::new(plane, slo(0.001), fast_cfg());
        serve(&scope, 1.0, 100, 0.5);
        obs.tick(1.0);
        assert!(!obs.alerts().is_empty());
        let json = obs.chrome_trace_json();
        assert!(json.contains("alert/gold/fast_burn"), "trace: {json}");
        let doc: serde::Value = serde_json::from_str(&json).unwrap();
        let events = doc
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
            .and_then(|(_, v)| v.as_array())
            .unwrap();
        assert!(events
            .iter()
            .filter_map(|e| e.as_object())
            .any(|o| o.iter().any(|(k, v)| k == "s" && v.as_str() == Some("g"))));
    }

    #[test]
    fn prometheus_text_exposes_burn_and_series() {
        let plane = Telemetry::enabled();
        let scope = plane.register_scope("s", 0, "gold", 1).unwrap();
        let obs = Observer::new(plane.clone(), slo(0.010), fast_cfg());
        serve(&scope, 1.0, 100, 0.5);
        obs.tick(1.0);
        let text = obs.prometheus_text();
        for needle in [
            "metis_observer_ticks_total 1",
            "metis_tenant_burn_rate{tenant=\"gold\",window=\"fast\"}",
            "metis_tenant_slo_firing{tenant=\"gold\",kind=\"fast_burn\"} 1",
            "metis_scope_served_total{scenario=\"s\",shard=\"0\",tenant=\"gold\"} 100",
            "# TYPE metis_tenant_burn_rate gauge",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
