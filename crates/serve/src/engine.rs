//! The request engine: one micro-batcher, driven inline on a virtual
//! clock or by a thread on the real clock, executing striped compiled-tree
//! batches on the shared worker pool.
//!
//! A `Batcher` is a state machine over one open batch and owns no thread
//! and no queue. It has three operations:
//!
//! * `offer` appends a request's feature row to the open batch's row
//!   arena (opening a batch if none is open) and closes the batch once it
//!   holds `max_batch` requests;
//! * `flush` closes the open batch now;
//! * `close` flushes and returns the engine's lifetime log.
//!
//! Which code drives it is chosen by the server's [`Clock`]:
//!
//! * **Virtual clock** ([`TreeServer::start_clocked`] with
//!   [`Clock::virtual_at`]): no thread at all. [`ServerHandle::submit`]
//!   offers the request inline under the server's lock,
//!   [`ServerHandle::collect`] flushes and takes the answers already
//!   delivered to the handle, and [`TreeServer::shutdown`] closes. There
//!   is no wall deadline: a batch closes on size, a collect, or shutdown,
//!   so batch composition is a function of submission order alone, and a
//!   request's latency is the batch's virtual close time (its latest
//!   submit stamp) minus the request's own submit stamp — a pure function
//!   of the event schedule. That is what lets `metis_sim` run millions of
//!   virtual sessions through this exact hot path with bit-identical
//!   reports for any thread count.
//! * **Real clock** ([`TreeServer::start`]): one batcher thread receives
//!   requests from an unbounded MPSC queue, offers each, and flushes when
//!   `max_delay` has elapsed since the batch opened — the classic
//!   size-or-deadline micro-batching rule, with wall-time stamps.
//!
//! Each flush:
//!
//! 1. pins the live model epoch ([`crate::ModelRegistry::current`]) — a
//!    concurrent hot swap never retroactively changes a dispatched batch,
//! 2. walks the batch's row arena through the epoch's
//!    [`crate::ServedModel`] — a single lane-vectorized compiled tree or a
//!    block-major [`metis_dt::Forest`] ensemble — into a scratch buffer
//!    reused across flushes ([`crate::ServedModel::predict_batch_into`]),
//!    striping row chunks across
//!    [`metis_nn::par::parallel_map_indexed`] under the engine's
//!    **dedicated pool group** (so serving shares the process-wide pool
//!    fairly with concurrently running conversion pipelines),
//! 3. answers every request with its prediction, the serving epoch, and
//!    its measured queue+service latency — latency is additionally
//!    bucketed by the serving model's ensemble width, so a registry that
//!    hot-swaps between tree and forest epochs reports each shape's
//!    percentiles separately ([`EngineReport::per_width`]).
//!
//! Results are merged by row index, so every response is bit-identical to
//! the sequential oracle on the reported epoch's source trees (single
//! `DecisionTree::predict`, or the forest's majority vote) for any batch
//! size, deadline, thread count, or swap interleaving.

use crate::clock::Clock;
use crate::latency::{LatencyRecorder, LatencySummary};
use crate::registry::ModelRegistry;
use metis_dt::Prediction;
use metis_telemetry::{FlushStamps, ShardTelemetry};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching and execution knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// Flush an incomplete batch this long after it opened (real clock
    /// only; a virtual clock has no wall deadline).
    pub max_delay: Duration,
    /// Worker threads a flush stripes across (0 = all cores). Results are
    /// identical for any value.
    pub threads: usize,
    /// Rows per pool stripe chunk; batches at or below this size execute
    /// inline on the flushing thread.
    pub stripe_rows: usize,
    /// Pool scheduling group this server's flushes submit under. `None`
    /// (the default) reserves a fresh group per batcher, making the
    /// server its own fairness tenant; the fabric's shards pass explicit
    /// groups so related batchers can share or split tenancy as the
    /// tenant map dictates. Never affects results.
    pub group: Option<u64>,
    /// Deadline class of this server's pool submissions (lower = more
    /// urgent; see [`metis_nn::par::with_deadline_class`]). The fabric
    /// maps per-tenant SLO tiers onto this. Never affects results.
    pub deadline_class: u8,
    /// Live telemetry scope this engine reports into (`None`, the
    /// default, disables instrumentation — the hot path then pays one
    /// `Option` test per site and reads no clocks for telemetry).
    /// Under a virtual clock every stamp the engine feeds the scope is
    /// derived from submit stamps, never from a live clock read, so the
    /// scope's digest is bit-identical across thread counts.
    pub telemetry: Option<Arc<ShardTelemetry>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 256,
            max_delay: Duration::from_micros(500),
            threads: 0,
            stripe_rows: 64,
            group: None,
            deadline_class: 0,
            telemetry: None,
        }
    }
}

/// One request on the real-clock batcher thread's queue. `submitted` is
/// a [`Clock`] reading (seconds).
pub struct Request {
    pub id: u64,
    pub features: Vec<f64>,
    submitted: f64,
    reply: Sender<Response>,
}

/// The engine's answer to one [`Request`].
#[derive(Debug, Clone)]
pub struct Response {
    /// Id the submitting [`ServerHandle`] assigned.
    pub id: u64,
    /// Bit-identical to `DecisionTree::predict` on the epoch's source tree.
    pub prediction: Prediction,
    /// Model epoch that served this request.
    pub epoch: u64,
    /// Queue wait + batching delay + service time, in seconds.
    pub latency_s: f64,
    /// Size of the micro-batch this request was flushed in.
    pub batch_size: usize,
}

enum Msg {
    Req(Request),
    Shutdown,
}

/// What a batcher accumulated over its lifetime.
#[derive(Default)]
struct EngineLog {
    latency: LatencyRecorder,
    served: u64,
    batches: u64,
    delivery_failures: u64,
    max_batch_seen: usize,
    per_epoch: BTreeMap<u64, u64>,
    /// Latency samples bucketed by the serving model's ensemble width
    /// (1 = single tree, k = k-tree forest).
    per_width: BTreeMap<usize, LatencyRecorder>,
}

impl EngineLog {
    fn into_report(self) -> EngineReport {
        let batches = self.batches.max(1);
        EngineReport {
            served: self.served,
            batches: self.batches,
            delivery_failures: self.delivery_failures,
            max_batch_seen: self.max_batch_seen,
            mean_batch: self.served as f64 / batches as f64,
            latency: self.latency.summary(),
            recorder: self.latency,
            per_epoch: self.per_epoch.into_iter().collect(),
            per_width: self
                .per_width
                .into_iter()
                .map(|(w, rec)| (w, rec.summary()))
                .collect(),
        }
    }
}

/// Prediction and latency buffers a batcher reuses across flushes, so the
/// steady-state flush path allocates nothing per batch.
#[derive(Default)]
struct FlushScratch {
    predictions: Vec<Prediction>,
    /// Per-request latency / queue-wait of the batch in flight, staged
    /// here so telemetry records them in one amortized pass before any
    /// response is delivered.
    latencies: Vec<f64>,
    queue_waits: Vec<f64>,
}

/// A request in the open batch; its feature row sits at the same index
/// of the batch's row arena.
struct Pending<R> {
    id: u64,
    submitted: f64,
    reply: R,
}

/// The micro-batcher state machine shared by both drivers. `R` is where
/// an answer goes: a handle's inbox index inline, a reply channel on the
/// batcher thread. Every operation that can close a batch takes a
/// `deliver` callback that hands one answer to its reply target and
/// reports whether it arrived.
struct Batcher<R> {
    registry: Arc<ModelRegistry>,
    cfg: ServeConfig,
    group: u64,
    clock: Arc<Clock>,
    log: EngineLog,
    scratch: FlushScratch,
    /// The open batch (empty = none open)…
    open: Vec<Pending<R>>,
    /// …and its feature rows, row-major; the capacity survives flushes.
    rows: Vec<f64>,
    /// Wall stamp of the batch opening (real clock + telemetry only).
    wall_open_s: Option<f64>,
}

impl<R> Batcher<R> {
    fn new(registry: Arc<ModelRegistry>, cfg: ServeConfig, clock: Arc<Clock>) -> Self {
        // Pool submissions carry this server's group (its own fresh one by
        // default), so the pool's scheduler treats the serving path as one
        // tenant — or as part of a shared tenant when the config says so.
        let group = cfg.group.unwrap_or_else(metis_nn::par::fresh_group);
        Batcher {
            registry,
            cfg,
            group,
            clock,
            log: EngineLog::default(),
            scratch: FlushScratch::default(),
            open: Vec::new(),
            rows: Vec::new(),
            wall_open_s: None,
        }
    }

    fn is_open(&self) -> bool {
        !self.open.is_empty()
    }

    /// Append one request to the open batch, opening one if none is open,
    /// and close the batch once it holds `max_batch` requests.
    fn offer(
        &mut self,
        id: u64,
        features: &[f64],
        submitted: f64,
        reply: R,
        deliver: impl FnMut(R, Response) -> bool,
    ) {
        if self.open.is_empty() {
            if let Some(scope) = self.cfg.telemetry.as_deref() {
                scope.on_batch_open();
                // Only read under a real clock — virtual stamps derive
                // from the batch's submit stamps in `flush`, never from a
                // live read.
                self.wall_open_s = (!self.clock.is_virtual()).then(|| self.clock.now_s());
            }
        }
        self.rows.extend_from_slice(features);
        self.open.push(Pending {
            id,
            submitted,
            reply,
        });
        if self.open.len() >= self.cfg.max_batch {
            self.flush(deliver);
        }
    }

    /// Close the open batch now (a no-op when none is open): run it
    /// through the live epoch's model, account for it, and deliver every
    /// answer.
    fn flush(&mut self, mut deliver: impl FnMut(R, Response) -> bool) {
        let n = self.open.len();
        if n == 0 {
            return;
        }
        let clock = &*self.clock;
        // Virtual-clock latency must not read the clock here: concurrent
        // drivers may have pushed the high-water mark past this batch's
        // events, and a racy read would leak host scheduling into the
        // report. The batch closes at its **latest submit stamp** — a pure
        // function of the event schedule — so latency_i = close - stamp_i,
        // the virtual batching delay.
        let virtual_close_s = clock
            .is_virtual()
            .then(|| self.open.iter().map(|p| p.submitted).fold(0.0, f64::max));
        // Telemetry stamps follow the same discipline: under a virtual clock
        // the batch "opens" at its earliest submit stamp and the kernel/close
        // stamps collapse onto the batch close — all pure functions of the
        // schedule, so the span stream digests identically for any thread
        // count. Under a real clock they are wall reads around the work.
        let scope = self.cfg.telemetry.as_deref();
        let open_s = scope.map(|_| match virtual_close_s {
            Some(_) => self
                .open
                .iter()
                .map(|p| p.submitted)
                .fold(f64::INFINITY, f64::min),
            None => self.wall_open_s.unwrap_or_else(|| clock.now_s()),
        });
        if let Some(scope) = scope {
            // One balance update per batch, not one RMW per request —
            // the gauge is monitoring-only, never digested.
            scope.queue_depth.add(-(n as i64));
        }
        // Pin the epoch for the whole batch: in-flight work finishes on the
        // model it started with even if a publish lands mid-execution.
        let epoch_model = self.registry.current();
        let model = &epoch_model.model;
        let n_features = model.n_features();
        // Unreachable for well-typed use: submit() validates width and
        // publish() keeps it invariant across epochs.
        debug_assert_eq!(self.rows.len(), n * n_features);
        let chunks = n.div_ceil(self.cfg.stripe_rows);
        let kernel_start_s = scope.map(|_| virtual_close_s.unwrap_or_else(|| clock.now_s()));
        let scratch = &mut self.scratch;
        scratch.predictions.clear();
        if chunks <= 1 {
            // The steady-state micro-batch path: evaluate straight into the
            // reused scratch buffer — no allocation per flush.
            scratch.predictions.resize(n, Prediction::Class(0));
            model.predict_batch_into(&self.rows, &mut scratch.predictions);
        } else {
            // Contiguous row chunks across the pool, merged in chunk order —
            // identical to the single-chunk walk for any thread count. The
            // deadline class steers which tenant's chunks the pool's helpers
            // pick up first under contention; it never touches results.
            let (rows, cfg) = (&self.rows, &self.cfg);
            let chunked = metis_nn::par::with_deadline_class(cfg.deadline_class, || {
                metis_nn::par::with_group(self.group, || {
                    metis_nn::par::parallel_map_indexed(chunks, cfg.threads, |c| {
                        let lo = c * cfg.stripe_rows;
                        let hi = ((c + 1) * cfg.stripe_rows).min(n);
                        model.predict_batch(&rows[lo * n_features..hi * n_features])
                    })
                })
            });
            for chunk in chunked {
                scratch.predictions.extend_from_slice(&chunk);
            }
        }
        let kernel_end_s = scope.map(|_| virtual_close_s.unwrap_or_else(|| clock.now_s()));
        // One completion stamp per batch: the exact recorder, the
        // per-width recorders and the telemetry sketch all see the same
        // close, on either clock.
        let close_s = virtual_close_s.unwrap_or_else(|| clock.now_s());
        let log = &mut self.log;
        log.batches += 1;
        log.max_batch_seen = log.max_batch_seen.max(n);
        *log.per_epoch.entry(epoch_model.epoch).or_insert(0) += n as u64;
        log.served += n as u64;
        // Accounting pass: stamp every request and stage its latency (and,
        // with telemetry on, queue-wait) before anything is delivered.
        let width_latency = log.per_width.entry(model.n_trees()).or_default();
        scratch.latencies.clear();
        scratch.queue_waits.clear();
        for p in &self.open {
            let latency_s = log.latency.record_span(p.submitted, close_s);
            width_latency.record(latency_s);
            scratch.latencies.push(latency_s);
            if scope.is_some() {
                // Queue-wait = submit → kernel start: everything before the
                // model ran (ingest wait + batch formation).
                scratch
                    .queue_waits
                    .push((kernel_start_s.unwrap_or(close_s) - p.submitted).max(0.0));
            }
        }
        // Record ALL the batch's telemetry (spans, flush event, served
        // counters, request sketches) BEFORE delivering any response: a
        // driver that has drained a wave must observe a quiescent scope,
        // otherwise the digest races the tail of the flush and drifts
        // across thread counts.
        if let Some(scope) = scope {
            scope.record_flush(&FlushStamps {
                open_s: open_s.unwrap_or(close_s),
                kernel_start_s: kernel_start_s.unwrap_or(close_s),
                kernel_end_s: kernel_end_s.unwrap_or(close_s),
                close_s,
                rows: n,
                epoch: epoch_model.epoch,
                width: model.n_trees(),
            });
            scope.on_requests(close_s, &scratch.latencies, &scratch.queue_waits);
        }
        for ((p, &prediction), &latency_s) in self
            .open
            .drain(..)
            .zip(scratch.predictions.iter())
            .zip(scratch.latencies.iter())
        {
            let response = Response {
                id: p.id,
                prediction,
                epoch: epoch_model.epoch,
                latency_s,
                batch_size: n,
            };
            if !deliver(p.reply, response) {
                log.delivery_failures += 1;
            }
        }
        self.rows.clear();
    }

    /// Flush whatever is open and hand back the lifetime log.
    fn close(mut self, deliver: impl FnMut(R, Response) -> bool) -> EngineLog {
        self.flush(deliver);
        self.log
    }
}

/// The virtual-clock driver's state, shared by the server and its
/// handles: the batcher (taken by shutdown) and one answer inbox per
/// handle ever minted (`None` once that handle is dropped).
struct Inline {
    batcher: Option<Batcher<usize>>,
    inboxes: Vec<Option<Vec<Response>>>,
}

/// The inline driver's `deliver`: push the answer into its handle's
/// inbox, failing when the handle is gone.
fn deliver_to(inboxes: &mut [Option<Vec<Response>>]) -> impl FnMut(usize, Response) -> bool + '_ {
    move |inbox, response| match &mut inboxes[inbox] {
        Some(answers) => {
            answers.push(response);
            true
        }
        None => false,
    }
}

/// The real-clock driver's `deliver`.
fn send_reply(reply: Sender<Response>, response: Response) -> bool {
    reply.send(response).is_ok()
}

/// How a handle reaches its server's batcher.
enum Ingest {
    /// Virtual clock: the batcher itself, driven on the caller's thread,
    /// and this handle's inbox in it.
    Inline {
        shared: Arc<Mutex<Inline>>,
        inbox: usize,
    },
    /// Real clock: the batcher thread's queue and this handle's reply
    /// channel.
    Thread {
        tx: Sender<Msg>,
        reply_tx: Sender<Response>,
        reply_rx: Receiver<Response>,
    },
}

/// Lifetime summary of one [`TreeServer`], returned by
/// [`TreeServer::shutdown`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EngineReport {
    /// Requests answered (predictions computed and sent).
    pub served: u64,
    /// Micro-batches flushed.
    pub batches: u64,
    /// Responses whose submitter had already dropped its handle.
    pub delivery_failures: u64,
    /// Largest micro-batch flushed.
    pub max_batch_seen: usize,
    /// Mean flushed batch size.
    pub mean_batch: f64,
    /// Percentile summary over every served request's latency.
    pub latency: LatencySummary,
    /// The raw per-request latency samples behind [`EngineReport::latency`]
    /// — the fabric merges these across shards for exact per-scenario and
    /// per-tenant percentiles ([`LatencyRecorder::merge`]).
    pub recorder: LatencyRecorder,
    /// `(epoch, requests served from it)`, ascending by epoch.
    pub per_epoch: Vec<(u64, u64)>,
    /// `(ensemble width, latency summary of requests served at that
    /// width)`, ascending by width — separates single-tree epochs from
    /// k-tree forest epochs when a registry hot-swaps between shapes.
    pub per_width: Vec<(usize, LatencySummary)>,
}

/// A per-client submission handle. Submit open-loop with
/// [`ServerHandle::submit`]; gather everything outstanding with
/// [`ServerHandle::collect`]. Handles are independent — one per client
/// thread.
pub struct ServerHandle {
    ingest: Ingest,
    next_id: u64,
    outstanding: usize,
    n_features: usize,
    clock: Arc<Clock>,
    telemetry: Option<Arc<ShardTelemetry>>,
}

impl ServerHandle {
    /// Feature width every request must carry (invariant across hot
    /// swaps — the registry rejects trees with a different schema).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The clock this handle stamps submissions with — the server's own.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Submit one request and return its (per-handle) id. Never waits on
    /// other requests: a real-clock server queues it for the batcher
    /// thread, a virtual-clock server appends it to the open batch here,
    /// flushing that batch inline if it just filled. A malformed request
    /// panics **here**, in the submitting client's thread — the batcher
    /// never sees it, so one bad client cannot take the engine down for
    /// its neighbours.
    pub fn submit(&mut self, features: Vec<f64>) -> u64 {
        assert_eq!(
            features.len(),
            self.n_features,
            "submit: request has {} features, the server's models take {}",
            features.len(),
            self.n_features
        );
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding += 1;
        if let Some(scope) = &self.telemetry {
            scope.queue_depth.inc();
        }
        let submitted = self.clock.now_s();
        match &self.ingest {
            Ingest::Inline { shared, inbox } => {
                let mut state = shared
                    .lock()
                    .expect("TreeServer state poisoned by a panicked flush");
                let Inline { batcher, inboxes } = &mut *state;
                batcher
                    .as_mut()
                    .expect("TreeServer shut down while submitting")
                    .offer(id, &features, submitted, *inbox, deliver_to(inboxes));
            }
            Ingest::Thread { tx, reply_tx, .. } => tx
                .send(Msg::Req(Request {
                    id,
                    features,
                    submitted,
                    reply: reply_tx.clone(),
                }))
                .expect("TreeServer ingest queue closed while submitting"),
        }
        id
    }

    /// Requests submitted through this handle that have not been collected.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Block until every outstanding request is answered; returns the
    /// responses **sorted by id** (deterministic regardless of batching).
    ///
    /// On a virtual-clock server there is no deadline, so collecting
    /// closes the open batch itself — the one every handle of the server
    /// shares — and then takes this handle's answers, which are already
    /// delivered. On the real clock the deadline does the closing and
    /// this waits for the answers to arrive.
    pub fn collect(&mut self) -> Vec<Response> {
        if self.outstanding == 0 {
            return Vec::new();
        }
        let mut out = match &self.ingest {
            Ingest::Inline { shared, inbox } => {
                let mut state = shared
                    .lock()
                    .expect("TreeServer state poisoned by a panicked flush");
                let Inline { batcher, inboxes } = &mut *state;
                if let Some(batcher) = batcher {
                    batcher.flush(deliver_to(inboxes));
                }
                let answers = inboxes[*inbox]
                    .as_mut()
                    .expect("a live handle's inbox is open");
                // Keep a buffer of this wave's size for the next one.
                let next = Vec::with_capacity(answers.len());
                std::mem::replace(answers, next)
            }
            Ingest::Thread { reply_rx, .. } => (0..self.outstanding)
                .map(|_| {
                    reply_rx
                        .recv()
                        .expect("TreeServer dropped with requests in flight")
                })
                .collect(),
        };
        assert_eq!(
            out.len(),
            self.outstanding,
            "collect: the server answered {} of {} outstanding requests",
            out.len(),
            self.outstanding
        );
        self.outstanding = 0;
        out.sort_by_key(|r| r.id);
        out
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Answers owed to a dropped handle count as delivery failures,
        // as a dropped reply channel does on the real clock. A poisoned
        // lock is left alone: drop must not panic.
        if let Ingest::Inline { shared, inbox } = &self.ingest {
            if let Ok(mut state) = shared.lock() {
                state.inboxes[*inbox] = None;
            }
        }
    }
}

/// How a server runs its batcher: chosen by the clock kind.
enum Driver {
    /// Virtual clock: no thread; handles drive the batcher inline.
    Inline(Arc<Mutex<Inline>>),
    /// Real clock: a batcher thread behind an MPSC queue.
    Thread {
        tx: Sender<Msg>,
        thread: JoinHandle<EngineLog>,
    },
}

/// The serving engine: spawn with [`TreeServer::start`], mint client
/// handles with [`TreeServer::handle`], stop with [`TreeServer::shutdown`].
pub struct TreeServer {
    driver: Driver,
    registry: Arc<ModelRegistry>,
    clock: Arc<Clock>,
    telemetry: Option<Arc<ShardTelemetry>>,
}

impl TreeServer {
    /// Start the batcher thread over a model registry, on the real clock.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServeConfig) -> Self {
        TreeServer::start_clocked(registry, cfg, Clock::real())
    }

    /// [`TreeServer::start`] on an explicit [`Clock`]. A virtual clock
    /// starts no thread: its handles drive the batcher inline, batches
    /// close on size or an explicit collect (see
    /// [`ServerHandle::collect`]), and every latency figure is a
    /// deterministic virtual-time span.
    pub fn start_clocked(
        registry: Arc<ModelRegistry>,
        cfg: ServeConfig,
        clock: Arc<Clock>,
    ) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.stripe_rows >= 1, "stripe_rows must be at least 1");
        let telemetry = cfg.telemetry.clone();
        let (reg, batcher_clock) = (Arc::clone(&registry), Arc::clone(&clock));
        // Virtual time has no deadline to wait out, so nothing needs a
        // thread of its own: the caller drives the batcher directly.
        let driver = if clock.is_virtual() {
            Driver::Inline(Arc::new(Mutex::new(Inline {
                batcher: Some(Batcher::new(reg, cfg, batcher_clock)),
                inboxes: Vec::new(),
            })))
        } else {
            let (tx, rx) = channel();
            let batcher = Batcher::new(reg, cfg, batcher_clock);
            let thread = std::thread::Builder::new()
                .name("metis-serve-batcher".into())
                .spawn(move || batcher_loop(rx, batcher))
                .expect("spawn serve batcher");
            Driver::Thread { tx, thread }
        };
        TreeServer {
            driver,
            registry,
            clock,
            telemetry,
        }
    }

    /// The registry this server reads — publish to it to hot-swap.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The clock this server stamps and flushes on.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Mint an independent client handle.
    pub fn handle(&self) -> ServerHandle {
        let ingest = match &self.driver {
            Driver::Inline(shared) => {
                let mut state = shared
                    .lock()
                    .expect("TreeServer state poisoned by a panicked flush");
                state.inboxes.push(Some(Vec::new()));
                Ingest::Inline {
                    shared: Arc::clone(shared),
                    inbox: state.inboxes.len() - 1,
                }
            }
            Driver::Thread { tx, .. } => {
                let (reply_tx, reply_rx) = channel();
                Ingest::Thread {
                    tx: tx.clone(),
                    reply_tx,
                    reply_rx,
                }
            }
        };
        ServerHandle {
            ingest,
            next_id: 0,
            outstanding: 0,
            n_features: self.registry.n_features(),
            clock: Arc::clone(&self.clock),
            telemetry: self.telemetry.clone(),
        }
    }

    /// Stop the engine: every submitted request is answered (zero drops
    /// for clients that finished submitting), then its lifetime report
    /// is returned. A virtual-clock server flushes its open batch; a
    /// real-clock server drains its queue and joins the batcher thread.
    pub fn shutdown(self) -> EngineReport {
        let log = match self.driver {
            Driver::Inline(shared) => {
                let mut state = shared
                    .lock()
                    .expect("TreeServer state poisoned by a panicked flush");
                let Inline { batcher, inboxes } = &mut *state;
                batcher
                    .take()
                    .expect("shutdown takes the batcher once")
                    .close(deliver_to(inboxes))
            }
            Driver::Thread { tx, thread } => {
                let _ = tx.send(Msg::Shutdown);
                thread.join().expect("serve batcher panicked")
            }
        };
        log.into_report()
    }
}

/// The real-clock driver: block for the request that opens a batch, offer
/// every request that arrives before the batch fills or `max_delay` has
/// passed since it opened, then flush.
fn batcher_loop(rx: Receiver<Msg>, mut batcher: Batcher<Sender<Response>>) -> EngineLog {
    // Each request's feature `Vec` lives in `held` until its batch is
    // answered. Freeing it on this thread as soon as its row is copied,
    // while the submitting thread allocates the next one, contends in the
    // allocator: it cost ~10% of burst capacity on a 2-core host.
    let mut held: Vec<Vec<f64>> = Vec::new();
    let offer = |batcher: &mut Batcher<Sender<Response>>, held: &mut Vec<Vec<f64>>, r: Request| {
        batcher.offer(r.id, &r.features, r.submitted, r.reply, send_reply);
        held.push(r.features);
    };
    let max_delay = batcher.cfg.max_delay;
    'serve: loop {
        // Block indefinitely for the first request — an idle server costs
        // nothing.
        match rx.recv() {
            Ok(Msg::Req(r)) => offer(&mut batcher, &mut held, r),
            // Shutdown can land exactly on a batch boundary: break into
            // the drain below rather than exiting — requests queued
            // behind the marker must still be answered.
            Ok(Msg::Shutdown) | Err(_) => break,
        }
        let deadline = Instant::now() + max_delay;
        // A batch that fills closes inside `offer`, ending this loop.
        while batcher.is_open() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(Msg::Req(r)) => offer(&mut batcher, &mut held, r),
                Err(RecvTimeoutError::Timeout) => break,
                Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                    batcher.flush(send_reply);
                    break 'serve;
                }
            }
        }
        batcher.flush(send_reply);
        held.clear();
    }
    // Shutdown drain: answer everything still queued so no
    // already-submitted request is dropped, whichever path saw the
    // marker. Extra shutdown markers mid-queue (a fabric broadcasting
    // shutdown to shards, or two owners racing) must not truncate the
    // drain: skip markers, keep draining until the queue is empty.
    let rest: Vec<Request> = rx
        .try_iter()
        .filter_map(|msg| match msg {
            Msg::Req(r) => Some(r),
            Msg::Shutdown => None,
        })
        .collect();
    if !rest.is_empty() {
        if let Some(scope) = batcher.cfg.telemetry.as_deref() {
            scope.on_drain(batcher.clock.now_s(), rest.len());
        }
        for r in rest {
            offer(&mut batcher, &mut held, r);
        }
    }
    batcher.close(send_reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_dt::{fit, Dataset, DecisionTree, TreeConfig};

    fn staircase_tree(n_classes: usize) -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![i as f64 / 120.0, (i % 7) as f64])
            .collect();
        let y: Vec<usize> = (0..120).map(|i| i * n_classes / 120).collect();
        let ds = Dataset::classification(x, y, n_classes).unwrap();
        fit(
            &ds,
            &TreeConfig {
                max_leaf_nodes: 16,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn req_features(k: u64) -> Vec<f64> {
        vec![(k % 120) as f64 / 120.0, (k % 7) as f64]
    }

    #[test]
    fn responses_match_sequential_oracle_and_ids() {
        let tree = staircase_tree(6);
        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(2),
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..50u64 {
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 50);
        for (k, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, k as u64, "collect sorts by id");
            assert_eq!(resp.epoch, 0);
            assert_eq!(resp.prediction, tree.predict(&req_features(k as u64)));
            assert!(resp.latency_s >= 0.0 && resp.batch_size >= 1 && resp.batch_size <= 8);
        }
        let report = server.shutdown();
        assert_eq!(report.served, 50);
        assert_eq!(report.delivery_failures, 0);
        assert!(report.max_batch_seen <= 8);
        assert_eq!(report.per_epoch, vec![(0, 50)]);
        assert_eq!(report.latency.count, 50);
    }

    #[test]
    fn batch_one_flushes_immediately_and_deadline_flushes_partials() {
        let tree = staircase_tree(3);
        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree)),
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_secs(10), // never the trigger
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..5 {
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        assert!(responses.iter().all(|r| r.batch_size == 1));
        let report = server.shutdown();
        assert_eq!(report.batches, 5);
        assert!((report.mean_batch - 1.0).abs() < 1e-12);
    }

    /// On a virtual clock the deadline never fires (max_delay 10s would
    /// hang the collect if it were consulted): the open batch closes on
    /// the collect's explicit flush, and every latency is exactly the
    /// batch's latest virtual stamp minus the request's own — a pure
    /// function of the advance_to schedule.
    #[test]
    fn virtual_clock_server_flushes_on_collect_with_schedule_pure_latency() {
        let tree = staircase_tree(4);
        let clock = Clock::virtual_at(0.0);
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(10), // must never be the trigger
                ..Default::default()
            },
            Arc::clone(&clock),
        );
        assert!(
            matches!(server.driver, Driver::Inline(_)),
            "a virtual-clock server starts no batcher thread"
        );
        let mut handle = server.handle();
        for k in 0..5u64 {
            handle.submit(req_features(k)); // stamped 0.0
        }
        clock.advance_to(2.5);
        for k in 5..9u64 {
            handle.submit(req_features(k)); // stamped 2.5
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 9);
        for resp in &responses {
            assert_eq!(resp.prediction, tree.predict(&req_features(resp.id)));
            assert_eq!(resp.batch_size, 9, "one explicit flush closes everything");
            let expect = if resp.id < 5 { 2.5 } else { 0.0 };
            assert_eq!(resp.latency_s, expect, "close(2.5) - own stamp, exactly");
        }
        let report = server.shutdown();
        assert_eq!(report.batches, 1);
        assert_eq!(report.served, 9);
        assert_eq!(report.latency.max_s, 2.5);
    }

    fn virtual_server(tree: DecisionTree, max_batch: usize, clock: &Arc<Clock>) -> TreeServer {
        TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree)),
            ServeConfig {
                max_batch,
                max_delay: Duration::from_secs(10), // never consulted
                ..Default::default()
            },
            Arc::clone(clock),
        )
    }

    /// Inline on a virtual clock, the submit that fills `max_batch`
    /// flushes that batch before it returns; the remainder waits for the
    /// collect. Each batch closes at its own latest submit stamp.
    #[test]
    fn inline_submit_flushes_a_full_batch_and_collect_closes_the_rest() {
        let tree = staircase_tree(4);
        let clock = Clock::virtual_at(0.0);
        let server = virtual_server(tree.clone(), 4, &clock);
        let mut handle = server.handle();
        // Batch 1: stamps 0.0, 0.5, 1.0, 1.5 — full, closes at 1.5.
        for k in 0..4u64 {
            clock.advance_to(k as f64 * 0.5);
            handle.submit(req_features(k));
        }
        {
            let Ingest::Inline { shared, inbox } = &handle.ingest else {
                panic!("virtual clock drives the batcher inline");
            };
            let state = shared.lock().unwrap();
            assert_eq!(
                state.inboxes[*inbox].as_ref().unwrap().len(),
                4,
                "the filling submit delivered the batch"
            );
            assert!(!state.batcher.as_ref().unwrap().is_open());
        }
        // Batch 2: stamps 2.0, 3.0, 3.0 — closed by the collect at 3.0.
        for (k, t) in [(4u64, 2.0), (5, 3.0), (6, 3.0)] {
            clock.advance_to(t);
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        let sizes: Vec<usize> = responses.iter().map(|r| r.batch_size).collect();
        assert_eq!(sizes, vec![4, 4, 4, 4, 3, 3, 3]);
        let latencies: Vec<f64> = responses.iter().map(|r| r.latency_s).collect();
        assert_eq!(latencies, vec![1.5, 1.0, 0.5, 0.0, 1.0, 0.0, 0.0]);
        for resp in &responses {
            assert_eq!(resp.prediction, tree.predict(&req_features(resp.id)));
        }
        let report = server.shutdown();
        assert_eq!(report.batches, 2);
        assert_eq!(report.max_batch_seen, 4);
        assert_eq!(report.served, 7);
    }

    /// Two handles share one open batch: the first collect closes it for
    /// both, and the second collect finds its answers already delivered
    /// without flushing again.
    #[test]
    fn one_collect_closes_the_batch_every_handle_shares() {
        let tree = staircase_tree(4);
        let clock = Clock::virtual_at(0.0);
        let server = virtual_server(tree.clone(), 64, &clock);
        let (mut a, mut b) = (server.handle(), server.handle());
        for k in 0..5u64 {
            if k % 2 == 0 {
                b.submit(req_features(k));
            } else {
                a.submit(req_features(k));
            }
        }
        let from_a = a.collect();
        assert_eq!(from_a.len(), 2);
        assert!(from_a.iter().all(|r| r.batch_size == 5));
        let from_b = b.collect();
        assert_eq!(from_b.len(), 3);
        assert!(from_b.iter().all(|r| r.batch_size == 5));
        let ids: Vec<u64> = from_b.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2], "per-handle ids, sorted");
        for (resp, k) in from_b.iter().zip([0u64, 2, 4]) {
            assert_eq!(resp.prediction, tree.predict(&req_features(k)));
        }
        drop((a, b));
        let report = server.shutdown();
        assert_eq!(report.batches, 1, "b's collect must not flush again");
        assert_eq!(report.served, 5);
    }

    /// Shutdown answers every request submitted inline, collected or not;
    /// the handle can still collect them afterwards.
    #[test]
    fn inline_shutdown_answers_uncollected_requests() {
        let tree = staircase_tree(4);
        let clock = Clock::virtual_at(0.0);
        let server = virtual_server(tree.clone(), 4, &clock);
        let mut handle = server.handle();
        for k in 0..10u64 {
            handle.submit(req_features(k));
        }
        let report = server.shutdown();
        assert_eq!(report.served, 10);
        assert_eq!(
            report.batches, 3,
            "two full batches inline, one at shutdown"
        );
        assert_eq!(report.delivery_failures, 0);
        let responses = handle.collect();
        assert_eq!(responses.len(), 10);
        for resp in &responses {
            assert_eq!(resp.prediction, tree.predict(&req_features(resp.id)));
        }
    }

    /// An inline handle dropped with requests in the open batch: its
    /// answers count as delivery failures, as a dropped reply channel's
    /// do on the real clock.
    #[test]
    fn dropped_inline_handle_counts_delivery_failures() {
        let clock = Clock::virtual_at(0.0);
        let server = virtual_server(staircase_tree(4), 64, &clock);
        let mut kept = server.handle();
        let mut dropped = server.handle();
        kept.submit(req_features(0));
        dropped.submit(req_features(1));
        dropped.submit(req_features(2));
        drop(dropped);
        assert_eq!(kept.collect().len(), 1);
        let report = server.shutdown();
        assert_eq!(report.served, 3);
        assert_eq!(report.delivery_failures, 2);
    }

    /// Virtual-clock telemetry stamps are pure functions of the submit
    /// schedule: batch-form spans min→max submit stamp, kernel/collect
    /// collapse onto the close, and the admission event carries the
    /// batch's deterministic composition.
    #[test]
    fn virtual_clock_telemetry_is_schedule_pure() {
        use metis_telemetry::{Stage, Telemetry};
        let tree = staircase_tree(4);
        let clock = Clock::virtual_at(0.0);
        let telemetry = Telemetry::enabled();
        let scope = telemetry.register("abr", 0, "gold").unwrap();
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree)),
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(10),
                telemetry: Some(Arc::clone(&scope)),
                ..Default::default()
            },
            Arc::clone(&clock),
        );
        let mut handle = server.handle();
        for k in 0..5u64 {
            handle.submit(req_features(k)); // stamped 0.0
        }
        clock.advance_to(2.5);
        for k in 5..9u64 {
            handle.submit(req_features(k)); // stamped 2.5
        }
        handle.collect();
        server.shutdown();
        assert_eq!(scope.served.get(), 9);
        assert_eq!(scope.batches.get(), 1);
        assert_eq!(scope.queue_depth.get(), 0, "submits all consumed");
        assert_eq!(scope.inflight_batches.get(), 0);
        assert_eq!(scope.served_per_epoch(), vec![(0, 9)]);
        let spans = scope.spans.records();
        assert_eq!(spans.len(), 3, "batch_form + kernel + collect");
        assert_eq!(spans[0].stage, Stage::BatchForm);
        assert_eq!(spans[0].start_s, 0.0, "opens at the earliest submit stamp");
        assert_eq!(spans[0].dur_s, 2.5, "forms until the latest submit stamp");
        for span in &spans[1..] {
            assert_eq!(span.start_s, 2.5, "kernel/collect collapse onto the close");
            assert_eq!(span.dur_s, 0.0);
            assert_eq!(span.rows, 9);
        }
        let events = scope.events.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind.name(), "admission");
        assert_eq!(events[0].time_s, 0.0);
        assert_eq!(events[1].kind.name(), "flush");
        assert_eq!(events[1].time_s, 2.5);
        assert_eq!(scope.latency.cumulative().count(), 9);
        assert_eq!(scope.stage_sketch(Stage::QueueWait).count(), 9);
    }

    #[test]
    fn shutdown_drains_queued_requests_zero_drops() {
        let tree = staircase_tree(4);
        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree)),
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(10),
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..200 {
            handle.submit(req_features(k));
        }
        // Shut down while most requests are still queued: all must answer.
        let report = std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let responses = handle.collect();
                assert_eq!(responses.len(), 200);
            });
            let report = server.shutdown();
            collector.join().unwrap();
            report
        });
        assert_eq!(report.served, 200);
        assert_eq!(report.delivery_failures, 0);
    }

    #[test]
    fn hot_swap_mid_stream_serves_each_epoch_consistently() {
        let t0 = staircase_tree(5);
        let t1 = staircase_tree(2);
        let registry = Arc::new(ModelRegistry::new(t0.clone()));
        let server = TreeServer::start(
            Arc::clone(&registry),
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..30 {
            handle.submit(req_features(k));
        }
        registry.publish(t1.clone());
        for k in 30..60 {
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 60);
        let sources = [t0, t1];
        let mut late_epoch_seen = false;
        for resp in &responses {
            let oracle = &sources[resp.epoch as usize];
            assert_eq!(
                resp.prediction,
                oracle.predict(&req_features(resp.id)),
                "epoch {} answer diverges from its own tree",
                resp.epoch
            );
            late_epoch_seen |= resp.epoch == 1;
        }
        // Requests submitted after the publish must see the new epoch
        // (the swap completed before they were enqueued).
        assert!(late_epoch_seen, "post-swap requests never saw epoch 1");
        assert!(responses[59].epoch == 1);
        let report = server.shutdown();
        assert_eq!(report.served, 60);
        assert_eq!(report.per_epoch.iter().map(|(_, c)| c).sum::<u64>(), 60);
    }

    /// An ensemble epoch served through the engine answers exactly like
    /// the offline `Forest` oracle, and a mid-stream swap from tree to
    /// forest buckets latency under both ensemble widths.
    #[test]
    fn forest_epochs_serve_majority_votes_and_bucket_latency_by_width() {
        let t0 = staircase_tree(5);
        // Same kind (5 classes), different shapes: vary the leaf budget.
        let members: Vec<DecisionTree> = [16usize, 8, 5]
            .iter()
            .map(|&leaves| {
                let x: Vec<Vec<f64>> = (0..120)
                    .map(|i| vec![i as f64 / 120.0, (i % 7) as f64])
                    .collect();
                let y: Vec<usize> = (0..120).map(|i| i * 5 / 120).collect();
                fit(
                    &Dataset::classification(x, y, 5).unwrap(),
                    &TreeConfig {
                        max_leaf_nodes: leaves,
                        ..Default::default()
                    },
                )
                .unwrap()
            })
            .collect();
        let ensemble = crate::ServedModel::from_trees(members.clone()).unwrap();
        let forest = metis_dt::Forest::from_trees(&members).unwrap();
        let registry = Arc::new(ModelRegistry::new(t0.clone()));
        let server = TreeServer::start(
            Arc::clone(&registry),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..25 {
            handle.submit(req_features(k));
        }
        registry.publish_model(ensemble);
        for k in 25..60 {
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 60);
        let mut forest_served = false;
        for resp in &responses {
            match resp.epoch {
                0 => assert_eq!(resp.prediction, t0.predict(&req_features(resp.id))),
                1 => {
                    assert_eq!(
                        resp.prediction,
                        forest.predict(&req_features(resp.id)),
                        "forest epoch answer diverges from the offline oracle"
                    );
                    forest_served = true;
                }
                e => panic!("unexpected epoch {e}"),
            }
        }
        assert!(forest_served, "post-swap requests never saw the ensemble");
        let report = server.shutdown();
        assert_eq!(report.served, 60);
        let widths: Vec<usize> = report.per_width.iter().map(|(w, _)| *w).collect();
        assert!(widths.contains(&3), "3-tree bucket missing: {widths:?}");
        assert_eq!(
            report
                .per_width
                .iter()
                .map(|(_, s)| s.count as u64)
                .sum::<u64>(),
            60,
            "width buckets must partition the served requests"
        );
    }

    #[test]
    #[should_panic(expected = "features")]
    fn malformed_submit_panics_in_the_client_not_the_batcher() {
        let tree = staircase_tree(3);
        let server = TreeServer::start(Arc::new(ModelRegistry::new(tree)), ServeConfig::default());
        let mut handle = server.handle();
        assert_eq!(handle.n_features(), 2);
        let _ = handle.submit(vec![0.5]); // wrong width: dies here
    }

    #[test]
    fn large_batches_stripe_across_the_pool_bit_identically() {
        let tree = staircase_tree(6);
        for threads in [1usize, 3] {
            let server = TreeServer::start(
                Arc::new(ModelRegistry::new(tree.clone())),
                ServeConfig {
                    max_batch: 512,
                    max_delay: Duration::from_millis(20),
                    threads,
                    stripe_rows: 16,
                    ..Default::default()
                },
            );
            let mut handle = server.handle();
            for k in 0..300 {
                handle.submit(req_features(k));
            }
            for resp in handle.collect() {
                assert_eq!(resp.prediction, tree.predict(&req_features(resp.id)));
            }
            server.shutdown();
        }
    }

    /// The drain-ordering audit: several servers sharing one pool group
    /// (fabric shards under a single tenant), all with deep queues, shut
    /// down while the others are still flushing. Every server must drain
    /// its own queue completely — shared-group ticketing may reorder
    /// helpers but can never starve a sibling's drain — and answers stay
    /// bit-identical throughout.
    #[test]
    fn shared_group_servers_drain_fully_on_shutdown() {
        let tree = staircase_tree(5);
        let group = metis_nn::par::fresh_group();
        let servers: Vec<TreeServer> = (0..3)
            .map(|_| {
                TreeServer::start(
                    Arc::new(ModelRegistry::new(tree.clone())),
                    ServeConfig {
                        max_batch: 32,
                        max_delay: Duration::from_secs(10), // drain path only
                        stripe_rows: 4,
                        group: Some(group),
                        ..Default::default()
                    },
                )
            })
            .collect();
        let mut handles: Vec<ServerHandle> = servers.iter().map(|s| s.handle()).collect();
        for (s, handle) in handles.iter_mut().enumerate() {
            for k in 0..150u64 {
                handle.submit(req_features(k.wrapping_add(s as u64 * 37)));
            }
        }
        // Shut all three down concurrently: each batcher flushes its
        // backlog through the shared group at the same time.
        std::thread::scope(|scope| {
            let collectors: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(s, mut handle)| {
                    let tree = &tree;
                    scope.spawn(move || {
                        let responses = handle.collect();
                        assert_eq!(responses.len(), 150, "server {s} dropped requests");
                        for resp in &responses {
                            assert_eq!(
                                resp.prediction,
                                tree.predict(&req_features(resp.id.wrapping_add(s as u64 * 37)))
                            );
                        }
                    })
                })
                .collect();
            for (s, server) in servers.into_iter().enumerate() {
                let report = server.shutdown();
                assert_eq!(report.served, 150, "server {s} under-served");
                assert_eq!(report.delivery_failures, 0);
            }
            for c in collectors {
                c.join().unwrap();
            }
        });
    }

    /// The drain-ordering regression this PR's audit found: a shutdown
    /// marker landing exactly on a batch boundary used to make the outer
    /// `recv` exit without draining, dropping every request queued behind
    /// the marker; a second marker mid-queue used to truncate the drain
    /// the same way. Pre-filling the queue before the batcher runs makes
    /// the interleaving deterministic.
    #[test]
    fn requests_behind_shutdown_markers_still_drain() {
        let tree = staircase_tree(4);
        let registry = Arc::new(ModelRegistry::new(tree.clone()));
        let (tx, rx) = channel();
        let (reply_tx, reply_rx) = channel();
        for k in 0..30u64 {
            // Marker after request 7 lands exactly on the max_batch=8
            // boundary (the outer-recv path); the one after 19 lands
            // mid-queue during the drain (the skip path).
            tx.send(Msg::Req(Request {
                id: k,
                features: req_features(k),
                submitted: 0.0,
                reply: reply_tx.clone(),
            }))
            .unwrap();
            if k == 7 || k == 19 {
                tx.send(Msg::Shutdown).unwrap();
            }
        }
        drop(tx);
        let batcher = Batcher::new(
            registry,
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_secs(10),
                ..Default::default()
            },
            Clock::real(),
        );
        let log = batcher_loop(rx, batcher);
        assert_eq!(log.served, 30, "requests behind a marker were dropped");
        let mut ids: Vec<u64> = (0..30).map(|_| reply_rx.recv().unwrap().id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>());
    }
}
