//! The simulation run loop.
//!
//! A [`Simulation`] binds a catalog, a cluster and a layout; [`Simulation::run`]
//! replays a request trace through the admission policy and produces a
//! [`SimReport`]. The loop is event-ordered: before each arrival, every
//! background event due at an earlier (or equal) instant is processed —
//! stream departures first (bandwidth frees up), then failure/recovery
//! transitions (killed streams are counted as disrupted), then load
//! samples (they observe the settled state).
//!
//! Failure bookkeeping: a departing stream releases its link bandwidth
//! only if its admission epoch still matches the server's failure epoch;
//! otherwise the stream was already killed by [`LinkState::fail`] and the
//! departure is stale. Backbone reservations of redirected streams are
//! reclaimed at the stream's *scheduled* end even if the proxy failed
//! earlier — a deliberate, documented simplification (the backbone pool
//! is shared, so the error is a short-lived over-reservation).

use crate::actuation::ReplicaActuator;
use crate::admission::{AdmissionConfig, AdmissionState, PendingRequest};
use crate::audit::Auditor;
use crate::controller::{ControllerConfig, DriftController};
use crate::dispatch::{AdmissionPolicy, Decision, Dispatcher};
use crate::event::{Departure, DepartureQueue, NO_STREAM};
use crate::failure::{FailureModel, FailurePlan, FaultSchedule, Transition, TransitionKind};
use crate::metrics::{MetricsCollector, SimReport};
use crate::repair::{FailoverPolicy, RepairConfig};
use crate::server::LinkState;
use crate::shard::ShardPlan;
use crate::time::SimTime;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::time::Instant;
use vod_model::{
    BitRate, Catalog, ClusterSpec, Layout, ModelError, RedundancyMap, ServerId, VideoId,
};
use vod_telemetry::Telemetry;
use vod_workload::{ArrivalIter, ArrivalSource, Request, Trace};

/// Epoch sentinel for departures that were already shed by a brownout:
/// real epochs start at 0 and bump once per failure, so `u32::MAX` never
/// matches and the pop releases only the backbone reservation.
const SHED_EPOCH: u32 = u32::MAX;

/// Run-time knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How requests are routed and admitted.
    pub policy: AdmissionPolicy,
    /// Peak-period length in minutes; load sampling and the report's
    /// time averages cover `[0, horizon_min]`. The paper uses 90.
    pub horizon_min: f64,
    /// Load-sampling cadence in minutes.
    pub sample_interval_min: f64,
    /// Injected server outages (empty = the paper's failure-free runs).
    pub failures: FailurePlan,
    /// Stochastic fault injection: drawn at run start and compiled with
    /// `failures` into one fault schedule. Deterministic per the model's
    /// seed.
    pub failure_model: Option<FailureModel>,
    /// Mid-run re-replication of lost redundancy (off by default).
    pub repair: RepairConfig,
    /// Online replication controller: periodic re-replication and
    /// retirement driven by *observed* popularity drift (off by
    /// default). Actuates through the shared `repair` bandwidth budget,
    /// so enabling it without repair bandwidth senses but never copies.
    pub controller: ControllerConfig,
    /// What happens to a failing server's active streams (kill by
    /// default — the paper's implicit behavior).
    pub failover: FailoverPolicy,
    /// Record the full per-sample load series in the report (off by
    /// default; used for plotting Figure-6-style time series).
    pub record_series: bool,
    /// Overload admission pipeline: wait queue, patience, retries. The
    /// default ([`AdmissionConfig::default`]) is fully passive and
    /// byte-identical to the pre-pipeline blocking engine.
    pub admission: AdmissionConfig,
    /// Run the invariant auditor in release builds too (debug builds
    /// always audit). Auditing only reads state: it never changes a
    /// run's outcome, only whether a corrupted run fails fast.
    pub audit: bool,
    /// Engine shards (1 = the serial engine). When the replica graph
    /// partitions into independent server groups and every
    /// cluster-scoped feature is inert (no failures, passive admission,
    /// no backbone pool, no online controller, no coded layout), each
    /// group runs on its own worker thread and the per-group results
    /// merge deterministically — byte-identical to `shards: 1`.
    /// Otherwise the run takes the plain serial event loop, so the
    /// value changes nothing. See DESIGN.md §7.
    pub shards: usize,
}

impl Default for SimConfig {
    /// The paper's defaults: strict static round-robin admission, a
    /// 90-minute peak period, 1-minute load samples, no failures, no
    /// repair, no failover.
    fn default() -> Self {
        SimConfig {
            policy: AdmissionPolicy::StaticRoundRobin,
            horizon_min: 90.0,
            sample_interval_min: 1.0,
            failures: FailurePlan::none(),
            failure_model: None,
            repair: RepairConfig::default(),
            controller: ControllerConfig::default(),
            failover: FailoverPolicy::Kill,
            record_series: false,
            admission: AdmissionConfig::default(),
            audit: false,
            shards: 1,
        }
    }
}

/// A bound simulation: catalog + cluster + layout + config.
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    catalog: &'a Catalog,
    cluster: &'a ClusterSpec,
    layout: &'a Layout,
    config: SimConfig,
}

impl<'a> Simulation<'a> {
    /// Binds and cross-validates the inputs (dimensions and the storage
    /// constraint (4); bandwidth is enforced dynamically by admission).
    pub fn new(
        catalog: &'a Catalog,
        cluster: &'a ClusterSpec,
        layout: &'a Layout,
        config: SimConfig,
    ) -> Result<Self, ModelError> {
        if layout.n_videos() != catalog.len() {
            return Err(ModelError::LengthMismatch {
                expected: layout.n_videos(),
                actual: catalog.len(),
            });
        }
        if layout.n_servers() != cluster.len() {
            return Err(ModelError::LengthMismatch {
                expected: layout.n_servers(),
                actual: cluster.len(),
            });
        }
        if !config.horizon_min.is_finite() || config.horizon_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "horizon_min",
                value: config.horizon_min,
            });
        }
        if !config.sample_interval_min.is_finite() || config.sample_interval_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "sample_interval_min",
                value: config.sample_interval_min,
            });
        }
        config.failures.validate_servers(cluster.len())?;
        if let Some(model) = &config.failure_model {
            model.validate()?;
        }
        config.admission.validate()?;
        config.controller.validate()?;
        if config.shards == 0 {
            return Err(ModelError::InvalidParameter {
                name: "shards",
                value: 0.0,
            });
        }
        if layout.any_coded() {
            // A coded stream spans k servers; the online controller's
            // replica moves and the backbone's whole-copy redirects both
            // assume one-server streams. Reject the combinations rather
            // than silently mis-accounting.
            if config.controller.enabled() {
                return Err(ModelError::InvalidParameter {
                    name: "controller with coded layout",
                    value: 1.0,
                });
            }
            if matches!(config.policy, AdmissionPolicy::BackboneRedirect { .. }) {
                return Err(ModelError::InvalidParameter {
                    name: "backbone redirect with coded layout",
                    value: 1.0,
                });
            }
        }
        layout.validate_storage(catalog, cluster)?;
        Ok(Simulation {
            catalog,
            cluster,
            layout,
            config,
        })
    }

    /// The bound configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `trace` and reports the outcome.
    pub fn run(&self, trace: &Trace) -> Result<SimReport, ModelError> {
        self.run_with_telemetry(trace, &Telemetry::disabled())
    }

    /// Replays `trace`, recording engine counters and timings into
    /// `telemetry` (see the `sim.*` instrument names below). With a
    /// disabled handle this is identical to [`Simulation::run`].
    ///
    /// The engine books every outcome once, in the run's report; the
    /// instruments are published once per *finished* run, from its
    /// report plus the pass's event tallies, so runs sharing one handle
    /// across threads add up exactly. A run
    /// that returns `Err` publishes no counters (its `sim.run` span
    /// still records).
    ///
    /// Instruments: counters `sim.arrivals`, `sim.admitted`,
    /// `sim.rejected`, `sim.redirected`, `sim.departures`,
    /// `sim.disrupted`, `sim.transitions`, `sim.samples`,
    /// `sim.admission_probes`, `sim.events`; span `sim.run` (seconds);
    /// histogram `sim.queue.peak_len` (per-run peak of concurrently
    /// scheduled departures). With
    /// recovery active, additionally: counters `sim.streams.resumed`,
    /// `sim.streams.degraded`, `sim.repair.bytes_copied`,
    /// `sim.repair.copies`; histogram `sim.repair.time_to_redundancy_min`
    /// (one observation per run). With the admission pipeline or
    /// brownouts active, additionally: counters `sim.admission.queued`,
    /// `sim.admission.retried`, `sim.admission.abandoned`,
    /// `sim.admission.degraded`, `sim.brownout.active_min`; histogram
    /// `sim.admission.wait_min_pctl` (one observation per admitted
    /// request, 0 for an immediate admission). With the online
    /// replication controller active, additionally: counters
    /// `sim.controller.ticks`, `sim.controller.backoffs`,
    /// `sim.controller.promotions`, `sim.controller.demotions`,
    /// `sim.controller.retired`, `sim.controller.copies`,
    /// `sim.controller.bytes_copied`.
    ///
    /// Phase clock: an enabled handle also times the background events
    /// that do more than bookkeeping and publishes each run's totals in
    /// seconds — histograms `sim.phase.copy_completion_s` (each copy
    /// completion with the pump it triggers) and `sim.phase.transition_s`
    /// (each fault transition) when the replica actuator runs, and
    /// `sim.phase.control_tick_s` (each control tick) with the
    /// controller on. A disabled handle reads no clock.
    pub fn run_with_telemetry(
        &self,
        trace: &Trace,
        telemetry: &Telemetry,
    ) -> Result<SimReport, ModelError> {
        // Every `Trace` is ordered by construction (deserializing goes
        // through `Trace::new` too), so its pass needs no arrival check.
        self.run_arrivals(telemetry, trace.requests().iter().copied().map(Ok))
    }

    /// Replays a pull-based [`ArrivalSource`] and reports the outcome.
    ///
    /// The streaming twin of [`Simulation::run`]: arrivals are pulled
    /// lazily and merged into the `(time, seq)` event order one at a
    /// time, so the run's footprint is bounded by the concurrency peak
    /// (plus the source's O(catalog) state), never by the trace length.
    /// For a source that is draw-for-draw identical to a materialized
    /// generator (see `vod_workload::arrival`), the report is identical
    /// to running the materialized trace. A source that breaks the
    /// [`ArrivalSource`] contract (a non-finite, negative or decreasing
    /// arrival time) fails the run with [`ModelError::InvalidParameter`].
    pub fn run_streaming<S: ArrivalSource>(&self, source: S) -> Result<SimReport, ModelError> {
        self.run_streaming_with_telemetry(source, &Telemetry::disabled())
    }

    /// [`Simulation::run_streaming`] with engine counters and timings
    /// recorded into `telemetry` — the same instrument set as
    /// [`Simulation::run_with_telemetry`].
    pub fn run_streaming_with_telemetry<S: ArrivalSource>(
        &self,
        source: S,
        telemetry: &Telemetry,
    ) -> Result<SimReport, ModelError> {
        // The source is pulled once, on the calling thread, and each
        // arrival is checked as it is pulled — before the decoupled
        // producer routes it to a worker.
        self.run_arrivals(telemetry, checked_arrivals(ArrivalIter(source)))
    }

    /// The body behind every entry point: runs the checked request
    /// stream `arrivals` through the serial loop, or routes it to the
    /// decoupled workers.
    fn run_arrivals<I>(&self, telemetry: &Telemetry, arrivals: I) -> Result<SimReport, ModelError>
    where
        I: Iterator<Item = Result<Request, ModelError>>,
    {
        let _span = telemetry.span("sim.run");
        let outcome = match self.decoupled_plan() {
            Some(plan) => self.run_decoupled(&plan, arrivals)?,
            None => self.run_core(arrivals, false, telemetry.is_enabled())?,
        };
        Ok(self.publish(outcome, telemetry))
    }

    /// Finishes a run's report and publishes the run's instruments into
    /// `telemetry`: the report's outcome counts, the pass tallies, the
    /// optional layers' figures and the wait observations. Apart from
    /// the `sim.run` span, this is the only place an engine run writes
    /// telemetry.
    fn publish(&self, outcome: EngineOutcome, telemetry: &Telemetry) -> SimReport {
        let metrics = outcome.metrics;
        if !telemetry.is_enabled() {
            return metrics.finish(self.config.horizon_min);
        }
        metrics.observe_waits(&telemetry.histogram("sim.admission.wait_min_pctl"));
        let report = metrics.finish(self.config.horizon_min);
        let tally = outcome.tally;
        report.publish_counters(telemetry);
        let count = |name, n| telemetry.counter(name).add(n);
        count("sim.departures", tally.departures);
        count("sim.transitions", tally.transitions);
        count("sim.samples", tally.samples);
        count("sim.admission_probes", tally.probes);
        let events = report.arrivals
            + tally.departures
            + tally.transitions
            + tally.samples
            + report.retried
            + report.abandoned;
        count("sim.events", events);
        for (k, &n) in outcome.shard_events.iter().enumerate() {
            telemetry.shard_events(k).add(n);
        }
        let phase = |name, secs| telemetry.histogram(name).observe(secs);
        if outcome.actuated {
            count("sim.repair.bytes_copied", report.repair_bytes_copied);
            count("sim.repair.copies", report.repair_copies);
            telemetry
                .histogram("sim.repair.time_to_redundancy_min")
                .observe(report.time_to_redundancy_min);
            phase("sim.phase.copy_completion_s", tally.copy_completion_s);
            phase("sim.phase.transition_s", tally.transition_s);
        }
        if let Some(c) = outcome.coded {
            // Coded-tier instruments exist only for coded runs, so
            // all-replicated manifests stay byte-identical to pre-coding
            // ones.
            count("sim.coded.degraded_reads", c.degraded_reads);
            count("sim.coded.shares_reattached", c.shares_reattached);
            if outcome.actuated {
                count("sim.repair.coded.reconstructions", c.reconstructions);
                count("sim.repair.coded.bytes", c.bytes_read);
            }
        }
        if self.config.controller.enabled() {
            phase("sim.phase.control_tick_s", tally.control_tick_s);
            count("sim.controller.ticks", report.controller_ticks);
            count("sim.controller.backoffs", report.controller_backoffs);
            count("sim.controller.promotions", report.controller_promotions);
            count("sim.controller.demotions", report.controller_demotions);
            count("sim.controller.retired", report.controller_retired);
            count("sim.controller.copies", report.controller_copies);
            count(
                "sim.controller.bytes_copied",
                report.controller_bytes_copied,
            );
        }
        // In the decoupled path this is the *sum* of per-shard peaks —
        // an upper bound on the cluster-wide peak, which no single queue
        // observes there.
        telemetry
            .histogram("sim.queue.peak_len")
            .observe(tally.peak_len as f64);
        // Queue backing storage amortized over each pass's concurrency
        // peak: the marginal resident cost of one active stream. The
        // memory-smoke CI step gates on this staying under the ceiling
        // documented in DESIGN.md §7.
        for &b in &outcome.queue_bytes_per_stream {
            telemetry
                .histogram("sim.engine.bytes_per_active_stream")
                .observe(b);
        }
        report
    }

    /// The server-group partition for the decoupled parallel path, or
    /// `None` when the run must stay on the serial loop: sharding is
    /// only sound when no event can cross server groups, i.e. no
    /// failure injection (the fault schedule, brownout minutes included,
    /// is compiled before the first event, but metered repair may copy
    /// into any group, and its redundancy integrals accumulate over all
    /// videos in global event order), a fully passive admission pipeline
    /// (the FIFO queue and its patience RNG are cluster-scoped), no
    /// shared backbone pool — and a replica graph that actually
    /// partitions.
    fn decoupled_plan(&self) -> Option<ShardPlan> {
        if self.config.shards <= 1 {
            return None;
        }
        if !self.config.failures.is_empty() || self.config.failure_model.is_some() {
            return None;
        }
        if !self.config.admission.is_passive() {
            return None;
        }
        if matches!(self.config.policy, AdmissionPolicy::BackboneRedirect { .. }) {
            return None;
        }
        // The online controller senses cluster-wide demand and moves
        // replicas across server groups: inherently coupling.
        if self.config.controller.enabled() {
            return None;
        }
        // A coded stream fans out over k servers, so the replica graph
        // cannot decouple; all-replicated layouts are unaffected.
        if self.layout.any_coded() {
            return None;
        }
        let plan = ShardPlan::decoupled(self.layout, self.config.shards);
        (plan.n_shards > 1).then_some(plan)
    }

    /// Runs one full mini-engine per server group on scoped worker
    /// threads and merges the results in shard-index order. The merge
    /// is exact: every shard-local total is an integer (or has disjoint
    /// support across shards), and load samples are *replayed* on the
    /// coordinator — each sample instant's per-shard load vectors sum
    /// into the full cluster vector, which feeds the same load-sample
    /// sequence the serial loop executes. The result is byte-identical
    /// to `shards: 1`.
    ///
    /// The calling thread is the producer: it pulls `arrivals` once and
    /// routes each request to its owning worker's inbox (see
    /// [`route_arrivals`]), so the stream is generated once whatever the
    /// shard count.
    fn run_decoupled<I>(&self, plan: &ShardPlan, arrivals: I) -> Result<EngineOutcome, ModelError>
    where
        I: Iterator<Item = Result<Request, ModelError>>,
    {
        let (pulled, results) = std::thread::scope(|scope| {
            // The senders live in this closure, so a panicking source
            // drops them while unwinding: every worker's stream ends, the
            // scope joins the workers and the panic reaches the caller.
            let mut outboxes = Vec::with_capacity(plan.n_shards);
            let handles: Vec<_> = (0..plan.n_shards)
                .map(|_| {
                    let (tx, rx) = mpsc::sync_channel(INBOX_DEPTH);
                    outboxes.push(Outbox::new(tx));
                    // A decoupled run has no copy, transition or tick to
                    // time.
                    scope.spawn(move || self.run_core(Inbox::new(rx), true, false))
                })
                .collect();
            let pulled = route_arrivals(arrivals, &plan.video_shard, &mut outboxes);
            drop(outboxes);
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(Err(ModelError::Internal {
                        context: "shard worker panicked",
                    }))
                })
                .collect();
            (pulled, results)
        });
        let shards = results.into_iter().collect::<Result<Vec<_>, _>>()?;

        let mut merged = EngineOutcome {
            metrics: MetricsCollector::new(self.catalog.len(), self.config.record_series),
            samples: Vec::new(),
            tally: Tally::default(),
            queue_bytes_per_stream: Vec::new(),
            shard_events: Vec::new(),
            actuated: false,
            coded: None,
        };
        let n_samples = shards.first().map(|s| s.samples.len()).unwrap_or(0);
        let mut sample_grid = Vec::with_capacity(shards.len());
        for shard in shards {
            if shard.samples.len() != n_samples {
                return Err(ModelError::Internal {
                    context: "shard sample schedules diverged",
                });
            }
            // No transition, retry or abandonment exists here, so a
            // shard's events are its arrivals and departures (samples
            // are the coordinator's, below).
            merged
                .shard_events
                .push(shard.metrics.report.arrivals + shard.tally.departures);
            merged.tally.add(shard.tally);
            merged
                .queue_bytes_per_stream
                .extend(shard.queue_bytes_per_stream);
            sample_grid.push(shard.samples);
            merged.metrics.absorb(shard.metrics);
        }

        // Replay the sample schedule exactly as the serial loop runs
        // it: same instants, same repeated float accumulation of
        // `next_sample_min`, and per-server loads that are the
        // elementwise sums of the shard vectors (disjoint support, so
        // each entry is one shard's value plus exact zeros).
        let mut full = vec![0.0f64; self.cluster.len()];
        let mut next_sample_min = 0.0f64;
        for i in 0..n_samples {
            full.iter_mut().for_each(|x| *x = 0.0);
            for shard_samples in &sample_grid {
                for (acc, &x) in full.iter_mut().zip(&shard_samples[i]) {
                    *acc += x;
                }
            }
            merged.metrics.sample_loads(&full, next_sample_min);
            next_sample_min += self.config.sample_interval_min;
        }
        merged.tally.samples += n_samples as u64;

        // Merged-view audit: the per-shard auditors checked their own
        // state after every event; the coordinator re-checks request
        // conservation over the merged report.
        let SimReport {
            arrivals,
            admitted,
            rejected,
            abandoned,
            ..
        } = merged.metrics.report;
        if admitted + rejected + abandoned != arrivals || arrivals != pulled {
            return Err(ModelError::InvariantViolation {
                at_min: self.config.horizon_min,
                what: format!(
                    "sharded merge lost request outcomes: \
                     {admitted} admitted + {rejected} rejected + {abandoned} abandoned \
                     != {arrivals} arrivals ({pulled} in stream)"
                ),
            });
        }

        Ok(merged)
    }

    /// The serial event loop over a pulled, checked arrival stream
    /// (see [`checked_arrivals`]), shared by the plain engine (full
    /// trace or streaming source, `capture_samples: false`) and the
    /// decoupled workers (one server group's inbox of routed requests,
    /// `capture_samples: true` — load samples are logged raw for the
    /// coordinator's replay instead of folded into the collector).
    /// Arrivals are consumed lazily, one at a time, merged against the
    /// `(time, seq)` event queue; the loop never needs the stream's
    /// length or its backing storage.
    /// `phase_clock` times the background phases (see
    /// [`Simulation::run_with_telemetry`]).
    fn run_core<I>(
        &self,
        requests: I,
        capture_samples: bool,
        phase_clock: bool,
    ) -> Result<EngineOutcome, ModelError>
    where
        I: Iterator<Item = Result<Request, ModelError>>,
    {
        // Hot per-video state, struct-of-arrays: the arrival loop reads
        // one u32 rate word and one u32 duration word per request
        // instead of chasing the catalog's full `Video` records.
        let videos = VideoTable::new(self.catalog)?;
        let mut state = self.build_state(capture_samples, phase_clock)?;
        for req in requests {
            let req = req?;
            let t = SimTime::from_min(req.arrival_min);
            state.advance_to(t)?;

            let (kbps, duration_s) = videos
                .get(req.video.index())
                .ok_or(ModelError::UnknownVideo(req.video))?;

            state.metrics.on_arrival(req.video.index());
            state.metrics.on_offered(kbps, duration_s);
            if let Some(d) = state.drift.as_mut() {
                // The controller senses *observed* offered demand, never
                // the generator's true rates.
                d.observe(req.video.index());
            }
            state.handle_request(
                t,
                PendingRequest {
                    video: req.video,
                    kbps,
                    duration_s,
                    arrived: t,
                    retries_left: self.config.admission.max_retries,
                    attempt: 0,
                },
            );
            state.audit_check(t)?;
            debug_assert!(state.links.within_capacity());
        }
        self.finish_core(state)
    }

    /// Binds the mutable run-loop state for one engine pass: the fault
    /// schedule, the actuation layer, coded-serving state and the
    /// departure queue.
    fn build_state(
        &self,
        capture_samples: bool,
        phase_clock: bool,
    ) -> Result<RunState<'a>, ModelError> {
        // Scripted outages plus, when configured, the stochastic model's
        // draws for this horizon (deterministic per the model's seed).
        let faults = FaultSchedule::compile(
            &self.config.failures,
            self.config.failure_model.as_ref(),
            self.cluster.len(),
            self.config.horizon_min,
        )?;
        let transitions = faults.transitions;
        // The actuation layer engages when failures can happen or the
        // online controller needs to move replicas. With repair disabled
        // it is pure bookkeeping: its content map stays identical to the
        // bound layout, so dispatch is unchanged.
        let drift_on = self.config.controller.enabled();
        let actuator = if transitions.is_empty() && !drift_on {
            None
        } else {
            Some(ReplicaActuator::new(
                self.catalog,
                self.cluster,
                self.layout,
                self.config.repair,
            ))
        };
        let drift =
            drift_on.then(|| DriftController::new(self.catalog.len(), self.config.controller));
        let (horizon, tick_min) = (self.config.horizon_min, self.config.controller.tick_min);

        let coded = self
            .layout
            .redundancy()
            .filter(|m| m.any_coded())
            .map(|m| CodedState {
                schemes: m.clone(),
                streams: Vec::new(),
                degraded_reads: 0,
                shares_reattached: 0,
            });

        // Nothing the run does moves a brownout, so its minutes are
        // known before the first event.
        let mut metrics = MetricsCollector::new(self.catalog.len(), self.config.record_series);
        metrics.report.brownout_active_min = faults.brownout_min;
        Ok(RunState {
            links: LinkState::new(self.cluster),
            dispatcher: Dispatcher::new(self.config.policy, self.catalog.len()),
            metrics,
            departures: DepartureQueue::with_capacity(self.cluster.len()),
            actuator,
            coded,
            layout: self.layout,
            transitions,
            next_transition: 0,
            sample: Ticker::new(0.0, self.config.sample_interval_min, true, horizon),
            drift,
            ctrl: Ticker::new(tick_min, tick_min, drift_on, horizon),
            failover: self.config.failover,
            admission: AdmissionState::new(&self.config.admission),
            auditor: (cfg!(debug_assertions) || self.config.audit).then(Auditor::new),
            load_scratch: Vec::new(),
            extract_scratch: Vec::new(),
            fifo_scratch: Vec::new(),
            sample_log: capture_samples.then(Vec::new),
            tally: Tally::default(),
            phase_clock,
        })
    }

    /// Horizon tail of every engine pass: runs the remaining
    /// background events, settles the admission pipeline, releases
    /// post-horizon streams and books the optional layers' end-of-run
    /// figures.
    fn finish_core(&self, mut state: RunState) -> Result<EngineOutcome, ModelError> {
        // Tail: run the remaining background events out to the horizon,
        // abort any still-in-flight repair copies (releasing their
        // reservations), then retire whatever still streams past it.
        let horizon = SimTime::from_min(self.config.horizon_min);
        state.advance_to(horizon)?;
        if let Some(c) = state.actuator.as_mut() {
            c.finish(
                self.config.horizon_min,
                &mut state.links,
                &mut state.dispatcher,
            );
        }
        // Requests the pipeline still owes an outcome at the horizon
        // (queued or sleeping until a retry) count as abandoned: the peak
        // period ended before they were served.
        state.metrics.report.abandoned += state.admission.drain_remaining().len() as u64;
        // An arrival past the horizon has already moved the clock there.
        let end = state
            .auditor
            .as_ref()
            .map_or(horizon, |a| a.last_event.max(horizon));
        state.audit_check(end)?;
        // Release what still streams past the horizon. The releases are
        // integer and commute, so the queue empties in storage order
        // rather than popping in time order.
        state.tally.departures += state.departures.len() as u64;
        let (links, dispatcher, coded) = (&mut state.links, &mut state.dispatcher, &state.coded);
        state
            .departures
            .drain_unordered(|d| release_departure(&d, links, dispatcher, coded));
        debug_assert_eq!(state.links.total_streams(), 0);
        debug_assert_eq!(state.dispatcher.backbone_used_kbps(), 0);

        let r = &mut state.metrics.report;
        if let Some(c) = &state.actuator {
            r.repair_bytes_copied = c.bytes_copied();
            r.repair_copies = c.copies_completed();
            r.time_to_redundancy_min = c.deficit_min();
            r.redundancy_deficit_video_min = c.deficit_video_min();
            r.unavailability_video_min = c.unavailability_video_min();
        }
        if let Some(d) = &state.drift {
            r.controller_ticks = d.ticks();
            r.controller_backoffs = d.backoffs();
            r.controller_promotions = d.promotions();
            r.controller_demotions = d.demotions();
            r.controller_retired = d.retired();
            if let Some(c) = &state.actuator {
                r.controller_copies = c.drift_copies_completed();
                r.controller_bytes_copied = c.drift_bytes_copied();
            }
        }
        let peak_len = state.departures.peak_len();
        state.tally.transitions = state.next_transition as u64;
        state.tally.probes = state.dispatcher.admission_probes();
        state.tally.peak_len = peak_len;
        let actuator = state.actuator.as_ref();
        Ok(EngineOutcome {
            samples: state.sample_log.unwrap_or_default(),
            tally: state.tally,
            queue_bytes_per_stream: (peak_len > 0)
                .then(|| state.departures.mem_bytes() as f64 / peak_len as f64)
                .into_iter()
                .collect(),
            shard_events: Vec::new(),
            actuated: actuator.is_some(),
            coded: state.coded.map(|cs| CodedTally {
                degraded_reads: cs.degraded_reads,
                shares_reattached: cs.shares_reattached,
                reconstructions: actuator.map_or(0, |c| c.coded_reconstructions()),
                bytes_read: actuator.map_or(0, |c| c.coded_bytes_read()),
            }),
            metrics: state.metrics,
        })
    }
}

/// Enforces the [`ArrivalSource`] contract on a request stream before
/// the engine acts on it (see [`Request::check_after`]). A violation
/// yields [`ModelError::InvalidParameter`] at the offending request,
/// which ends the run.
fn checked_arrivals<I>(requests: I) -> impl Iterator<Item = Result<Request, ModelError>>
where
    I: Iterator<Item = Request>,
{
    let mut last = 0.0f64;
    requests.map(move |r| {
        r.check_after(last)?;
        last = r.arrival_min;
        Ok(r)
    })
}

/// Requests per batch the decoupled producer sends a worker.
const BATCH: usize = 2048;

/// Batches a worker's inbox holds before the producer blocks on it.
const INBOX_DEPTH: usize = 4;

/// One message to a decoupled worker: a batch of its requests in
/// arrival order, or the bad arrival that ends its stream.
type Parcel = Result<Vec<Request>, ModelError>;

/// The producer's end of one worker's inbox: the batch being filled,
/// and the channel while the worker still receives.
struct Outbox {
    tx: Option<SyncSender<Parcel>>,
    batch: Vec<Request>,
}

impl Outbox {
    fn new(tx: SyncSender<Parcel>) -> Self {
        Outbox {
            tx: Some(tx),
            batch: Vec::with_capacity(BATCH),
        }
    }

    /// Sends `parcel`, blocking while the inbox is full. A worker that
    /// has exited (it failed, or panicked) has dropped its receiver:
    /// the outbox closes and returns `false`.
    fn send(&mut self, parcel: Parcel) -> bool {
        let sent = self.tx.as_ref().is_some_and(|tx| tx.send(parcel).is_ok());
        if !sent {
            self.tx = None;
        }
        sent
    }

    /// Sends the pending batch, if any. The next batch is allocated
    /// only once the send returns, so a producer blocked on a full inbox
    /// holds one batch for that worker, not two.
    fn flush(&mut self) -> bool {
        if self.batch.is_empty() {
            return self.tx.is_some();
        }
        let batch = std::mem::take(&mut self.batch);
        let sent = self.send(Ok(batch));
        if sent {
            self.batch.reserve_exact(BATCH);
        }
        sent
    }
}

/// The decoupled producer: pulls `arrivals` once and routes each request
/// to the worker owning its video, in batches of [`BATCH`]. Videos the
/// plan does not map go to worker 0, whose engine pass raises
/// [`ModelError::UnknownVideo`] as the serial loop would. A bad arrival
/// follows each live worker's pending batch into its inbox, so every
/// worker fails on the request a serial run fails on, after exactly the
/// requests it owns before it. Pulling stops there, or once every worker
/// has exited. Returns the number of requests pulled.
fn route_arrivals<I>(arrivals: I, video_shard: &[u32], outboxes: &mut [Outbox]) -> u64
where
    I: Iterator<Item = Result<Request, ModelError>>,
{
    let mut pulled = 0u64;
    for r in arrivals {
        let req = match r {
            Ok(req) => req,
            Err(e) => {
                for out in outboxes.iter_mut() {
                    if out.flush() {
                        out.send(Err(e.clone()));
                    }
                }
                break;
            }
        };
        pulled += 1;
        let k = video_shard
            .get(req.video.index())
            .map_or(0, |&s| s as usize);
        let out = &mut outboxes[k];
        if out.tx.is_none() {
            continue;
        }
        out.batch.push(req);
        if out.batch.len() == BATCH && !out.flush() && outboxes.iter().all(|o| o.tx.is_none()) {
            break;
        }
    }
    for out in outboxes.iter_mut() {
        out.flush();
    }
    pulled
}

/// A decoupled worker's arrival stream: the batches the producer routed
/// to it, in order, ending when the producer drops its sender.
struct Inbox {
    rx: Receiver<Parcel>,
    batch: std::vec::IntoIter<Request>,
}

impl Inbox {
    fn new(rx: Receiver<Parcel>) -> Self {
        Inbox {
            rx,
            batch: Vec::new().into_iter(),
        }
    }
}

impl Iterator for Inbox {
    type Item = Result<Request, ModelError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(req) = self.batch.next() {
                return Some(Ok(req));
            }
            // Free the drained batch before waiting for the next one.
            self.batch = Vec::new().into_iter();
            match self.rx.recv().ok()? {
                Ok(batch) => self.batch = batch.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Struct-of-arrays view of the catalog's hot per-video words: one u32
/// rate and one u32 duration per title (a 20k-video catalog fits in
/// 160 KiB — resident in L2 for the whole run). Built once per engine
/// pass; the arrival loop indexes it instead of the catalog.
struct VideoTable {
    kbps: Vec<u32>,
    duration_s: Vec<u32>,
}

impl VideoTable {
    fn new(catalog: &Catalog) -> Result<Self, ModelError> {
        let mut kbps = Vec::with_capacity(catalog.len());
        let mut duration_s = Vec::with_capacity(catalog.len());
        for v in catalog.videos() {
            let d = u32::try_from(v.duration_s).map_err(|_| ModelError::InvalidParameter {
                name: "duration_s (exceeds u32)",
                value: v.duration_s as f64,
            })?;
            kbps.push(v.bitrate.kbps());
            duration_s.push(d);
        }
        Ok(VideoTable { kbps, duration_s })
    }

    /// `(kbps, duration_s)` of video `i`, widened for the admission
    /// arithmetic; `None` for out-of-catalog ids.
    #[inline]
    fn get(&self, i: usize) -> Option<(u64, u64)> {
        let k = *self.kbps.get(i)?;
        Some((k as u64, self.duration_s[i] as u64))
    }
}

/// What one engine pass (serial run or decoupled shard worker) hands
/// back for finalization; [`Simulation::publish`] turns it into the
/// report and the run's instruments.
struct EngineOutcome {
    /// The run's one per-event ledger.
    metrics: MetricsCollector,
    /// Raw per-sample load vectors, non-empty only for decoupled shard
    /// workers (`capture_samples: true`).
    samples: Vec<Vec<f64>>,
    /// Event counts the report does not carry (summed across shards).
    tally: Tally,
    /// Departure-queue bytes per active stream at each pass's peak.
    queue_bytes_per_stream: Vec<f64>,
    /// Events of each decoupled shard (empty on the serial loop).
    shard_events: Vec<u64>,
    /// Whether the replica actuator ran (it books `sim.repair.*`).
    actuated: bool,
    /// Coded-tier figures (`None` for all-replicated layouts).
    coded: Option<CodedTally>,
}

/// Tallies of one engine pass that the report does not carry.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Departures popped in time order or drained at the horizon.
    departures: u64,
    /// Failure and brownout transitions processed.
    transitions: u64,
    /// Load samples folded into the collector.
    samples: u64,
    /// Dispatcher admission probes.
    probes: u64,
    /// Peak of concurrently scheduled departures.
    peak_len: usize,
    /// Phase-clock totals in seconds (0 unless the run's telemetry
    /// records): control ticks, copy completions with their pump, and
    /// fault transitions.
    control_tick_s: f64,
    copy_completion_s: f64,
    transition_s: f64,
}

impl Tally {
    /// Adds another pass's tallies (the decoupled merge).
    fn add(&mut self, other: Tally) {
        self.departures += other.departures;
        self.transitions += other.transitions;
        self.samples += other.samples;
        self.probes += other.probes;
        self.peak_len += other.peak_len;
        self.control_tick_s += other.control_tick_s;
        self.copy_completion_s += other.copy_completion_s;
        self.transition_s += other.transition_s;
    }
}

/// The coded tier's end-of-run figures.
#[derive(Debug, Clone, Copy)]
struct CodedTally {
    /// Admissions and re-attachments that read a parity fragment.
    degraded_reads: u64,
    /// Failed-over fragment shares re-attached to another holder.
    shares_reattached: u64,
    /// Fragments the actuator reconstructed (0 without one).
    reconstructions: u64,
    /// Bytes the actuator read for reconstructions (0 without one).
    bytes_read: u64,
}

/// Frees what an ending departure still holds: its link share while the
/// server's failure epoch matches (a coded share only while its stream
/// lives — killed streams released their shares at kill time), and any
/// backbone reservation (reclaimed at the scheduled end even when the
/// stream was killed earlier).
fn release_departure(
    d: &Departure,
    links: &mut LinkState,
    dispatcher: &mut Dispatcher,
    coded: &Option<CodedState>,
) {
    if stream_live(coded, d) && links.epoch(d.server) == d.epoch {
        links.release(d.server, d.kbps);
    }
    if d.backbone_kbps > 0 {
        dispatcher.release_backbone(d.backbone_kbps);
    }
}

/// Whether `d`'s stream is still live: always for a replica stream, and
/// for a coded share while failover has not killed its stream.
fn stream_live(coded: &Option<CodedState>, d: &Departure) -> bool {
    d.stream == NO_STREAM
        || coded
            .as_ref()
            .is_some_and(|cs| !cs.streams[d.stream as usize].killed)
}

/// The current holders of `video`: the actuator's evolving content map
/// when one runs, else the bound layout.
fn holders<'s>(
    actuator: &'s Option<ReplicaActuator>,
    layout: &'s Layout,
    video: VideoId,
) -> &'s [ServerId] {
    match actuator {
        Some(c) => c.holders(video),
        None => layout.replicas_of(video),
    }
}

/// The [`BitRate::LADDER`] rates below `kbps`, descending.
fn ladder_below(kbps: u64) -> impl Iterator<Item = u64> {
    let below = |r: BitRate| r.step_down(&BitRate::LADDER);
    std::iter::successors(below(BitRate::from_kbps(kbps as u32)), move |&r| below(r))
        .map(|r| r.kbps() as u64)
}

/// How a failing server's stream fared under failover.
enum Rescued {
    Full,
    Degraded,
    No,
}

/// One live (or killed) coded viewer: the `k` fragment shares it is
/// being served from, tied to its departures by index into
/// [`CodedState::streams`].
#[derive(Debug)]
struct CodedStream {
    /// The servers currently streaming one fragment share each
    /// (emptied when the stream is killed).
    servers: Vec<ServerId>,
    /// Per-holder share rate, `⌈rate / k⌉` kbps.
    share_kbps: u64,
    /// The viewer-facing admitted rate (goodput accounting on kill).
    full_kbps: u64,
    /// Set when failover could not keep `k` shares alive; the sibling
    /// departures then pop without releasing anything.
    killed: bool,
}

/// Engine-side state for erasure-coded serving, present only when the
/// bound layout has at least one `Coded` video — all-replicated runs
/// never allocate it and take the exact pre-coding code paths.
#[derive(Debug)]
struct CodedState {
    /// Per-video schemes (cloned from the layout's redundancy map).
    schemes: RedundancyMap,
    /// Every coded stream ever admitted, indexed by `Departure::stream`.
    /// Slots are never freed: at simulation scale the retained tail is
    /// a few dozen bytes per admission.
    streams: Vec<CodedStream>,
    /// Admissions that had to read at least one parity fragment
    /// (some of the first `k` holders were unavailable).
    degraded_reads: u64,
    /// Failed-over fragment shares re-attached to another holder.
    shares_reattached: u64,
}

/// A periodic clock (load samples, control ticks): due at `next_min`,
/// then every `step` minutes up to and including the horizon.
struct Ticker {
    next_min: f64,
    /// `next_min` converted once per firing instead of once per pump
    /// iteration (`None` past the horizon, or when the clock is off).
    next_at: Option<SimTime>,
    step: f64,
    horizon: f64,
}

impl Ticker {
    fn new(first_min: f64, step: f64, on: bool, horizon: f64) -> Self {
        Ticker {
            next_min: first_min,
            next_at: (on && first_min <= horizon).then(|| SimTime::from_min(first_min)),
            step,
            horizon,
        }
    }

    /// Moves to the next firing instant.
    fn advance(&mut self) {
        self.next_min += self.step;
        self.next_at = (self.next_min <= self.horizon).then(|| SimTime::from_min(self.next_min));
    }
}

/// Mutable run-loop state, split out so the background-event pump and the
/// failover logic can borrow its fields independently.
struct RunState<'a> {
    links: LinkState,
    dispatcher: Dispatcher,
    metrics: MetricsCollector,
    departures: DepartureQueue,
    actuator: Option<ReplicaActuator>,
    /// Coded-serving state (`None` for all-replicated layouts).
    coded: Option<CodedState>,
    /// Sensing/decision state of the online replication controller
    /// (`None` unless [`ControllerConfig::enabled`]).
    drift: Option<DriftController>,
    layout: &'a Layout,
    transitions: Vec<Transition>,
    next_transition: usize,
    /// The load-sample clock.
    sample: Ticker,
    /// The control-tick clock (never due when the controller is off).
    ctrl: Ticker,
    failover: FailoverPolicy,
    admission: AdmissionState,
    auditor: Option<Auditor>,
    /// Reusable buffer for per-sample stream loads.
    load_scratch: Vec<f64>,
    /// When `Some`, raw per-sample load vectors are logged here instead
    /// of being folded into `metrics` (decoupled shard workers log;
    /// the coordinator replays the merged vectors — see
    /// [`Simulation::run_decoupled`]).
    sample_log: Option<Vec<Vec<f64>>>,
    /// Reusable buffer for failover extractions.
    extract_scratch: Vec<Departure>,
    /// Reusable buffer for FIFO queue drains.
    fifo_scratch: Vec<u64>,
    /// This pass's event tallies (completed in `finish_core`).
    tally: Tally,
    /// Whether the background phases are timed into `tally`.
    phase_clock: bool,
}

/// Seconds since `started`; 0 when the phase clock is off.
#[inline]
fn phase_secs(started: Option<Instant>) -> f64 {
    started.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

impl RunState<'_> {
    /// Processes every background event (departure / repair completion /
    /// transition / queue abandonment / retry / sample / control tick)
    /// with an instant <= `t`, in time order; ties break in exactly that
    /// order. The control tick deliberately fires *last* at its instant,
    /// so it senses the settled state every other event left behind.
    fn advance_to(&mut self, t: SimTime) -> Result<(), ModelError> {
        loop {
            let dep_at = self.departures.next_time();
            let rep_at = self.actuator.as_ref().and_then(|c| c.next_completion());
            let tr_at = self.transitions.get(self.next_transition).map(|x| x.at);
            let aband_at = self.admission.next_deadline();
            let retry_at = self.admission.next_retry();
            let sample_at = self.sample.next_at;
            let ctrl_at = self.ctrl.next_at;

            let candidates = [
                dep_at, rep_at, tr_at, aband_at, retry_at, sample_at, ctrl_at,
            ];
            let Some(min_at) = candidates.into_iter().flatten().min() else {
                break;
            };
            if min_at > t {
                break;
            }
            if dep_at == Some(min_at) {
                let d = self
                    .departures
                    .pop_due(min_at)
                    .ok_or(ModelError::Internal {
                        context: "departure queue empty at its own next_time",
                    })?;
                self.tally.departures += 1;
                release_departure(&d, &mut self.links, &mut self.dispatcher, &self.coded);
                // Freed streaming bandwidth may unblock a stalled copy
                // first (repair priority), then waiting clients.
                if let Some(c) = self.actuator.as_mut() {
                    c.pump(min_at, &mut self.links, &mut self.dispatcher);
                }
                self.drain_queue(min_at);
            } else if rep_at == Some(min_at) {
                let started = self.phase_clock.then(Instant::now);
                let c = self.actuator.as_mut().ok_or(ModelError::Internal {
                    context: "repair completion due without an actuator",
                })?;
                c.complete_next(&mut self.links, &mut self.dispatcher)?;
                self.tally.copy_completion_s += phase_secs(started);
                self.drain_queue(min_at);
            } else if tr_at == Some(min_at) {
                let started = self.phase_clock.then(Instant::now);
                let tr = self.transitions[self.next_transition];
                self.next_transition += 1;
                match tr.kind {
                    TransitionKind::Down => self.on_down(tr.at, tr.server),
                    TransitionKind::Up => self.on_up(tr.at, tr.server),
                    TransitionKind::BrownoutStart(frac) => {
                        self.on_brownout_start(tr.at, tr.server, frac)
                    }
                    TransitionKind::BrownoutEnd => self.on_brownout_end(tr.at, tr.server),
                }
                self.tally.transition_s += phase_secs(started);
                self.drain_queue(min_at);
            } else if aband_at == Some(min_at) {
                let req = self
                    .admission
                    .pop_expired(min_at)
                    .ok_or(ModelError::Internal {
                        context: "admission deadline due with no expirable request",
                    })?;
                // Patience ran out; the client retries later if it can.
                if !self.retry(min_at, req) {
                    self.metrics.report.abandoned += 1;
                }
            } else if retry_at == Some(min_at) {
                let req = self
                    .admission
                    .pop_due_retry(min_at)
                    .ok_or(ModelError::Internal {
                        context: "retry timer due with no pending retry",
                    })?;
                self.handle_request(min_at, req);
            } else if sample_at == Some(min_at) {
                self.links.stream_loads_into(&mut self.load_scratch);
                if let Some(log) = self.sample_log.as_mut() {
                    // Decoupled shard worker: defer the statistics to
                    // the coordinator's merged replay so the float
                    // accumulation order matches the serial engine.
                    log.push(self.load_scratch.clone());
                } else {
                    self.tally.samples += 1;
                    self.metrics
                        .sample_loads(&self.load_scratch, self.sample.next_min);
                }
                self.sample.advance();
            } else {
                let started = self.phase_clock.then(Instant::now);
                let c = self.actuator.as_mut().ok_or(ModelError::Internal {
                    context: "control tick due without an actuation layer",
                })?;
                let d = self.drift.as_mut().ok_or(ModelError::Internal {
                    context: "control tick due without a drift controller",
                })?;
                d.tick(min_at, c, &mut self.links, &mut self.dispatcher);
                self.tally.control_tick_s += phase_secs(started);
                self.ctrl.advance();
            }
            self.audit_check(min_at)?;
        }
        Ok(())
    }

    /// Runs the invariant auditor (when active) after an event at `at`.
    fn audit_check(&mut self, at: SimTime) -> Result<(), ModelError> {
        let Some(aud) = self.auditor.as_mut() else {
            return Ok(());
        };
        let backbone_ok = match self.dispatcher.policy() {
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps,
            } => self.dispatcher.backbone_used_kbps() <= backbone_capacity_kbps,
            _ => true,
        };
        aud.check(
            at,
            &self.links,
            backbone_ok,
            &mut self.admission,
            &self.metrics.report,
        )?;
        if self.coded.is_some() {
            // Anti-affinity holds for the bound layout by construction;
            // what needs auditing is the actuator's evolving holder map
            // (repair destinations). Static coded runs audit the layout
            // itself once per event — cheap at audit-only cadence.
            let holders = match &self.actuator {
                Some(c) => c.holders_all(),
                None => self.layout.assignments(),
            };
            self.auditor
                .as_ref()
                .expect("auditor vanished")
                .check_placement(at, holders)?;
        }
        Ok(())
    }

    /// Routes one request now owed an outcome: admit (possibly degraded),
    /// queue, schedule a retry, or finally reject.
    fn handle_request(&mut self, now: SimTime, req: PendingRequest) {
        if self.try_admit(now, &req) {
            return;
        }
        if self.admission.queueing() {
            self.admission.enqueue(now, req);
            self.metrics.report.queued += 1;
        } else if !self.retry(now, req) {
            self.metrics.on_reject(req.video.index());
        }
    }

    /// Schedules `req`'s next attempt if it has retries left; returns
    /// whether it did.
    fn retry(&mut self, now: SimTime, req: PendingRequest) -> bool {
        if req.retries_left == 0 {
            return false;
        }
        self.admission.schedule_retry(
            now,
            PendingRequest {
                retries_left: req.retries_left - 1,
                attempt: req.attempt + 1,
                ..req
            },
        );
        self.metrics.report.retried += 1;
        true
    }

    /// One admission attempt: full rate first, then (under a degrading
    /// policy) down the bit-rate ladder. Returns whether a slot was taken.
    fn try_admit(&mut self, now: SimTime, req: &PendingRequest) -> bool {
        if self.try_admit_at(now, req, req.kbps) {
            return true;
        }
        self.admission.degrades() && ladder_below(req.kbps).any(|r| self.try_admit_at(now, req, r))
    }

    /// Dispatches `req` at `rate` kbps — over `k` fragment holders for a
    /// coded video, else to one replica holder — and books the admission.
    fn try_admit_at(&mut self, now: SimTime, req: &PendingRequest, rate: u64) -> bool {
        // Backbone kbps the admission reserved (never any for coded reads).
        let backbone_kbps = match &self.coded {
            Some(cs) if cs.schemes.get(req.video).is_coded() => {
                self.try_admit_coded(now, req, rate).then_some(0)
            }
            _ => self.try_admit_replica(now, req, rate),
        };
        let Some(backbone_kbps) = backbone_kbps else {
            return false;
        };
        self.metrics.on_admit(backbone_kbps > 0);
        self.metrics.on_wait((now - req.arrived).as_min());
        self.metrics.on_delivered(rate, req.duration_s);
        if rate < req.kbps {
            self.metrics.report.degraded_served += 1;
        }
        true
    }

    /// Replica admission: the dispatcher picks one holder (or a backbone
    /// redirect). Returns the backbone kbps reserved, `None` on reject.
    fn try_admit_replica(&mut self, now: SimTime, req: &PendingRequest, rate: u64) -> Option<u64> {
        let replicas = holders(&self.actuator, self.layout, req.video);
        let Decision::Admit {
            server,
            backbone_kbps,
        } = self
            .dispatcher
            .dispatch(req.video, rate, replicas, &self.links)
        else {
            return None;
        };
        let at = now + SimTime::from_secs(req.duration_s);
        self.start_stream(at, server, req.video, rate, backbone_kbps, NO_STREAM);
        Some(backbone_kbps)
    }

    /// Takes `kbps` of `server`'s link and queues the stream's departure
    /// at `at` under the server's current failure epoch.
    fn start_stream(
        &mut self,
        at: SimTime,
        server: ServerId,
        video: VideoId,
        kbps: u64,
        backbone_kbps: u64,
        stream: u32,
    ) {
        self.links.admit(server, kbps);
        self.departures.push(Departure {
            at,
            server,
            video,
            kbps,
            backbone_kbps,
            epoch: self.links.epoch(server),
            stream,
        });
    }

    /// Coded admission: serve `req` from `k` live fragment holders, each
    /// charged a `⌈rate / k⌉` share. Holders are tried in fragment order
    /// (positions `0..k` are the data fragments); having to reach past
    /// position `k - 1` means reading parity — a *degraded read*.
    /// Fails (false) when fewer than `k` holders can admit the share,
    /// falling through to the caller's degrade/queue/retry/reject path.
    fn try_admit_coded(&mut self, now: SimTime, req: &PendingRequest, rate: u64) -> bool {
        let cs = self.coded.as_ref().expect("coded admission without state");
        let scheme = cs.schemes.get(req.video);
        let k = scheme.min_live() as usize;
        let share = scheme.share_kbps(rate);
        let holders = holders(&self.actuator, self.layout, req.video);
        let mut chosen: Vec<ServerId> = Vec::with_capacity(k);
        let mut degraded_read = false;
        for (pos, &h) in holders.iter().enumerate() {
            if chosen.len() == k {
                break;
            }
            if self.links.can_admit(h, share) {
                if pos >= k {
                    degraded_read = true;
                }
                chosen.push(h);
            }
        }
        if chosen.len() < k {
            return false;
        }

        let stream = {
            let cs = self.coded.as_mut().expect("coded admission without state");
            cs.streams.push(CodedStream {
                servers: chosen.clone(),
                share_kbps: share,
                full_kbps: rate,
                killed: false,
            });
            if degraded_read {
                cs.degraded_reads += 1;
            }
            (cs.streams.len() - 1) as u32
        };
        let at = now + SimTime::from_secs(req.duration_s);
        for &h in &chosen {
            self.start_stream(at, h, req.video, share, 0, stream);
        }
        true
    }

    /// Fails over one lost fragment share of a live coded stream: unless
    /// the policy is `Kill`, the share moves to another holder of the
    /// video (a fragment not already serving this stream), leaving the
    /// sibling shares untouched; otherwise the whole stream is killed.
    /// Returns whether the stream survived.
    fn fail_over_share(&mut self, at: SimTime, d: &Departure, from: ServerId) -> bool {
        let pick = (self.failover != FailoverPolicy::Kill).then(|| {
            let cs = self.coded.as_ref().expect("coded share without state");
            let serving = &cs.streams[d.stream as usize].servers;
            self.best_holder(d.video, d.kbps, |h| h == from || serving.contains(&h))
        });
        let Some(h) = pick.flatten() else {
            self.kill_coded_stream(at, d, from);
            return false;
        };
        self.start_stream(d.at, h, d.video, d.kbps, 0, d.stream);
        let cs = self.coded.as_mut().expect("coded share without state");
        let s = &mut cs.streams[d.stream as usize];
        if let Some(slot) = s.servers.iter_mut().find(|x| **x == from) {
            *slot = h;
        }
        cs.degraded_reads += 1;
        cs.shares_reattached += 1;
        true
    }

    /// Kills a live coded stream whose share on `gone` was lost and
    /// could not be re-attached: releases the sibling shares (the share
    /// on `gone` itself is already gone — dropped by the failure or
    /// released by the brownout shed) and charges the undelivered
    /// remainder at the viewer-facing rate.
    fn kill_coded_stream(&mut self, at: SimTime, d: &Departure, gone: ServerId) {
        let (servers, share, full) = {
            let cs = self.coded.as_mut().expect("coded share without state");
            let s = &mut cs.streams[d.stream as usize];
            s.killed = true;
            (std::mem::take(&mut s.servers), s.share_kbps, s.full_kbps)
        };
        for &h in &servers {
            if h != gone {
                self.links.release(h, share);
            }
        }
        self.metrics.on_undelivered(full, (d.at - at).ticks());
    }

    /// After capacity frees up, offers every waiting request a slot in
    /// FIFO order. Requests that still do not fit stay queued (later
    /// arrivals that *do* fit may overtake them — capacity-aware
    /// skipping, not head-of-line blocking).
    fn drain_queue(&mut self, now: SimTime) {
        if self.admission.queue_len() == 0 {
            return;
        }
        let mut seqs = std::mem::take(&mut self.fifo_scratch);
        self.admission.fifo_seqs_into(&mut seqs);
        for &seq in &seqs {
            let Some(req) = self.admission.get(seq) else {
                continue;
            };
            if self.try_admit(now, &req) {
                self.admission.remove(seq);
            }
        }
        self.fifo_scratch = seqs;
    }

    /// Brownout onset: shrink the link's effective capacity; when the
    /// server is overcommitted, shed repair copies first, then active
    /// streams (latest-ending first), failing each shed stream over per
    /// the failover policy exactly like a crash would.
    fn on_brownout_start(&mut self, at: SimTime, server: ServerId, frac: f64) {
        let excess = self.links.set_brownout(server, frac);
        if excess == 0 || !self.links.is_up(server) {
            return;
        }
        if let Some(c) = self.actuator.as_mut() {
            c.on_brownout(at, server, &mut self.links, &mut self.dispatcher);
        }
        let j = server.index();
        let over = |links: &LinkState| {
            (links.used_kbps()[j] + links.repair_kbps()[j])
                .saturating_sub(links.effective_capacity_kbps(server))
        };
        if over(&self.links) == 0 {
            return;
        }
        let mut active = std::mem::take(&mut self.extract_scratch);
        self.departures
            .extract_active_into(server, self.links.epoch(server), &mut active);
        let (mut disrupted, mut resumed, mut degraded) = (0u64, 0u64, 0u64);
        while over(&self.links) > 0 {
            // Ascending (time, seq): pop sheds the latest-ending stream.
            let Some(d) = active.pop() else {
                break;
            };
            if !stream_live(&self.coded, &d) {
                // A sibling kill already released this share; the
                // departure just waits to pop as a no-op.
                self.departures.push(d);
                continue;
            }
            self.links.release(server, d.kbps);
            match self.fail_over(at, d, server, true) {
                Rescued::Full => resumed += 1,
                Rescued::Degraded => degraded += 1,
                Rescued::No => disrupted += 1,
            }
        }
        for d in active.drain(..) {
            self.departures.push(d);
        }
        self.extract_scratch = active;
        let r = &mut self.metrics.report;
        r.disrupted += disrupted;
        r.resumed += resumed;
        r.degraded += degraded;
    }

    /// Brownout over: restore full capacity and let stalled repairs pump.
    fn on_brownout_end(&mut self, at: SimTime, server: ServerId) {
        self.links.clear_brownout(server);
        if let Some(c) = self.actuator.as_mut() {
            c.pump(at, &mut self.links, &mut self.dispatcher);
        }
    }

    /// Server failure: hand the topology change to the actuator,
    /// then fail over the server's active streams. Coded shares re-attach
    /// to surviving fragment holders or kill their stream; replicated
    /// streams are rescued if the policy allows. The departures are only
    /// extracted when something can act on them: coded shares must be
    /// found even under `Kill` (their siblings live on other servers),
    /// while an all-replicated `Kill` run leaves them queued with a stale
    /// epoch and counts every dropped stream as disrupted.
    fn on_down(&mut self, at: SimTime, server: ServerId) {
        let mut extracted = std::mem::take(&mut self.extract_scratch);
        let extract = self.coded.is_some() || self.failover != FailoverPolicy::Kill;
        if extract {
            self.departures
                .extract_active_into(server, self.links.epoch(server), &mut extracted);
        }
        let dropped = self.links.fail(server) as u64;
        // Repair claims its copy bandwidth on the survivors *first*:
        // without this priority, failed-over streams (plus fresh arrivals)
        // pack a popular video's sole surviving holder to the brim and its
        // re-replication starves for the whole outage.
        if let Some(c) = self.actuator.as_mut() {
            c.on_failure(
                at,
                server,
                &self.metrics.report.per_video_arrivals,
                &mut self.links,
                &mut self.dispatcher,
            );
        }
        let (mut disrupted, mut resumed, mut degraded, mut live) = (0u64, 0u64, 0u64, 0u64);
        for d in extracted.drain(..) {
            if !stream_live(&self.coded, &d) {
                // Share of an already-killed stream: its bandwidth was
                // released at kill time (it is not in `dropped`).
                continue;
            }
            live += 1;
            match self.fail_over(at, d, server, false) {
                Rescued::Full => resumed += 1,
                Rescued::Degraded => degraded += 1,
                Rescued::No => disrupted += 1,
            }
        }
        debug_assert!(!extract || live == dropped);
        disrupted += dropped - live;
        self.extract_scratch = extracted;
        let r = &mut self.metrics.report;
        r.disrupted += disrupted;
        r.resumed += resumed;
        r.degraded += degraded;
    }

    /// Server recovery: restore the link, then let the actuator
    /// mark its stored replicas servable again.
    fn on_up(&mut self, at: SimTime, server: ServerId) {
        self.links.recover(server);
        if let Some(c) = self.actuator.as_mut() {
            c.on_recovery(at, server, &mut self.links, &mut self.dispatcher);
        }
    }

    /// One departure `d` of `server`, lost to a crash or shed by a
    /// brownout (`shed`; its link share is already released), failed
    /// over per the policy: a coded share re-attaches or kills its
    /// stream, a replica stream goes through [`Self::rescue_stream`].
    /// A lost replica stream books its undelivered remainder (not after
    /// a crash under `Kill` — the documented kill-path simplification)
    /// and stays queued so any backbone reservation is reclaimed at the
    /// scheduled end: unchanged after a crash, whose stale epoch means
    /// no link release at pop time, and under [`SHED_EPOCH`] after a
    /// shed, which guarantees none.
    fn fail_over(&mut self, at: SimTime, d: Departure, server: ServerId, shed: bool) -> Rescued {
        if d.stream != NO_STREAM {
            return if self.fail_over_share(at, &d, server) {
                Rescued::Full
            } else {
                Rescued::No
            };
        }
        let rescued = self.rescue_stream(at, &d, server);
        if let Rescued::No = rescued {
            if shed || self.failover != FailoverPolicy::Kill {
                self.metrics.on_undelivered(d.kbps, (d.at - at).ticks());
            }
            let epoch = if shed { SHED_EPOCH } else { d.epoch };
            self.departures.push(Departure { epoch, ..d });
        }
        rescued
    }

    /// The holder of `video` with the most free link able to admit
    /// `kbps`, skipping those `exclude` names (see
    /// [`LinkState::most_free`]).
    fn best_holder(
        &self,
        video: VideoId,
        kbps: u64,
        exclude: impl Fn(ServerId) -> bool,
    ) -> Option<ServerId> {
        let holders = holders(&self.actuator, self.layout, video);
        self.links
            .most_free(holders.iter().copied().filter(|&h| !exclude(h)), kbps)
    }

    /// Tries to continue one of a failed server's streams elsewhere
    /// (never under [`FailoverPolicy::Kill`]): at full rate on the best
    /// surviving holder, or — under [`FailoverPolicy::ResumeOrDegrade`] —
    /// stepping down [`BitRate::LADDER`] until some rate fits somewhere.
    /// The rescued stream keeps its original departure instant
    /// (remaining-duration bandwidth is charged to the new server) and
    /// carries any backbone reservation along.
    fn rescue_stream(&mut self, at: SimTime, d: &Departure, failed: ServerId) -> Rescued {
        if self.failover == FailoverPolicy::Kill {
            return Rescued::No;
        }
        let is_failed = |h| h == failed;
        if let Some(h) = self.best_holder(d.video, d.kbps, is_failed) {
            self.start_stream(d.at, h, d.video, d.kbps, d.backbone_kbps, d.stream);
            return Rescued::Full;
        }
        if self.failover == FailoverPolicy::ResumeOrDegrade {
            for kbps in ladder_below(d.kbps) {
                if let Some(h) = self.best_holder(d.video, kbps, is_failed) {
                    // The remaining minutes stream at the thinner rate.
                    self.metrics
                        .on_undelivered(d.kbps - kbps, (d.at - at).ticks());
                    self.start_stream(d.at, h, d.video, kbps, d.backbone_kbps, d.stream);
                    return Rescued::Degraded;
                }
            }
        }
        Rescued::No
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Outage;
    use vod_model::{BitRate, ServerId, ServerSpec, VideoId};
    use vod_workload::{Request, Trace};

    /// One video on one server; the server carries exactly one stream.
    fn tiny_world() -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap(); // 10-minute video
        let cluster = ClusterSpec::homogeneous(
            1,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(1, vec![vec![ServerId(0)]]).unwrap();
        (catalog, cluster, layout)
    }

    fn req(min: f64, v: u32) -> Request {
        Request {
            arrival_min: min,
            video: VideoId(v),
        }
    }

    fn run_tiny(requests: Vec<Request>) -> SimReport {
        let (catalog, cluster, layout) = tiny_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::default()).unwrap();
        sim.run(&Trace::new(requests).unwrap()).unwrap()
    }

    #[test]
    fn overlapping_requests_reject_second() {
        let r = run_tiny(vec![req(0.0, 0), req(5.0, 0)]);
        assert_eq!(r.arrivals, 2);
        assert_eq!(r.admitted, 1);
        assert_eq!(r.rejected, 1);
        assert!(r.is_conservative());
    }

    #[test]
    fn sequential_requests_both_admitted() {
        // Video is 10 minutes; second arrives at t=10 exactly as the first
        // ends — the departure is processed first, so it's admitted.
        let r = run_tiny(vec![req(0.0, 0), req(10.0, 0)]);
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    fn arrival_just_before_departure_rejected() {
        let r = run_tiny(vec![req(0.0, 0), req(9.99, 0)]);
        assert_eq!(r.admitted, 1);
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn three_way_contention() {
        let r = run_tiny(vec![req(0.0, 0), req(1.0, 0), req(11.0, 0)]);
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn empty_trace_is_clean() {
        let r = run_tiny(vec![]);
        assert_eq!(r.arrivals, 0);
        assert_eq!(r.rejection_rate, 0.0);
        assert!(r.is_conservative());
    }

    #[test]
    fn replicated_video_spreads_over_servers() {
        // 1 video, 2 replicas, 1 stream per server: two simultaneous
        // requests both admitted under static RR (one per replica).
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::default()).unwrap();
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(0.5, 0), req(1.0, 0)]).unwrap())
            .unwrap();
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn backbone_redirect_saves_requests() {
        // v0 only on s0 (capacity 1 stream); s1 idle. Second concurrent
        // request is saved by redirection through s1.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0)]]).unwrap();
        let trace = Trace::new(vec![req(0.0, 0), req(1.0, 0)]).unwrap();
        let cfg = SimConfig {
            policy: AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 1_000_000,
            },
            ..SimConfig::default()
        };
        let r = Simulation::new(&catalog, &cluster, &layout, cfg)
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(r.admitted, 2);
        assert_eq!(r.redirected, 1);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    fn unknown_video_is_an_error() {
        let (catalog, cluster, layout) = tiny_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::default()).unwrap();
        let trace = Trace::new(vec![req(0.0, 5)]).unwrap();
        assert!(matches!(
            sim.run(&trace),
            Err(ModelError::UnknownVideo(VideoId(5)))
        ));
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let (catalog, cluster, _) = tiny_world();
        let layout2 = Layout::new(2, vec![vec![ServerId(0)]]).unwrap();
        assert!(Simulation::new(&catalog, &cluster, &layout2, SimConfig::default()).is_err());
        let cfg = SimConfig {
            horizon_min: 0.0,
            ..SimConfig::default()
        };
        let layout = Layout::new(1, vec![vec![ServerId(0)]]).unwrap();
        assert!(Simulation::new(&catalog, &cluster, &layout, cfg).is_err());
    }

    #[test]
    fn storage_constraint_checked_at_bind_time() {
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            1,
            ServerSpec {
                storage_bytes: 1, // cannot hold the replica
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(1, vec![vec![ServerId(0)]]).unwrap();
        assert!(matches!(
            Simulation::new(&catalog, &cluster, &layout, SimConfig::default()),
            Err(ModelError::StorageExceeded { .. })
        ));
    }

    #[test]
    fn imbalance_sampled_nonzero_under_skewed_layout() {
        // Two servers; all load lands on s0.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 3_000).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 400_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0)]]).unwrap();
        let trace = Trace::new(vec![req(0.0, 0), req(1.0, 0), req(2.0, 0)]).unwrap();
        let r = Simulation::new(&catalog, &cluster, &layout, SimConfig::default())
            .unwrap()
            .run(&trace)
            .unwrap();
        assert!(r.mean_imbalance_cv > 0.5);
        assert_eq!(r.peak_concurrent_streams, 3);
    }

    // ---- failure injection ----

    fn failing_cfg(outages: Vec<Outage>) -> SimConfig {
        SimConfig {
            failures: FailurePlan::new(outages).unwrap(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn failure_disrupts_active_streams() {
        let (catalog, cluster, layout) = tiny_world();
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: None,
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        // Stream admitted at t=0 (runs to t=10) is killed at t=5; a later
        // request hits a dead server and is rejected.
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(6.0, 0)]).unwrap())
            .unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.disrupted, 1);
        assert_eq!(r.rejected, 1);
        assert!(r.is_conservative());
    }

    #[test]
    fn recovery_restores_service() {
        let (catalog, cluster, layout) = tiny_world();
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: Some(8.0),
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(6.0, 0), req(9.0, 0)]).unwrap())
            .unwrap();
        // t=0 admitted then disrupted at 5; t=6 rejected (down); t=9
        // admitted (recovered, and the old stream's bandwidth was cleared
        // by the failure — its stale departure at t=10 must not
        // double-release).
        assert_eq!(r.admitted, 2);
        assert_eq!(r.disrupted, 1);
        assert_eq!(r.rejected, 1);
    }

    #[test]
    fn stale_departure_does_not_underflow() {
        // The killed stream's departure (t=10) pops after recovery and a
        // new admission; with epoch tracking it must not release the new
        // stream's bandwidth. If it did, the second release (from the new
        // stream's real departure) would underflow and panic in debug.
        let (catalog, cluster, layout) = tiny_world();
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(0),
            down_at_min: 1.0,
            up_at_min: Some(2.0),
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(3.0, 0), req(20.0, 0)]).unwrap())
            .unwrap();
        assert_eq!(r.admitted, 3);
        assert_eq!(r.disrupted, 1);
    }

    #[test]
    fn replicas_survive_single_failure_with_failover() {
        // v0 on two servers; s0 dies mid-run. Failover keeps serving from
        // s1 while strict static RR loses every other request.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 60).unwrap(); // 1-min video
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 400_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let reqs: Vec<Request> = (0..20).map(|k| req(10.0 + k as f64 * 2.0, 0)).collect();
        let outage = vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: None,
        }];

        let strict = Simulation::new(&catalog, &cluster, &layout, failing_cfg(outage.clone()))
            .unwrap()
            .run(&Trace::new(reqs.clone()).unwrap())
            .unwrap();
        // Static RR alternates; every dispatch to s0 dies.
        assert_eq!(strict.rejected, 10);

        let failover_cfg = SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failures: FailurePlan::new(outage).unwrap(),
            ..SimConfig::default()
        };
        let failover = Simulation::new(&catalog, &cluster, &layout, failover_cfg)
            .unwrap()
            .run(&Trace::new(reqs).unwrap())
            .unwrap();
        assert_eq!(failover.rejected, 0);
    }

    // ---- stream failover and mid-run repair ----

    #[test]
    fn failover_resumes_streams_on_surviving_replica() {
        // v0 on {s0, s1}, one stream per server. The stream admitted on s0
        // migrates to idle s1 when s0 dies.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let cfg = SimConfig {
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(0),
                down_at_min: 5.0,
                up_at_min: None,
            }])
            .unwrap(),
            failover: crate::repair::FailoverPolicy::Resume,
            ..SimConfig::default()
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&Trace::new(vec![req(0.0, 0)]).unwrap()).unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.resumed, 1);
        assert_eq!(r.disrupted, 0);
        assert_eq!(r.degraded, 0);
    }

    #[test]
    fn failover_degrades_when_full_rate_does_not_fit() {
        // Both servers hold v0 and carry one 4 Mbps stream each on 7 Mbps
        // links. When s0 dies its stream cannot resume at 4 Mbps on s1
        // (3 Mbps free) but continues at the 3 Mbps ladder rung.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 7_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let outage = vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: None,
        }];
        let mk = |failover| SimConfig {
            failures: FailurePlan::new(outage.clone()).unwrap(),
            failover,
            ..SimConfig::default()
        };
        let trace = Trace::new(vec![req(0.0, 0), req(0.5, 0)]).unwrap();

        let degrade = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            mk(crate::repair::FailoverPolicy::ResumeOrDegrade),
        )
        .unwrap()
        .run(&trace)
        .unwrap();
        assert_eq!(degrade.degraded, 1);
        assert_eq!(degrade.resumed, 0);
        assert_eq!(degrade.disrupted, 0);

        // Resume-only cannot fit the stream anywhere: it is disrupted.
        let resume_only = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            mk(crate::repair::FailoverPolicy::Resume),
        )
        .unwrap()
        .run(&trace)
        .unwrap();
        assert_eq!(resume_only.degraded, 0);
        assert_eq!(resume_only.disrupted, 1);
    }

    #[test]
    fn repair_rebuilds_lost_redundancy() {
        // v0 on {s0, s1} of 3 servers; s0 dies at t=1. With 4 Mbps repair
        // bandwidth the 30 MB replica rebuilds on s2 in exactly one
        // minute; without repair the deficit persists to the horizon.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 60).unwrap();
        let bytes = catalog.videos()[0].storage_bytes();
        let cluster = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 8_000,
            },
        )
        .unwrap();
        let layout = Layout::new(3, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let mk = |bandwidth_kbps| SimConfig {
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(0),
                down_at_min: 1.0,
                up_at_min: None,
            }])
            .unwrap(),
            repair: RepairConfig {
                bandwidth_kbps,
                max_concurrent: 4,
            },
            ..SimConfig::default()
        };
        let trace = Trace::new(vec![]).unwrap();

        let repaired = Simulation::new(&catalog, &cluster, &layout, mk(4_000))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(repaired.repair_copies, 1);
        assert_eq!(repaired.repair_bytes_copied, bytes);
        assert!((repaired.time_to_redundancy_min - 1.0).abs() < 1e-9);
        assert_eq!(repaired.unavailability_video_min, 0.0);

        let passive = Simulation::new(&catalog, &cluster, &layout, mk(0))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(passive.repair_copies, 0);
        assert_eq!(passive.repair_bytes_copied, 0);
        assert!((passive.time_to_redundancy_min - 89.0).abs() < 1e-9);
    }

    #[test]
    fn repaired_replica_serves_requests() {
        // After the rebuild on s2 completes, v0 has two servable replicas
        // again: two overlapping requests both fit where one server alone
        // could hold only one.
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(3, vec![vec![ServerId(0), ServerId(1)]]).unwrap();
        let mk = |bandwidth_kbps| SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(0),
                down_at_min: 1.0,
                up_at_min: None,
            }])
            .unwrap(),
            repair: RepairConfig {
                bandwidth_kbps,
                max_concurrent: 4,
            },
            ..SimConfig::default()
        };
        // 300 Mbit replica at 4 Mbps repair bandwidth: 75 s rebuild, done
        // by t=2.25 min. Both t=30/t=31 requests overlap for 10 minutes.
        let trace = Trace::new(vec![req(30.0, 0), req(31.0, 0)]).unwrap();

        let repaired = Simulation::new(&catalog, &cluster, &layout, mk(4_000))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(repaired.admitted, 2);
        assert_eq!(repaired.rejected, 0);

        let passive = Simulation::new(&catalog, &cluster, &layout, mk(0))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(passive.admitted, 1);
        assert_eq!(passive.rejected, 1);
    }

    #[test]
    fn failure_model_runs_are_deterministic() {
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 300).unwrap();
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 40_000,
            },
        )
        .unwrap();
        let layout = Layout::new(
            4,
            (0..4u32)
                .map(|v| vec![ServerId(v % 4), ServerId((v + 1) % 4)])
                .collect(),
        )
        .unwrap();
        let cfg = SimConfig {
            failure_model: Some(crate::failure::FailureModel::exponential(30.0, 10.0, 7)),
            repair: RepairConfig {
                bandwidth_kbps: 4_000,
                max_concurrent: 2,
            },
            failover: crate::repair::FailoverPolicy::ResumeOrDegrade,
            ..SimConfig::default()
        };
        let trace = Trace::new(
            (0..60)
                .map(|k| req(k as f64 * 1.5, k % 4))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let a = sim.run(&trace).unwrap();
        let b = sim.run(&trace).unwrap();
        assert_eq!(a, b);
        // The model actually fired (MTBF 30 min over a 90-min horizon on
        // four servers makes failures overwhelmingly likely at this seed).
        assert!(a.disrupted + a.resumed + a.degraded > 0);
    }

    #[test]
    fn telemetry_counters_match_report() {
        let (catalog, cluster, layout) = tiny_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::default()).unwrap();
        let trace = Trace::new(vec![req(0.0, 0), req(5.0, 0), req(12.0, 0)]).unwrap();
        let telemetry = Telemetry::enabled();
        let r = sim.run_with_telemetry(&trace, &telemetry).unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("sim.arrivals"), r.arrivals);
        assert_eq!(snap.counter("sim.admitted"), r.admitted);
        assert_eq!(snap.counter("sim.rejected"), r.rejected);
        // Every admitted stream eventually departs (possibly in the
        // post-horizon drain).
        assert_eq!(snap.counter("sim.departures"), r.admitted);
        // Static RR probes exactly once per arrival.
        assert_eq!(snap.counter("sim.admission_probes"), r.arrivals);
        // 90-min horizon, 1-min cadence: samples at 0..=90.
        assert_eq!(snap.counter("sim.samples"), 91);
        assert_eq!(snap.histogram("sim.run").count, 1);
        // No actuator, no controller: no phase to clock.
        assert_eq!(snap.histogram("sim.phase.copy_completion_s").count, 0);
        assert_eq!(snap.histogram("sim.phase.control_tick_s").count, 0);
        assert_eq!(
            snap.counter("sim.events"),
            r.arrivals + r.admitted + 91 // arrivals + departures + samples
        );
    }

    #[test]
    fn disabled_telemetry_is_equivalent() {
        let (catalog, cluster, layout) = tiny_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::default()).unwrap();
        let trace = Trace::new(vec![req(0.0, 0), req(5.0, 0)]).unwrap();
        let plain = sim.run(&trace).unwrap();
        let telemetry = Telemetry::enabled();
        let instrumented = sim.run_with_telemetry(&trace, &telemetry).unwrap();
        assert_eq!(plain.arrivals, instrumented.arrivals);
        assert_eq!(plain.admitted, instrumented.admitted);
        assert_eq!(plain.rejected, instrumented.rejected);
        assert_eq!(plain.rejection_rate, instrumented.rejection_rate);
    }

    #[test]
    fn failure_on_unknown_server_rejected_at_bind() {
        let (catalog, cluster, layout) = tiny_world();
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(9),
            down_at_min: 5.0,
            up_at_min: None,
        }]);
        assert!(matches!(
            Simulation::new(&catalog, &cluster, &layout, cfg),
            Err(ModelError::UnknownServer(ServerId(9)))
        ));
    }

    /// Four independent pods of two servers each; every video's replica
    /// set stays inside one pod, so the decoupled plan splits 4 ways.
    fn pods_world() -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(16, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            8,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 16_000,
            },
        )
        .unwrap();
        let layout = Layout::new(
            8,
            (0..16)
                .map(|v| {
                    let pod = (v % 4) as u32;
                    vec![ServerId(2 * pod), ServerId(2 * pod + 1)]
                })
                .collect(),
        )
        .unwrap();
        (catalog, cluster, layout)
    }

    fn pods_trace() -> Trace {
        Trace::new(
            (0..200)
                .map(|k| req(k as f64 * 0.4, k % 16))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn decoupled_sharded_run_is_byte_identical_to_serial() {
        let (catalog, cluster, layout) = pods_world();
        let trace = pods_trace();
        let serial = Simulation::new(&catalog, &cluster, &layout, SimConfig::default()).unwrap();
        let sharded = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            SimConfig {
                shards: 4,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let a = serial.run(&trace).unwrap();
        let telemetry = Telemetry::enabled();
        let b = sharded.run_with_telemetry(&trace, &telemetry).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // The decoupled parallel path (not the serial loop) ran:
        // per-shard event counters were published for all four pods.
        let snap = telemetry.snapshot();
        for k in 0..4 {
            assert!(snap.counter(&format!("sim.shard.events.{k:02}")) > 0);
        }
        assert_eq!(snap.counter("sim.arrivals"), a.arrivals);
        assert_eq!(snap.counter("sim.admitted"), a.admitted);
        assert_eq!(snap.counter("sim.samples"), 91);
    }

    #[test]
    fn coupled_sharded_run_is_byte_identical_to_serial() {
        // An injected outage couples the pods: `shards: 8` must take the
        // plain serial loop and reproduce the `shards: 1` report.
        let (catalog, cluster, layout) = pods_world();
        let trace = pods_trace();
        let outage = Outage {
            server: ServerId(2),
            down_at_min: 20.0,
            up_at_min: Some(55.0),
        };
        let serial =
            Simulation::new(&catalog, &cluster, &layout, failing_cfg(vec![outage])).unwrap();
        let sharded = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            SimConfig {
                shards: 8,
                ..failing_cfg(vec![outage])
            },
        )
        .unwrap();
        let a = serial.run(&trace).unwrap();
        let telemetry = Telemetry::enabled();
        let b = sharded.run_with_telemetry(&trace, &telemetry).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // The serial loop ran: no decoupled worker published events.
        assert_eq!(telemetry.snapshot().counter("sim.shard.events.00"), 0);
    }

    /// Twenty single-server pods — more than the 16 named
    /// `sim.shard.*` counter slots, so shards 15..19 must fold into the
    /// last named bucket without losing counts.
    fn wide_pods_world() -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(20, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            20,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 16_000,
            },
        )
        .unwrap();
        let layout = Layout::new(20, (0..20).map(|v| vec![ServerId(v)]).collect()).unwrap();
        (catalog, cluster, layout)
    }

    fn wide_pods_trace() -> Trace {
        Trace::new((0..20).map(|k| req(k as f64 * 0.1, k)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn shard_event_counters_beyond_named_buckets_fold_into_last() {
        // Decoupled path: each pod publishes arrivals + departures as
        // its event count. Pods 0..14 land in their own buckets; pods
        // 15..19 share bucket 15. Nothing is dropped: the buckets sum
        // to the cluster-wide arrivals + admitted totals.
        let (catalog, cluster, layout) = wide_pods_world();
        let trace = wide_pods_trace();
        let sim = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            SimConfig {
                shards: 20,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let telemetry = Telemetry::enabled();
        let report = sim.run_with_telemetry(&trace, &telemetry).unwrap();
        assert_eq!(report.arrivals, 20);
        assert_eq!(report.admitted, 20);
        let snap = telemetry.snapshot();
        let buckets: Vec<u64> = (0..16)
            .map(|k| snap.counter(&format!("sim.shard.events.{k:02}")))
            .collect();
        // One arrival + one departure per pod; the overflow bucket
        // carries its own pod plus the four folded ones.
        assert_eq!(&buckets[..15], &[2u64; 15][..], "{buckets:?}");
        assert_eq!(buckets[15], 5 * 2, "{buckets:?}");
        assert_eq!(
            buckets.iter().sum::<u64>(),
            snap.counter("sim.arrivals") + snap.counter("sim.admitted")
        );
        // No shard past the named table leaks a counter of its own.
        assert_eq!(snap.counter("sim.shard.events.16"), 0);
        assert_eq!(snap.counter("sim.shard.events.19"), 0);
    }

    #[test]
    fn sharded_run_with_queueing_admission_stays_identical() {
        // Queue+retry admission couples servers through the FIFO queue,
        // so shards>1 must take the serial loop and still agree.
        let (catalog, cluster, layout) = pods_world();
        let trace = pods_trace();
        let admission = crate::admission::AdmissionConfig {
            policy: crate::admission::QueuePolicy::Queue { patience_min: 2.0 },
            max_retries: 1,
            retry_backoff_min: 1.0,
            seed: 7,
        };
        let cfg = |shards| SimConfig {
            shards,
            admission: admission.clone(),
            ..SimConfig::default()
        };
        let a = Simulation::new(&catalog, &cluster, &layout, cfg(1))
            .unwrap()
            .run(&trace)
            .unwrap();
        let b = Simulation::new(&catalog, &cluster, &layout, cfg(8))
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn zero_shards_rejected_at_bind() {
        let (catalog, cluster, layout) = tiny_world();
        let cfg = SimConfig {
            shards: 0,
            ..SimConfig::default()
        };
        assert!(matches!(
            Simulation::new(&catalog, &cluster, &layout, cfg),
            Err(ModelError::InvalidParameter { name: "shards", .. })
        ));
    }

    /// Instants beyond `u64::MAX` ticks saturate there instead of
    /// wrapping into the past, in debug and release builds alike: a
    /// retry backed off by 1e15 minutes never comes before the horizon
    /// (the request is abandoned there, not retried at once and
    /// rejected), and a stream admitted at minute 1e15 ends at the end
    /// of time. Each holds at shards 1 and 2; the arrival case's world
    /// splits into two groups, so shards 2 runs it decoupled.
    #[test]
    fn far_future_instants_saturate_at_one_and_two_shards() {
        let run = |catalog, cluster, layout, admission, requests: &[Request]| {
            let reports = [1, 2].map(|shards| {
                let cfg = SimConfig {
                    shards,
                    admission: crate::admission::AdmissionConfig::clone(admission),
                    ..SimConfig::default()
                };
                let sim = Simulation::new(catalog, cluster, layout, cfg).unwrap();
                sim.run(&Trace::new(requests.to_vec()).unwrap()).unwrap()
            });
            let json = reports
                .each_ref()
                .map(|r| serde_json::to_string(r).unwrap());
            assert_eq!(json[0], json[1]);
            let [r, _] = reports;
            assert!(r.is_conservative());
            r
        };

        let (catalog, cluster, layout) = tiny_world();
        let backoff = crate::admission::AdmissionConfig {
            max_retries: 1,
            retry_backoff_min: 1e15,
            ..Default::default()
        };
        let r = run(
            &catalog,
            &cluster,
            &layout,
            &backoff,
            &[req(1.0, 0), req(2.0, 0)],
        );
        assert_eq!(
            (r.admitted, r.retried, r.rejected, r.abandoned),
            (1, 1, 0, 1)
        );

        let catalog = Catalog::fixed_rate(2, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 4_000,
            },
        )
        .unwrap();
        let layout = Layout::new(2, vec![vec![ServerId(0)], vec![ServerId(1)]]).unwrap();
        assert_eq!(ShardPlan::decoupled(&layout, 2).n_shards, 2);
        let block = crate::admission::AdmissionConfig::default();
        let r = run(
            &catalog,
            &cluster,
            &layout,
            &block,
            &[req(1.0, 0), req(1e15, 1)],
        );
        assert_eq!((r.arrivals, r.admitted, r.rejected), (2, 2, 0));
    }

    /// A pull-based source replaying a fixed request list, including
    /// lists that break the [`ArrivalSource`] contract.
    struct Replay {
        requests: Vec<Request>,
        next: usize,
    }

    impl ArrivalSource for Replay {
        fn next_request(&mut self) -> Option<Request> {
            let r = self.requests.get(self.next).copied();
            self.next += 1;
            r
        }

        fn horizon_min(&self) -> f64 {
            90.0
        }
    }

    /// Runs `run` on the pods world at shards 1, 2 and 8 (the last two
    /// decoupled, with videos 0 and 1 on different workers) and checks
    /// all three return the same error, which `expected` accepts.
    fn assert_fails_alike_across_shards(
        expected: impl Fn(&ModelError) -> bool,
        run: impl Fn(&Simulation) -> Result<SimReport, ModelError>,
    ) {
        let (catalog, cluster, layout) = pods_world();
        for shards in [2, 8] {
            let plan = ShardPlan::decoupled(&layout, shards);
            assert_ne!(plan.video_shard[0], plan.video_shard[1]);
        }
        let errors: Vec<String> = [1, 2, 8]
            .into_iter()
            .map(|shards| {
                let cfg = SimConfig {
                    shards,
                    ..SimConfig::default()
                };
                let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
                match run(&sim) {
                    Err(e) if expected(&e) => format!("{e:?}"),
                    other => panic!("shards {shards}: unexpected outcome {other:?}"),
                }
            })
            .collect();
        assert_eq!(errors[0], errors[1]);
        assert_eq!(errors[0], errors[2]);
    }

    /// Accepts an `InvalidParameter` error named `name`.
    fn invalid(name: &str) -> impl Fn(&ModelError) -> bool + '_ {
        move |e| matches!(e, ModelError::InvalidParameter { name: n, .. } if *n == name)
    }

    /// Runs `requests` streamed and, when their times are well formed,
    /// as a trace, checking every shard count fails alike.
    fn assert_requests_fail_alike(requests: &[Request], expected: impl Fn(&ModelError) -> bool) {
        assert_fails_alike_across_shards(&expected, |sim| {
            sim.run_streaming(Replay {
                requests: requests.to_vec(),
                next: 0,
            })
        });
        if let Ok(trace) = Trace::new(requests.to_vec()) {
            assert_fails_alike_across_shards(&expected, |sim| sim.run(&trace));
        }
    }

    /// `n` well-formed requests cycling the pods world's 16 videos, evenly
    /// spread over the first 80 minutes.
    fn long_pods_requests(n: usize) -> Vec<Request> {
        (0..n)
            .map(|k| req(k as f64 * (80.0 / n as f64), (k % 16) as u32))
            .collect()
    }

    #[test]
    fn bad_arrivals_fail_alike_at_one_and_two_shards() {
        let cases = [
            (vec![req(1.0, 0), req(f64::NAN, 1)], "arrival_min"),
            (vec![req(1.0, 0), req(f64::INFINITY, 1)], "arrival_min"),
            (vec![req(-0.5, 0), req(1.0, 1)], "arrival_min"),
            // Out of order across two workers' videos: only a check ahead
            // of the producer's routing sees both requests.
            (vec![req(5.0, 0), req(3.0, 1)], "arrival_min (not sorted)"),
        ];
        for (requests, name) in cases {
            assert_requests_fail_alike(&requests, invalid(name));
        }
    }

    #[test]
    fn bad_arrival_after_full_batches_fails_alike_at_any_shard_count() {
        // Every worker (four pods at shards 8) has sent three full
        // batches and holds a part-filled one when the bad arrival
        // comes, and more requests follow it.
        let at = 3 * 4 * BATCH + 100;
        for (bad, name) in [(f64::NAN, "arrival_min"), (1.0, "arrival_min (not sorted)")] {
            let mut requests = long_pods_requests(at + 4 * BATCH);
            requests[at].arrival_min = bad;
            assert_requests_fail_alike(&requests, invalid(name));
            // An unknown video still pending in worker 0's batch when the
            // bad arrival comes fails the run first, as it does serially.
            requests[at - 5].video = VideoId(99);
            assert_requests_fail_alike(&requests, |e| {
                matches!(e, ModelError::UnknownVideo(VideoId(99)))
            });
        }
    }

    #[test]
    fn unknown_video_early_in_worker_zero_fails_alike_without_hanging() {
        // Worker 0 fails on its first batch and drops its inbox while the
        // other workers keep consuming a stream many batches long.
        let mut requests = long_pods_requests(4 * (INBOX_DEPTH + 2) * BATCH);
        requests[10].video = VideoId(99);
        assert_requests_fail_alike(&requests, |e| {
            matches!(e, ModelError::UnknownVideo(VideoId(99)))
        });
    }

    #[test]
    fn streamed_decoupled_run_through_full_inboxes_matches_serial() {
        // Each of the four pods' workers is sent twice as many batches as
        // its bounded inbox holds.
        let requests = long_pods_requests(4 * 2 * (INBOX_DEPTH + 2) * BATCH);
        let (catalog, cluster, layout) = pods_world();
        let trace = Trace::new(requests.clone()).unwrap();
        let serial = Simulation::new(&catalog, &cluster, &layout, SimConfig::default())
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(serial.arrivals, requests.len() as u64);
        for shards in [2, 8] {
            let sim = Simulation::new(
                &catalog,
                &cluster,
                &layout,
                SimConfig {
                    shards,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            let telemetry = Telemetry::enabled();
            let streamed = sim
                .run_streaming_with_telemetry(
                    Replay {
                        requests: requests.clone(),
                        next: 0,
                    },
                    &telemetry,
                )
                .unwrap();
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&streamed).unwrap(),
                "shards {shards}"
            );
            // The decoupled path ran: a worker per pod counted events.
            let workers = ShardPlan::decoupled(&layout, shards).n_shards;
            let snap = telemetry.snapshot();
            for k in 0..workers {
                assert!(snap.counter(&format!("sim.shard.events.{k:02}")) > 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "source failed")]
    fn panicking_source_unwinds_to_the_caller_on_the_decoupled_path() {
        /// Yields well-formed requests, then panics mid-stream.
        struct Panics(Replay);
        impl ArrivalSource for Panics {
            fn next_request(&mut self) -> Option<Request> {
                if self.0.next == 3 * BATCH {
                    panic!("source failed");
                }
                self.0.next_request()
            }
            fn horizon_min(&self) -> f64 {
                90.0
            }
        }
        let (catalog, cluster, layout) = pods_world();
        let cfg = SimConfig {
            shards: 2,
            ..SimConfig::default()
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let source = Panics(Replay {
            requests: long_pods_requests(8 * BATCH),
            next: 0,
        });
        let _ = sim.run_streaming(source);
    }

    /// Four videos on four servers (one replica each), ample storage,
    /// four concurrent streams per link: the drifting-demand testbed.
    fn controller_world() -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 16_000,
            },
        )
        .unwrap();
        let layout = Layout::new(4, (0..4u32).map(|v| vec![ServerId(v)]).collect()).unwrap();
        (catalog, cluster, layout)
    }

    fn controller_cfg(tick_min: f64) -> SimConfig {
        SimConfig {
            repair: RepairConfig {
                bandwidth_kbps: 4_000,
                max_concurrent: 4,
            },
            controller: ControllerConfig {
                tick_min,
                ..ControllerConfig::default()
            },
            ..SimConfig::default()
        }
    }

    /// Video 0 turns hot: a light early wave seeds the estimator, then a
    /// burst of ten concurrent requests. Static placement (one replica,
    /// four stream slots) drops most of the burst; the controller has
    /// re-replicated video 0 across the cluster by then and serves it.
    fn drifting_trace() -> Trace {
        let mut reqs = vec![req(0.0, 0), req(0.5, 0)];
        reqs.extend((0..10).map(|k| req(40.0 + 0.2 * k as f64, 0)));
        Trace::new(reqs).unwrap()
    }

    #[test]
    fn controller_rereplication_beats_static_under_drift() {
        let (catalog, cluster, layout) = controller_world();
        let trace = drifting_trace();
        let stat = Simulation::new(&catalog, &cluster, &layout, controller_cfg(0.0))
            .unwrap()
            .run(&trace)
            .unwrap();
        let ctrl = Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0))
            .unwrap()
            .run(&trace)
            .unwrap();
        // Static: the burst is capped at server 0's four stream slots.
        assert_eq!(stat.admitted, 2 + 4);
        assert_eq!(stat.controller_ticks, 0);
        assert_eq!(stat.controller_copies, 0);
        // Controller: video 0 promoted at the first tick, three replica
        // copies complete well before the burst; everything is served.
        assert_eq!(ctrl.admitted, 2 + 10);
        assert_eq!(ctrl.controller_ticks, 18); // every 5 min over 90 min
        assert!(ctrl.controller_promotions >= 1);
        assert_eq!(ctrl.controller_copies, 3);
        assert!(ctrl.controller_bytes_copied > 0);
        assert!(ctrl.is_conservative());
        assert!(stat.is_conservative());
    }

    #[test]
    fn controller_runs_are_deterministic_and_shard_identical() {
        let (catalog, cluster, layout) = controller_world();
        let trace = drifting_trace();
        let sim = Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0)).unwrap();
        let a = sim.run(&trace).unwrap();
        let b = sim.run(&trace).unwrap();
        assert_eq!(a, b);
        // The controller is a coupling feature: shards > 1 must take the
        // serial loop and stay byte-identical.
        let sharded = Simulation::new(
            &catalog,
            &cluster,
            &layout,
            SimConfig {
                shards: 4,
                ..controller_cfg(5.0)
            },
        )
        .unwrap();
        let c = sharded.run(&trace).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
    }

    #[test]
    fn controller_telemetry_counters_fire() {
        let (catalog, cluster, layout) = controller_world();
        let sim = Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0)).unwrap();
        let telemetry = Telemetry::enabled();
        let r = sim
            .run_with_telemetry(&drifting_trace(), &telemetry)
            .unwrap();
        let snap = telemetry.snapshot();
        assert!(r.controller_ticks > 0);
        assert_eq!(snap.counter("sim.controller.ticks"), r.controller_ticks);
        assert_eq!(
            snap.counter("sim.controller.backoffs"),
            r.controller_backoffs
        );
        assert_eq!(
            snap.counter("sim.controller.promotions"),
            r.controller_promotions
        );
        assert_eq!(
            snap.counter("sim.controller.demotions"),
            r.controller_demotions
        );
        assert_eq!(snap.counter("sim.controller.retired"), r.controller_retired);
        assert_eq!(snap.counter("sim.controller.copies"), r.controller_copies);
        assert_eq!(
            snap.counter("sim.controller.bytes_copied"),
            r.controller_bytes_copied
        );
    }

    #[test]
    fn controller_backs_off_while_failure_repair_runs() {
        // A server is down across the first control ticks: the controller
        // must cede the copy budget to failure repair and only count
        // backoffs until the outage clears.
        let (catalog, cluster, layout) = controller_world();
        let cfg = SimConfig {
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(3),
                down_at_min: 1.0,
                up_at_min: Some(22.0),
            }])
            .unwrap(),
            ..controller_cfg(5.0)
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&drifting_trace()).unwrap();
        // Ticks at 5/10/15/20 fall inside the outage: at least those back
        // off; later ticks promote the hot video as usual.
        assert!(r.controller_backoffs >= 4, "{}", r.controller_backoffs);
        assert!(r.controller_promotions >= 1);
        assert!(r.is_conservative());
    }

    #[test]
    fn phase_clock_times_ticks_copies_and_transitions() {
        // The back-off world: an outage (two transitions), repair and
        // controller copies, and eighteen control ticks.
        let (catalog, cluster, layout) = controller_world();
        let cfg = SimConfig {
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(3),
                down_at_min: 1.0,
                up_at_min: Some(22.0),
            }])
            .unwrap(),
            ..controller_cfg(5.0)
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let telemetry = Telemetry::enabled();
        let timed = sim
            .run_with_telemetry(&drifting_trace(), &telemetry)
            .unwrap();
        assert!(timed.controller_copies > 0);
        let snap = telemetry.snapshot();
        for name in [
            "sim.phase.control_tick_s",
            "sim.phase.copy_completion_s",
            "sim.phase.transition_s",
        ] {
            // One per-run total, and the clock read something.
            let h = snap.histogram(name);
            assert_eq!(h.count, 1, "{name}");
            assert!(h.sum > 0.0, "{name}");
        }
        // Timing moves no outcome.
        assert_eq!(timed, sim.run(&drifting_trace()).unwrap());
    }

    #[test]
    fn controller_without_repair_bandwidth_senses_but_never_copies() {
        let (catalog, cluster, layout) = controller_world();
        let cfg = SimConfig {
            repair: RepairConfig {
                bandwidth_kbps: 0,
                max_concurrent: 4,
            },
            ..controller_cfg(5.0)
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&drifting_trace()).unwrap();
        assert!(r.controller_ticks > 0);
        assert!(r.controller_promotions >= 1); // targets still move…
        assert_eq!(r.controller_copies, 0); // …but nothing is copied
        assert_eq!(r.controller_bytes_copied, 0);
        // Without new replicas the burst is still bandwidth-capped.
        assert_eq!(r.admitted, 2 + 4);
    }

    #[test]
    fn controller_demotes_cooled_videos_under_storage_pressure() {
        // Finite storage: each server fits exactly two videos, so the
        // cluster has 8 replica slots for 4 videos. Video 0 is hot early
        // and takes the spare slots; when demand shifts to video 1 the
        // controller must retire video 0's surplus to free them.
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 600).unwrap();
        let video_bytes = BitRate::MPEG2.storage_bytes(600);
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: 2 * video_bytes,
                bandwidth_kbps: 16_000,
            },
        )
        .unwrap();
        let layout = Layout::new(4, (0..4u32).map(|v| vec![ServerId(v)]).collect()).unwrap();
        let mut reqs: Vec<Request> = (0..10).map(|k| req(2.0 * k as f64, 0)).collect();
        reqs.extend((0..60).map(|k| req(30.0 + 0.5 * k as f64, 1)));
        let trace = Trace::new(reqs).unwrap();
        let sim = Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0)).unwrap();
        let r = sim.run(&trace).unwrap();
        assert!(r.controller_promotions >= 2, "{}", r.controller_promotions);
        assert!(r.controller_demotions >= 1, "{}", r.controller_demotions);
        assert!(r.controller_retired >= 1, "{}", r.controller_retired);
        assert!(r.is_conservative());
        // Deterministic replay, byte for byte.
        let again = sim.run(&trace).unwrap();
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    // ---- erasure-coded serving ----

    /// One `Coded { k, m }` video striped over the first `k + m` of `n`
    /// servers (fragment order s0, s1, …).
    fn coded_tiny(
        n: usize,
        k: u32,
        par: u32,
        bandwidth_kbps: u64,
    ) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(1, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            n,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps,
            },
        )
        .unwrap();
        let map = vod_model::redundancy::RedundancyMap::uniform(
            1,
            vod_model::redundancy::RedundancyScheme::Coded { k, m: par },
        )
        .unwrap();
        let layout = vod_placement::place_coded(n, &map).unwrap();
        (catalog, cluster, layout)
    }

    #[test]
    fn coded_stream_needs_k_free_fragment_holders() {
        // (2, 1) on 3 servers, each link fits exactly one 2 000 kbps
        // share: the first stream occupies two fragments, leaving one —
        // a concurrent request cannot gather k = 2 and is rejected.
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 2_000);
        let sim = Simulation::new(&catalog, &cluster, &layout, SimConfig::default()).unwrap();
        let r = sim
            .run(&Trace::new(vec![req(0.0, 0), req(5.0, 0), req(10.0, 0)]).unwrap())
            .unwrap();
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 1);
        assert!(r.is_conservative());
    }

    #[test]
    fn coded_single_failure_reattaches_to_parity_fragment() {
        // Serving from fragments {s0, s1}; s1 dies mid-play. The share
        // re-attaches to the parity holder s2 (a degraded read) and the
        // stream survives to completion.
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 8_000);
        let cfg = SimConfig {
            failover: FailoverPolicy::ResumeOrDegrade,
            ..failing_cfg(vec![Outage {
                server: ServerId(1),
                down_at_min: 5.0,
                up_at_min: None,
            }])
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let tel = Telemetry::enabled();
        let r = sim
            .run_with_telemetry(&Trace::new(vec![req(0.0, 0)]).unwrap(), &tel)
            .unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.disrupted, 0);
        assert_eq!(r.resumed, 1);
        assert!(r.is_conservative());
        let snap = tel.snapshot();
        assert_eq!(snap.counter("sim.coded.shares_reattached"), 1);
        assert_eq!(snap.counter("sim.coded.degraded_reads"), 1);
    }

    #[test]
    fn coded_losing_more_than_m_fragments_kills_the_stream() {
        // (2, 1) tolerates one loss; the second exceeds the parity
        // margin and the stream dies through the normal failover path.
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 8_000);
        let cfg = SimConfig {
            failover: FailoverPolicy::ResumeOrDegrade,
            ..failing_cfg(vec![
                Outage {
                    server: ServerId(0),
                    down_at_min: 4.0,
                    up_at_min: None,
                },
                Outage {
                    server: ServerId(1),
                    down_at_min: 5.0,
                    up_at_min: None,
                },
            ])
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&Trace::new(vec![req(0.0, 0)]).unwrap()).unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.resumed, 1, "first loss re-attaches to s2");
        assert_eq!(r.disrupted, 1, "second loss has no fragment left");
        assert!(r.goodput < 1.0, "killed stream forfeits its remainder");
        assert!(r.is_conservative());
    }

    #[test]
    fn coded_kill_policy_kills_on_first_loss() {
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 8_000);
        let cfg = failing_cfg(vec![Outage {
            server: ServerId(0),
            down_at_min: 5.0,
            up_at_min: None,
        }]);
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let r = sim.run(&Trace::new(vec![req(0.0, 0)]).unwrap()).unwrap();
        assert_eq!(r.disrupted, 1);
        assert_eq!(r.resumed, 0);
        assert!(r.is_conservative());
    }

    #[test]
    fn coded_layout_rejects_controller_and_backbone_redirect() {
        let (catalog, cluster, layout) = coded_tiny(3, 2, 1, 8_000);
        let backbone = SimConfig {
            policy: AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 1_000_000,
            },
            ..SimConfig::default()
        };
        assert!(Simulation::new(&catalog, &cluster, &layout, backbone).is_err());
        assert!(Simulation::new(&catalog, &cluster, &layout, controller_cfg(5.0)).is_err());
    }

    #[test]
    fn coded_repair_reconstructs_lost_fragment_mid_run() {
        // Stripe on {s0, s1, s2}; s0 dies for good at t=5. With repair
        // bandwidth the lost fragment is rebuilt on the spare s3 from
        // k = 2 survivors, and the deficit window closes right after.
        let (catalog, cluster, layout) = coded_tiny(4, 2, 1, 100_000);
        let cfg = SimConfig {
            repair: RepairConfig {
                bandwidth_kbps: 50_000,
                max_concurrent: 4,
            },
            ..failing_cfg(vec![Outage {
                server: ServerId(0),
                down_at_min: 5.0,
                up_at_min: None,
            }])
        };
        let sim = Simulation::new(&catalog, &cluster, &layout, cfg).unwrap();
        let tel = Telemetry::enabled();
        let r = sim
            .run_with_telemetry(&Trace::new(vec![]).unwrap(), &tel)
            .unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("sim.repair.coded.reconstructions"), 1);
        // Reading k fragments to write one: 2× the bytes written.
        assert_eq!(
            snap.counter("sim.repair.coded.bytes"),
            2 * r.repair_bytes_copied
        );
        assert!(r.redundancy_deficit_video_min > 0.0);
        assert!(
            r.redundancy_deficit_video_min < 5.0,
            "repair must close the deficit quickly, got {}",
            r.redundancy_deficit_video_min
        );
        assert_eq!(r.unavailability_video_min, 0.0);
    }
}
