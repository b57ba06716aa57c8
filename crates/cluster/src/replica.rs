//! An engine replica on its own thread.
//!
//! This is the engine-loop machinery the TCP frontend used to own privately:
//! requests arrive over a channel, the loop admits them, runs iterations,
//! and routes finished outputs back to per-request reply channels. Extracted
//! here so the cluster frontend can run N loops behind one router, each
//! publishing the load/coverage snapshots routing policies consume.
//!
//! Shutdown semantics: setting the shutdown flag stops *admission of new
//! work from connections* at the server layer, but the loop itself keeps
//! stepping until every queued and in-flight request has finished (and the
//! channel backlog is drained), so no accepted request is ever dropped.
//!
//! Degradation semantics (PR 5):
//!
//! * Replies are typed: `Result<RequestOutput, VllmError>`, so admission
//!   failures and degradation outcomes carry their [`vllm_core::ErrorKind`]
//!   and retryability to the caller instead of being smuggled through a
//!   sentinel request id.
//! * Admission is bounded: when the number of in-flight requests reaches
//!   the replica's capacity, new submissions are answered with
//!   [`VllmError::Rejected`] (`retry_after` hint) rather than queued
//!   silently — callers see backpressure and can re-route.
//! * An engine step error is no longer fatal: the loop aborts every live
//!   request (restoring exact block accounting), answers each in-flight
//!   reply with a retryable [`VllmError::Unavailable`], and keeps serving.
//! * A kill switch ([`Replica::inject_kill`]) makes the loop die abruptly —
//!   in-flight replies get [`VllmError::Unavailable`] — so routers and
//!   frontends can be exercised against replica loss.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use vllm_core::telemetry::Telemetry;
use vllm_core::{
    GenerationRequest, KvBlockBytes, LlmEngine, ModelExecutor, PrefixId, RequestOutput, VllmError,
};

/// Default bound on requests a replica holds in flight (queued + running)
/// before it answers submissions with [`VllmError::Rejected`].
pub const DEFAULT_MAX_INFLIGHT: usize = 1024;

/// The `retry_after` hint (seconds) carried by backpressure rejections.
pub const REJECT_RETRY_AFTER: f64 = 0.05;

/// How long an idle engine loop blocks on its channel before re-checking
/// the kill and shutdown flags. A command wakes it at once.
const IDLE_TICK: Duration = Duration::from_millis(1);

/// A snapshot of serving state published by a replica's engine loop after
/// every iteration (the `/metrics` analog of production servers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Queued requests not yet admitted.
    pub waiting: usize,
    /// Requests currently running.
    pub running: usize,
    /// Requests swapped out to CPU memory.
    pub swapped: usize,
    /// Estimated tokens of work still owed to admitted requests (prefill
    /// remainder plus decode budget; the join-shortest-queue signal).
    pub outstanding_tokens: u64,
    /// Free KV blocks in the GPU pool.
    pub free_blocks: usize,
    /// Total KV blocks in the GPU pool.
    pub total_blocks: usize,
    /// Requests completed since startup.
    pub finished: u64,
    /// Preemptions since startup.
    pub preemptions: u64,
    /// Engine steps executed since startup.
    pub steps: u64,
    /// Tokens scheduled across all steps.
    pub tokens_scheduled: u64,
    /// Copy-on-write block copies across all steps.
    pub blocks_copied: u64,
    /// Blocks swapped (in + out) across all steps.
    pub blocks_swapped: u64,
    /// Cumulative host seconds in the schedule stage.
    pub schedule_time: f64,
    /// Cumulative host seconds in the prepare stage.
    pub prepare_time: f64,
    /// Cumulative host seconds in the execute stage.
    pub execute_time: f64,
    /// Cumulative host seconds in the postprocess stage.
    pub postprocess_time: f64,
    /// Mean normalized latency over finished requests (s/token, §6.1).
    pub norm_lat_mean: f64,
    /// Median normalized latency.
    pub norm_lat_p50: f64,
    /// 90th percentile normalized latency.
    pub norm_lat_p90: f64,
    /// 99th percentile normalized latency.
    pub norm_lat_p99: f64,
    /// Mean time to first token over finished requests.
    pub ttft_mean: f64,
    /// Median time to first token.
    pub ttft_p50: f64,
    /// 99th percentile time to first token.
    pub ttft_p99: f64,
}

/// The typed reply a submitted request eventually receives.
pub type EngineReply = Result<RequestOutput, VllmError>;

/// A generation request routed to an engine thread. The reply channel
/// receives exactly one [`EngineReply`]: the finished output, or a typed
/// error (admission failure, backpressure rejection, replica loss).
pub struct EngineRequest {
    /// Globally unique request id (also the engine-side id).
    pub request_id: String,
    /// Tokenized prompt.
    pub prompt: Vec<u32>,
    /// Typed request description (decoding mode, limits, deadline,
    /// priority).
    pub request: GenerationRequest,
    /// Where the finished output (or typed failure) goes.
    pub reply: Sender<EngineReply>,
}

/// A prefix-cache operation routed to an engine thread: the engine-side
/// control plane of the KV handoff and the cluster-shared prefix tier.
/// Unlike generation requests, prefix ops are handled synchronously at the
/// next admission pass and are exempt from the in-flight bound — the control
/// plane must not starve behind data-plane backpressure.
#[derive(Debug, Clone)]
pub enum PrefixOp {
    /// Pin and compute a block-aligned prefix in the replica's pool (§4.4
    /// registration; runs a KV-only warm-up forward pass).
    Register {
        /// Prefix tokens (whole blocks are pinned for `len` rounded up).
        tokens: Vec<u32>,
    },
    /// Serialize a resident prefix's KV for a handoff.
    Export {
        /// Id returned by a prior `Register`/`Install` on this replica.
        id: PrefixId,
    },
    /// Install a prefix whose KV was computed elsewhere (the receiving half
    /// of a handoff: blocks are journaled as `CacheOps` installs).
    Install {
        /// Prefix tokens.
        tokens: Vec<u32>,
        /// Serialized KV, one entry per block.
        blocks: Vec<KvBlockBytes>,
    },
    /// Unpin a prefix registered or installed earlier; in-flight sharers
    /// keep their references.
    Release {
        /// Id returned by a prior `Register`/`Install` on this replica.
        id: PrefixId,
    },
}

/// The reply to a [`PrefixOp`].
#[derive(Debug, Clone)]
pub enum PrefixReply {
    /// `Register` pinned and computed the prefix.
    Registered {
        /// Pool id for `Export`/`Release` on this replica.
        id: PrefixId,
    },
    /// `Export` serialized the prefix.
    Exported {
        /// The prefix tokens (block-aligned length as registered).
        tokens: Vec<u32>,
        /// Serialized KV, one entry per block.
        blocks: Vec<KvBlockBytes>,
    },
    /// `Install` journaled the payload and registered the prefix.
    Installed {
        /// Pool id for `Export`/`Release` on this replica.
        id: PrefixId,
    },
    /// `Release` unpinned the prefix.
    Released,
}

/// A prefix op plus its reply channel.
pub struct PrefixRequest {
    /// The operation.
    pub op: PrefixOp,
    /// Receives exactly one reply.
    pub reply: Sender<Result<PrefixReply, VllmError>>,
}

/// One command over a replica's channel: data plane (generation) or control
/// plane (prefix ops).
pub enum EngineCommand {
    /// Admit and run a generation request.
    Generate(EngineRequest),
    /// Execute a prefix-cache operation.
    Prefix(PrefixRequest),
}

/// Handle to an engine running on its own thread.
///
/// Shutdown and join take `&self` (the thread handle sits behind a mutex) so
/// a server can share replicas with its connection handlers via `Arc` and
/// still stop them. Dropping the handle initiates shutdown and joins the
/// thread; because the loop drains first, drop blocks until all accepted
/// requests finish.
pub struct Replica {
    id: usize,
    tx: Sender<EngineCommand>,
    stats: Arc<Mutex<EngineStats>>,
    coverage: Arc<Mutex<Arc<Vec<u64>>>>,
    telemetry: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
    killed: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Replica {
    /// Spawns the engine loop for `engine` on a new thread with the default
    /// in-flight capacity ([`DEFAULT_MAX_INFLIGHT`]).
    pub fn spawn<E>(id: usize, engine: LlmEngine<E>) -> Self
    where
        E: ModelExecutor + Send + 'static,
    {
        Self::spawn_with_capacity(id, engine, DEFAULT_MAX_INFLIGHT)
    }

    /// Spawns the engine loop with an explicit bound on in-flight requests.
    /// Submissions beyond the bound are answered with
    /// [`VllmError::Rejected`] instead of queueing without limit.
    pub fn spawn_with_capacity<E>(id: usize, engine: LlmEngine<E>, max_inflight: usize) -> Self
    where
        E: ModelExecutor + Send + 'static,
    {
        let (tx, rx) = mpsc::channel::<EngineCommand>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let killed = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(EngineStats::default()));
        let coverage = Arc::new(Mutex::new(Arc::new(Vec::new())));
        let telemetry = Arc::clone(engine.telemetry());
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let killed = Arc::clone(&killed);
            let stats = Arc::clone(&stats);
            let coverage = Arc::clone(&coverage);
            std::thread::spawn(move || {
                engine_loop(
                    engine,
                    &rx,
                    &EngineLoopFlags {
                        shutdown: &shutdown,
                        killed: &killed,
                        max_inflight,
                    },
                    &stats,
                    &coverage,
                );
            })
        };
        Self {
            id,
            tx,
            stats,
            coverage,
            telemetry,
            shutdown,
            killed,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// The replica's index in its pool.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Submits one request to the engine loop. Returns the request back if
    /// the replica's loop has already exited.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the loop is no longer accepting work.
    #[allow(clippy::result_large_err)] // The caller needs the request back to report the failure.
    pub fn submit(&self, req: EngineRequest) -> Result<(), EngineRequest> {
        self.tx.send(EngineCommand::Generate(req)).map_err(|e| {
            let EngineCommand::Generate(req) = e.0 else {
                unreachable!("sent a Generate command");
            };
            req
        })
    }

    /// Executes one prefix-cache operation on the engine thread and waits
    /// for its reply (the control plane of KV handoffs and the shared
    /// prefix tier).
    ///
    /// # Errors
    ///
    /// Returns a retryable [`VllmError::Unavailable`] when the loop is gone,
    /// or the engine's own error for the operation.
    pub fn prefix_op(&self, op: PrefixOp) -> Result<PrefixReply, VllmError> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(EngineCommand::Prefix(PrefixRequest { op, reply }))
            .map_err(|_| VllmError::Unavailable("replica not accepting work".into()))?;
        rx.recv()
            .map_err(|_| VllmError::Unavailable("replica dropped the prefix op".into()))?
    }

    /// The latest published stats snapshot.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    /// The latest published prefix coverage (sorted chunk hashes of every
    /// computed prefix in the replica's pool).
    #[must_use]
    pub fn coverage(&self) -> Arc<Vec<u64>> {
        Arc::clone(&self.coverage.lock())
    }

    /// The replica engine's telemetry bundle.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Whether the replica was killed by fault injection.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Fault injection: makes the engine loop die abruptly at its next
    /// iteration boundary. Queued and in-flight requests are answered with a
    /// retryable [`VllmError::Unavailable`] so callers can re-route them;
    /// nothing is drained.
    pub fn inject_kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// Signals the loop to stop once drained. Non-blocking; pair with
    /// [`join`](Self::join).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the engine loop to drain and exit.
    pub fn join(&self) {
        let handle = self.thread.lock().take();
        if let Some(t) = handle {
            let _ = t.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.begin_shutdown();
        self.join();
    }
}

/// Republishes the pool's prefix coverage when its version moved.
fn publish_coverage<E: ModelExecutor>(
    engine: &LlmEngine<E>,
    version: &mut Option<u64>,
    coverage: &Mutex<Arc<Vec<u64>>>,
) {
    if *version != Some(engine.prefix_pool().version()) {
        *version = Some(engine.prefix_pool().version());
        *coverage.lock() = Arc::new(engine.prefix_coverage());
    }
}

/// Builds a serving snapshot from the engine's current state.
fn snapshot_stats<E: ModelExecutor>(engine: &LlmEngine<E>, finished_total: u64) -> EngineStats {
    let scheduler = engine.scheduler();
    let bm = scheduler.block_manager();
    let trace = engine.trace_stats();
    let stage_totals = trace.stage_totals();
    let latency = engine.latency();
    EngineStats {
        waiting: scheduler.num_waiting(),
        running: scheduler.num_running(),
        swapped: scheduler.num_swapped(),
        outstanding_tokens: scheduler.outstanding_tokens(),
        free_blocks: bm.num_free_gpu_blocks(),
        total_blocks: bm.num_total_gpu_blocks(),
        finished: finished_total,
        preemptions: scheduler.stats().num_preemptions,
        steps: trace.num_steps(),
        tokens_scheduled: trace.tokens_scheduled(),
        blocks_copied: trace.blocks_copied(),
        blocks_swapped: trace.blocks_swapped_in() + trace.blocks_swapped_out(),
        schedule_time: stage_totals.schedule,
        prepare_time: stage_totals.prepare,
        execute_time: stage_totals.execute,
        postprocess_time: stage_totals.postprocess,
        norm_lat_mean: latency.mean_normalized_latency().unwrap_or(0.0),
        norm_lat_p50: latency.percentile_normalized_latency(50.0).unwrap_or(0.0),
        norm_lat_p90: latency.percentile_normalized_latency(90.0).unwrap_or(0.0),
        norm_lat_p99: latency.percentile_normalized_latency(99.0).unwrap_or(0.0),
        ttft_mean: latency.mean_ttft().unwrap_or(0.0),
        ttft_p50: latency.percentile_ttft(50.0).unwrap_or(0.0),
        ttft_p99: latency.percentile_ttft(99.0).unwrap_or(0.0),
    }
}

/// Control flags and limits shared with a replica's engine loop.
struct EngineLoopFlags<'a> {
    shutdown: &'a AtomicBool,
    killed: &'a AtomicBool,
    max_inflight: usize,
}

/// The engine loop: drain new requests, run one iteration, route finished
/// outputs back to their reply channels.
///
/// A fresh [`EngineStats`] snapshot (and refreshed telemetry gauges) is
/// published on startup, after admitting requests, after every prefix op
/// (before its reply), after every iteration, and when the engine drains —
/// never only at step boundaries, so load queries reflect completions and
/// prefix releases even while the loop sits idle. The prefix coverage
/// snapshot is recomputed only when the pool's version changes.
///
/// An idle loop blocks on its channel for at most [`IDLE_TICK`], so a
/// command is handled as soon as it arrives and the kill and shutdown
/// flags are still re-checked every tick.
///
/// The loop exits when the shutdown flag is set (or every sender is gone)
/// *and* all accepted work has finished — or immediately when the kill
/// switch fires, answering in-flight replies with a retryable error.
fn engine_loop<E: ModelExecutor>(
    mut engine: LlmEngine<E>,
    rx: &Receiver<EngineCommand>,
    flags: &EngineLoopFlags<'_>,
    stats: &Mutex<EngineStats>,
    coverage: &Mutex<Arc<Vec<u64>>>,
) {
    let mut pending: Vec<(String, Sender<EngineReply>)> = Vec::new();
    let mut finished_total: u64 = 0;
    let mut coverage_version: Option<u64> = None;
    // A command the idle wait received, handled at the next iteration (after
    // the kill check, like everything else in the channel).
    let mut woke: Option<EngineCommand> = None;
    // Seed the snapshot (and the registry's gauges) so load/metrics queries
    // are meaningful before the first request arrives.
    let _ = engine.metrics_snapshot();
    *stats.lock() = snapshot_stats(&engine, finished_total);
    loop {
        if flags.killed.load(Ordering::SeqCst) {
            // Abrupt death: no drain. Everything in flight is answered with
            // a retryable error so the caller can re-route, and anything
            // still in the channel gets the same treatment.
            for (_, reply) in pending.drain(..) {
                let _ = reply.send(Err(VllmError::Unavailable("replica killed".into())));
            }
            for cmd in woke.take().into_iter().chain(rx.try_iter()) {
                match cmd {
                    EngineCommand::Generate(req) => {
                        let _ = req
                            .reply
                            .send(Err(VllmError::Unavailable("replica killed".into())));
                    }
                    EngineCommand::Prefix(p) => {
                        let _ = p
                            .reply
                            .send(Err(VllmError::Unavailable("replica killed".into())));
                    }
                }
            }
            *stats.lock() = snapshot_stats(&engine, finished_total);
            return;
        }
        publish_coverage(&engine, &mut coverage_version, coverage);
        // Admit everything that arrived since the last iteration. A closed
        // channel is not an exit condition by itself: accepted work still
        // drains below.
        let mut admitted = false;
        let mut disconnected = false;
        loop {
            let cmd = match woke.take().map_or_else(|| rx.try_recv(), Ok) {
                Ok(cmd) => cmd,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            };
            match cmd {
                EngineCommand::Generate(req) => {
                    if pending.len() >= flags.max_inflight {
                        // Bounded admission: explicit backpressure instead
                        // of silent queueing.
                        let _ = req.reply.send(Err(VllmError::Rejected {
                            retry_after: REJECT_RETRY_AFTER,
                        }));
                        continue;
                    }
                    match engine.add_generation_request(
                        req.request_id.clone(),
                        req.prompt,
                        &req.request,
                    ) {
                        Ok(()) => {
                            pending.push((req.request_id, req.reply));
                            admitted = true;
                        }
                        Err(e) => {
                            let _ = req.reply.send(Err(e));
                        }
                    }
                }
                EngineCommand::Prefix(p) => {
                    // Control plane: synchronous, exempt from the in-flight
                    // bound.
                    let result = match p.op {
                        PrefixOp::Register { tokens } => engine
                            .register_prefix(tokens)
                            .map(|id| PrefixReply::Registered { id }),
                        PrefixOp::Export { id } => engine
                            .export_prefix(id)
                            .map(|(tokens, blocks)| PrefixReply::Exported { tokens, blocks }),
                        PrefixOp::Install { tokens, blocks } => engine
                            .import_prefix(tokens, blocks)
                            .map(|id| PrefixReply::Installed { id }),
                        PrefixOp::Release { id } => {
                            engine.release_prefix(id).map(|()| PrefixReply::Released)
                        }
                    };
                    // Whoever receives the reply must find the op's effect
                    // (pinned or freed blocks, coverage) already published.
                    publish_coverage(&engine, &mut coverage_version, coverage);
                    *stats.lock() = snapshot_stats(&engine, finished_total);
                    let _ = p.reply.send(result);
                }
            }
        }
        if admitted {
            *stats.lock() = snapshot_stats(&engine, finished_total);
        }
        if !engine.has_unfinished() {
            if flags.shutdown.load(Ordering::SeqCst) || disconnected {
                break; // Drained: nothing queued, nothing in flight.
            }
            // Idle: wake on the next command, or after one tick to re-check
            // the kill and shutdown flags.
            woke = rx.recv_timeout(IDLE_TICK).ok();
            continue;
        }
        let outputs = match engine.step() {
            Ok(outputs) => outputs,
            Err(e) => {
                // Degrade instead of dying: abort everything live (releasing
                // every block the failed iteration had reserved), answer the
                // in-flight replies with a retryable error, and keep serving.
                let msg = format!("engine step failed: {e}");
                if engine.abort_all().is_err() {
                    // Accounting is corrupt; this loop cannot continue.
                    for (_, reply) in pending.drain(..) {
                        let _ = reply.send(Err(VllmError::Unavailable(msg.clone())));
                    }
                    return;
                }
                // Deliver the aborted groups out of the scheduler.
                let _ = engine.step();
                for (_, reply) in pending.drain(..) {
                    let _ = reply.send(Err(VllmError::Unavailable(msg.clone())));
                }
                *stats.lock() = snapshot_stats(&engine, finished_total);
                continue;
            }
        };
        let mut ready = Vec::new();
        for out in outputs {
            finished_total += 1;
            if let Some(pos) = pending.iter().position(|(id, _)| *id == out.request_id) {
                let (_, reply) = pending.swap_remove(pos);
                ready.push((reply, out));
            }
        }
        // Publish the post-step snapshot BEFORE answering the in-flight
        // replies: anyone who has received a completion must find it
        // already reflected in the published stats.
        *stats.lock() = snapshot_stats(&engine, finished_total);
        for (reply, out) in ready {
            let _ = reply.send(Ok(out));
        }
    }
    *stats.lock() = snapshot_stats(&engine, finished_total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use vllm_core::mock::MockExecutor;
    use vllm_core::{CacheConfig, FaultControls, FaultInjector, SchedulerConfig};

    fn small_engine() -> LlmEngine<MockExecutor> {
        let cache = CacheConfig::new(4, 64, 16).unwrap();
        let sched = SchedulerConfig::new(512, 16, 256).unwrap();
        LlmEngine::new(MockExecutor::new(1000), cache, sched)
    }

    fn request(id: &str, max_tokens: usize, reply: Sender<EngineReply>) -> EngineRequest {
        EngineRequest {
            request_id: id.into(),
            prompt: vec![1, 2, 3, 4, 5],
            request: GenerationRequest::greedy(max_tokens),
            reply,
        }
    }

    #[test]
    fn replica_serves_and_publishes_stats() {
        let replica = Replica::spawn(0, small_engine());
        let (reply_tx, reply_rx) = mpsc::channel();
        replica
            .submit(request("r0", 4, reply_tx))
            .ok()
            .expect("accepting");
        let out = reply_rx.recv().expect("one reply").expect("success");
        assert_eq!(out.request_id, "r0");
        assert_eq!(out.outputs.len(), 1);
        // The published snapshot catches up with the completion.
        for _ in 0..200 {
            if replica.stats().finished == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(replica.stats().finished, 1);
        assert!(replica.stats().total_blocks > 0);
    }

    #[test]
    fn prefix_ops_republish_stats_before_replying() {
        let replica = Replica::spawn(0, small_engine());
        let Ok(PrefixReply::Registered { id }) = replica.prefix_op(PrefixOp::Register {
            tokens: (1..=8).collect(),
        }) else {
            panic!("register failed");
        };
        // No request and no polling: the reply itself orders the snapshot.
        let total = replica.stats().total_blocks;
        assert_eq!(total, 64);
        assert_eq!(replica.stats().free_blocks, total - 2);
        assert!(matches!(
            replica.prefix_op(PrefixOp::Release { id }),
            Ok(PrefixReply::Released)
        ));
        assert_eq!(replica.stats().free_blocks, total);
        assert_eq!(replica.stats().steps, 0, "no engine step ran");
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let replica = Replica::spawn(0, small_engine());
        let mut replies = Vec::new();
        for i in 0..4 {
            let (reply_tx, reply_rx) = mpsc::channel();
            replica
                .submit(EngineRequest {
                    request_id: format!("r{i}"),
                    prompt: vec![1, 2, 3, 4, 5, 6, 7, 8],
                    request: GenerationRequest::greedy(6),
                    reply: reply_tx,
                })
                .ok()
                .expect("accepting");
            replies.push(reply_rx);
        }
        // Shut down immediately: every accepted request must still finish.
        replica.begin_shutdown();
        replica.join();
        for rx in replies {
            let out = rx.recv().expect("drained reply").expect("success");
            assert_eq!(out.outputs.len(), 1);
        }
        assert_eq!(replica.stats().finished, 4);
    }

    #[test]
    fn admission_failure_is_typed() {
        let replica = Replica::spawn(0, small_engine());
        let (reply_tx, reply_rx) = mpsc::channel();
        replica
            .submit(EngineRequest {
                request_id: "bad".into(),
                prompt: Vec::new(), // Empty prompt: admission fails.
                request: GenerationRequest::greedy(4),
                reply: reply_tx,
            })
            .ok()
            .expect("accepting");
        let err = reply_rx.recv().expect("one reply").unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn bounded_admission_rejects_with_retry_after() {
        // Capacity 1: the second of two quickly submitted long requests is
        // rejected with a retryable backpressure error (timing-dependent
        // which one, so submit enough to guarantee at least one rejection).
        let replica = Replica::spawn_with_capacity(0, small_engine(), 1);
        let mut replies = Vec::new();
        for i in 0..6 {
            let (reply_tx, reply_rx) = mpsc::channel();
            replica
                .submit(EngineRequest {
                    request_id: format!("r{i}"),
                    prompt: vec![1, 2, 3, 4, 5, 6, 7, 8],
                    request: GenerationRequest::greedy(32),
                    reply: reply_tx,
                })
                .ok()
                .expect("accepting");
            replies.push(reply_rx);
        }
        replica.begin_shutdown();
        replica.join();
        let results: Vec<EngineReply> = replies.iter().map(|rx| rx.recv().unwrap()).collect();
        let rejected: Vec<&VllmError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        assert!(!rejected.is_empty(), "expected at least one rejection");
        for e in rejected {
            assert!(matches!(e, VllmError::Rejected { .. }));
            assert!(e.is_retryable());
            assert!(e.retry_after().unwrap() > 0.0);
        }
        // Every request got exactly one reply (completed or rejected).
        assert_eq!(results.len(), 6);
    }

    #[test]
    fn injected_kill_answers_inflight_with_retryable_error() {
        let replica = Replica::spawn(0, small_engine());
        let mut replies = Vec::new();
        for i in 0..3 {
            let (reply_tx, reply_rx) = mpsc::channel();
            replica
                .submit(EngineRequest {
                    request_id: format!("r{i}"),
                    prompt: vec![1, 2, 3, 4, 5, 6, 7, 8],
                    request: GenerationRequest::greedy(64),
                    reply: reply_tx,
                })
                .ok()
                .expect("accepting");
            replies.push(reply_rx);
        }
        replica.inject_kill();
        replica.join();
        assert!(replica.is_killed());
        // Every reply arrives: either the request finished before the kill
        // landed, or it carries a retryable unavailability error.
        for rx in replies {
            match rx.recv().expect("reply delivered") {
                Ok(out) => assert_eq!(out.outputs.len(), 1),
                Err(e) => assert!(e.is_retryable()),
            }
        }
    }

    #[test]
    fn prefix_ops_round_trip_across_replicas() {
        // Register on one replica, export, install on another: the §4.4
        // handoff control plane over the command channel.
        let src = Replica::spawn(0, small_engine());
        let dst = Replica::spawn(1, small_engine());
        let tokens: Vec<u32> = (1..=32).collect();
        let PrefixReply::Registered { id } = src
            .prefix_op(PrefixOp::Register {
                tokens: tokens.clone(),
            })
            .expect("register")
        else {
            panic!("expected Registered");
        };
        let PrefixReply::Exported { tokens: t, blocks } =
            src.prefix_op(PrefixOp::Export { id }).expect("export")
        else {
            panic!("expected Exported");
        };
        assert_eq!(t, tokens);
        assert_eq!(blocks.len(), 8); // 32 tokens / block size 4.
        let PrefixReply::Installed { id: installed } = dst
            .prefix_op(PrefixOp::Install { tokens: t, blocks })
            .expect("install")
        else {
            panic!("expected Installed");
        };
        // A request extending the installed prefix shares its blocks.
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut prompt = tokens.clone();
        prompt.extend([100, 101, 102]);
        dst.submit(EngineRequest {
            request_id: "r0".into(),
            prompt,
            request: GenerationRequest::greedy(4),
            reply: reply_tx,
        })
        .ok()
        .expect("accepting");
        let out = reply_rx.recv().expect("reply").expect("success");
        assert_eq!(out.outputs.len(), 1);
        assert!(matches!(
            dst.prefix_op(PrefixOp::Release { id: installed }),
            Ok(PrefixReply::Released)
        ));
        // Releasing on the source too; a second release is a typed error.
        src.prefix_op(PrefixOp::Release { id }).expect("release");
        assert!(src.prefix_op(PrefixOp::Release { id }).is_err());
        // Ops against a dead replica degrade to a retryable error.
        src.inject_kill();
        src.join();
        let err = src
            .prefix_op(PrefixOp::Register { tokens })
            .expect_err("dead replica");
        assert!(err.is_retryable());
    }

    #[test]
    fn step_error_degrades_without_killing_the_loop() {
        let controls = FaultControls::new();
        let cache = CacheConfig::new(4, 64, 16).unwrap();
        let sched = SchedulerConfig::new(512, 16, 256).unwrap();
        let engine = LlmEngine::new(
            FaultInjector::new(MockExecutor::new(1000), Arc::clone(&controls)),
            cache,
            sched,
        );
        let replica = Replica::spawn(0, engine);

        // First request hits an injected forward fault.
        controls.fail_next_forwards(1);
        let (reply_tx, reply_rx) = mpsc::channel();
        replica
            .submit(request("r0", 4, reply_tx))
            .ok()
            .expect("accepting");
        let err = reply_rx.recv().expect("reply").unwrap_err();
        assert!(err.is_retryable());

        // The loop survived: a follow-up request completes normally.
        let (reply_tx, reply_rx) = mpsc::channel();
        replica
            .submit(request("r1", 4, reply_tx))
            .ok()
            .expect("accepting");
        let out = reply_rx.recv().expect("reply").expect("success");
        assert_eq!(out.request_id, "r1");
        assert_eq!(out.outputs.len(), 1);
    }
}
