//! The LLM serving engine (Fig. 4): an explicit four-stage step pipeline
//! coupling the scheduler and block manager with a pluggable
//! [`ModelExecutor`].
//!
//! Each [`LlmEngine::step`] call runs the stages in order:
//!
//! 1. **schedule** — [`crate::scheduler::Scheduler::schedule`] plans the
//!    iteration as an immutable [`StepPlan`], batching all cache operations
//!    (swap in/out, copy-on-write) drained from the block manager.
//! 2. **prepare** — [`crate::plan::materialize_batch`] fills the plan with
//!    per-sequence model inputs.
//! 3. **execute** — the executor consumes the plan via
//!    [`ModelExecutor::begin_step`] and returns sampled candidates.
//! 4. **postprocess** — `crate::postprocess` applies the outputs (appended
//!    tokens, parallel-sampling forks, beam updates, stop conditions) and
//!    reaps finished requests.
//!
//! Every step — including empty ones — emits a [`StepTrace`] with per-stage
//! wall times and cache-op counts, queryable via [`LlmEngine::last_trace`]
//! and aggregated by [`LlmEngine::trace_stats`]. Serving time stays virtual:
//! the executor reports how long the iteration took (wall-clock for the
//! numeric backend, modeled for the simulator), so the same engine drives
//! both real inference and trace-driven evaluation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use vllm_telemetry::{
    splitmix64, trace_seed, EventKind, MetricsSnapshot, SloMonitor, Span, Telemetry, TraceContext,
};

use crate::block::PhysicalBlockId;
use crate::block_manager::PoolRemap;
use crate::config::{CacheConfig, SchedulerConfig};
use crate::elastic::{ElasticController, PoolPressure};
use crate::error::{Result, VllmError};
use crate::executor::{CacheOps, ModelExecutor, SeqStepInput, StepResult};
use crate::handoff::{KvBlockBytes, KvBlockInstall};
use crate::metrics::{EngineMetrics, LatencyTracker, MemoryStats, StepSnapshot, TraceStats};
use crate::plan::{materialize_batch, StageTimings, StepPlan, StepTrace};
use crate::prefix::{PrefixId, PrefixPool};
use crate::request::GenerationRequest;
use crate::sampling::{DecodingMode, SamplingParams, TokenId};
use crate::scheduler::Scheduler;
use crate::sequence::{SeqId, Sequence, SequenceGroup, SequenceStatus};

/// One finished output sequence of a request.
#[derive(Debug, Clone)]
pub struct CompletionOutput {
    /// Sequence id.
    pub seq_id: SeqId,
    /// Generated tokens (relative to the original user prompt).
    pub tokens: Vec<TokenId>,
    /// Cumulative log-probability (meaningful for beam search).
    pub cumulative_logprob: f64,
    /// Terminal status of the sequence.
    pub finish_reason: SequenceStatus,
}

/// A finished request.
#[derive(Debug, Clone)]
pub struct RequestOutput {
    /// Request id.
    pub request_id: String,
    /// Original prompt length in tokens.
    pub prompt_len: usize,
    /// Output sequences (the best `n` for beam search).
    pub outputs: Vec<CompletionOutput>,
    /// Arrival time (virtual seconds).
    pub arrival_time: f64,
    /// Completion time (virtual seconds).
    pub finish_time: f64,
    /// Time the first output token was produced, if any.
    pub first_token_time: Option<f64>,
    /// How often the request was preempted.
    pub num_preemptions: u32,
}

impl RequestOutput {
    /// Mean number of generated tokens per output sequence.
    #[must_use]
    pub fn mean_output_len(&self) -> f64 {
        if self.outputs.is_empty() {
            return 0.0;
        }
        self.outputs.iter().map(|o| o.tokens.len()).sum::<usize>() as f64
            / self.outputs.len() as f64
    }
}

/// Point-in-time load summary of one engine, published by replica threads
/// and consumed by cluster routing policies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineLoad {
    /// Requests queued but not yet admitted.
    pub waiting: usize,
    /// Requests currently in the running batch.
    pub running: usize,
    /// Requests preempted to CPU memory.
    pub swapped: usize,
    /// Free GPU KV blocks.
    pub free_blocks: usize,
    /// Total GPU KV blocks.
    pub total_blocks: usize,
    /// Estimated tokens of work still owed to admitted requests
    /// (see [`Scheduler::outstanding_tokens`]).
    pub outstanding_tokens: u64,
    /// Median normalized latency over finished requests (s/token); 0 until
    /// the first request finishes.
    pub norm_lat_p50: f64,
}

/// The serving engine, generic over the execution backend.
#[derive(Debug)]
pub struct LlmEngine<E: ModelExecutor> {
    pub(crate) scheduler: Scheduler,
    pub(crate) executor: E,
    pub(crate) cache_config: CacheConfig,
    pub(crate) next_seq_id: SeqId,
    pub(crate) clock: f64,
    pub(crate) latency: LatencyTracker,
    pub(crate) memory_stats: MemoryStats,
    pub(crate) prefix_pool: PrefixPool,
    /// Automatically match new prompts against registered prefixes.
    pub(crate) auto_prefix_match: bool,
    /// Whether forked sequences share blocks (copy-on-write). Disabling
    /// this replicates blocks eagerly — the contiguous-system behaviour —
    /// for the sharing ablation.
    pub(crate) sharing_enabled: bool,
    /// Requests whose KV cache is promoted to the prefix cache on finish
    /// (conversation reuse extension).
    pub(crate) retain_requests: std::collections::HashSet<String>,
    /// Prefix ids produced by retention, keyed by request id.
    pub(crate) promoted_prefixes: HashMap<String, PrefixId>,
    /// Monotone step counter for trace indexing.
    step_counter: u64,
    /// Trace of the most recent step.
    last_trace: Option<StepTrace>,
    /// Aggregate of all step traces.
    trace_stats: TraceStats,
    /// Shared telemetry bundle (metrics registry + lifecycle event log).
    pub(crate) telemetry: Arc<Telemetry>,
    /// Cached engine/scheduler/block-manager instrument handles.
    pub(crate) tmetrics: EngineMetrics,
    /// Fraction of requests sampled for tracing (`VLLM_TRACE_SAMPLE`,
    /// default 1.0). The per-request decision is deterministic in the
    /// request id, so replays trace the same requests.
    trace_sample: f64,
    /// SLO monitor, present when any `VLLM_SLO_*` objective is configured;
    /// evaluated on every [`LlmEngine::metrics_snapshot`].
    slo: Option<SloMonitor>,
    /// Elastic pool controller, consulted at the top of every step when set.
    elastic: Option<ElasticController>,
    /// GPU pool size the engine was constructed with, the restore point for
    /// fault-injected deflations.
    base_gpu_blocks: usize,
    /// CPU pool size the engine was constructed with.
    base_cpu_blocks: usize,
}

impl<E: ModelExecutor> LlmEngine<E> {
    /// Creates an engine over a fresh scheduler and block manager.
    #[must_use]
    pub fn new(executor: E, cache_config: CacheConfig, scheduler_config: SchedulerConfig) -> Self {
        // `VLLM_STEP_TOKEN_BUDGET` opts the engine into chunked prefill
        // when the configuration did not choose explicitly, clamped so a
        // chunk can never exceed the per-step batch cap.
        let mut scheduler_config = scheduler_config;
        if scheduler_config.step_token_budget.is_none() {
            scheduler_config.step_token_budget = crate::config::step_token_budget_from_env()
                .map(|b| b.min(scheduler_config.max_num_batched_tokens));
        }
        let scheduler = Scheduler::new(scheduler_config, &cache_config);
        let telemetry = Arc::new(Telemetry::new());
        let tmetrics = EngineMetrics::register(&telemetry);
        let trace_sample = std::env::var("VLLM_TRACE_SAMPLE")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map_or(1.0, |v| v.clamp(0.0, 1.0));
        let slo = SloMonitor::from_env(&telemetry);
        let base_gpu_blocks = cache_config.num_gpu_blocks;
        let base_cpu_blocks = cache_config.num_cpu_blocks;
        let mut executor = executor;
        executor.attach_telemetry(&telemetry);
        Self {
            scheduler,
            executor,
            cache_config,
            next_seq_id: 0,
            clock: 0.0,
            latency: LatencyTracker::new(),
            memory_stats: MemoryStats::new(),
            prefix_pool: PrefixPool::new(),
            auto_prefix_match: true,
            sharing_enabled: true,
            retain_requests: std::collections::HashSet::new(),
            promoted_prefixes: HashMap::new(),
            step_counter: 0,
            last_trace: None,
            trace_stats: TraceStats::default(),
            telemetry,
            tmetrics,
            trace_sample,
            slo,
            elastic: None,
            base_gpu_blocks,
            base_cpu_blocks,
        }
    }

    /// Disables automatic shared-prefix matching (ablation).
    pub fn set_auto_prefix_match(&mut self, enabled: bool) {
        self.auto_prefix_match = enabled;
    }

    /// Enables or disables block sharing between forked sequences
    /// (ablation). With sharing off, every fork eagerly copies the parent's
    /// blocks, as a contiguous-KV system must, and admission reserves the
    /// request's full fan-out.
    pub fn set_block_sharing(&mut self, enabled: bool) {
        self.sharing_enabled = enabled;
        self.scheduler.block_manager_mut().fanout_admission = !enabled;
    }

    /// Enables (`Some`, non-zero) or disables (`None`) scheduler-budgeted
    /// chunked prefill (see [`crate::config::STEP_TOKEN_BUDGET_ENV`]).
    pub fn set_step_token_budget(&mut self, budget: Option<usize>) {
        self.scheduler.set_step_token_budget(budget);
    }

    /// Current virtual time in seconds.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the virtual clock (used by trace drivers while idle).
    pub fn advance_clock_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// The scheduler (queue/occupancy introspection).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The KV cache geometry this engine was built with.
    #[must_use]
    pub fn cache_config(&self) -> &CacheConfig {
        &self.cache_config
    }

    /// The shared-prefix registry (§4.4). Read-only; use
    /// [`register_prefix`](Self::register_prefix) /
    /// [`release_prefix`](Self::release_prefix) to mutate it.
    #[must_use]
    pub fn prefix_pool(&self) -> &PrefixPool {
        &self.prefix_pool
    }

    /// A point-in-time load summary for routing decisions. Cheap except for
    /// `outstanding_tokens`, which walks the live queues.
    #[must_use]
    pub fn load_snapshot(&self) -> EngineLoad {
        let bm = self.scheduler.block_manager();
        EngineLoad {
            waiting: self.scheduler.num_waiting(),
            running: self.scheduler.num_running(),
            swapped: self.scheduler.num_swapped(),
            free_blocks: bm.num_free_gpu_blocks(),
            total_blocks: bm.num_total_gpu_blocks(),
            outstanding_tokens: self.scheduler.outstanding_tokens(),
            norm_lat_p50: self
                .latency
                .percentile_normalized_latency(50.0)
                .unwrap_or(0.0),
        }
    }

    /// The chunk hashes of every computed prefix resident in this engine's
    /// pool (see [`PrefixPool::coverage_hashes`]); the pool
    /// [`version`](PrefixPool::version) lets callers cache the result.
    #[must_use]
    pub fn prefix_coverage(&self) -> Vec<u64> {
        self.prefix_pool
            .coverage_hashes(self.cache_config.block_size)
    }

    /// The execution backend.
    #[must_use]
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// The execution backend, mutably.
    pub fn executor_mut(&mut self) -> &mut E {
        &mut self.executor
    }

    /// Per-request latency metrics.
    #[must_use]
    pub fn latency(&self) -> &LatencyTracker {
        &self.latency
    }

    /// Time-weighted memory/batch metrics.
    #[must_use]
    pub fn memory_stats(&self) -> &MemoryStats {
        &self.memory_stats
    }

    /// The shared telemetry bundle: metrics registry plus the per-request
    /// lifecycle event log. Clone the `Arc` to observe the engine from
    /// another thread (the frontend does this for `METRICS`/`EVENTS`).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Cached engine instrument handles (tests and embedding harnesses).
    #[must_use]
    pub fn engine_metrics(&self) -> &EngineMetrics {
        &self.tmetrics
    }

    /// Publishes the current scheduler/block-manager gauges and returns a
    /// point-in-time snapshot of every registered metric.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.publish_gauges();
        let snap = self.telemetry.registry().snapshot();
        if let Some(slo) = &self.slo {
            // Evaluation updates the `vllm_slo_*` burn gauges and breach
            // counters; re-snapshot so callers see them.
            slo.evaluate(&snap);
            return self.telemetry.registry().snapshot();
        }
        snap
    }

    /// The SLO monitor configured from `VLLM_SLO_*`, if any.
    #[must_use]
    pub fn slo_monitor(&self) -> Option<&SloMonitor> {
        self.slo.as_ref()
    }

    /// The structured trace of the most recent step, if any step has run.
    #[must_use]
    pub fn last_trace(&self) -> Option<&StepTrace> {
        self.last_trace.as_ref()
    }

    /// Aggregated per-stage timings and cache-op counts across all steps.
    #[must_use]
    pub fn trace_stats(&self) -> &TraceStats {
        &self.trace_stats
    }

    /// Whether any request is queued, running, or swapped.
    #[must_use]
    pub fn has_unfinished(&self) -> bool {
        self.scheduler.has_unfinished()
    }

    /// Adds a request arriving now.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] for invalid sampling parameters.
    pub fn add_request(
        &mut self,
        request_id: impl Into<String>,
        prompt: Vec<TokenId>,
        params: SamplingParams,
    ) -> Result<()> {
        let now = self.clock;
        self.add_request_at(request_id, prompt, params, now)
    }

    /// Adds a request with an explicit arrival time (trace replay).
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] for invalid sampling parameters
    /// or an empty prompt.
    pub fn add_request_at(
        &mut self,
        request_id: impl Into<String>,
        prompt: Vec<TokenId>,
        params: SamplingParams,
        arrival_time: f64,
    ) -> Result<()> {
        self.add_request_traced(request_id.into(), prompt, params, arrival_time, None)
    }

    /// Shared admission path: mints the group's trace context (or adopts a
    /// propagated one) and records the `admit` instant span.
    fn add_request_traced(
        &mut self,
        request_id: String,
        prompt: Vec<TokenId>,
        params: SamplingParams,
        arrival_time: f64,
        trace: Option<TraceContext>,
    ) -> Result<()> {
        params.validate()?;
        if prompt.is_empty() {
            return Err(VllmError::InvalidConfig("empty prompt".into()));
        }
        let seq = Sequence::new(
            self.alloc_seq_id(),
            prompt.clone(),
            self.cache_config.block_size,
        );
        let mut group = SequenceGroup::new(request_id, seq, params, arrival_time);
        group.trace = trace.unwrap_or_else(|| {
            TraceContext::mint(
                trace_seed(&group.request_id),
                self.sample_decision(&group.request_id),
            )
        });
        if self.auto_prefix_match {
            if let Some(pid) = self.prefix_pool.match_prompt(&prompt) {
                let prefix = self.prefix_pool.get(pid).expect("matched prefix exists");
                group.cached_prefix_len = prefix.len();
                group.prefix_blocks = prefix.blocks.clone();
            }
        }
        self.tmetrics.requests_arrived_total.inc();
        self.telemetry
            .events()
            .record(&group.request_id, arrival_time, EventKind::Arrived);
        if group.trace.is_active() {
            let admit = group.trace.child(0);
            self.telemetry.spans().record(Span {
                trace_id: admit.trace_id,
                span_id: admit.span_id,
                parent_span_id: admit.parent_span_id,
                name: "admit".to_string(),
                start: arrival_time,
                end: arrival_time,
                attrs: vec![("request_id".to_string(), group.request_id.clone())],
            });
        }
        self.scheduler.add_group(group);
        Ok(())
    }

    /// Deterministic per-request sampling decision: hash the request id and
    /// compare against `trace_sample`, so replays trace the same subset.
    fn sample_decision(&self, request_id: &str) -> bool {
        if self.trace_sample >= 1.0 {
            return true;
        }
        if self.trace_sample <= 0.0 {
            return false;
        }
        let h = splitmix64(trace_seed(request_id) ^ 0x5bf0_3635_4cb6_28d9);
        (h as f64 / u64::MAX as f64) < self.trace_sample
    }

    /// Adds a typed [`GenerationRequest`] arriving now. This is the serving
    /// entry point used by the frontend, the replica admission loop, and the
    /// cluster simulator.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidRequest`] for inconsistent request fields
    /// and [`VllmError::InvalidConfig`] for an empty prompt.
    pub fn add_generation_request(
        &mut self,
        request_id: impl Into<String>,
        prompt: Vec<TokenId>,
        request: &GenerationRequest,
    ) -> Result<()> {
        let now = self.clock;
        self.add_generation_request_at(request_id, prompt, request, now)
    }

    /// Adds a typed [`GenerationRequest`] with an explicit arrival time
    /// (trace replay). The request's relative deadline, if any, becomes an
    /// absolute virtual-time deadline of `arrival_time + deadline`; its
    /// priority feeds the scheduler's (priority, arrival) queue order.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidRequest`] for inconsistent request fields
    /// and [`VllmError::InvalidConfig`] for an empty prompt.
    pub fn add_generation_request_at(
        &mut self,
        request_id: impl Into<String>,
        prompt: Vec<TokenId>,
        request: &GenerationRequest,
        arrival_time: f64,
    ) -> Result<()> {
        let params = request.sampling_params()?;
        let request_id = request_id.into();
        self.add_request_traced(
            request_id.clone(),
            prompt,
            params,
            arrival_time,
            request.trace,
        )?;
        if request.deadline.is_some() || request.priority != 0 {
            let group = self
                .scheduler
                .group_mut(&request_id)
                .expect("group was just added");
            group.deadline = request.deadline.map(|d| arrival_time + d);
            group.priority = request.priority;
        }
        Ok(())
    }

    /// Aborts a live request.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownRequest`] if no live group matches.
    pub fn abort_request(&mut self, request_id: &str) -> Result<()> {
        self.scheduler.abort(request_id)
    }

    /// Aborts every live request, freeing all their blocks and restoring
    /// the engine to an empty, consistent state. Used by serving loops to
    /// recover after an executor failure mid-step (the affected iteration's
    /// reservations are released wholesale). The aborted groups are
    /// delivered, output-less, by the next [`Self::step`]'s reap.
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors.
    pub fn abort_all(&mut self) -> Result<Vec<String>> {
        self.scheduler.abort_all()
    }

    /// Enables or disables the CPU swap pool (fault injection: an exhausted
    /// or failed swap device). While disabled, preemption falls back to
    /// recomputation exactly as when the pool is full (§4.5).
    pub fn set_swap_disabled(&mut self, disabled: bool) {
        self.scheduler
            .block_manager_mut()
            .set_swap_disabled(disabled);
    }

    /// Installs (or removes) an elastic pool controller. When set, the
    /// engine samples [`PoolPressure`] at the top of every step and applies
    /// the controller's resize proposals before scheduling, so the resize's
    /// migration journal rides that step's [`StepPlan`].
    pub fn set_elastic(&mut self, controller: Option<ElasticController>) {
        self.elastic = controller;
    }

    /// The installed elastic controller, if any.
    #[must_use]
    pub fn elastic(&self) -> Option<&ElasticController> {
        self.elastic.as_ref()
    }

    /// Point-in-time pool pressure, the controller's input signal.
    #[must_use]
    pub fn pool_pressure(&self) -> PoolPressure {
        let bm = self.scheduler.block_manager();
        PoolPressure {
            total_blocks: bm.num_total_gpu_blocks(),
            free_blocks: bm.num_free_gpu_blocks(),
            allocated_blocks: bm.num_allocated_gpu_blocks(),
            waiting: self.scheduler.num_waiting(),
            swapped: self.scheduler.num_swapped(),
        }
    }

    /// Resizes the GPU and CPU block pools at runtime. Shrinking compacts
    /// first (live blocks migrate into holes below the new bound, journaled
    /// as `moves` in the next step's cache ops); every holder of raw block
    /// ids — block tables, pinned prefixes, groups' cached prefix ids — is
    /// remapped here, so callers need no follow-up.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if a pool would shrink below its
    /// live working set (the pools are left unchanged).
    pub fn resize_pools(&mut self, gpu_blocks: usize, cpu_blocks: usize) -> Result<PoolRemap> {
        let remap = self
            .scheduler
            .block_manager_mut()
            .resize(gpu_blocks, cpu_blocks)?;
        self.apply_remap(&remap);
        self.cache_config.num_gpu_blocks = gpu_blocks;
        self.cache_config.num_cpu_blocks = cpu_blocks;
        Ok(remap)
    }

    /// Fully defragments both pools without resizing: live blocks pack into
    /// the lowest ids, the data moves journaled into the next step's cache
    /// ops, and all raw-id holders remapped.
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors (corrupted accounting).
    pub fn compact_pools(&mut self) -> Result<PoolRemap> {
        let remap = self.scheduler.block_manager_mut().compact()?;
        self.apply_remap(&remap);
        Ok(remap)
    }

    /// Deflates the GPU pool to `fraction` of its configured size (fault
    /// injection: external memory pressure reclaiming KV capacity). The
    /// target is clamped so the live working set always fits. Returns the
    /// new pool size in blocks.
    ///
    /// # Errors
    ///
    /// Propagates resize errors.
    pub fn deflate_pool(&mut self, fraction: f64) -> Result<usize> {
        let fraction = fraction.clamp(0.0, 1.0);
        let target = ((self.base_gpu_blocks as f64 * fraction) as usize)
            .max(self.scheduler.block_manager().num_allocated_gpu_blocks())
            .max(1);
        let cpu = self.scheduler.block_manager().num_total_cpu_blocks();
        self.resize_pools(target, cpu)?;
        Ok(target)
    }

    /// Restores both pools to the sizes the engine was constructed with
    /// (recovery from [`Self::deflate_pool`]).
    ///
    /// # Errors
    ///
    /// Propagates resize errors.
    pub fn restore_pool(&mut self) -> Result<()> {
        self.resize_pools(self.base_gpu_blocks, self.base_cpu_blocks)?;
        Ok(())
    }

    /// Follows a compaction's old→new id mapping everywhere raw GPU block
    /// ids live outside the block manager: the pinned prefix registry and
    /// the cached prefix ids on live groups.
    fn apply_remap(&mut self, remap: &PoolRemap) {
        if remap.gpu.is_empty() {
            return;
        }
        self.prefix_pool.remap_blocks(&remap.gpu);
        self.scheduler.remap_prefix_blocks(&remap.gpu);
    }

    /// Registers a shared prefix (§4.4): pins blocks for it and runs a
    /// KV-only prefill so later prompts that start with `tokens` skip the
    /// prefix computation and share its blocks.
    ///
    /// When a computed prefix `tokens` extends is already resident, its
    /// whole blocks are shared rather than recomputed and the warm-up
    /// covers only the rest, as a prefill chunk over the cached rows. KV at
    /// a position depends only on the tokens up to it, and a chunk's rows
    /// are bit-identical to the same rows of a whole-prompt prefill, so the
    /// result equals a from-scratch registration.
    ///
    /// This is an offline provisioning step; it does not advance the serving
    /// clock.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::OutOfGpuBlocks`] if the pool cannot pin the
    /// prefix, or executor errors from the warm-up run.
    pub fn register_prefix(&mut self, tokens: Vec<TokenId>) -> Result<PrefixId> {
        if tokens.is_empty() {
            return Err(VllmError::InvalidConfig("empty prefix".into()));
        }
        let bs = self.cache_config.block_size;
        let n = tokens.len().div_ceil(bs);
        let shared: Vec<PhysicalBlockId> = self
            .prefix_pool
            .match_prompt(&tokens)
            .and_then(|pid| self.prefix_pool.get(pid))
            .map(|p| p.blocks[..p.len() / bs].to_vec())
            .unwrap_or_default();
        let bm = self.scheduler.block_manager_mut();
        let fresh = bm.allocate_anchor_blocks(n - shared.len())?;
        bm.share_anchor_blocks(&shared)?;
        let blocks: Vec<PhysicalBlockId> = shared.iter().chain(&fresh).copied().collect();
        let num_cached_tokens = shared.len() * bs;
        let warmup = StepPlan {
            is_prompt_run: true,
            items: vec![SeqStepInput {
                // Prefix warm-ups use a reserved id space far above request
                // sequence ids.
                seq_id: u64::MAX - self.prefix_pool.len() as u64,
                tokens: tokens.clone(),
                first_position: 0,
                num_cached_tokens,
                block_table: blocks.clone(),
                num_candidates: 0,
                mode: DecodingMode::Greedy,
                seed: 0,
                // A warm-up over cached rows is a prefill chunk: it must
                // keep the prefill kernel even for a one-row remainder.
                chunked: num_cached_tokens > 0,
            }],
            block_size: bs,
            ..StepPlan::default()
        };
        if let Err(e) = self.executor.begin_step(&warmup) {
            // A failed warm-up must not leak the anchors.
            self.scheduler
                .block_manager_mut()
                .free_anchor_blocks(&blocks)?;
            return Err(e);
        }
        let id = self.prefix_pool.insert(tokens, blocks);
        self.prefix_pool.mark_computed(id);
        Ok(id)
    }

    /// Serializes a registered prefix for a KV handoff: its tokens plus one
    /// [`KvBlockBytes`] per pinned block, read from the executor's KV
    /// storage. Backends without addressable KV (mock, simulator) export
    /// empty-bodied blocks — the handoff bookkeeping is identical, only the
    /// install becomes a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownRequest`] if the prefix id is unknown.
    pub fn export_prefix(&self, id: PrefixId) -> Result<(Vec<TokenId>, Vec<KvBlockBytes>)> {
        let prefix = self
            .prefix_pool
            .get(id)
            .ok_or_else(|| VllmError::UnknownRequest(format!("prefix {id}")))?;
        let bytes = self.executor.export_kv_blocks(&prefix.blocks);
        Ok((prefix.tokens.clone(), bytes))
    }

    /// Installs a prefix whose KV was computed *elsewhere* (the receiving
    /// half of a KV handoff, §4.4 sharing stretched across replicas): pins
    /// anchor blocks, journals the payload as [`CacheOps`] `installs` —
    /// applied by the executor under the same ordering contract as swaps
    /// and copies, never behind the journal's back — and registers the
    /// prefix as computed. Unlike [`Self::register_prefix`] there is no
    /// warm-up forward pass: the KV arrives in the payload, which is the
    /// entire point of disaggregated prefill.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::Protocol`] when the block count disagrees with
    /// the token count, [`VllmError::OutOfGpuBlocks`] when the pool cannot
    /// pin the prefix, or executor errors from the install step.
    pub fn import_prefix(
        &mut self,
        tokens: Vec<TokenId>,
        data: Vec<KvBlockBytes>,
    ) -> Result<PrefixId> {
        if tokens.is_empty() {
            return Err(VllmError::InvalidConfig("empty prefix".into()));
        }
        let bs = self.cache_config.block_size;
        let n = tokens.len().div_ceil(bs);
        if data.len() != n {
            return Err(VllmError::Protocol(format!(
                "prefix import carries {} blocks but {} tokens need {}",
                data.len(),
                tokens.len(),
                n
            )));
        }
        let blocks = self
            .scheduler
            .block_manager_mut()
            .allocate_anchor_blocks(n)?;
        let install = StepPlan {
            cache_ops: CacheOps {
                installs: blocks
                    .iter()
                    .zip(data)
                    .map(|(&dst, data)| KvBlockInstall { dst, data })
                    .collect(),
                ..CacheOps::default()
            },
            block_size: bs,
            ..StepPlan::default()
        };
        if let Err(e) = self.executor.begin_step(&install) {
            // Failed installs must not leak the anchors.
            self.scheduler
                .block_manager_mut()
                .free_anchor_blocks(&blocks)?;
            return Err(e);
        }
        let id = self.prefix_pool.insert(tokens, blocks);
        self.prefix_pool.mark_computed(id);
        Ok(id)
    }

    /// Marks a live request for KV retention: when its (single) sequence
    /// finishes, its computed KV blocks are promoted into the prefix cache
    /// in place — no copy, no recompute — so a follow-up prompt extending
    /// this conversation skips the history prefill. Fetch the resulting id
    /// with [`Self::promoted_prefix`].
    ///
    /// Only meaningful for `n == 1` requests; beam/parallel requests are
    /// not promoted.
    pub fn retain_kv(&mut self, request_id: impl Into<String>) {
        self.retain_requests.insert(request_id.into());
    }

    /// The prefix id produced by [`Self::retain_kv`] for a finished
    /// request, if promotion happened.
    #[must_use]
    pub fn promoted_prefix(&self, request_id: &str) -> Option<PrefixId> {
        self.promoted_prefixes.get(request_id).copied()
    }

    /// Releases a registered prefix, unpinning its blocks. In-flight
    /// requests that already mapped the prefix keep their references; the
    /// blocks are reclaimed once the last sharer frees them.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownRequest`] if the prefix id is unknown or
    /// already released.
    pub fn release_prefix(&mut self, id: PrefixId) -> Result<()> {
        let prefix = self
            .prefix_pool
            .remove(id)
            .ok_or_else(|| VllmError::UnknownRequest(format!("prefix {id}")))?;
        self.scheduler
            .block_manager_mut()
            .free_anchor_blocks(&prefix.blocks)
    }

    /// Runs one iteration through the four pipeline stages (schedule →
    /// prepare → execute → postprocess) and returns the requests that
    /// finished during the step. A [`StepTrace`] is recorded for every call,
    /// including steps that found no work.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and executor errors.
    pub fn step(&mut self) -> Result<Vec<RequestOutput>> {
        let step_index = self.step_counter;
        self.step_counter += 1;

        // Deadline enforcement precedes scheduling so an expired request
        // never consumes another iteration's worth of blocks or batch slots.
        // The cancelled groups are delivered by this step's reap, which also
        // records their `finished reason=deadline` lifecycle events.
        for (_request_id, missed_by) in self.scheduler.cancel_expired(self.clock)? {
            self.tmetrics.deadline_cancellations_total.inc();
            self.tmetrics
                .request_deadline_miss_seconds
                .observe(missed_by);
        }

        // Elastic pool control: apply any resize before scheduling so its
        // migration journal drains into this step's plan.
        if self.elastic.is_some() {
            let pressure = self.pool_pressure();
            let action = self
                .elastic
                .as_mut()
                .expect("checked above")
                .decide(&pressure);
            if let Some(action) = action {
                let cpu = self.scheduler.block_manager().num_total_cpu_blocks();
                self.resize_pools(action.target(), cpu)?;
            }
        }

        // Stage 1: schedule.
        let t = Instant::now();
        let mut plan = self.scheduler.schedule()?;
        let schedule = t.elapsed().as_secs_f64();
        self.record_plan_telemetry(&plan);
        if plan.is_prompt_run {
            self.record_queue_spans(&plan);
        }

        if plan.is_empty() {
            // Nothing to run, but finished/aborted groups may still need
            // reaping, and the step still emits a trace.
            let t = Instant::now();
            let outs = self.reap()?;
            let mut trace = StepTrace::from_plan(step_index, &plan);
            trace.stages.schedule = schedule;
            trace.stages.postprocess = t.elapsed().as_secs_f64();
            self.finish_trace(trace);
            return Ok(outs);
        }

        // Stage 2: prepare (materialize per-sequence model inputs).
        let t = Instant::now();
        materialize_batch(&self.scheduler, &mut plan)?;
        let prepare = t.elapsed().as_secs_f64();

        // Stage 3: execute.
        let t = Instant::now();
        let result = self.executor.begin_step(&plan)?;
        let execute = t.elapsed().as_secs_f64();
        self.clock += result.elapsed;
        self.tmetrics.step_model_seconds.observe(result.elapsed);

        // Stage 4: postprocess (sampling bookkeeping, forks, stops, reap).
        let t = Instant::now();
        self.record_step_metrics(&plan, result.elapsed);
        self.record_kernel_spans(&plan, &result, step_index);
        self.process_outputs(&plan, &result)?;
        let outs = self.reap()?;
        let postprocess = t.elapsed().as_secs_f64();

        let mut trace = StepTrace::from_plan(step_index, &plan);
        trace.stages = StageTimings {
            schedule,
            prepare,
            execute,
            postprocess,
        };
        self.finish_trace(trace);
        Ok(outs)
    }

    /// Runs steps until every request finishes, returning all outputs.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run_to_completion(&mut self) -> Result<Vec<RequestOutput>> {
        let mut all = Vec::new();
        while self.has_unfinished() {
            all.extend(self.step()?);
        }
        Ok(all)
    }

    pub(crate) fn alloc_seq_id(&mut self) -> SeqId {
        let id = self.next_seq_id;
        self.next_seq_id += 1;
        id
    }

    fn finish_trace(&mut self, trace: StepTrace) {
        self.trace_stats.observe(&trace);
        self.tmetrics.observe_trace(&trace);
        self.record_stage_spans(&trace);
        self.publish_gauges();
        self.last_trace = Some(trace);
    }

    /// Emits untraced (`trace_id == 0`) per-step stage spans: the four
    /// pipeline stages laid sequentially from the step's virtual start so
    /// the exported timeline shows where host time went. Skipped for steps
    /// that did no work.
    fn record_stage_spans(&self, trace: &StepTrace) {
        if trace.tokens_scheduled == 0 && trace.stages.total() == 0.0 {
            return;
        }
        let spans = self.telemetry.spans();
        let names = [
            "step.schedule",
            "step.prepare",
            "step.execute",
            "step.postprocess",
        ];
        let durations = [
            trace.stages.schedule,
            trace.stages.prepare,
            trace.stages.execute,
            trace.stages.postprocess,
        ];
        let mut cursor = self.clock;
        for (name, dur) in names.iter().zip(durations) {
            if dur <= 0.0 {
                continue;
            }
            spans.record(Span {
                trace_id: 0,
                span_id: 0,
                parent_span_id: 0,
                name: (*name).to_string(),
                start: cursor,
                end: cursor + dur,
                attrs: vec![("step".to_string(), trace.step_index.to_string())],
            });
            cursor += dur;
        }
    }

    /// Sets each newly scheduled prompt group's `first_scheduled_time` and
    /// emits its `queue` span (`[arrival, first schedule]`) if sampled.
    fn record_queue_spans(&mut self, plan: &StepPlan) {
        for sg in &plan.scheduled {
            if !sg.is_prompt {
                continue;
            }
            let Some(group) = self.scheduler.group_mut(&sg.request_id) else {
                continue;
            };
            if group.first_scheduled_time.is_some() {
                continue;
            }
            group.first_scheduled_time = Some(self.clock);
            if group.trace.is_active() {
                let q = group.trace.child(1);
                self.telemetry.spans().record(Span {
                    trace_id: q.trace_id,
                    span_id: q.span_id,
                    parent_span_id: q.parent_span_id,
                    name: "queue".to_string(),
                    start: group.arrival_time,
                    end: self.clock,
                    attrs: Vec::new(),
                });
            }
        }
    }

    /// Emits kernel spans for every sampled group that ran this step, laid
    /// end-to-end across the step's virtual interval with widths
    /// proportional to the backend-reported kernel timings. To bound span
    /// volume, kernels are attributed only to a group's prefill steps and
    /// its first decode step.
    fn record_kernel_spans(&self, plan: &StepPlan, result: &StepResult, step_index: u64) {
        if result.kernels.is_empty() {
            return;
        }
        let backend = self.executor.backend_label().to_string();
        let t0 = self.clock - result.elapsed;
        let total: f64 = result.kernels.iter().map(|k| k.seconds).sum();
        let scale = if total > 0.0 {
            result.elapsed / total
        } else {
            0.0
        };
        for sg in &plan.scheduled {
            if !sg.trace.is_active() {
                continue;
            }
            let Some(group) = self.scheduler.group(&sg.request_id) else {
                continue;
            };
            // Prefill steps hang kernels under the `prefill` span; the
            // first decode step (first and last token coincide) hangs them
            // under `decode`; later decode steps are skipped.
            let parent = match group.first_token_time {
                None => group.trace.child(2),
                Some(ft) => {
                    if group.last_token_time != Some(ft) {
                        continue;
                    }
                    group.trace.child(3)
                }
            };
            let mut cursor = t0;
            for (k, timing) in result.kernels.iter().enumerate() {
                let width = timing.seconds * scale;
                let ctx = parent.child(16 + step_index.wrapping_mul(1024) + k as u64);
                self.telemetry.spans().record(Span {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    parent_span_id: ctx.parent_span_id,
                    name: format!("kernel:{}", timing.name),
                    start: cursor,
                    end: cursor + width,
                    attrs: vec![("backend".to_string(), backend.clone())],
                });
                cursor += width;
            }
        }
    }

    /// Pushes the current queue depths and block-pool state into the
    /// telemetry gauges (called after every step and before snapshots).
    fn publish_gauges(&self) {
        self.scheduler.publish_metrics(&self.tmetrics.scheduler);
        let groups = self.scheduler.running_groups();
        let all_seqs = groups.iter().flat_map(|g| g.seqs().into_iter());
        let used_slots = self.scheduler.block_manager().used_gpu_slots(all_seqs);
        self.scheduler
            .block_manager()
            .publish_metrics(&self.tmetrics.block_manager, used_slots);
    }

    /// Records the lifecycle events and counters a freshly scheduled plan
    /// implies: prompt admissions, preemptions, swap-ins, and rejections.
    fn record_plan_telemetry(&self, plan: &StepPlan) {
        let events = self.telemetry.events();
        for sg in &plan.scheduled {
            // A prompt's `Scheduled` event fires once, at admission: legacy
            // prefills always, chunked prefills on their first chunk only.
            if !sg.is_prompt || sg.chunk.is_some_and(|c| !c.is_first) {
                continue;
            }
            // For a chunked admission the event reports the whole prompt the
            // chunks will cover, not just the first chunk's slice.
            let prompt_tokens = if sg.chunk.is_some() {
                self.scheduler
                    .group(&sg.request_id)
                    .map_or(sg.num_tokens, |g| {
                        g.seqs().iter().map(|s| s.data.prompt_len()).sum()
                    })
            } else {
                sg.num_tokens
            };
            events.record(
                &sg.request_id,
                self.clock,
                EventKind::Scheduled { prompt_tokens },
            );
        }
        let chunks = plan
            .scheduled
            .iter()
            .filter(|sg| sg.chunk.is_some())
            .count() as u64;
        if chunks > 0 {
            self.tmetrics.prefill_chunks_total.inc_by(chunks);
        }
        for p in &plan.preemptions {
            let mode = match p.kind {
                crate::plan::PreemptionKind::Swap => "swap",
                crate::plan::PreemptionKind::Recompute => "recompute",
            };
            events.record(
                &p.request_id,
                self.clock,
                EventKind::Preempted {
                    mode: mode.to_string(),
                    blocks: p.blocks_swapped_out,
                },
            );
        }
        for (request_id, blocks) in &plan.swapped_in {
            events.record(
                request_id,
                self.clock,
                EventKind::SwappedIn { blocks: *blocks },
            );
        }
        if !plan.cache_ops.is_empty() {
            self.telemetry.spans().record(Span {
                trace_id: 0,
                span_id: 0,
                parent_span_id: 0,
                name: "cache_ops".to_string(),
                start: self.clock,
                end: self.clock,
                attrs: vec![
                    (
                        "swap_in".to_string(),
                        plan.cache_ops.swap_in.len().to_string(),
                    ),
                    (
                        "swap_out".to_string(),
                        plan.cache_ops.swap_out.len().to_string(),
                    ),
                    (
                        "copies".to_string(),
                        plan.cache_ops.copies.len().to_string(),
                    ),
                    ("moves".to_string(), plan.cache_ops.moves.len().to_string()),
                ],
            });
        }
        self.tmetrics
            .requests_ignored_total
            .inc_by(plan.ignored.len() as u64);
    }

    fn record_step_metrics(&mut self, plan: &StepPlan, elapsed: f64) {
        let bm = self.scheduler.block_manager();
        let groups = self.scheduler.running_groups();
        let running_seqs: usize = groups
            .iter()
            .map(|g| g.seqs_with_status(SequenceStatus::Running).len())
            .sum();
        let all_seqs = groups.iter().flat_map(|g| g.seqs().into_iter());
        let used_slots = bm.used_gpu_slots(all_seqs);
        let bs = self.cache_config.block_size;
        self.memory_stats.observe(&StepSnapshot {
            duration: elapsed,
            running_requests: groups.len(),
            running_seqs,
            batched_tokens: plan.budget.num_batched_tokens,
            used_slots,
            allocated_slots: bm.num_allocated_gpu_blocks() * bs,
            total_slots: bm.num_total_gpu_blocks() * bs,
            sharing_savings: bm.sharing_savings(),
            logical_blocks: bm.num_logical_gpu_blocks(),
            physical_blocks: bm.num_allocated_gpu_blocks(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockExecutor;

    const BS: usize = 4;

    fn engine(gpu_blocks: usize, cpu_blocks: usize) -> LlmEngine<MockExecutor> {
        let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let sched = SchedulerConfig::new(2048, 64, 2048).unwrap();
        LlmEngine::new(MockExecutor::new(1000), cache, sched)
    }

    #[test]
    fn greedy_generation_end_to_end() {
        let mut e = engine(64, 0);
        e.add_request("r0", vec![1, 2, 3, 4, 5], SamplingParams::greedy(8))
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs.len(), 1);
        let out = &outs[0];
        assert_eq!(out.request_id, "r0");
        assert_eq!(out.prompt_len, 5);
        assert_eq!(out.outputs.len(), 1);
        assert_eq!(out.outputs[0].tokens.len(), 8);
        assert_eq!(
            out.outputs[0].finish_reason,
            SequenceStatus::FinishedLengthCapped
        );
        // All blocks returned to the pool.
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
        assert!(e.clock() > 0.0);
    }

    // Preemption round-trip and step-trace tests live in
    // `tests/step_trace.rs`.

    #[test]
    fn prefix_sharing_reuses_blocks() {
        let mut e = engine(64, 0);
        let prefix: Vec<TokenId> = (0..8).collect();
        e.register_prefix(prefix.clone()).unwrap();
        let allocated_after_prefix = e.scheduler().block_manager().num_allocated_gpu_blocks();
        assert_eq!(allocated_after_prefix, 2);

        let mut prompt = prefix.clone();
        prompt.extend(200..204);
        e.add_request("r0", prompt, SamplingParams::greedy(4))
            .unwrap();
        e.step().unwrap(); // Prompt step.
                           // Prefix blocks shared: only 1 extra block allocated for the suffix.
        let bm = e.scheduler().block_manager();
        assert_eq!(bm.num_allocated_gpu_blocks(), 3);
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs[0].outputs[0].tokens.len(), 4);
        // Prefix blocks stay pinned after the request finishes.
        assert_eq!(e.scheduler().block_manager().num_allocated_gpu_blocks(), 2);
    }

    #[test]
    fn prefix_match_requires_longer_prompt() {
        let mut e = engine(64, 0);
        e.register_prefix((0..8).collect()).unwrap();
        // Prompt that doesn't start with the prefix: no sharing.
        e.add_request("r0", (50..60).collect(), SamplingParams::greedy(2))
            .unwrap();
        e.step().unwrap();
        let g = e.scheduler().group("r0");
        assert!(g.is_none() || g.unwrap().cached_prefix_len == 0);
        e.run_to_completion().unwrap();
    }

    #[test]
    fn latency_tracker_records_requests() {
        let mut e = engine(64, 0);
        e.add_request("r0", vec![1, 2, 3], SamplingParams::greedy(4))
            .unwrap();
        e.run_to_completion().unwrap();
        assert_eq!(e.latency().num_requests(), 1);
        assert!(e.latency().mean_normalized_latency().unwrap() > 0.0);
        assert!(e.memory_stats().num_steps() > 0);
    }

    #[test]
    fn abort_request_mid_flight() {
        let mut e = engine(64, 0);
        e.add_request("r0", vec![1, 2, 3], SamplingParams::greedy(100))
            .unwrap();
        e.step().unwrap();
        e.abort_request("r0").unwrap();
        let outs = e.step().unwrap();
        assert_eq!(outs.len(), 1);
        assert!(outs[0].outputs.is_empty());
        assert!(!e.has_unfinished());
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
    }

    #[test]
    fn empty_prompt_rejected() {
        let mut e = engine(64, 0);
        assert!(e
            .add_request("r0", vec![], SamplingParams::greedy(4))
            .is_err());
    }

    #[test]
    fn oversized_prompt_reported_ignored() {
        let mut e = engine(2, 0);
        e.add_request("r0", (0..1000).collect(), SamplingParams::greedy(4))
            .unwrap();
        let outs = e.step().unwrap();
        assert_eq!(outs.len(), 1);
        assert!(outs[0].outputs.is_empty());
    }

    #[test]
    fn many_requests_all_complete() {
        let mut e = engine(128, 0);
        for i in 0..20 {
            e.add_request_at(
                format!("r{i}"),
                (0..(5 + i % 7) as u32).collect(),
                SamplingParams::greedy(3 + (i % 5) as usize),
                i as f64 * 0.01,
            )
            .unwrap();
        }
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs.len(), 20);
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 128);
        assert_eq!(e.latency().num_requests(), 20);
    }
}
