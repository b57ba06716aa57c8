//! The workloads served by one in-process engine (`LlmEngine` +
//! `CpuModelExecutor`, `ModelConfig::small`): `offline-sampling` and
//! `online-mixed`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vllm::core::{
    CacheConfig, LlmEngine, ModelExecutor, RequestOutput, SamplingParams, SchedulerConfig,
};
use vllm::model::{BackendKind, CpuModelExecutor, ModelConfig};
use vllm::workloads::synthesize_mixed_trace;

use crate::layers::{SpanLog, StepLog, StepRecord, StepTotals, TimedExecutor};
use crate::metrics::{EndToEnd, Layers};
use crate::observe::Observer;
use crate::report::{peak_rss_mb, Counts, Outcome};
use crate::stats::median;
use crate::{mix, secs_since, RunArgs};

/// Tokens per KV block.
pub const BLOCK_SIZE: usize = 16;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// `offline-sampling`: requests per batch (all due at the batch start).
/// The scheduler runs at most 16 four-sample groups at once (64
/// sequences), so two thirds of a batch get their first token in the first
/// prompt step and the median TTFT falls inside that cohort. With 32, it
/// fell on the cohort's edge: the slowest first step among the batches.
const OFFLINE_BATCH: usize = 24;
/// `offline-sampling`: prompt lengths are spread evenly over this range.
const OFFLINE_PROMPT: (usize, usize) = (48, 192);
/// `offline-sampling`: parallel samples per request.
const OFFLINE_N: usize = 4;
/// `offline-sampling`: tokens generated per sample.
const OFFLINE_OUTPUT: usize = 96;
/// `offline-sampling`: GPU pool, smaller than the batch's peak demand.
const OFFLINE_GPU_BLOCKS: usize = 256;
/// `offline-sampling`: CPU swap pool.
const OFFLINE_CPU_BLOCKS: usize = 1024;

/// `online-mixed`: offered Poisson rate, requests/s. This mix saturates
/// the engine at 15–18 req/s on a 2-core AVX-512 host (model busy 54–67%
/// at 10 req/s), so 3 req/s keeps it ≈20% busy. At ≈40% (6 req/s) the
/// p75/p90 latencies of ~100 requests moved by up to 4× between seeds:
/// they sit among the few requests queued behind a Poisson clump or a
/// document, whose count swings from seed to seed.
const ONLINE_RATE: f64 = 3.0;
/// `online-mixed`: share of 960-token documents among prompts.
const ONLINE_LONG_FRACTION: f64 = 0.05;
/// `online-mixed`: document length.
const ONLINE_LONG_LEN: usize = 960;
/// `online-mixed`: short prompt lengths.
const ONLINE_SHORT: (usize, usize) = (32, 256);
/// `online-mixed`: greedy tokens per request.
const ONLINE_OUTPUT: usize = 32;
/// `online-mixed`: scheduler step token budget (chunked prefill).
const ONLINE_BUDGET: usize = 256;
/// `online-mixed`: GPU pool, large enough that nothing is preempted.
const ONLINE_GPU_BLOCKS: usize = 1024;

/// GPU pool of the reference engines: enough for a whole offline batch
/// at once without preemption.
const REFERENCE_GPU_BLOCKS: usize = 2048;
/// `offline-sampling`: run seconds per batch.
const OFFLINE_SECONDS_PER_BATCH: f64 = 2.8;

/// One request of a workload.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request id.
    pub id: String,
    /// When it is due, seconds since the run epoch.
    pub due: f64,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Sampling parameters.
    pub params: SamplingParams,
}

/// How to build an engine.
#[derive(Debug, Clone)]
struct EngineSpec {
    backend: BackendKind,
    gpu_blocks: usize,
    cpu_blocks: usize,
    sched: SchedulerConfig,
}

impl EngineSpec {
    fn cache(&self) -> CacheConfig {
        CacheConfig::new(BLOCK_SIZE, self.gpu_blocks, self.cpu_blocks).expect("valid cache config")
    }

    fn executor(&self) -> CpuModelExecutor {
        let model = ModelConfig {
            backend: self.backend,
            ..ModelConfig::small()
        };
        CpuModelExecutor::from_config(model, &self.cache())
    }

    fn engine<E: ModelExecutor>(&self, exec: E) -> LlmEngine<E> {
        let mut engine = LlmEngine::new(exec, self.cache(), self.sched.clone());
        // The spec alone decides chunking, whatever the environment says.
        engine.set_step_token_budget(self.sched.step_token_budget);
        engine
    }

    fn plain(&self) -> LlmEngine<CpuModelExecutor> {
        self.engine(self.executor())
    }

    fn traced(&self, epoch: Instant, log: &StepLog) -> LlmEngine<TimedExecutor> {
        let exec = TimedExecutor::new(self.executor(), 0, epoch, Arc::clone(log));
        self.engine(exec)
    }
}

/// A workload served by one engine.
struct Workload {
    backend: BackendKind,
    spec: EngineSpec,
    reference: EngineSpec,
    warm: Request,
}

/// Constructs an engine and serves one warm-up request on it (so lazy
/// set-up is done before timing); returns it with the seconds taken.
fn fresh<E: ModelExecutor>(
    make: &dyn Fn() -> LlmEngine<E>,
    warm: &Request,
    counts: &mut Counts,
) -> (LlmEngine<E>, f64) {
    let t = Instant::now();
    let mut e = make();
    let ok = e
        .add_request(warm.id.clone(), warm.prompt.clone(), warm.params.clone())
        .and_then(|()| e.run_to_completion())
        .is_ok_and(|outs| outs.len() == 1 && shape_ok(&outs[0], &warm.params));
    counts.record(ok);
    (e, t.elapsed().as_secs_f64())
}

/// Sets up `SETUP_REPEATS` times and returns the last engine with every
/// set-up time.
fn setup<E: ModelExecutor>(
    make: &dyn Fn() -> LlmEngine<E>,
    warm: &Request,
    counts: &mut Counts,
) -> (LlmEngine<E>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        drop(engine.take());
        let (e, secs) = fresh(make, warm, counts);
        times.push(secs);
        engine = Some(e);
    }
    (engine.expect("at least one set-up"), times)
}

/// Whether a finished request has exactly `n` outputs of `max_tokens`
/// tokens (every workload request ignores EOS).
fn shape_ok(out: &RequestOutput, params: &SamplingParams) -> bool {
    out.outputs.len() == params.n
        && out
            .outputs
            .iter()
            .all(|c| c.tokens.len() == params.max_tokens)
}

/// What serving a request list produced.
#[derive(Debug, Default)]
struct Served {
    outputs: Vec<RequestOutput>,
    /// `(start, end)` of every `step()` call.
    steps: Vec<(f64, f64)>,
    /// Requests the engine refused at admission.
    refused: Vec<String>,
}

/// Serves `reqs` (sorted by due time): admits each request once due,
/// steps the engine while it has work, and observes token arrivals after
/// every step.
fn serve<E: ModelExecutor>(
    engine: &mut LlmEngine<E>,
    reqs: &[Request],
    epoch: Instant,
    obs: &mut Observer,
    on_step: &mut dyn FnMut(f64, f64),
) -> Result<Served, String> {
    let mut served = Served::default();
    let mut next = 0;
    loop {
        let now = secs_since(epoch);
        while next < reqs.len() && reqs[next].due <= now {
            let r = &reqs[next];
            match engine.add_request(r.id.clone(), r.prompt.clone(), r.params.clone()) {
                Ok(()) => obs.sent(&r.id, r.due, secs_since(epoch)),
                Err(e) => served.refused.push(format!("{}: {e}", r.id)),
            }
            next += 1;
        }
        if engine.has_unfinished() {
            let t0 = secs_since(epoch);
            let finished = engine
                .step()
                .map_err(|e| format!("engine step failed: {e}"))?;
            let t1 = secs_since(epoch);
            obs.after_step(t1, engine.scheduler().running_groups(), &finished);
            on_step(t0, t1);
            served.steps.push((t0, t1));
            served.outputs.extend(finished);
        } else if next < reqs.len() {
            // Idle until the next request is due. The generator spins
            // rather than sleeps: it sends on time, and the core it runs on
            // does not drop into an idle state whose wake-up latency would
            // dominate the next millisecond-scale step.
            while secs_since(epoch) < reqs[next].due {
                std::hint::spin_loop();
            }
        } else {
            return Ok(served);
        }
    }
}

/// Checks that the engine drained and its pools are whole again.
fn check_drained<E: ModelExecutor>(engine: &LlmEngine<E>, out: &mut Outcome, what: &str) {
    let bm = engine.scheduler().block_manager();
    if engine.has_unfinished() {
        out.fail(format!("{what}: requests left unfinished after drain"));
    }
    if bm.num_free_gpu_blocks() != bm.num_total_gpu_blocks() {
        out.fail(format!(
            "{what}: {} of {} GPU blocks still allocated after drain",
            bm.num_total_gpu_blocks() - bm.num_free_gpu_blocks(),
            bm.num_total_gpu_blocks()
        ));
    }
    if bm.num_free_cpu_blocks() != bm.num_total_cpu_blocks() {
        out.fail(format!("{what}: CPU blocks still allocated after drain"));
    }
}

/// Output token lists of a request, in output order.
fn tokens_of(out: &RequestOutput) -> Vec<Vec<u32>> {
    out.outputs.iter().map(|c| c.tokens.clone()).collect()
}

/// Serves the whole batch at once on an unpressured pool, on an engine
/// with the same history as a timed batch's (fresh, one warm-up), and
/// returns the outputs by request id. Fails if anything was preempted.
fn batch_reference(
    w: &Workload,
    reqs: &[Request],
) -> Result<HashMap<String, Vec<Vec<u32>>>, String> {
    let (mut engine, _) = fresh(&|| w.reference.plain(), &w.warm, &mut Counts::default());
    for r in reqs {
        engine
            .add_request(r.id.clone(), r.prompt.clone(), r.params.clone())
            .map_err(|e| format!("reference admission of {}: {e}", r.id))?;
    }
    let outs = engine
        .run_to_completion()
        .map_err(|e| format!("reference run: {e}"))?;
    if engine.scheduler().stats().num_preemptions > 0 {
        return Err("the reference pool was under pressure".into());
    }
    Ok(outs
        .iter()
        .map(|o| (o.request_id.clone(), tokens_of(o)))
        .collect())
}

/// Serves each request alone on an unpressured pool and returns its
/// outputs by request id.
fn reference_outputs(
    spec: &EngineSpec,
    reqs: &[Request],
) -> Result<HashMap<String, Vec<Vec<u32>>>, String> {
    let mut engine = spec.plain();
    let mut map = HashMap::with_capacity(reqs.len());
    for r in reqs {
        engine
            .add_request(r.id.clone(), r.prompt.clone(), r.params.clone())
            .map_err(|e| format!("reference admission of {}: {e}", r.id))?;
        let outs = engine
            .run_to_completion()
            .map_err(|e| format!("reference run of {}: {e}", r.id))?;
        let out = outs
            .iter()
            .find(|o| o.request_id == r.id)
            .ok_or_else(|| format!("reference run of {} returned nothing", r.id))?;
        map.insert(r.id.clone(), tokens_of(out));
    }
    Ok(map)
}

/// Checks every served request: it finished once, with exactly its
/// requested outputs and token counts, token-identical to the reference
/// run of the same request (looked up by `base` id).
fn check_outputs(
    reqs: &[Request],
    served: &Served,
    base: &dyn Fn(&str) -> String,
    reference: &HashMap<String, Vec<Vec<u32>>>,
    out: &mut Outcome,
) {
    let by_id: HashMap<&str, &RequestOutput> = served
        .outputs
        .iter()
        .map(|o| (o.request_id.as_str(), o))
        .collect();
    if by_id.len() != served.outputs.len() {
        out.fail("a request finished more than once");
    }
    let mut mismatches = 0usize;
    for r in reqs {
        let ok = match by_id.get(r.id.as_str()) {
            None => {
                out.fail(format!("{} never finished", r.id));
                false
            }
            Some(o) if !shape_ok(o, &r.params) => {
                out.fail(format!(
                    "{}: {} outputs of lengths {:?}, asked for {} x {}",
                    r.id,
                    o.outputs.len(),
                    o.outputs.iter().map(|c| c.tokens.len()).collect::<Vec<_>>(),
                    r.params.n,
                    r.params.max_tokens
                ));
                false
            }
            Some(o) => {
                let same = reference.get(&base(&r.id)) == Some(&tokens_of(o));
                if !same {
                    mismatches += 1;
                    if mismatches <= 3 {
                        out.fail(format!("{}: outputs differ from the reference run", r.id));
                    }
                }
                same
            }
        };
        out.timed.record(ok);
    }
    if mismatches > 3 {
        out.fail(format!(
            "{mismatches} requests in all differ from the reference"
        ));
    }
}

/// Deterministic prompt of `len` byte-range tokens.
fn prompt(seed: u64, id: u64, len: usize) -> Vec<u32> {
    (0..len as u64)
        .map(|i| {
            (mix(seed ^ mix(id.wrapping_add(0x9e37)) ^ i.wrapping_mul(0x51_7cc1)) % 256) as u32
        })
        .collect()
}

/// `n` prompt lengths evenly spaced over `[lo, hi]`, shuffled by `seed`:
/// every seed gets the same set of lengths, so the token work (and the
/// median prompt) does not move with the seed.
fn spread_lengths((lo, hi): (usize, usize), n: usize, seed: u64) -> Vec<usize> {
    let mut lens: Vec<usize> = (0..n)
        .map(|i| lo + i * (hi - lo) / n.saturating_sub(1).max(1))
        .collect();
    for i in (1..lens.len()).rev() {
        let j = (mix(seed ^ ((i as u64) << 8)) % (i as u64 + 1)) as usize;
        lens.swap(i, j);
    }
    lens
}

/// One `offline-sampling` batch. Prompt lengths are evenly spaced over
/// [`OFFLINE_PROMPT`] and shuffled by the seed, so every seed carries the
/// same token work; contents and sampling seeds come from the seed.
fn offline_batch(seed: u64) -> Vec<Request> {
    spread_lengths(OFFLINE_PROMPT, OFFLINE_BATCH, seed)
        .iter()
        .enumerate()
        .map(|(i, &len)| Request {
            id: format!("r{i}"),
            due: 0.0,
            prompt: prompt(seed, i as u64, len),
            params: SamplingParams::parallel(OFFLINE_N, OFFLINE_OUTPUT)
                .with_seed(mix(seed ^ 0x5eed_0000 ^ i as u64))
                .with_ignore_eos(),
        })
        .collect()
}

/// The `online-mixed` arrivals: `n` requests from `synthesize_mixed_trace`
/// at [`ONLINE_RATE`], their Poisson arrival times rescaled so the last
/// one falls at `n / rate` (a Poisson process conditioned on its count).
/// Exactly one request in every `1 / ONLINE_LONG_FRACTION` (at a seeded
/// offset) is a document, rather than a seeded-hash share of them, so the
/// number of documents — which dominates the tails — is the same on every
/// seed.
fn online_trace(seed: u64, n: usize) -> Vec<Request> {
    let trace = synthesize_mixed_trace(
        ONLINE_RATE,
        n,
        0.0,
        ONLINE_LONG_LEN,
        ONLINE_SHORT.0..=ONLINE_SHORT.1,
        ONLINE_OUTPUT,
        seed,
    );
    let last = trace.requests.last().map_or(1.0, |r| r.arrival);
    let scale = n as f64 / ONLINE_RATE / last;
    let every = (1.0 / ONLINE_LONG_FRACTION).round() as u64;
    let offset = mix(seed ^ 0x10_6d0c) % every;
    let shorts = trace
        .requests
        .iter()
        .filter(|r| r.id % every != offset)
        .count();
    let mut short_lens = spread_lengths(ONLINE_SHORT, shorts, seed).into_iter();
    trace
        .requests
        .iter()
        .map(|r| {
            let len = if r.id % every == offset {
                ONLINE_LONG_LEN
            } else {
                short_lens.next().expect("one length per short prompt")
            };
            Request {
                id: format!("q{}", r.id),
                due: r.arrival * scale,
                prompt: prompt(seed, r.id, len),
                params: SamplingParams::greedy(r.output_len).with_ignore_eos(),
            }
        })
        .collect()
}

fn offline_workload() -> Workload {
    let sched = SchedulerConfig::new(2048, 64, 1024).expect("valid scheduler config");
    let spec = EngineSpec {
        backend: BackendKind::Simd,
        gpu_blocks: OFFLINE_GPU_BLOCKS,
        cpu_blocks: OFFLINE_CPU_BLOCKS,
        sched: sched.clone(),
    };
    Workload {
        backend: BackendKind::Simd,
        reference: EngineSpec {
            gpu_blocks: REFERENCE_GPU_BLOCKS,
            cpu_blocks: 64,
            ..spec.clone()
        },
        spec,
        warm: Request {
            id: "warmup".into(),
            due: 0.0,
            prompt: prompt(u64::MAX, 0, 16),
            params: SamplingParams::parallel(OFFLINE_N, 8)
                .with_seed(1)
                .with_ignore_eos(),
        },
    }
}

fn online_workload() -> Workload {
    let chunked = SchedulerConfig::new_chunked(2048, 64, 1024, ONLINE_BUDGET)
        .expect("valid chunked scheduler config");
    let spec = EngineSpec {
        backend: BackendKind::Scalar,
        gpu_blocks: ONLINE_GPU_BLOCKS,
        cpu_blocks: 64,
        sched: chunked,
    };
    Workload {
        backend: BackendKind::Scalar,
        // The reference prefills every prompt whole: chunked and monolithic
        // prefill must agree token for token.
        reference: EngineSpec {
            gpu_blocks: REFERENCE_GPU_BLOCKS,
            sched: SchedulerConfig::new(2048, 64, 1024).expect("valid scheduler config"),
            ..spec.clone()
        },
        spec,
        warm: Request {
            id: "warmup".into(),
            due: 0.0,
            prompt: prompt(u64::MAX, 0, 16),
            params: SamplingParams::greedy(8).with_ignore_eos(),
        },
    }
}

/// `offline-sampling` batches in a run of `seconds`: a fixed count, so
/// every run of a given length does the same work and sample counts (and
/// with them the `_tail` percentile) do not depend on speed.
fn offline_batches(seconds: f64) -> usize {
    ((seconds / OFFLINE_SECONDS_PER_BATCH) as usize).max(1)
}

/// Offline batches served one after another.
#[derive(Debug, Default)]
struct BatchRun {
    served: Served,
    reqs: Vec<Request>,
    /// Seconds spent serving batches (set-up between them excluded).
    wall: f64,
    /// Every set-up time, the first batch's repeats included.
    setup: Vec<f64>,
    /// Per batch: generated tokens/s and requests/s.
    rates: Vec<(f64, f64)>,
}

/// Serves `batches` copies of `batch`, each on a fresh engine whose
/// history (construction plus one warm-up) matches the reference engine's,
/// since seeded sampling streams depend on engine-assigned sequence ids.
/// Warm-up steps are dropped from `log` so it holds timed steps only.
#[allow(clippy::too_many_arguments)]
fn run_batches<E: ModelExecutor>(
    w: &Workload,
    make: &dyn Fn() -> LlmEngine<E>,
    batch: &[Request],
    batches: usize,
    epoch: Instant,
    obs: &mut Observer,
    log: Option<&StepLog>,
    on_step: &mut dyn FnMut(f64, f64),
    out: &mut Outcome,
) -> Result<BatchRun, String> {
    let mut run = BatchRun::default();
    for k in 0..batches {
        let kept = log.map(|l| l.lock().expect("step log").len());
        let mut engine = if k == 0 {
            let (e, times) = setup(make, &w.warm, &mut out.warmup);
            run.setup.extend(times);
            e
        } else {
            let (e, secs) = fresh(make, &w.warm, &mut out.warmup);
            run.setup.push(secs);
            e
        };
        if let (Some(l), Some(n)) = (log, kept) {
            l.lock().expect("step log").truncate(n);
        }
        let due = secs_since(epoch);
        let reqs: Vec<Request> = batch
            .iter()
            .map(|r| Request {
                id: format!("b{k}-{}", r.id),
                due,
                ..r.clone()
            })
            .collect();
        let served = serve(&mut engine, &reqs, epoch, obs, on_step)?;
        let wall = secs_since(epoch) - due;
        run.wall += wall;
        run.rates.push((
            generated(&served.outputs) as f64 / wall,
            served.outputs.len() as f64 / wall,
        ));
        check_drained(&engine, out, &format!("batch {k}"));
        run.served.outputs.extend(served.outputs);
        run.served.steps.extend(served.steps);
        run.served.refused.extend(served.refused);
        run.reqs.extend(reqs);
    }
    Ok(run)
}

/// Generated tokens across finished requests.
fn generated(outputs: &[RequestOutput]) -> usize {
    outputs
        .iter()
        .flat_map(|o| o.outputs.iter())
        .map(|c| c.tokens.len())
        .sum()
}

/// Strips the `b<k>-` batch prefix from an offline request id.
fn batch_base(id: &str) -> String {
    id.split_once('-').map_or(id, |(_, rest)| rest).to_string()
}

/// End-to-end figures of a served run.
fn end_to_end(served: &Served, obs: &Observer, wall: f64, setup_s: f64) -> EndToEnd {
    let (ttft, e2e, _) = obs.samples();
    EndToEnd {
        setup_s,
        gen_tok_s: generated(&served.outputs) as f64 / wall,
        req_per_s: served.outputs.len() as f64 / wall,
        itl: obs.itl.clone(),
        gaps: obs.gaps.clone(),
        ttft,
        e2e,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Builds the traced pass's spans (the run spanning `run_span`) and
/// per-layer figures (`wall` serving seconds).
fn engine_layers(
    served: &Served,
    step_records: &[(usize, usize)],
    records: &[StepRecord],
    obs: &Observer,
    gpu_blocks: usize,
    run_span: (f64, f64),
    wall: f64,
) -> (Layers, SpanLog) {
    let totals = StepTotals::of(records, &[gpu_blocks], 1.0);
    let mut spans = SpanLog::default();
    let run = spans.push(0, "run", run_span.0, run_span.1, vec![]);
    let mut ids: Vec<(&String, &crate::observe::Timeline)> = obs.requests.iter().collect();
    ids.sort_by(|a, b| a.1.due.total_cmp(&b.1.due).then(a.0.cmp(b.0)));
    let mut request_span: HashMap<&str, u64> = HashMap::with_capacity(ids.len());
    for (id, tl) in ids {
        let span = spans.push(
            run,
            "request",
            tl.due,
            tl.finish.unwrap_or(run_span.1),
            vec![
                ("request_id", id.clone()),
                ("sent", tl.sent.to_string()),
                ("first_token", tl.first_token.unwrap_or(0.0).to_string()),
            ],
        );
        request_span.insert(id.as_str(), span);
    }
    let mut step_total = 0.0;
    for (&(t0, t1), &(lo, hi)) in served.steps.iter().zip(step_records) {
        step_total += t1 - t0;
        let ids: Vec<&str> = records[lo..hi]
            .iter()
            .flat_map(|r| r.scheduled.iter().map(|(id, _)| id.as_str()))
            .collect();
        let step = spans.push(run, "step", t0, t1, vec![("request_ids", ids.join(","))]);
        for r in &records[lo..hi] {
            spans.push_begin_step(step, r, 1.0);
        }
        // Each request the step served gets a child span linking to it, so
        // a request's self time is the time it spent waiting outside steps.
        for id in ids {
            if let Some(&parent) = request_span.get(id) {
                spans.push(
                    parent,
                    "request.step",
                    t0,
                    t1,
                    vec![
                        ("request_id", id.to_string()),
                        ("step_span", step.to_string()),
                    ],
                );
            }
        }
    }
    let calls = served.steps.len().max(1) as f64;
    let (_, _, late) = obs.samples();
    let queue_wait = obs
        .requests
        .iter()
        .filter_map(|(id, tl)| totals.first_scheduled.get(id).map(|t| t - tl.due))
        .collect();
    let layers = Layers {
        core_overhead_s: (step_total - totals.busy_s() - totals.bookkeeping) / calls,
        replicas: 1,
        wall_s: wall,
        queue_wait,
        late,
        spans: 0,
        steps: totals,
        ..Layers::default()
    };
    (layers, spans)
}

/// Runs `offline-sampling`.
pub fn offline(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let w = offline_workload();
    let batch = offline_batch(args.seed);
    let reference = batch_reference(&w, &batch)?;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let batches = offline_batches(seconds);
    out.note("batches", batches);
    let epoch = Instant::now();
    let mut obs = Observer::default();
    let plain = run_batches(
        &w,
        &|| w.spec.plain(),
        &batch,
        batches,
        epoch,
        &mut obs,
        None,
        &mut |_, _| {},
        out,
    )?;
    check_outputs(&plain.reqs, &plain.served, &batch_base, &reference, out);
    let mut e2e = end_to_end(&plain.served, &obs, plain.wall, median(&plain.setup));
    // Rates are the median over batches, so one batch hit by a burst of
    // host contention moves them less.
    e2e.gen_tok_s = median(&plain.rates.iter().map(|r| r.0).collect::<Vec<_>>());
    e2e.req_per_s = median(&plain.rates.iter().map(|r| r.1).collect::<Vec<_>>());
    out.note(
        "batch_gen_tok_s",
        format!(
            "{:?}",
            plain.rates.iter().map(|r| r.0.round()).collect::<Vec<_>>()
        ),
    );
    note_one_at_a_time(&w, &batch, &reference, out)?;
    if !args.trace {
        e2e.emit(out);
        return Ok(());
    }
    // The identical batches again, on engines with wrapped executors.
    let log: StepLog = Arc::new(Mutex::new(Vec::new()));
    let epoch = Instant::now();
    let mut obs = Observer::default();
    let mut ranges = Vec::new();
    let mut lo = 0;
    let traced = run_batches(
        &w,
        &|| w.spec.traced(epoch, &log),
        &batch,
        batches,
        epoch,
        &mut obs,
        Some(&log),
        &mut |_, _| {
            let hi = log.lock().expect("step log").len();
            ranges.push((lo.min(hi), hi));
            lo = hi;
        },
        out,
    )?;
    let end = secs_since(epoch);
    let records = log.lock().expect("step log").clone();
    check_outputs(&traced.reqs, &traced.served, &batch_base, &reference, out);
    let (mut layers, spans) = engine_layers(
        &traced.served,
        &ranges,
        &records,
        &obs,
        OFFLINE_GPU_BLOCKS,
        (0.0, end),
        traced.wall,
    );
    layers.untraced_wall_s = plain.wall;
    layers.overhead_frac = traced.wall / plain.wall - 1.0;
    out.note(
        "trace.overhead_frac.base",
        "batch serving seconds, traced vs untraced",
    );
    finish_traced(args, out, layers, &spans, w.backend);
    Ok(())
}

/// Reports how many batch requests match the same request served alone.
/// Known defect at this commit: the sampling stream is keyed by the
/// engine-assigned sequence id, so a seeded request's samples depend on
/// what the engine served before it, and only the few requests whose ids
/// happen to coincide match. The gate is the
/// batch-at-once unpressured reference; this stays visible until fixed.
fn note_one_at_a_time(
    w: &Workload,
    batch: &[Request],
    reference: &HashMap<String, Vec<Vec<u32>>>,
    out: &mut Outcome,
) -> Result<(), String> {
    let alone = reference_outputs(&w.reference, batch)?;
    let same = batch
        .iter()
        .filter(|r| alone.get(&r.id) == reference.get(&r.id))
        .count();
    out.note(
        "defect.one_at_a_time_identical",
        format!(
            "{same} of {} seeded requests match the same request served alone \
             (sampling seeds mix in the engine-assigned sequence id)",
            batch.len()
        ),
    );
    Ok(())
}

/// Runs `online-mixed`.
pub fn online(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let w = online_workload();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let every = (1.0 / ONLINE_LONG_FRACTION).round() as usize;
    // A whole number of documents: `n` is a multiple of `every`.
    let n = (((ONLINE_RATE * seconds) as usize) / every).max(1) * every;
    let trace = online_trace(args.seed, n);
    let reference = reference_outputs(&w.reference, &trace)?;
    let same = |id: &str| id.to_string();
    let (mut engine, setup_times) = setup(&|| w.spec.plain(), &w.warm, &mut out.warmup);
    let epoch = Instant::now();
    let mut obs = Observer::default();
    let plain = serve(&mut engine, &trace, epoch, &mut obs, &mut |_, _| {})?;
    let wall = secs_since(epoch);
    check_drained(&engine, out, "online run");
    for r in &plain.refused {
        out.fail(format!("refused: {r}"));
    }
    drop(engine);
    check_outputs(&trace, &plain, &same, &reference, out);
    if args.trace {
        let plain_busy: f64 = plain.steps.iter().map(|(a, b)| b - a).sum();
        let log: StepLog = Arc::new(Mutex::new(Vec::new()));
        let epoch = Instant::now();
        let (mut engine, _) = setup(&|| w.spec.traced(epoch, &log), &w.warm, &mut out.warmup);
        log.lock().expect("step log").clear();
        // Re-anchor so the trace's due times start now.
        let offset = secs_since(epoch);
        let shifted: Vec<Request> = trace
            .iter()
            .map(|r| Request {
                due: r.due + offset,
                ..r.clone()
            })
            .collect();
        let mut obs = Observer::default();
        let mut ranges = Vec::new();
        let mut lo = 0;
        let traced = serve(&mut engine, &shifted, epoch, &mut obs, &mut |_, _| {
            let hi = log.lock().expect("step log").len();
            ranges.push((lo, hi));
            lo = hi;
        })?;
        let traced_wall = secs_since(epoch) - offset;
        check_drained(&engine, out, "online traced run");
        let records = log.lock().expect("step log").clone();
        check_outputs(&shifted, &traced, &same, &reference, out);
        let traced_busy: f64 = traced.steps.iter().map(|(a, b)| b - a).sum();
        let (mut layers, spans) = engine_layers(
            &traced,
            &ranges,
            &records,
            &obs,
            ONLINE_GPU_BLOCKS,
            (offset, offset + traced_wall),
            traced_wall,
        );
        layers.untraced_wall_s = wall;
        // The arrival schedule fixes the wall time, so overhead compares
        // the engine's busy time over the same requests.
        layers.overhead_frac = traced_busy / plain_busy - 1.0;
        out.note(
            "trace.overhead_frac.base",
            "sum of step() seconds, traced vs untraced",
        );
        finish_traced(args, out, layers, &spans, w.backend);
    } else {
        let e2e = end_to_end(&plain, &obs, wall, median(&setup_times));
        out.note("requests", n);
        out.note(
            "long_requests",
            trace
                .iter()
                .filter(|r| r.prompt.len() == ONLINE_LONG_LEN)
                .count(),
        );
        e2e.emit(out);
    }
    Ok(())
}

/// Emits per-layer metrics and writes the span file.
fn finish_traced(
    args: &RunArgs,
    out: &mut Outcome,
    mut layers: Layers,
    spans: &SpanLog,
    backend: BackendKind,
) {
    layers.spans = spans.len();
    crate::write_spans(args, spans, backend.name(), out);
    layers.emit(out);
}
