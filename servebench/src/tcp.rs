//! `tcp-multiturn`: closed-loop multi-turn chat through
//! `Server::spawn_cluster` + `Client` over loopback, on a disaggregated
//! 1 prefill + 1 decode fleet with a shared prefix tier, `quant-kv8`
//! backend.
//!
//! The protocol does not stream, so a client sees every token of a reply
//! at once: `ttft_*` is the client-visible time to the first output (the
//! whole reply) and `itl_*` the reply time per output character.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vllm::cluster::EngineStats;
use vllm::core::telemetry::MetricsSnapshot;
use vllm::core::{CacheConfig, LlmEngine, ModelExecutor, SchedulerConfig};
use vllm::frontend::{Client, ClusterConfig, ReplicaRole, Server};
use vllm::model::ops::timing;
use vllm::model::{BackendKind, CpuModelExecutor, ModelConfig};
use vllm::protocol::{Response, TierSnapshot};

use crate::engine::{BLOCK_SIZE, SETUP_REPEATS};
use crate::layers::{overlap_scale, SpanLog, StepLog, StepTotals, TimedExecutor};
use crate::metrics::{Cluster, EndToEnd, Layers};
use crate::report::{peak_rss_mb, Counts, Outcome};
use crate::stats::median;
use crate::{mix, secs_since, RunArgs};

/// Load connections (one closed-loop client each).
const CONNECTIONS: usize = 2;
/// Greedy tokens asked for per turn.
const MAX_TOKENS: usize = 32;
/// Bytes of the system prompt every conversation starts with.
const SYSTEM_BYTES: usize = 256;
/// Bytes of each user message.
const USER_BYTES: (usize, usize) = (48, 96);
/// User turns per conversation. With every reply at most 96 bytes (32
/// replacement characters) the last prompt stays under 760 bytes.
const TURNS: usize = 3;
/// Longest prompt in bytes: BOS plus the prompt plus the reply must fit
/// the model's 1024 positions.
const MAX_PROMPT_BYTES: usize = 1024 - 1 - MAX_TOKENS;
/// Conversations per second of `--seconds`: a fixed amount of work, so the
/// closed loop's sample count (and its `_tail` percentile) does not depend
/// on speed.
const CONVERSATIONS_PER_SECOND: f64 = 2.5;
/// GPU pool per replica.
const GPU_BLOCKS: usize = 512;
/// CPU pool per replica.
const CPU_BLOCKS: usize = 64;
/// Shared prefix-tier capacity, in blocks.
const TIER_BLOCKS: usize = 256;
/// Conversations replayed after the timed phase for the repeat check.
const REPLAY_CONVERSATIONS: usize = 2;

/// `len` bytes of lowercase words.
fn words(seed: u64, len: usize) -> String {
    let mut s = String::with_capacity(len);
    let mut i = 0u64;
    while s.len() < len {
        let r = mix(seed ^ i.wrapping_mul(0x2545_f491));
        if !s.is_empty() && r.is_multiple_of(6) {
            s.push(' ');
        } else {
            s.push(char::from(b'a' + (r % 26) as u8));
        }
        i += 1;
    }
    s
}

/// The shared system prompt of a run.
fn system_prompt(seed: u64) -> String {
    format!("system: {}", words(seed ^ 0x5157, SYSTEM_BYTES - 8))
}

/// The user messages of conversation `conv`.
fn user_messages(seed: u64, conv: usize) -> Vec<String> {
    (0..TURNS)
        .map(|t| {
            let k = mix(seed ^ ((conv as u64) << 20) ^ t as u64);
            let (lo, hi) = USER_BYTES;
            words(k, lo + (k % (hi - lo + 1) as u64) as usize)
        })
        .collect()
}

/// One turn as the client saw it.
#[derive(Debug, Clone)]
struct Turn {
    conv: usize,
    turn: usize,
    prompt: String,
    text: String,
    sent: f64,
    done: f64,
    /// Closed-loop generator delay: send time minus the moment the client
    /// was free to send (previous reply, or the end of its `STATS` probe).
    late: f64,
    ok: bool,
}

impl Turn {
    fn chars(&self) -> usize {
        self.text.chars().count()
    }
}

/// A connection for the telemetry verbs (`STATS`, `TIER`, `METRICS json`).
struct Control {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Control {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_string())
    }

    fn bad(what: &str, line: &str) -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected {what} reply {line:?}"),
        )
    }

    /// `STATS`: the per-replica snapshots of a multi-replica fleet.
    fn stats(&mut self) -> std::io::Result<Vec<EngineStats>> {
        writeln!(self.writer, "STATS")?;
        let first = self.line()?;
        if !matches!(Response::parse(&first), Ok(Response::Stats(_))) {
            return Err(Self::bad("STATS", &first));
        }
        let mut replicas = Vec::new();
        loop {
            let line = self.line()?;
            match Response::parse(&line) {
                Ok(Response::RStats { stats, .. }) => replicas.push(stats),
                Ok(Response::End) => return Ok(replicas),
                _ => return Err(Self::bad("STATS", &line)),
            }
        }
    }

    /// `TIER`: the prefix-tier snapshot.
    fn tier(&mut self) -> std::io::Result<TierSnapshot> {
        writeln!(self.writer, "TIER")?;
        let line = self.line()?;
        match Response::parse(&line) {
            Ok(Response::Tier(t)) => Ok(t),
            _ => Err(Self::bad("TIER", &line)),
        }
    }

    /// `METRICS json`: the fleet's metrics snapshot.
    fn metrics(&mut self) -> std::io::Result<MetricsSnapshot> {
        writeln!(self.writer, "METRICS\tjson")?;
        let line = self.line()?;
        MetricsSnapshot::from_json(&line).map_err(|e| Self::bad("METRICS json", &e))
    }
}

/// The telemetry snapshot taken before and after the traced pass.
struct Snapshot {
    tier: TierSnapshot,
    metrics: MetricsSnapshot,
    replicas: Vec<EngineStats>,
}

impl Snapshot {
    fn take(addr: SocketAddr) -> std::io::Result<Self> {
        let mut c = Control::connect(addr)?;
        Ok(Self {
            tier: c.tier()?,
            metrics: c.metrics()?,
            replicas: c.stats()?,
        })
    }

    fn counter(&self, name: &str) -> f64 {
        self.metrics.counter(name).unwrap_or(0) as f64
    }
}

fn stage_time(s: &EngineStats) -> f64 {
    s.schedule_time + s.prepare_time + s.execute_time + s.postprocess_time
}

/// Runs one load connection.
fn run_connection(
    addr: SocketAddr,
    seed: u64,
    system: &str,
    convs: &[usize],
    epoch: Instant,
    stats_rtt: Option<&Mutex<Vec<f64>>>,
) -> Result<Vec<Turn>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.hello().map_err(|e| format!("HELLO: {e}"))?;
    let mut control = match stats_rtt {
        Some(_) => Some(Control::connect(addr).map_err(|e| format!("connect: {e}"))?),
        None => None,
    };
    let mut turns = Vec::new();
    let mut ready = secs_since(epoch);
    for &conv in convs {
        let mut history = system.to_string();
        for (t, msg) in user_messages(seed, conv).iter().enumerate() {
            let prompt = format!("{history} U: {msg} A:");
            if prompt.len() > MAX_PROMPT_BYTES {
                break;
            }
            if let (Some(c), Some(rtt)) = (control.as_mut(), stats_rtt) {
                let t0 = Instant::now();
                c.stats().map_err(|e| format!("STATS: {e}"))?;
                rtt.lock()
                    .expect("rtt list poisoned")
                    .push(t0.elapsed().as_secs_f64());
                ready = secs_since(epoch);
            }
            let sent = secs_since(epoch);
            let reply = client.generate(&prompt, MAX_TOKENS, 1, "greedy");
            let done = secs_since(epoch);
            let (ok, text) = match reply {
                Ok(outs) => {
                    let text = outs.first().map(|o| o.text.clone()).unwrap_or_default();
                    let n = text.chars().count();
                    (
                        outs.len() == 1 && outs[0].index == 0 && n <= MAX_TOKENS,
                        text,
                    )
                }
                Err(_) => (false, String::new()),
            };
            turns.push(Turn {
                conv,
                turn: t,
                prompt: prompt.clone(),
                text: text.clone(),
                sent,
                done,
                late: sent - ready,
                ok,
            });
            ready = done;
            if !ok {
                // Without an answer the conversation cannot go on.
                break;
            }
            history = format!("{prompt} {text}");
        }
    }
    Ok(turns)
}

/// Runs each connection's conversations concurrently.
fn run_load(
    addr: SocketAddr,
    seed: u64,
    system: &str,
    plans: &[Vec<usize>],
    epoch: Instant,
    stats_rtt: Option<&Mutex<Vec<f64>>>,
) -> Result<Vec<Turn>, String> {
    let results: Vec<Result<Vec<Turn>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| s.spawn(move || run_connection(addr, seed, system, plan, epoch, stats_rtt)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut turns = Vec::new();
    for r in results {
        turns.extend(r?);
    }
    Ok(turns)
}

fn engines<E: ModelExecutor>(make: &dyn Fn(usize, &CacheConfig) -> E) -> Vec<LlmEngine<E>> {
    let cache = CacheConfig::new(BLOCK_SIZE, GPU_BLOCKS, CPU_BLOCKS).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 64, 1024).expect("valid scheduler config");
    (0..2)
        .map(|i| {
            let mut e = LlmEngine::new(make(i, &cache), cache.clone(), sched.clone());
            e.set_step_token_budget(None);
            e
        })
        .collect()
}

fn executor(cache: &CacheConfig) -> CpuModelExecutor {
    let model = ModelConfig {
        backend: BackendKind::QuantKv8,
        ..ModelConfig::small()
    };
    CpuModelExecutor::from_config(model, cache)
}

fn spawn<E: ModelExecutor + Send + 'static>(engines: Vec<LlmEngine<E>>) -> Result<Server, String> {
    let cfg = ClusterConfig::disaggregated(1, 1).with_prefix_tier_blocks(TIER_BLOCKS);
    Server::spawn_cluster("127.0.0.1:0", engines, cfg).map_err(|e| format!("spawn server: {e}"))
}

/// Spawns the fleet `SETUP_REPEATS` times, each finished by one warm-up
/// request, and keeps the last server running.
fn setup(
    make: &dyn Fn() -> Result<Server, String>,
    counts: &mut Counts,
) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        let s = make()?;
        let warm = Client::connect(s.addr()).and_then(|mut c| {
            c.hello()?;
            c.generate(&words(0xfeed ^ i as u64, 64), 8, 1, "greedy")
        });
        times.push(t.elapsed().as_secs_f64());
        counts.record(warm.is_ok_and(|o| o.len() == 1));
        server = Some(s);
    }
    Ok((server.expect("at least one set-up"), median(&times)))
}

/// Checks that both replicas drained with every block free.
///
/// Replicas publish their stats on admission and after each step, not
/// after the prefix releases that close a handoff, so a short greedy probe
/// (too short to carry a prefix, yet still prefill→decode) first makes
/// both replicas step and republish.
fn check_drained(server: &Server, out: &mut Outcome) {
    let probe = Client::connect(server.addr()).and_then(|mut c| {
        c.hello()?;
        c.generate("ok", 2, 1, "greedy")
    });
    if let Err(e) = probe {
        out.fail(format!("drain probe failed: {e}"));
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let stats = server.replica_stats();
        let idle = stats
            .iter()
            .all(|s| s.waiting == 0 && s.running == 0 && s.swapped == 0);
        let free = stats.iter().all(|s| s.free_blocks == s.total_blocks);
        if idle && free {
            return;
        }
        if Instant::now() >= deadline {
            for (i, s) in stats.iter().enumerate() {
                if s.free_blocks != s.total_blocks || !idle {
                    out.fail(format!(
                        "replica {i}: {} of {} blocks allocated, {} running, {} waiting after drain",
                        s.total_blocks - s.free_blocks,
                        s.total_blocks,
                        s.running,
                        s.waiting
                    ));
                }
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Replays the first conversations on one connection and checks every
/// reply is identical to the timed phase's.
fn check_repeat(addr: SocketAddr, turns: &[Turn], out: &mut Outcome) {
    let mut client = match Client::connect(addr).and_then(|mut c| c.hello().map(|_| c)) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("repeat check connect: {e}"));
            return;
        }
    };
    let mut convs: Vec<usize> = turns.iter().map(|t| t.conv).collect();
    convs.sort_unstable();
    convs.dedup();
    let mut differ = 0;
    for conv in convs.into_iter().take(REPLAY_CONVERSATIONS) {
        let mut mine: Vec<&Turn> = turns.iter().filter(|t| t.conv == conv && t.ok).collect();
        mine.sort_by_key(|t| t.turn);
        for t in mine {
            match client.generate(&t.prompt, MAX_TOKENS, 1, "greedy") {
                Ok(o) if o.len() == 1 && o[0].text == t.text => {}
                _ => differ += 1,
            }
        }
    }
    if differ > 0 {
        out.fail(format!(
            "{differ} replayed turns differ from the timed phase"
        ));
    }
}

/// End-to-end figures of a closed-loop pass.
fn end_to_end(turns: &[Turn], start: f64, setup_s: f64) -> EndToEnd {
    let ok: Vec<&Turn> = turns.iter().filter(|t| t.ok).collect();
    let end = turns.iter().map(|t| t.done).fold(start, f64::max);
    let wall = (end - start).max(f64::MIN_POSITIVE);
    let e2e: Vec<f64> = ok.iter().map(|t| t.done - t.sent).collect();
    EndToEnd {
        setup_s,
        gen_tok_s: ok.iter().map(|t| t.chars()).sum::<usize>() as f64 / wall,
        req_per_s: ok.len() as f64 / wall,
        itl: ok
            .iter()
            .filter(|t| t.chars() > 0)
            .map(|t| (t.done - t.sent) / t.chars() as f64)
            .collect(),
        gaps: Vec::new(),
        ttft: e2e.clone(),
        e2e,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Conversation indices per connection: `seconds × CONVERSATIONS_PER_SECOND`
/// conversations (at least one per connection), dealt round-robin.
fn plans(seconds: f64) -> Vec<Vec<usize>> {
    let per_conn =
        ((seconds * CONVERSATIONS_PER_SECOND / CONNECTIONS as f64).round() as usize).max(1);
    (0..CONNECTIONS)
        .map(|c| (0..per_conn).map(|k| k * CONNECTIONS + c).collect())
        .collect()
}

/// Runs `tcp-multiturn`.
pub fn tcp(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let system = system_prompt(args.seed);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plans = plans(seconds);
    out.note("conversations", plans.iter().map(Vec::len).sum::<usize>());
    let (server, setup_s) = setup(&|| spawn(engines(&|_, c| executor(c))), &mut out.warmup)?;
    let addr = server.addr();
    let epoch = Instant::now();
    let turns = run_load(addr, args.seed, &system, &plans, epoch, None)?;
    let wall = turns.iter().map(|t| t.done).fold(0.0, f64::max);
    for t in &turns {
        out.timed.record(t.ok);
    }
    check_drained(&server, out);
    let e2e = end_to_end(&turns, 0.0, setup_s);
    check_repeat(addr, &turns, out);
    check_drained(&server, out);
    Server::shutdown(server);
    if !args.trace {
        e2e.emit(out);
        return Ok(());
    }

    // Traced pass: a fresh fleet with wrapped executors serves the same
    // conversations.
    let log: StepLog = Arc::new(Mutex::new(Vec::new()));
    let epoch = Instant::now();
    let make = || {
        spawn(engines(&|i, c| {
            TimedExecutor::new(executor(c), i, epoch, Arc::clone(&log))
        }))
    };
    let (server, _) = setup(&make, &mut out.warmup)?;
    let addr = server.addr();
    let roles = server.roles().to_vec();
    let before = Snapshot::take(addr).map_err(|e| format!("snapshot: {e}"))?;
    log.lock().expect("step log").clear();
    let kernels_before = timing::snapshot();
    let rtt = Mutex::new(Vec::new());
    let start = secs_since(epoch);
    let traced = run_load(addr, args.seed, &system, &plans, epoch, Some(&rtt))?;
    let traced_wall = traced.iter().map(|t| t.done).fold(start, f64::max) - start;
    let kernels = timing::snapshot().delta_since(&kernels_before);
    let after = Snapshot::take(addr).map_err(|e| format!("snapshot: {e}"))?;
    check_drained(&server, out);
    for t in &traced {
        out.timed.record(t.ok);
    }
    let records = log.lock().expect("step log").clone();
    Server::shutdown(server);

    let scale = overlap_scale(&records, &kernels);
    let totals = StepTotals::of(&records, &[GPU_BLOCKS, GPU_BLOCKS], scale);
    let mut spans = SpanLog::default();
    let run = spans.push(0, "run", start, start + traced_wall, vec![]);
    // Server ids are `req-<n>` in arrival order across connections; the
    // set-up's warm-up took `req-0`.
    let mut by_send: Vec<&Turn> = traced.iter().collect();
    by_send.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    let mut queue_wait = Vec::new();
    let mut request_span = std::collections::HashMap::new();
    for (k, t) in by_send.iter().enumerate() {
        let id = format!("req-{}", k + 1);
        if let Some(first) = totals.first_scheduled.get(&id) {
            queue_wait.push((first - t.sent).max(0.0));
        }
        let span = spans.push(
            run,
            "request",
            t.sent,
            t.done,
            vec![
                ("request_id", id.clone()),
                ("conversation", t.conv.to_string()),
                ("turn", t.turn.to_string()),
            ],
        );
        request_span.insert(id, span);
    }
    for r in &records {
        let step = spans.push_begin_step(run, r, scale);
        // Engine ids are the request id, plus `.d<attempt>` for the decode
        // continuation of a handoff (`.p<attempt>`/`.<attempt>` on retries).
        for (id, _) in &r.scheduled {
            let base = id.split('.').next().unwrap_or(id);
            if let Some(&parent) = request_span.get(base) {
                spans.push(
                    parent,
                    "request.step",
                    r.start,
                    r.start + r.dur,
                    vec![
                        ("request_id", id.clone()),
                        ("replica", r.replica.to_string()),
                        ("step_span", step.to_string()),
                    ],
                );
            }
        }
    }
    let busy = |role: ReplicaRole| -> f64 {
        roles
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == role)
            .map(|(i, _)| stage_time(&after.replicas[i]) - stage_time(&before.replicas[i]))
            .sum::<f64>()
            / traced_wall
    };
    let d_steps: f64 = after
        .replicas
        .iter()
        .zip(&before.replicas)
        .map(|(a, b)| (a.steps - b.steps) as f64)
        .sum();
    let d_overhead: f64 = after
        .replicas
        .iter()
        .zip(&before.replicas)
        .map(|(a, b)| (stage_time(a) - a.execute_time) - (stage_time(b) - b.execute_time))
        .sum();
    let hits = (after.tier.hits - before.tier.hits) as f64;
    let misses = (after.tier.misses - before.tier.misses) as f64;
    let failed = traced.iter().filter(|t| !t.ok).count();
    let layers = Layers {
        replicas: 2,
        wall_s: traced_wall,
        untraced_wall_s: wall,
        overhead_frac: traced_wall / wall - 1.0,
        core_overhead_s: if d_steps > 0.0 {
            d_overhead / d_steps
        } else {
            0.0
        },
        queue_wait,
        cluster: Cluster {
            tier_hit_frac: if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            handoffs: after.counter("vllm_cluster_handoffs_total")
                - before.counter("vllm_cluster_handoffs_total"),
            handoff_blocks: after.counter("vllm_cluster_handoff_blocks_total")
                - before.counter("vllm_cluster_handoff_blocks_total"),
            retries: after.counter("vllm_cluster_retries_total")
                - before.counter("vllm_cluster_retries_total"),
            prefill_busy_frac: busy(ReplicaRole::Prefill),
            decode_busy_frac: busy(ReplicaRole::Decode),
        },
        stats_rtt: rtt.into_inner().expect("rtt list"),
        frontend_sent: traced.len() as f64,
        frontend_failed: failed as f64,
        late: traced.iter().map(|t| t.late).collect(),
        spans: spans.len(),
        steps: totals,
    };
    out.note("kernel.overlap_scale", scale);
    out.note(
        "trace.overhead_frac.base",
        "wall time of the same conversations, traced vs untraced fleet",
    );
    crate::write_spans(args, &spans, BackendKind::QuantKv8.name(), out);
    layers.emit(out);
    Ok(())
}
