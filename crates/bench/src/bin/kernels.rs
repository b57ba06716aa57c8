//! Numeric-layer microbenchmarks across the pluggable kernel backends.
//!
//! For every [`BackendKind`] (scalar, simd, quant-kv8) the bench measures
//! decode throughput (per-sequence and batched) against the seed
//! repository's scalar baseline, a serial GEMM microbench, the kernel
//! timing counters, and — via [`BlockSpaceManager`] sizing at a fixed
//! memory budget — the KV block capacity and the max concurrent batch a
//! small engine simulation sustains. One flat JSON record per backend is
//! written to `BENCH_kernels.json` (JSON lines).
//!
//! With `--ci` it gates:
//! - per backend: batched logits bit-identical to per-sequence decode,
//!   kernel counters advancing;
//! - scalar: batched decode ≥ 2× the seed scalar path at batch 16;
//! - simd: serial GEMM ≥ 1.3× the scalar backend's serial GEMM;
//! - quant-kv8: ≥ 1.8× the scalar block capacity at equal cache bytes
//!   (asserted through `BlockSpaceManager`, not just arithmetic) and a
//!   strictly larger max concurrent batch in the engine simulation;
//! - per backend: block-native prefill attention bit-identical to the
//!   contiguous causal kernel over gathered K/V, at the global pool width
//!   and on one thread (the pooled-vs-1-thread time ratio is recorded,
//!   not gated);
//! - JSON round-trip of every record.

use std::time::Instant;

use vllm_core::{BlockSpaceManager, CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm_model::backend::{self, BackendKind, KvElement, KvLayout};
use vllm_model::ops::{self, timing};
use vllm_model::{
    contiguous_causal_attention, paged_attention_decode, paged_attention_prefill, pool,
    CpuModelExecutor, DecodeInput, KvPool, ModelConfig, PositionEncoding, Transformer, WorkerPool,
};

/// Decode batch width the CI gate is defined over.
const BATCH: usize = 16;
/// Measured decode steps per path.
const DECODE_STEPS: usize = 8;
/// Unmeasured warm-up decode steps per path.
const WARMUP_STEPS: usize = 2;
/// Prompt length used for prefill and decode context.
const PREFILL: usize = 32;
/// KV block size (tokens per block).
const BLOCK_SIZE: usize = 16;
/// GEMM microbench shape (a prefill QKV projection).
const GEMM_M: usize = 16;
/// GEMM depth.
const GEMM_K: usize = 256;
/// GEMM width.
const GEMM_N: usize = 1024;
/// GEMM microbench iterations per kernel.
const GEMM_ITERS: usize = 20;
/// Layer-norm epsilon (matches the transformer's).
const LN_EPS: f32 = 1e-5;
/// Memory budget for the capacity comparison: what 64 f32 blocks of the
/// bench model cost. Every backend gets the same byte budget.
const CAPACITY_F32_BLOCKS: usize = 64;
/// Requests submitted to the max-concurrent-batch simulation.
const SIM_REQUESTS: usize = 16;
/// Prompt length per simulated request.
const SIM_PROMPT: usize = 24;
/// Tokens generated per simulated request.
const SIM_GEN: usize = 16;
/// f32 KV blocks the simulation's memory budget is defined over.
const SIM_F32_BLOCKS: usize = 20;
/// Prompt length of the prefill-attention microbench (a long multi-turn
/// chat prompt).
const PREFILL_ATTN_CTX: usize = 768;
/// Rows per chunk in the prefill-attention microbench.
const PREFILL_ATTN_CHUNK: usize = 256;
/// Timed passes over the whole prompt per prefill-attention path.
const PREFILL_ATTN_ITERS: usize = 5;

/// A mid-size model: big enough that weight traffic dominates, small
/// enough to bench in seconds.
fn bench_config(kind: BackendKind) -> ModelConfig {
    ModelConfig {
        vocab_size: 8192,
        hidden: 256,
        n_layers: 4,
        n_heads: 8,
        max_position: 256,
        eos_token_id: 0,
        seed: 0xbe9c,
        position_encoding: PositionEncoding::Learned,
        backend: kind,
    }
}

/// Deterministic pseudo-random token for sequence `seq` at `pos`.
fn tok(seq: usize, pos: usize, vocab: usize) -> u32 {
    let mixed = (seq * 131 + pos * 65_537 + 9).wrapping_mul(2_654_435_761);
    (mixed % vocab) as u32
}

/// The seed repository's scalar LM head: one sequential dot product per
/// vocabulary row, no unrolling.
fn lm_head_seed(model: &Transformer, hidden_state: &[f32], logits: &mut [f32]) {
    let h = model.config.hidden;
    for (j, row) in model.wte.chunks_exact(h).enumerate() {
        let mut s = 0.0f32;
        for (x, w) in hidden_state.iter().zip(row) {
            s += x * w;
        }
        logits[j] = s;
    }
}

/// The seed repository's per-sequence decode step, reconstructed as the
/// "old path" throughput baseline: scalar ikj [`ops::matmul_reference`]
/// for every projection and a scalar LM-head loop. Attention reuses the
/// shared f32 PagedAttention kernel (unchanged math between old and new).
fn forward_decode_seed(
    model: &Transformer,
    token: u32,
    position: usize,
    kv: &mut KvPool,
    table: &[usize],
) -> Vec<f32> {
    let h = model.config.hidden;
    let bs = kv.block_size();
    let ctx = position + 1;
    let mut x = vec![0.0f32; h];
    let e = &model.wte[token as usize * h..(token as usize + 1) * h];
    let p = &model.wpe[position * h..(position + 1) * h];
    for j in 0..h {
        x[j] = e[j] + p[j];
    }
    let mut qkv = vec![0.0f32; 3 * h];
    let mut attn = vec![0.0f32; h];
    let mut proj = vec![0.0f32; h];
    let mut mid = vec![0.0f32; 4 * h];
    for (li, lw) in model.layers.iter().enumerate() {
        let mut hst = x.clone();
        ops::layer_norm(&mut hst, &lw.ln1_g, &lw.ln1_b, LN_EPS);
        ops::matmul_reference(&hst, &lw.w_qkv, 1, h, 3 * h, &mut qkv);
        ops::add_bias(&mut qkv, &lw.b_qkv);
        kv.write(
            li,
            table[position / bs],
            position % bs,
            &qkv[h..2 * h],
            &qkv[2 * h..3 * h],
        );
        paged_attention_decode(
            &qkv[..h],
            kv,
            li,
            table,
            ctx,
            model.config.n_heads,
            model.config.head_dim(),
            &mut attn,
        );
        ops::matmul_reference(&attn, &lw.w_o, 1, h, h, &mut proj);
        ops::add_bias(&mut proj, &lw.b_o);
        ops::add_inplace(&mut x, &proj);

        let mut hst = x.clone();
        ops::layer_norm(&mut hst, &lw.ln2_g, &lw.ln2_b, LN_EPS);
        ops::matmul_reference(&hst, &lw.w_fc, 1, h, 4 * h, &mut mid);
        ops::add_bias(&mut mid, &lw.b_fc);
        ops::gelu(&mut mid);
        ops::matmul_reference(&mid, &lw.w_proj, 1, 4 * h, h, &mut proj);
        ops::add_bias(&mut proj, &lw.b_proj);
        ops::add_inplace(&mut x, &proj);
    }
    ops::layer_norm(&mut x, &model.ln_f_g, &model.ln_f_b, LN_EPS);
    let mut logits = vec![0.0f32; model.config.vocab_size];
    lm_head_seed(model, &x, &mut logits);
    logits
}

/// One backend's measurements; serialized as one JSON line.
struct BackendReport {
    backend: &'static str,
    batch_size: usize,
    decode_steps: usize,
    seed_scalar_tokens_per_sec: f64,
    per_seq_tokens_per_sec: f64,
    batched_tokens_per_sec: f64,
    batched_decode_speedup: f64,
    gemm_m: usize,
    gemm_k: usize,
    gemm_n: usize,
    gemm_serial_ns: f64,
    gemm_speedup_vs_scalar: f64,
    kernel_matmul_ns: u64,
    kernel_matmul_calls: u64,
    kernel_paged_attention_ns: u64,
    kernel_paged_attention_calls: u64,
    kernel_logits_ns: u64,
    kernel_logits_calls: u64,
    kv_bytes_per_block: usize,
    num_gpu_blocks_at_budget: usize,
    block_capacity_ratio_vs_scalar: f64,
    max_concurrent_batch: usize,
    prefill_attention_ctx: usize,
    prefill_attention_pooled_ns: f64,
    prefill_attention_serial_ns: f64,
    prefill_attention_pool_speedup: f64,
    prefill_attention_gather_ns: f64,
    threads: usize,
    configured_threads: usize,
    logits_match: bool,
    prefill_attention_match: bool,
}

impl BackendReport {
    /// One-line flat JSON document: a `backend` string, numbers, and two
    /// booleans; no nesting so the round-trip parser stays trivial.
    fn to_json(&self) -> String {
        let mut s = format!("{{\"backend\":\"{}\",", self.backend);
        let push_num = |s: &mut String, key: &str, v: f64| {
            s.push_str(&format!("\"{key}\":{v:.4},"));
        };
        push_num(&mut s, "batch_size", self.batch_size as f64);
        push_num(&mut s, "decode_steps", self.decode_steps as f64);
        push_num(
            &mut s,
            "seed_scalar_tokens_per_sec",
            self.seed_scalar_tokens_per_sec,
        );
        push_num(
            &mut s,
            "per_seq_tokens_per_sec",
            self.per_seq_tokens_per_sec,
        );
        push_num(
            &mut s,
            "batched_tokens_per_sec",
            self.batched_tokens_per_sec,
        );
        push_num(
            &mut s,
            "batched_decode_speedup",
            self.batched_decode_speedup,
        );
        push_num(&mut s, "gemm_m", self.gemm_m as f64);
        push_num(&mut s, "gemm_k", self.gemm_k as f64);
        push_num(&mut s, "gemm_n", self.gemm_n as f64);
        push_num(&mut s, "gemm_serial_ns", self.gemm_serial_ns);
        push_num(
            &mut s,
            "gemm_speedup_vs_scalar",
            self.gemm_speedup_vs_scalar,
        );
        push_num(&mut s, "kernel_matmul_ns", self.kernel_matmul_ns as f64);
        push_num(
            &mut s,
            "kernel_matmul_calls",
            self.kernel_matmul_calls as f64,
        );
        push_num(
            &mut s,
            "kernel_paged_attention_ns",
            self.kernel_paged_attention_ns as f64,
        );
        push_num(
            &mut s,
            "kernel_paged_attention_calls",
            self.kernel_paged_attention_calls as f64,
        );
        push_num(&mut s, "kernel_logits_ns", self.kernel_logits_ns as f64);
        push_num(
            &mut s,
            "kernel_logits_calls",
            self.kernel_logits_calls as f64,
        );
        push_num(&mut s, "kv_bytes_per_block", self.kv_bytes_per_block as f64);
        push_num(
            &mut s,
            "num_gpu_blocks_at_budget",
            self.num_gpu_blocks_at_budget as f64,
        );
        push_num(
            &mut s,
            "block_capacity_ratio_vs_scalar",
            self.block_capacity_ratio_vs_scalar,
        );
        push_num(
            &mut s,
            "max_concurrent_batch",
            self.max_concurrent_batch as f64,
        );
        push_num(
            &mut s,
            "prefill_attention_ctx",
            self.prefill_attention_ctx as f64,
        );
        push_num(
            &mut s,
            "prefill_attention_pooled_ns",
            self.prefill_attention_pooled_ns,
        );
        push_num(
            &mut s,
            "prefill_attention_serial_ns",
            self.prefill_attention_serial_ns,
        );
        push_num(
            &mut s,
            "prefill_attention_pool_speedup",
            self.prefill_attention_pool_speedup,
        );
        push_num(
            &mut s,
            "prefill_attention_gather_ns",
            self.prefill_attention_gather_ns,
        );
        push_num(&mut s, "threads", self.threads as f64);
        push_num(&mut s, "configured_threads", self.configured_threads as f64);
        s.push_str(&format!(
            "\"logits_match\":{},\"prefill_attention_match\":{}}}",
            self.logits_match, self.prefill_attention_match
        ));
        s
    }
}

/// Extracts a numeric field from a flat JSON document written by
/// [`BackendReport::to_json`]. Returns `None` if the key is absent or its
/// value does not parse as a number.
fn json_get(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The repository root (two levels above the bench crate manifest).
fn repo_root() -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

/// Serial GEMM microbench for one backend: average nanoseconds per
/// `matmul_serial` call, with the scalar backend's output as the
/// correctness reference.
fn bench_gemm_serial(kind: BackendKind) -> f64 {
    let mut state = 0x1234_5678_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let a: Vec<f32> = (0..GEMM_M * GEMM_K).map(|_| next()).collect();
    let b: Vec<f32> = (0..GEMM_K * GEMM_N).map(|_| next()).collect();
    let be = backend::by_kind(kind);
    let mut out = vec![0.0f32; GEMM_M * GEMM_N];
    let mut out_ref = vec![0.0f32; GEMM_M * GEMM_N];

    // Warm and verify against the scalar reference before timing.
    ops::matmul_reference(&a, &b, GEMM_M, GEMM_K, GEMM_N, &mut out_ref);
    be.matmul_serial(&a, &b, GEMM_M, GEMM_K, GEMM_N, &mut out);
    for (r, v) in out_ref.iter().zip(&out) {
        assert!(
            (r - v).abs() < 1e-2,
            "{} matmul diverged from reference: {r} vs {v}",
            kind.name()
        );
    }

    let t0 = Instant::now();
    for _ in 0..GEMM_ITERS {
        be.matmul_serial(&a, &b, GEMM_M, GEMM_K, GEMM_N, &mut out);
    }
    t0.elapsed().as_nanos() as f64 / GEMM_ITERS as f64
}

/// GPU block capacity the block manager derives for `kind` at the shared
/// byte budget, asserted through a real [`BlockSpaceManager`].
fn capacity_at_budget(kind: BackendKind) -> (usize, usize) {
    let cfg = bench_config(kind);
    let layout = backend::by_kind(kind).kv_layout();
    let bytes_per_block = layout.bytes_per_block(cfg.n_layers, BLOCK_SIZE, cfg.hidden);
    let f32_block = KvLayout {
        element: KvElement::F32,
    }
    .bytes_per_block(cfg.n_layers, BLOCK_SIZE, cfg.hidden);
    let budget = f32_block * CAPACITY_F32_BLOCKS;
    let cache = CacheConfig::from_memory_budget(BLOCK_SIZE, bytes_per_block, budget)
        .expect("budget holds at least one block");
    let manager = BlockSpaceManager::new(&cache);
    (bytes_per_block, manager.num_total_gpu_blocks())
}

/// Runs a small engine under a fixed byte budget and reports the largest
/// concurrent running batch the scheduler sustained — the Figure-12-style
/// payoff of compact KV storage: same bytes, more blocks, bigger batches.
fn max_concurrent_batch(kind: BackendKind) -> usize {
    let mcfg = ModelConfig {
        vocab_size: 128,
        hidden: 32,
        n_layers: 2,
        n_heads: 4,
        max_position: 256,
        eos_token_id: 0,
        seed: 0x5eed,
        position_encoding: PositionEncoding::Learned,
        backend: kind,
    };
    let layout = backend::by_kind(kind).kv_layout();
    let bytes_per_block = layout.bytes_per_block(mcfg.n_layers, BLOCK_SIZE, mcfg.hidden);
    let f32_block = KvLayout {
        element: KvElement::F32,
    }
    .bytes_per_block(mcfg.n_layers, BLOCK_SIZE, mcfg.hidden);
    let budget = f32_block * SIM_F32_BLOCKS;
    let cache = CacheConfig::from_memory_budget(BLOCK_SIZE, bytes_per_block, budget)
        .expect("budget holds at least one block");
    let sched = SchedulerConfig::new(2048, 64, 2048).expect("valid scheduler config");
    let exec = CpuModelExecutor::from_config(mcfg, &cache);
    let mut engine = LlmEngine::new(exec, cache, sched);
    for i in 0..SIM_REQUESTS {
        let prompt: Vec<u32> = (0..SIM_PROMPT).map(|p| tok(i, p, 128)).collect();
        engine
            .add_request(format!("r{i}"), prompt, SamplingParams::greedy(SIM_GEN))
            .expect("request admitted");
    }
    let mut max_running = 0;
    while engine.has_unfinished() {
        engine.step().expect("sim step");
        max_running = max_running.max(engine.scheduler().num_running());
    }
    max_running
}

/// One backend's prefill-attention timings (ns per whole-prompt pass).
struct PrefillAttentionBench {
    pooled_ns: f64,
    serial_ns: f64,
    gather_ns: f64,
    bit_identical: bool,
}

/// Prefill-attention microbench in the serving model's attention shape
/// (`ModelConfig::small`: 8 heads × 8): a [`PREFILL_ATTN_CTX`]-token
/// prompt attended in [`PREFILL_ATTN_CHUNK`]-row chunks through a
/// scrambled block table of this backend's KV layout. Times the
/// block-native kernel on the global pool and on a 1-thread pool, and the
/// gather-then-contiguous reference it replaced; checks that both pool
/// widths are bit-identical to that reference.
fn bench_prefill_attention(kind: BackendKind) -> PrefillAttentionBench {
    let cfg = ModelConfig::small();
    let (n_heads, head_dim, hidden) = (cfg.n_heads, cfg.head_dim(), cfg.hidden);
    let element = backend::by_kind(kind).kv_layout().element;
    let n_blocks = PREFILL_ATTN_CTX.div_ceil(BLOCK_SIZE);
    let mut kv = KvPool::with_element(1, n_blocks + 1, BLOCK_SIZE, hidden, element);
    let table: Vec<usize> = (0..n_blocks)
        .map(|j| (j * 7 + 3) % (n_blocks + 1))
        .collect();
    let mut state = 0x9e37_79b9_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2000) as f32 / 1000.0 - 1.0
    };
    for t in 0..PREFILL_ATTN_CTX {
        let k: Vec<f32> = (0..hidden).map(|_| next()).collect();
        let v: Vec<f32> = (0..hidden).map(|_| next()).collect();
        kv.write(0, table[t / BLOCK_SIZE], t % BLOCK_SIZE, &k, &v);
    }
    let q: Vec<f32> = (0..PREFILL_ATTN_CTX * hidden).map(|_| next()).collect();
    let chunks: Vec<(usize, usize)> = (0..PREFILL_ATTN_CTX)
        .step_by(PREFILL_ATTN_CHUNK)
        .map(|c| (c, PREFILL_ATTN_CHUNK.min(PREFILL_ATTN_CTX - c)))
        .collect();
    let paged = |workers: &WorkerPool, out: &mut [f32]| {
        for &(c, nq) in &chunks {
            paged_attention_prefill(
                &q[c * hidden..(c + nq) * hidden],
                &kv,
                0,
                &table,
                nq,
                c + nq,
                c,
                n_heads,
                head_dim,
                workers,
                &mut out[c * hidden..(c + nq) * hidden],
            );
        }
    };
    let gathered = |out: &mut [f32]| {
        for &(c, nq) in &chunks {
            let (ks, vs) = kv.gather(0, &table, c + nq);
            contiguous_causal_attention(
                &q[c * hidden..(c + nq) * hidden],
                &ks,
                &vs,
                nq,
                c + nq,
                c,
                n_heads,
                head_dim,
                &mut out[c * hidden..(c + nq) * hidden],
            );
        }
    };
    let time = |f: &mut dyn FnMut(&mut [f32])| -> (f64, Vec<f32>) {
        let mut out = vec![0.0f32; PREFILL_ATTN_CTX * hidden];
        f(&mut out);
        let t0 = Instant::now();
        for _ in 0..PREFILL_ATTN_ITERS {
            f(&mut out);
        }
        (
            t0.elapsed().as_nanos() as f64 / PREFILL_ATTN_ITERS as f64,
            out,
        )
    };
    let one = WorkerPool::new(1);
    let (gather_ns, reference) = time(&mut |out| gathered(out));
    let (serial_ns, serial) = time(&mut |out| paged(&one, out));
    let (pooled_ns, pooled) = time(&mut |out| paged(pool::global(), out));
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    PrefillAttentionBench {
        pooled_ns,
        serial_ns,
        gather_ns,
        bit_identical: bits(&serial) == bits(&reference) && bits(&pooled) == bits(&reference),
    }
}

/// Measures one backend's decode paths against the shared seed baseline.
fn run_backend_bench(
    kind: BackendKind,
    seed_scalar_tps: f64,
    scalar_gemm_ns: f64,
    scalar_blocks: usize,
) -> BackendReport {
    let config = bench_config(kind);
    let vocab = config.vocab_size;
    let model = Transformer::new(config.clone());
    let layout = model.backend().kv_layout();

    let blocks_per_seq = (PREFILL + WARMUP_STEPS + DECODE_STEPS + 1).div_ceil(BLOCK_SIZE);
    let total_blocks = BATCH * blocks_per_seq;
    let mut kv = KvPool::with_element(
        config.n_layers,
        total_blocks,
        BLOCK_SIZE,
        config.hidden,
        layout.element,
    );

    // Disjoint per-sequence block tables, deterministic prompts.
    let tables: Vec<Vec<usize>> = (0..BATCH)
        .map(|i| (i * blocks_per_seq..(i + 1) * blocks_per_seq).collect())
        .collect();
    for (i, table) in tables.iter().enumerate() {
        let tokens: Vec<u32> = (0..PREFILL).map(|p| tok(i, p, vocab)).collect();
        let positions: Vec<usize> = (0..PREFILL).collect();
        model.forward_paged(&tokens, &positions, &mut kv, table, 0);
    }

    // Both decode paths run the SAME tokens at the SAME positions: each
    // pass rewrites K/V at those positions with bit-identical values, so
    // the bit-identity check at the end compares consistent states.
    let step_inputs: Vec<Vec<(u32, usize)>> = (0..WARMUP_STEPS + DECODE_STEPS)
        .map(|s| {
            let pos = PREFILL + s;
            (0..BATCH).map(|i| (tok(i, pos, vocab), pos)).collect()
        })
        .collect();

    // This backend's kernels, one sequence at a time.
    let mut per_seq_last = vec![Vec::new(); BATCH];
    for step in &step_inputs[..WARMUP_STEPS] {
        for (i, &(t, pos)) in step.iter().enumerate() {
            model.forward_paged(&[t], &[pos], &mut kv, &tables[i], pos);
        }
    }
    let t0 = Instant::now();
    for step in &step_inputs[WARMUP_STEPS..] {
        for (i, &(t, pos)) in step.iter().enumerate() {
            per_seq_last[i] = model.forward_paged(&[t], &[pos], &mut kv, &tables[i], pos);
        }
    }
    let per_seq_elapsed = t0.elapsed();

    // One stacked batched forward per step.
    let run_batched = |kv: &mut KvPool, step: &[(u32, usize)]| -> Vec<f32> {
        let inputs: Vec<DecodeInput<'_>> = step
            .iter()
            .enumerate()
            .map(|(i, &(t, pos))| DecodeInput {
                token: t,
                position: pos,
                block_table: &tables[i],
            })
            .collect();
        model.forward_decode_batch(&inputs, kv)
    };
    for step in &step_inputs[..WARMUP_STEPS] {
        run_batched(&mut kv, step);
    }
    let kernels_before = timing::snapshot();
    let mut batched_last = Vec::new();
    let t0 = Instant::now();
    for step in &step_inputs[WARMUP_STEPS..] {
        batched_last = run_batched(&mut kv, step);
    }
    let batched_elapsed = t0.elapsed();
    let kernels = timing::snapshot().delta_since(&kernels_before);

    // Bit-identity spot check on the final step's logits: the batched
    // forward must equal the per-sequence forward under this backend's
    // k-only accumulation-order contract.
    let logits_match =
        (0..BATCH).all(|i| per_seq_last[i][..] == batched_last[i * vocab..(i + 1) * vocab]);

    let gemm_ns = bench_gemm_serial(kind);
    let (bytes_per_block, blocks_at_budget) = capacity_at_budget(kind);
    let prefill = bench_prefill_attention(kind);

    let decoded_tokens = (BATCH * DECODE_STEPS) as f64;
    let per_seq_tps = decoded_tokens / per_seq_elapsed.as_secs_f64();
    let batched_tps = decoded_tokens / batched_elapsed.as_secs_f64();
    BackendReport {
        backend: kind.name(),
        batch_size: BATCH,
        decode_steps: DECODE_STEPS,
        seed_scalar_tokens_per_sec: seed_scalar_tps,
        per_seq_tokens_per_sec: per_seq_tps,
        batched_tokens_per_sec: batched_tps,
        batched_decode_speedup: batched_tps / seed_scalar_tps,
        gemm_m: GEMM_M,
        gemm_k: GEMM_K,
        gemm_n: GEMM_N,
        gemm_serial_ns: gemm_ns,
        gemm_speedup_vs_scalar: scalar_gemm_ns / gemm_ns,
        kernel_matmul_ns: kernels.matmul_ns,
        kernel_matmul_calls: kernels.matmul_calls,
        kernel_paged_attention_ns: kernels.attention_ns,
        kernel_paged_attention_calls: kernels.attention_calls,
        kernel_logits_ns: kernels.logits_ns,
        kernel_logits_calls: kernels.logits_calls,
        kv_bytes_per_block: bytes_per_block,
        num_gpu_blocks_at_budget: blocks_at_budget,
        block_capacity_ratio_vs_scalar: blocks_at_budget as f64 / scalar_blocks as f64,
        max_concurrent_batch: max_concurrent_batch(kind),
        prefill_attention_ctx: PREFILL_ATTN_CTX,
        prefill_attention_pooled_ns: prefill.pooled_ns,
        prefill_attention_serial_ns: prefill.serial_ns,
        prefill_attention_pool_speedup: prefill.serial_ns / prefill.pooled_ns,
        prefill_attention_gather_ns: prefill.gather_ns,
        threads: pool::global().parallelism(),
        configured_threads: pool::configured_threads(),
        logits_match,
        prefill_attention_match: prefill.bit_identical,
    }
}

/// Measures the seed repository's scalar per-sequence decode throughput
/// once; it is backend-independent (reference kernels, f32 KV).
fn run_seed_baseline() -> f64 {
    let config = bench_config(BackendKind::Scalar);
    let vocab = config.vocab_size;
    let model = Transformer::new(config.clone());
    let blocks_per_seq = (PREFILL + WARMUP_STEPS + DECODE_STEPS + 1).div_ceil(BLOCK_SIZE);
    let mut kv = KvPool::new(
        config.n_layers,
        BATCH * blocks_per_seq,
        BLOCK_SIZE,
        config.hidden,
    );
    let tables: Vec<Vec<usize>> = (0..BATCH)
        .map(|i| (i * blocks_per_seq..(i + 1) * blocks_per_seq).collect())
        .collect();
    for (i, table) in tables.iter().enumerate() {
        let tokens: Vec<u32> = (0..PREFILL).map(|p| tok(i, p, vocab)).collect();
        let positions: Vec<usize> = (0..PREFILL).collect();
        model.forward_paged(&tokens, &positions, &mut kv, table, 0);
    }
    let step_inputs: Vec<Vec<(u32, usize)>> = (0..WARMUP_STEPS + DECODE_STEPS)
        .map(|s| {
            let pos = PREFILL + s;
            (0..BATCH).map(|i| (tok(i, pos, vocab), pos)).collect()
        })
        .collect();
    for step in &step_inputs[..WARMUP_STEPS] {
        for (i, &(t, pos)) in step.iter().enumerate() {
            forward_decode_seed(&model, t, pos, &mut kv, &tables[i]);
        }
    }
    let t0 = Instant::now();
    for step in &step_inputs[WARMUP_STEPS..] {
        for (i, &(t, pos)) in step.iter().enumerate() {
            forward_decode_seed(&model, t, pos, &mut kv, &tables[i]);
        }
    }
    (BATCH * DECODE_STEPS) as f64 / t0.elapsed().as_secs_f64()
}

fn print_report(r: &BackendReport) {
    println!("=== backend: {} ===", r.backend);
    println!(
        "  threads: {} (VLLM_NUM_THREADS={})",
        r.threads, r.configured_threads
    );
    println!(
        "  decode (batch {}, {} steps): seed scalar {:.1} tok/s | per-seq {:.1} tok/s | batched {:.1} tok/s ({:.2}x vs seed)",
        r.batch_size,
        r.decode_steps,
        r.seed_scalar_tokens_per_sec,
        r.per_seq_tokens_per_sec,
        r.batched_tokens_per_sec,
        r.batched_decode_speedup
    );
    println!(
        "  batched logits bit-identical to per-sequence: {}",
        r.logits_match
    );
    println!(
        "  serial GEMM {}x{}x{}: {:.0} ns ({:.2}x vs scalar backend)",
        r.gemm_m, r.gemm_k, r.gemm_n, r.gemm_serial_ns, r.gemm_speedup_vs_scalar
    );
    println!(
        "  KV bytes/block {} -> {} GPU blocks at the shared budget ({:.2}x scalar capacity)",
        r.kv_bytes_per_block, r.num_gpu_blocks_at_budget, r.block_capacity_ratio_vs_scalar
    );
    println!(
        "  max concurrent batch in sim ({} reqs, equal bytes): {}",
        SIM_REQUESTS, r.max_concurrent_batch
    );
    println!(
        "  prefill attention ({}-token prompt): {:.0} ns pooled, {:.0} ns on 1 thread ({:.2}x), {:.0} ns gather+contiguous; bit-identical: {}",
        r.prefill_attention_ctx,
        r.prefill_attention_pooled_ns,
        r.prefill_attention_serial_ns,
        r.prefill_attention_pool_speedup,
        r.prefill_attention_gather_ns,
        r.prefill_attention_match
    );
    println!(
        "  kernel counters over batched phase: matmul {} ns/{} calls, attention {} ns/{} calls, logits {} ns/{} calls",
        r.kernel_matmul_ns,
        r.kernel_matmul_calls,
        r.kernel_paged_attention_ns,
        r.kernel_paged_attention_calls,
        r.kernel_logits_ns,
        r.kernel_logits_calls
    );
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");

    println!("=== kernels: per-backend numeric-layer microbenchmarks ===");
    let seed_scalar_tps = run_seed_baseline();

    // The scalar backend anchors the cross-backend comparisons.
    let scalar_gemm_ns = bench_gemm_serial(BackendKind::Scalar);
    let (_, scalar_blocks) = capacity_at_budget(BackendKind::Scalar);

    let mut reports: Vec<BackendReport> = BackendKind::all()
        .iter()
        .map(|&kind| run_backend_bench(kind, seed_scalar_tps, scalar_gemm_ns, scalar_blocks))
        .collect();
    // Re-anchor GEMM speedups on the scalar record's own in-loop timing so
    // the scalar row reads exactly 1.0x and cross-backend ratios share one
    // measurement context.
    let scalar_loop_gemm_ns = reports
        .iter()
        .find(|r| r.backend == "scalar")
        .map_or(scalar_gemm_ns, |r| r.gemm_serial_ns);
    for r in &mut reports {
        r.gemm_speedup_vs_scalar = scalar_loop_gemm_ns / r.gemm_serial_ns;
    }
    for r in &reports {
        print_report(r);
        println!();
    }

    let path = repo_root().join("BENCH_kernels.json");
    let mut json = String::new();
    for r in &reports {
        json.push_str(&r.to_json());
        json.push('\n');
    }
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    println!("wrote {} ({} records)", path.display(), reports.len());

    if !ci {
        return;
    }

    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failures += 1;
        }
    };

    let by_name = |name: &str| -> &BackendReport {
        reports
            .iter()
            .find(|r| r.backend == name)
            .expect("all backends benched")
    };
    let scalar = by_name("scalar");
    let simd = by_name("simd");
    let quant = by_name("quant-kv8");

    for r in &reports {
        check(
            r.logits_match,
            &format!(
                "{}: batched decode logits are not bit-identical to per-sequence decode",
                r.backend
            ),
        );
        check(
            r.prefill_attention_match,
            &format!(
                "{}: prefill attention is not bit-identical to the contiguous kernel over gathered K/V",
                r.backend
            ),
        );
        check(
            r.kernel_matmul_calls > 0
                && r.kernel_paged_attention_calls > 0
                && r.kernel_logits_calls > 0,
            &format!(
                "{}: kernel timing counters did not advance during the batched phase",
                r.backend
            ),
        );
    }
    check(
        scalar.batched_decode_speedup >= 2.0,
        &format!(
            "scalar batched decode speedup {:.2}x is below the 2x gate at batch {}",
            scalar.batched_decode_speedup, scalar.batch_size
        ),
    );
    check(
        simd.gemm_speedup_vs_scalar >= 1.3,
        &format!(
            "simd serial GEMM speedup {:.2}x is below the 1.3x gate",
            simd.gemm_speedup_vs_scalar
        ),
    );
    check(
        quant.num_gpu_blocks_at_budget as f64 >= 1.8 * scalar.num_gpu_blocks_at_budget as f64,
        &format!(
            "quant-kv8 block capacity {} is below 1.8x the scalar capacity {} at equal bytes",
            quant.num_gpu_blocks_at_budget, scalar.num_gpu_blocks_at_budget
        ),
    );
    check(
        quant.max_concurrent_batch > scalar.max_concurrent_batch,
        &format!(
            "quant-kv8 max concurrent batch {} does not exceed scalar's {} at equal bytes",
            quant.max_concurrent_batch, scalar.max_concurrent_batch
        ),
    );

    // JSON round trip: every record must name its backend and preserve its
    // numeric fields through write + parse.
    let written = std::fs::read_to_string(&path).expect("read back BENCH_kernels.json");
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-3 * a.abs().max(1.0);
    for r in &reports {
        let line = written
            .lines()
            .find(|l| l.contains(&format!("\"backend\":\"{}\"", r.backend)));
        let Some(line) = line else {
            check(false, &format!("round-trip lost the {} record", r.backend));
            continue;
        };
        let fields: Vec<(&str, f64)> = vec![
            ("batch_size", r.batch_size as f64),
            ("decode_steps", r.decode_steps as f64),
            ("seed_scalar_tokens_per_sec", r.seed_scalar_tokens_per_sec),
            ("per_seq_tokens_per_sec", r.per_seq_tokens_per_sec),
            ("batched_tokens_per_sec", r.batched_tokens_per_sec),
            ("batched_decode_speedup", r.batched_decode_speedup),
            ("gemm_serial_ns", r.gemm_serial_ns),
            ("gemm_speedup_vs_scalar", r.gemm_speedup_vs_scalar),
            ("kernel_matmul_ns", r.kernel_matmul_ns as f64),
            ("kernel_logits_calls", r.kernel_logits_calls as f64),
            ("kv_bytes_per_block", r.kv_bytes_per_block as f64),
            (
                "num_gpu_blocks_at_budget",
                r.num_gpu_blocks_at_budget as f64,
            ),
            ("max_concurrent_batch", r.max_concurrent_batch as f64),
            ("prefill_attention_pooled_ns", r.prefill_attention_pooled_ns),
            (
                "prefill_attention_pool_speedup",
                r.prefill_attention_pool_speedup,
            ),
            ("threads", r.threads as f64),
            ("configured_threads", r.configured_threads as f64),
        ];
        for (key, expect) in fields {
            match json_get(line, key) {
                Some(v) => check(
                    close(v, expect),
                    &format!(
                        "{}: round-trip mismatch for {key}: wrote {expect}, parsed {v}",
                        r.backend
                    ),
                ),
                None => check(
                    false,
                    &format!("{}: round-trip lost field {key}", r.backend),
                ),
            }
        }
    }

    if failures > 0 {
        eprintln!("kernels bench CI: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("kernels bench CI OK");
}
