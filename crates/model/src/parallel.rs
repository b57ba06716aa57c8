//! Megatron-style tensor-parallel execution (§4.6).
//!
//! The attention operator is split on the head dimension; the MLP on its
//! intermediate dimension. Every worker holds a weight shard plus a paged
//! KV pool *for its heads only*, while all workers share the single block
//! table handed down by the centralized scheduler — each worker sees the
//! same physical block ids but stores only its slice of the KV cache, as in
//! the paper. Partial results are combined with an all-reduce (a sum across
//! worker partials) after the attention output projection and after the MLP
//! down projection.
//!
//! Worker phases execute on the persistent [`crate::pool`] worker pool
//! (one task per worker per phase), so no OS threads are spawned on the
//! per-step hot path. Decode-phase items are batched into one stacked
//! forward per step, mirroring the single-worker executor.

use std::time::Instant;

use vllm_core::error::{Result, VllmError};
use vllm_core::executor::{KernelTiming, ModelExecutor, SeqStepOutput, StepResult};
use vllm_core::plan::StepPlan;

use vllm_core::config::CacheConfig;

use crate::config::PositionEncoding;
use crate::executor::KernelTelemetry;
use crate::kv_cache::KvCache;
use crate::ops::{add_bias, add_inplace, gelu, layer_norm, timing};
use crate::pool;
use crate::sampler::{mix_seed, sample_candidates};
use crate::transformer::{apply_rope, DecodeInput, Transformer};

const LN_EPS: f32 = 1e-5;

/// Replicated token (+ absolute position) embedding. Reads only the
/// replicated weights, never the KV pools, so it can run concurrently with
/// cache-op application on the workers.
fn embed(model: &Transformer, tokens: &[u32], positions: &[usize]) -> Vec<f32> {
    let h = model.config.hidden;
    let rotary = model.config.position_encoding == PositionEncoding::Rotary;
    let mut x = vec![0.0f32; tokens.len() * h];
    for (i, (&tok, &pos)) in tokens.iter().zip(positions).enumerate() {
        let e = &model.wte[tok as usize * h..(tok as usize + 1) * h];
        let p = &model.wpe[pos * h..(pos + 1) * h];
        for j in 0..h {
            x[i * h + j] = if rotary { e[j] } else { e[j] + p[j] };
        }
    }
    x
}

/// Suffix of a step input that still needs compute (shared-prefix prefills
/// skip their cached tokens), as `(tokens, positions)`.
fn compute_suffix(item: &vllm_core::executor::SeqStepInput) -> (Vec<u32>, Vec<usize>) {
    let skip = if item.tokens.len() > 1 {
        item.num_cached_tokens.min(item.tokens.len() - 1)
    } else {
        0
    };
    let tokens = item.tokens[skip..].to_vec();
    let positions = (item.first_position + skip..item.first_position + item.tokens.len()).collect();
    (tokens, positions)
}

/// One worker's weight shard for one layer.
#[derive(Debug, Clone)]
struct LayerShard {
    /// `hidden × 3·hl` (columns: local Q, local K, local V).
    w_qkv: Vec<f32>,
    /// `3·hl`.
    b_qkv: Vec<f32>,
    /// `hl × hidden` (rows of this worker's heads).
    w_o: Vec<f32>,
    /// `hidden × ml` columns of the up projection.
    w_fc: Vec<f32>,
    /// `ml`.
    b_fc: Vec<f32>,
    /// `ml × hidden` rows of the down projection.
    w_proj: Vec<f32>,
}

/// One tensor-parallel worker: weight shards plus its KV cache slice.
#[derive(Debug)]
struct Worker {
    layers: Vec<LayerShard>,
    cache: KvCache,
}

/// Cached telemetry handles for the tensor-parallel executor, registered
/// when the engine attaches its telemetry bundle.
#[derive(Debug, Clone)]
struct TpTelemetry {
    forward_seconds: vllm_telemetry::Histogram,
    all_reduce_seconds: vllm_telemetry::Histogram,
    cache_op_seconds: vllm_telemetry::Histogram,
    all_reduces_total: vllm_telemetry::Counter,
    steps_total: vllm_telemetry::Counter,
    kernels: KernelTelemetry,
}

/// Tensor-parallel CPU executor over `num_workers` head shards.
#[derive(Debug)]
pub struct TensorParallelExecutor {
    model: Transformer,
    workers: Vec<Worker>,
    num_workers: usize,
    /// Number of all-reduce operations performed (metrics; two per layer per
    /// forward, as in Megatron-LM).
    pub num_all_reduces: u64,
    /// Total iterations executed.
    pub steps: u64,
    telemetry: Option<TpTelemetry>,
}

impl TensorParallelExecutor {
    /// Shards `model` across `num_workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` does not divide the model's head count.
    #[must_use]
    pub fn new(model: Transformer, num_workers: usize, cache_config: &CacheConfig) -> Self {
        let cfg = &model.config;
        assert!(num_workers > 0, "need at least one worker");
        assert_eq!(
            cfg.n_heads % num_workers,
            0,
            "workers ({num_workers}) must divide heads ({})",
            cfg.n_heads
        );
        let h = cfg.hidden;
        let hl = h / num_workers; // Local hidden (heads split evenly).
        let m = 4 * h;
        let ml = m / num_workers; // Local MLP intermediate width.

        // Worker KV shards use the backend's element layout, like the
        // single-worker executor's cache.
        let element = model.backend().kv_layout().element;

        let workers = (0..num_workers)
            .map(|w| {
                let layers = model
                    .layers
                    .iter()
                    .map(|lw| {
                        // QKV: take this worker's head columns of Q, K, V.
                        let mut w_qkv = Vec::with_capacity(h * 3 * hl);
                        for r in 0..h {
                            let row = &lw.w_qkv[r * 3 * h..(r + 1) * 3 * h];
                            for part in 0..3 {
                                let base = part * h + w * hl;
                                w_qkv.extend_from_slice(&row[base..base + hl]);
                            }
                        }
                        let mut b_qkv = Vec::with_capacity(3 * hl);
                        for part in 0..3 {
                            let base = part * h + w * hl;
                            b_qkv.extend_from_slice(&lw.b_qkv[base..base + hl]);
                        }
                        // Output projection: this worker's head rows.
                        let w_o = lw.w_o[w * hl * h..(w + 1) * hl * h].to_vec();
                        // MLP: columns of fc, rows of proj.
                        let mut w_fc = Vec::with_capacity(h * ml);
                        for r in 0..h {
                            let row = &lw.w_fc[r * m..(r + 1) * m];
                            w_fc.extend_from_slice(&row[w * ml..(w + 1) * ml]);
                        }
                        let b_fc = lw.b_fc[w * ml..(w + 1) * ml].to_vec();
                        let w_proj = lw.w_proj[w * ml * h..(w + 1) * ml * h].to_vec();
                        LayerShard {
                            w_qkv,
                            b_qkv,
                            w_o,
                            w_fc,
                            b_fc,
                            w_proj,
                        }
                    })
                    .collect();
                Worker {
                    layers,
                    cache: KvCache::with_element(
                        cfg.n_layers,
                        cache_config.num_gpu_blocks,
                        cache_config.num_cpu_blocks.max(1),
                        cache_config.block_size,
                        hl,
                        element,
                    ),
                }
            })
            .collect();
        Self {
            model,
            workers,
            num_workers,
            num_all_reduces: 0,
            steps: 0,
            telemetry: None,
        }
    }

    /// Number of workers (tensor-parallel degree).
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The replicated model (embeddings, layer norms).
    #[must_use]
    pub fn model(&self) -> &Transformer {
        &self.model
    }

    /// Forward over the shards, returning last-position logits.
    ///
    /// `embedded`, when provided, is the precomputed replicated embedding for
    /// `tokens`/`positions` (see [`embed`]); `begin_step` computes it while
    /// the workers are still applying the step's cache operations.
    /// `force_prefill_attn` keeps one-row chunked-prefill steps on the
    /// backend's prefill kernel (decode accumulation order differs and would
    /// break chunked/unchunked bit-identity).
    fn forward_tp(
        &mut self,
        tokens: &[u32],
        positions: &[usize],
        block_table: &[usize],
        num_cached: usize,
        embedded: Option<Vec<f32>>,
        force_prefill_attn: bool,
    ) -> Vec<f32> {
        let cfg = &self.model.config;
        let n = tokens.len();
        let h = cfg.hidden;
        let w_count = self.num_workers;
        let heads_local = cfg.n_heads / w_count;
        let hd = cfg.head_dim();
        let hl = h / w_count;
        let ml = 4 * h / w_count;
        let ctx = positions[n - 1] + 1;
        let rotary = cfg.position_encoding == PositionEncoding::Rotary;
        let be = self.model.backend();
        let bs = self.workers[0].cache.gpu.block_size();
        assert!(block_table.len() * bs >= ctx, "block table too short");

        // Replicated embedding (positions via RoPE for rotary models),
        // unless `begin_step` already computed it during the cache-op window.
        let mut x = embedded.unwrap_or_else(|| embed(&self.model, tokens, positions));
        debug_assert_eq!(x.len(), n * h);

        for layer_idx in 0..cfg.n_layers {
            let lw = &self.model.layers[layer_idx];
            // Attention: each worker computes its heads, projects through
            // its w_o rows, and the partials are all-reduced (summed).
            let mut hst = x.clone();
            layer_norm(&mut hst, &lw.ln1_g, &lw.ln1_b, LN_EPS);
            let mut partials = vec![vec![0.0f32; n * h]; w_count];
            pool::global().scoped(|s| {
                for (worker, partial) in self.workers.iter_mut().zip(partials.iter_mut()) {
                    let hst = &hst;
                    s.spawn(move || {
                        let shard = &worker.layers[layer_idx];
                        let mut qkv = vec![0.0f32; n * 3 * hl];
                        let t_mm = Instant::now();
                        be.matmul_serial(hst, &shard.w_qkv, n, h, 3 * hl, &mut qkv);
                        timing::record_matmul(t_mm.elapsed());
                        add_bias(&mut qkv, &shard.b_qkv);
                        if rotary {
                            for (i, &pos) in positions.iter().enumerate() {
                                let row = &mut qkv[i * 3 * hl..(i + 1) * 3 * hl];
                                let (q_part, kv_part) = row.split_at_mut(hl);
                                apply_rope(q_part, pos, hd);
                                apply_rope(&mut kv_part[..hl], pos, hd);
                            }
                        }
                        // Write local K/V slices into this worker's pool
                        // under the shared block table.
                        for (i, &pos) in positions.iter().enumerate() {
                            let row = &qkv[i * 3 * hl..(i + 1) * 3 * hl];
                            worker.cache.gpu.write(
                                layer_idx,
                                block_table[pos / bs],
                                pos % bs,
                                &row[hl..2 * hl],
                                &row[2 * hl..3 * hl],
                            );
                        }
                        let mut attn = vec![0.0f32; n * hl];
                        if n == 1 && !force_prefill_attn {
                            let t_attn = Instant::now();
                            be.paged_attention_decode(
                                &qkv[0..hl],
                                &worker.cache.gpu,
                                layer_idx,
                                block_table,
                                ctx,
                                heads_local,
                                hd,
                                &mut attn,
                            );
                            timing::record_attention(t_attn.elapsed());
                        } else {
                            // The backend's prefill kernel records its own
                            // attention span.
                            let mut q = vec![0.0f32; n * hl];
                            for i in 0..n {
                                q[i * hl..(i + 1) * hl]
                                    .copy_from_slice(&qkv[i * 3 * hl..i * 3 * hl + hl]);
                            }
                            be.paged_attention_prefill(
                                &q,
                                &worker.cache.gpu,
                                layer_idx,
                                block_table,
                                n,
                                ctx,
                                num_cached,
                                heads_local,
                                hd,
                                pool::global(),
                                &mut attn,
                            );
                        }
                        let t_mm = Instant::now();
                        be.matmul_serial(&attn, &shard.w_o, n, hl, h, partial);
                        timing::record_matmul(t_mm.elapsed());
                    });
                }
            });
            // All-reduce: sum the partials, then add the (replicated) bias
            // once and the residual.
            let ar_start = Instant::now();
            let mut reduced = vec![0.0f32; n * h];
            for p in &partials {
                add_inplace(&mut reduced, p);
            }
            self.num_all_reduces += 1;
            if let Some(t) = &self.telemetry {
                t.all_reduce_seconds
                    .observe(ar_start.elapsed().as_secs_f64());
                t.all_reduces_total.inc();
            }
            add_bias(&mut reduced, &lw.b_o);
            add_inplace(&mut x, &reduced);

            // MLP: column/row split with one more all-reduce.
            let mut hst = x.clone();
            layer_norm(&mut hst, &lw.ln2_g, &lw.ln2_b, LN_EPS);
            let mut partials = vec![vec![0.0f32; n * h]; w_count];
            pool::global().scoped(|s| {
                for (worker, partial) in self.workers.iter().zip(partials.iter_mut()) {
                    let hst = &hst;
                    s.spawn(move || {
                        let shard = &worker.layers[layer_idx];
                        let mut mid = vec![0.0f32; n * ml];
                        let t_mm = Instant::now();
                        be.matmul_serial(hst, &shard.w_fc, n, h, ml, &mut mid);
                        add_bias(&mut mid, &shard.b_fc);
                        gelu(&mut mid);
                        be.matmul_serial(&mid, &shard.w_proj, n, ml, h, partial);
                        timing::record_matmul(t_mm.elapsed());
                    });
                }
            });
            let ar_start = Instant::now();
            let mut reduced = vec![0.0f32; n * h];
            for p in &partials {
                add_inplace(&mut reduced, p);
            }
            self.num_all_reduces += 1;
            if let Some(t) = &self.telemetry {
                t.all_reduce_seconds
                    .observe(ar_start.elapsed().as_secs_f64());
                t.all_reduces_total.inc();
            }
            add_bias(&mut reduced, &lw.b_proj);
            add_inplace(&mut x, &reduced);
        }

        // Replicated LM head on the last position.
        let mut last = x[(n - 1) * h..n * h].to_vec();
        layer_norm(&mut last, &self.model.ln_f_g, &self.model.ln_f_b, LN_EPS);
        let mut logits = vec![0.0f32; cfg.vocab_size];
        be.matmul_logits(&last, &self.model.wte_t, 1, h, cfg.vocab_size, &mut logits);
        logits
    }

    /// Batched single-token decode across the worker shards: one stacked
    /// forward for every decode-phase item of the step, one pool task per
    /// worker per phase. Row `i` of the returned `batch × vocab` logits is
    /// bit-identical to a solo [`Self::forward_tp`] decode for `inputs[i]`
    /// (batch-independent matmul accumulation; the same per-sequence
    /// attention routine).
    fn forward_decode_batch_tp(&mut self, inputs: &[DecodeInput<'_>]) -> Vec<f32> {
        let cfg = &self.model.config;
        let b = inputs.len();
        let h = cfg.hidden;
        let w_count = self.num_workers;
        let heads_local = cfg.n_heads / w_count;
        let hd = cfg.head_dim();
        let hl = h / w_count;
        let ml = 4 * h / w_count;
        let rotary = cfg.position_encoding == PositionEncoding::Rotary;
        let be = self.model.backend();
        let bs = self.workers[0].cache.gpu.block_size();
        for inp in inputs {
            let ctx = inp.position + 1;
            assert!(ctx <= cfg.max_position, "position overflow");
            assert!(inp.block_table.len() * bs >= ctx, "block table too short");
        }

        let tokens: Vec<u32> = inputs.iter().map(|i| i.token).collect();
        let positions: Vec<usize> = inputs.iter().map(|i| i.position).collect();
        let mut x = embed(&self.model, &tokens, &positions);

        for layer_idx in 0..cfg.n_layers {
            let lw = &self.model.layers[layer_idx];
            // Attention phase: each worker runs the whole batch over its
            // head shard, with per-sequence paged attention.
            let mut hst = x.clone();
            layer_norm(&mut hst, &lw.ln1_g, &lw.ln1_b, LN_EPS);
            let mut partials = vec![vec![0.0f32; b * h]; w_count];
            pool::global().scoped(|s| {
                for (worker, partial) in self.workers.iter_mut().zip(partials.iter_mut()) {
                    let hst = &hst;
                    s.spawn(move || {
                        let shard = &worker.layers[layer_idx];
                        let mut qkv = vec![0.0f32; b * 3 * hl];
                        let t_mm = Instant::now();
                        be.matmul_serial(hst, &shard.w_qkv, b, h, 3 * hl, &mut qkv);
                        timing::record_matmul(t_mm.elapsed());
                        add_bias(&mut qkv, &shard.b_qkv);
                        if rotary {
                            for (i, inp) in inputs.iter().enumerate() {
                                let row = &mut qkv[i * 3 * hl..(i + 1) * 3 * hl];
                                let (q_part, kv_part) = row.split_at_mut(hl);
                                apply_rope(q_part, inp.position, hd);
                                apply_rope(&mut kv_part[..hl], inp.position, hd);
                            }
                        }
                        for (i, inp) in inputs.iter().enumerate() {
                            let row = &qkv[i * 3 * hl..(i + 1) * 3 * hl];
                            worker.cache.gpu.write(
                                layer_idx,
                                inp.block_table[inp.position / bs],
                                inp.position % bs,
                                &row[hl..2 * hl],
                                &row[2 * hl..3 * hl],
                            );
                        }
                        let mut attn = vec![0.0f32; b * hl];
                        let t_attn = Instant::now();
                        for (i, inp) in inputs.iter().enumerate() {
                            be.paged_attention_decode(
                                &qkv[i * 3 * hl..i * 3 * hl + hl],
                                &worker.cache.gpu,
                                layer_idx,
                                inp.block_table,
                                inp.position + 1,
                                heads_local,
                                hd,
                                &mut attn[i * hl..(i + 1) * hl],
                            );
                        }
                        timing::record_attention(t_attn.elapsed());
                        let t_mm = Instant::now();
                        be.matmul_serial(&attn, &shard.w_o, b, hl, h, partial);
                        timing::record_matmul(t_mm.elapsed());
                    });
                }
            });
            let ar_start = Instant::now();
            let mut reduced = vec![0.0f32; b * h];
            for p in &partials {
                add_inplace(&mut reduced, p);
            }
            self.num_all_reduces += 1;
            if let Some(t) = &self.telemetry {
                t.all_reduce_seconds
                    .observe(ar_start.elapsed().as_secs_f64());
                t.all_reduces_total.inc();
            }
            add_bias(&mut reduced, &lw.b_o);
            add_inplace(&mut x, &reduced);

            // MLP phase.
            let mut hst = x.clone();
            layer_norm(&mut hst, &lw.ln2_g, &lw.ln2_b, LN_EPS);
            let mut partials = vec![vec![0.0f32; b * h]; w_count];
            pool::global().scoped(|s| {
                for (worker, partial) in self.workers.iter().zip(partials.iter_mut()) {
                    let hst = &hst;
                    s.spawn(move || {
                        let shard = &worker.layers[layer_idx];
                        let mut mid = vec![0.0f32; b * ml];
                        let t_mm = Instant::now();
                        be.matmul_serial(hst, &shard.w_fc, b, h, ml, &mut mid);
                        add_bias(&mut mid, &shard.b_fc);
                        gelu(&mut mid);
                        be.matmul_serial(&mid, &shard.w_proj, b, ml, h, partial);
                        timing::record_matmul(t_mm.elapsed());
                    });
                }
            });
            let ar_start = Instant::now();
            let mut reduced = vec![0.0f32; b * h];
            for p in &partials {
                add_inplace(&mut reduced, p);
            }
            self.num_all_reduces += 1;
            if let Some(t) = &self.telemetry {
                t.all_reduce_seconds
                    .observe(ar_start.elapsed().as_secs_f64());
                t.all_reduces_total.inc();
            }
            add_bias(&mut reduced, &lw.b_proj);
            add_inplace(&mut x, &reduced);
        }

        // Replicated LM head over all batch rows.
        layer_norm(&mut x, &self.model.ln_f_g, &self.model.ln_f_b, LN_EPS);
        let vocab = cfg.vocab_size;
        let mut logits = vec![0.0f32; b * vocab];
        be.matmul_logits(&x, &self.model.wte_t, b, h, vocab, &mut logits);
        logits
    }
}

impl ModelExecutor for TensorParallelExecutor {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        let start = Instant::now();
        let kernels_before = timing::snapshot();
        self.steps += 1;
        for item in &plan.items {
            if item.tokens.is_empty() {
                return Err(VllmError::Executor("empty step input".into()));
            }
        }
        // Partition the step: decode-phase items (computed suffix of one
        // token) run as one stacked forward, prompt-phase items keep their
        // per-sequence path.
        let suffixes: Vec<(Vec<u32>, Vec<usize>)> = plan.items.iter().map(compute_suffix).collect();
        let first_prefill = plan
            .items
            .iter()
            .zip(&suffixes)
            .position(|(item, (tokens, _))| item.chunked || tokens.len() > 1);
        // Every worker applies the same cache operations to its shard (block
        // ids are shared, data differs per head slice) — on a pool task per
        // worker, overlapped with the first prefill's replicated embedding:
        // copies touch only KV pools, the embedding only replicated weights,
        // so the two never alias (§4.3: memory ops ride the step's control
        // message and can proceed while compute starts).
        let cache_op_start = Instant::now();
        let mut first_embedding = {
            let Self { workers, model, .. } = &mut *self;
            pool::global().scoped(|s| {
                for worker in workers.iter_mut() {
                    let ops = &plan.cache_ops;
                    s.spawn(move || worker.cache.apply(ops));
                }
                first_prefill.map(|i| {
                    let (tokens, positions) = &suffixes[i];
                    embed(model, tokens, positions)
                })
            })
        };
        if let Some(t) = &self.telemetry {
            if !plan.cache_ops.is_empty() {
                t.cache_op_seconds
                    .observe(cache_op_start.elapsed().as_secs_f64());
            }
        }
        let mut outputs: Vec<Option<SeqStepOutput>> = plan.items.iter().map(|_| None).collect();
        let mut decode: Vec<usize> = Vec::new();
        for (i, (item, (tokens, positions))) in plan.items.iter().zip(&suffixes).enumerate() {
            // Chunked-prefill items never join the stacked decode batch,
            // even when only one prompt row remains.
            if !item.chunked && tokens.len() == 1 {
                decode.push(i);
                continue;
            }
            let embedded = if first_prefill == Some(i) {
                first_embedding.take()
            } else {
                None
            };
            let logits = self.forward_tp(
                tokens,
                positions,
                &item.block_table,
                positions[0],
                embedded,
                item.chunked,
            );
            let seed = mix_seed(item.seed, item.seq_id, item.context_len());
            let candidates = sample_candidates(&logits, item.mode, item.num_candidates, seed);
            outputs[i] = Some(SeqStepOutput {
                seq_id: item.seq_id,
                candidates,
            });
        }
        if !decode.is_empty() {
            let inputs: Vec<DecodeInput<'_>> = decode
                .iter()
                .map(|&i| DecodeInput {
                    token: suffixes[i].0[0],
                    position: suffixes[i].1[0],
                    block_table: &plan.items[i].block_table,
                })
                .collect();
            let logits = self.forward_decode_batch_tp(&inputs);
            let vocab = self.model.config.vocab_size;
            for (row, &i) in decode.iter().enumerate() {
                let item = &plan.items[i];
                let seed = mix_seed(item.seed, item.seq_id, item.context_len());
                let candidates = sample_candidates(
                    &logits[row * vocab..(row + 1) * vocab],
                    item.mode,
                    item.num_candidates,
                    seed,
                );
                outputs[i] = Some(SeqStepOutput {
                    seq_id: item.seq_id,
                    candidates,
                });
            }
        }
        let outputs: Vec<SeqStepOutput> = outputs
            .into_iter()
            .map(|o| o.expect("every plan item produced an output"))
            .collect();
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(t) = &self.telemetry {
            t.forward_seconds.observe(elapsed);
            t.steps_total.inc();
            t.kernels.observe_step(&kernels_before);
        }
        let kd = timing::snapshot().delta_since(&kernels_before);
        let kernels = vec![
            KernelTiming {
                name: "matmul".to_string(),
                seconds: kd.matmul_ns as f64 / 1e9,
            },
            KernelTiming {
                name: "paged_attention".to_string(),
                seconds: kd.attention_ns as f64 / 1e9,
            },
            KernelTiming {
                name: "logits".to_string(),
                seconds: kd.logits_ns as f64 / 1e9,
            },
        ];
        Ok(StepResult {
            outputs,
            elapsed,
            kernels,
        })
    }

    fn attach_telemetry(&mut self, telemetry: &std::sync::Arc<vllm_telemetry::Telemetry>) {
        let r = telemetry.registry();
        self.telemetry = Some(TpTelemetry {
            forward_seconds: r.histogram(
                "vllm_executor_forward_seconds",
                "Model forward pass wall time per step (tensor-parallel backend).",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            all_reduce_seconds: r.histogram(
                "vllm_executor_all_reduce_seconds",
                "Wall time of each all-reduce (partial summation) across workers.",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            cache_op_seconds: r.histogram(
                "vllm_executor_cache_op_seconds",
                "Wall time of the per-step cache-operation window (overlapped with the first embedding).",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            all_reduces_total: r.counter(
                "vllm_executor_all_reduces_total",
                "All-reduce operations performed (two per layer per forward).",
            ),
            steps_total: r.counter(
                "vllm_executor_steps_total",
                "Iterations executed by the model executor.",
            ),
            kernels: KernelTelemetry::register(r, self.model.config.backend.name()),
        });
    }

    fn backend_label(&self) -> &str {
        self.model.config.backend.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::executor::CpuModelExecutor;
    use crate::kv_cache::KvPool;
    use vllm_core::config::SchedulerConfig;
    use vllm_core::engine::LlmEngine;
    use vllm_core::sampling::SamplingParams;

    fn cache_cfg() -> CacheConfig {
        CacheConfig::new(4, 64, 16).unwrap()
    }

    #[test]
    fn tp_logits_match_serial() {
        let cfg = ModelConfig::tiny();
        let serial = Transformer::new(cfg.clone());
        let mut pool = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
        let table: Vec<usize> = vec![5, 2, 7];
        let tokens = [4u32, 9, 1, 17, 3];
        let positions: Vec<usize> = (0..5).collect();
        let expect = serial.forward_paged(&tokens, &positions, &mut pool, &table, 0);

        for workers in [1, 2, 4] {
            let mut tp =
                TensorParallelExecutor::new(Transformer::new(cfg.clone()), workers, &cache_cfg());
            let got = tp.forward_tp(&tokens, &positions, &table, 0, None, false);
            for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
                assert!(
                    (a - b).abs() < 2e-3,
                    "workers={workers} logit {i}: {a} vs {b}"
                );
            }
            assert_eq!(tp.num_all_reduces, 2 * cfg.n_layers as u64);
        }
    }

    #[test]
    fn tp_prompt_phase_matches_serial_for_every_backend() {
        // A prompt in three chunks (the second starts mid-block, the last is
        // one row) through each backend's prefill kernel: one worker is the
        // serial forward bit for bit; sharded heads agree within rounding.
        let tokens = [4u32, 9, 1, 17, 3, 8, 11, 2, 6];
        let positions: Vec<usize> = (0..tokens.len()).collect();
        let table: Vec<usize> = vec![5, 2, 7];
        let chunks = [(0usize, 6usize), (6, 8), (8, 9)];
        for kind in crate::backend::BackendKind::all() {
            let cfg = ModelConfig {
                backend: kind,
                ..ModelConfig::tiny()
            };
            let serial = Transformer::new(cfg.clone());
            let element = serial.backend().kv_layout().element;
            let mut pool = KvPool::with_element(cfg.n_layers, 8, 4, cfg.hidden, element);
            // Int8 shards quantize their own head slices, each with its own
            // per-vector scale, so sharded KV differs by quantization error.
            let tol = match element {
                crate::backend::KvElement::F32 => 2e-3,
                crate::backend::KvElement::Int8Scaled => 5e-2,
            };
            let expect: Vec<Vec<f32>> = chunks
                .iter()
                .map(|&(a, b)| {
                    serial.forward_prefill_chunk(
                        &tokens[a..b],
                        &positions[a..b],
                        &mut pool,
                        &table,
                        a,
                    )
                })
                .collect();
            for workers in [1, 2, 4] {
                let mut tp = TensorParallelExecutor::new(
                    Transformer::new(cfg.clone()),
                    workers,
                    &cache_cfg(),
                );
                for (&(a, b), want) in chunks.iter().zip(&expect) {
                    let got = tp.forward_tp(&tokens[a..b], &positions[a..b], &table, a, None, true);
                    if workers == 1 {
                        assert_eq!(&got, want, "{}: chunk {a}..{b}", kind.name());
                    }
                    for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                        assert!(
                            (x - y).abs() < tol,
                            "{} workers={workers} chunk {a}..{b} logit {i}: {x} vs {y}",
                            kind.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tp_decode_matches_serial_decode() {
        let cfg = ModelConfig::tiny();
        let serial = Transformer::new(cfg.clone());
        let mut pool = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
        let table: Vec<usize> = vec![1, 6];
        serial.forward_paged(&[4, 9, 1], &[0, 1, 2], &mut pool, &table, 0);
        let expect = serial.forward_paged(&[7], &[3], &mut pool, &table, 3);

        let mut tp = TensorParallelExecutor::new(Transformer::new(cfg), 2, &cache_cfg());
        tp.forward_tp(&[4, 9, 1], &[0, 1, 2], &table, 0, None, false);
        let got = tp.forward_tp(&[7], &[3], &table, 3, None, false);
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert!((a - b).abs() < 2e-3, "logit {i}: {a} vs {b}");
        }
    }

    #[test]
    fn tp_engine_generates_same_tokens_as_serial_engine() {
        let run_serial = || {
            let cache = cache_cfg();
            let sched = SchedulerConfig::new(512, 16, 512).unwrap();
            let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
            let mut e = LlmEngine::new(exec, cache, sched);
            e.add_request("r", vec![8, 2, 6, 4], SamplingParams::greedy(8))
                .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        };
        let run_tp = |w: usize| {
            let cache = cache_cfg();
            let sched = SchedulerConfig::new(512, 16, 512).unwrap();
            let exec =
                TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), w, &cache_cfg());
            let mut e = LlmEngine::new(exec, cache, sched);
            e.add_request("r", vec![8, 2, 6, 4], SamplingParams::greedy(8))
                .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        };
        let serial = run_serial();
        assert_eq!(serial, run_tp(1));
        assert_eq!(serial, run_tp(2));
        assert_eq!(serial, run_tp(4));
    }

    #[test]
    fn tp_swap_preemption_round_trips() {
        use vllm_core::config::PreemptionMode;
        let cache = CacheConfig::new(4, 7, 16).unwrap();
        let sched = SchedulerConfig::new(512, 16, 512)
            .unwrap()
            .with_preemption_mode(PreemptionMode::Swap);
        let exec = TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), 2, &cache);
        let mut e = LlmEngine::new(exec, cache, sched);
        e.add_request(
            "a",
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            SamplingParams::greedy(10),
        )
        .unwrap();
        e.add_request_at("b", vec![9, 10, 11, 12], SamplingParams::greedy(10), 1e-6)
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs.len(), 2);
        assert!(e.scheduler().stats().num_swap_preemptions > 0);

        // Compare against an uncontended serial run.
        let cache2 = cache_cfg();
        let sched2 = SchedulerConfig::new(512, 16, 512).unwrap();
        let exec2 = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache2);
        let mut e2 = LlmEngine::new(exec2, cache2, sched2);
        e2.add_request(
            "a",
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            SamplingParams::greedy(10),
        )
        .unwrap();
        let solo = e2.run_to_completion().unwrap();
        let a = outs.iter().find(|o| o.request_id == "a").unwrap();
        assert_eq!(a.outputs[0].tokens, solo[0].outputs[0].tokens);
    }

    #[test]
    #[should_panic(expected = "must divide heads")]
    fn invalid_worker_count_panics() {
        let _ = TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), 3, &cache_cfg());
    }

    #[test]
    fn tp_rotary_matches_serial() {
        // RoPE must be applied identically on head shards (per-head chunks).
        let cfg = ModelConfig::tiny_rotary();
        let serial = Transformer::new(cfg.clone());
        let mut pool = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
        let table: Vec<usize> = vec![3, 6];
        let tokens = [4u32, 9, 1, 17, 3];
        let positions: Vec<usize> = (0..5).collect();
        let expect = serial.forward_paged(&tokens, &positions, &mut pool, &table, 0);
        for workers in [2, 4] {
            let mut tp =
                TensorParallelExecutor::new(Transformer::new(cfg.clone()), workers, &cache_cfg());
            let got = tp.forward_tp(&tokens, &positions, &table, 0, None, false);
            for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
                assert!(
                    (a - b).abs() < 2e-3,
                    "workers={workers} logit {i}: {a} vs {b}"
                );
            }
        }
    }
}
