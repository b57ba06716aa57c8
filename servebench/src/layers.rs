//! Per-layer observation for the traced run: a [`ModelExecutor`] wrapper
//! that times `begin_step` and reads the kernel counters around it, the
//! computed KV-byte and FLOP formulas, the in-memory span log, and the
//! aggregation of step records into per-layer metrics.
//!
//! Everything here sits outside the program: the wrapper forwards every
//! trait method to the real [`CpuModelExecutor`] and only reads the plan it
//! is handed.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vllm::core::executor::{SeqStepInput, StepResult};
use vllm::core::{KvBlockBytes, ModelExecutor, PhysicalBlockId, StepPlan};
use vllm::model::ops::timing::{self, KernelSnapshot};
use vllm::model::{CpuModelExecutor, KvElement};

use crate::report::json_str;

/// Model shape the byte and FLOP formulas need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Hidden size.
    pub hidden: usize,
    /// Decoder layers.
    pub n_layers: usize,
    /// KV element type of the serving backend.
    pub element: KvElement,
}

impl Geometry {
    /// The geometry of an executor's model.
    #[must_use]
    pub fn of(exec: &CpuModelExecutor) -> Self {
        let model = exec.model();
        Self {
            hidden: model.config.hidden,
            n_layers: model.config.n_layers,
            element: model.backend().kv_layout().element,
        }
    }

    /// Computed bytes one token's K and V occupy in one layer: `f32`
    /// elements take 4 bytes each; int8 elements take 1 byte each plus one
    /// `f32` scale per stored K or V vector.
    #[must_use]
    pub fn kv_token_bytes(&self) -> u64 {
        let h = self.hidden as u64;
        match self.element {
            KvElement::F32 => 2 * h * 4,
            KvElement::Int8Scaled => 2 * (h + 4),
        }
    }

    /// Computed KV bytes an attention call over `context_len` tokens reads
    /// across all layers (each position's K and V once per layer).
    #[must_use]
    pub fn attention_kv_bytes(&self, context_len: usize) -> u64 {
        context_len as u64 * self.n_layers as u64 * self.kv_token_bytes()
    }

    /// Computed dense-matmul FLOPs for `rows` token rows: per layer the QKV
    /// (`h × 3h`), output (`h × h`), MLP up (`h × 4h`) and MLP down
    /// (`4h × h`) projections, 12·h² multiply-adds, 2 FLOPs each.
    #[must_use]
    pub fn matmul_flops(&self, rows: usize) -> f64 {
        let h = self.hidden as f64;
        2.0 * 12.0 * h * h * self.n_layers as f64 * rows as f64
    }
}

/// How the executor runs one plan item: the rows it computes, whether it
/// takes the batched decode path, and the context its attention reads.
/// Mirrors the split in `CpuModelExecutor::begin_step`.
#[must_use]
pub fn item_shape(item: &SeqStepInput) -> (usize, bool, usize) {
    let len = item.tokens.len();
    let skip = if item.chunked || len > 1 {
        item.num_cached_tokens.min(len.saturating_sub(1))
    } else {
        0
    };
    let rows = len - skip;
    let decode = !item.chunked && rows == 1;
    (rows, decode, item.first_position + len)
}

/// What the wrapper saw of one `begin_step` call.
#[derive(Debug, Clone, Default)]
pub struct StepRecord {
    /// Replica index (0 for a single engine).
    pub replica: usize,
    /// Call start, seconds since the run epoch.
    pub start: f64,
    /// `begin_step` wall seconds.
    pub dur: f64,
    /// Seconds the wrapper spent building this record (charged to the
    /// engine's step time, subtracted from the core layer).
    pub bookkeeping: f64,
    /// Token rows computed by prompt-path items.
    pub prefill_rows: usize,
    /// Token rows computed by decode-path items.
    pub decode_rows: usize,
    /// Computed KV bytes read by attention in this step.
    pub kv_bytes: u64,
    /// Computed dense-matmul FLOPs.
    pub matmul_flops: f64,
    /// Kernel counter deltas across the call.
    pub kernels: KernelSnapshot,
    /// Groups preempted while planning the step.
    pub preemptions: usize,
    /// Blocks swapped GPU→CPU.
    pub swap_out_blocks: usize,
    /// Blocks swapped CPU→GPU.
    pub swap_in_blocks: usize,
    /// Copy-on-write block copies.
    pub cow_copies: usize,
    /// Scheduler-budgeted prefill chunks.
    pub prefill_chunks: usize,
    /// Distinct GPU blocks referenced by the step's block tables.
    pub kv_used_blocks: usize,
    /// Scheduled groups as `(request_id, is_prompt)`.
    pub scheduled: Vec<(String, bool)>,
}

impl StepRecord {
    /// Whether the step computed any prompt rows (a mixed chunked step
    /// counts as a prefill step).
    #[must_use]
    pub fn is_prefill(&self) -> bool {
        self.prefill_rows > 0
    }

    fn from_plan(plan: &StepPlan, geo: &Geometry) -> Self {
        let mut rec = Self::default();
        let mut blocks: HashSet<PhysicalBlockId> = HashSet::new();
        for item in &plan.items {
            let (rows, decode, ctx) = item_shape(item);
            if decode {
                rec.decode_rows += rows;
            } else {
                rec.prefill_rows += rows;
            }
            rec.kv_bytes += geo.attention_kv_bytes(ctx);
            rec.matmul_flops += geo.matmul_flops(rows);
            rec.prefill_chunks += usize::from(item.chunked);
            blocks.extend(item.block_table.iter().copied());
        }
        rec.kv_used_blocks = blocks.len();
        rec.preemptions = plan.preemptions.len();
        rec.swap_out_blocks = plan.cache_ops.swap_out.len();
        rec.swap_in_blocks = plan.cache_ops.swap_in.len();
        rec.cow_copies = plan.cache_ops.copies.len();
        rec.scheduled = plan
            .scheduled
            .iter()
            .map(|g| (g.request_id.clone(), g.is_prompt))
            .collect();
        rec
    }
}

/// Step records shared between wrappers (possibly on replica threads) and
/// the benchmark.
pub type StepLog = Arc<Mutex<Vec<StepRecord>>>;

/// A [`ModelExecutor`] that forwards to a [`CpuModelExecutor`] and records
/// a [`StepRecord`] per `begin_step`.
#[derive(Debug)]
pub struct TimedExecutor {
    inner: CpuModelExecutor,
    geometry: Geometry,
    replica: usize,
    epoch: Instant,
    log: StepLog,
}

impl TimedExecutor {
    /// Wraps `inner`, timing against `epoch` and appending to `log`.
    #[must_use]
    pub fn new(inner: CpuModelExecutor, replica: usize, epoch: Instant, log: StepLog) -> Self {
        let geometry = Geometry::of(&inner);
        Self {
            inner,
            geometry,
            replica,
            epoch,
            log,
        }
    }
}

impl ModelExecutor for TimedExecutor {
    fn begin_step(&mut self, plan: &StepPlan) -> vllm::core::Result<StepResult> {
        let before = timing::snapshot();
        let t = Instant::now();
        let result = self.inner.begin_step(plan);
        let dur = t.elapsed().as_secs_f64();
        let kernels = timing::snapshot().delta_since(&before);
        let mut rec = StepRecord::from_plan(plan, &self.geometry);
        rec.replica = self.replica;
        rec.start = t.duration_since(self.epoch).as_secs_f64();
        rec.dur = dur;
        rec.kernels = kernels;
        rec.bookkeeping = t.elapsed().as_secs_f64() - dur;
        self.log
            .lock()
            .expect("step log poisoned by a panicking replica")
            .push(rec);
        result
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<vllm::core::telemetry::Telemetry>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn backend_label(&self) -> &str {
        self.inner.backend_label()
    }

    fn export_kv_blocks(&self, blocks: &[PhysicalBlockId]) -> Vec<KvBlockBytes> {
        self.inner.export_kv_blocks(blocks)
    }
}

/// Kernel seconds by name for one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelSeconds {
    /// Dense matmul seconds.
    pub matmul: f64,
    /// Attention seconds.
    pub attention: f64,
    /// LM-head seconds.
    pub logits: f64,
}

impl KernelSeconds {
    fn add(&mut self, k: &KernelSnapshot, scale: f64) {
        self.matmul += k.matmul_ns as f64 / 1e9 * scale;
        self.attention += k.attention_ns as f64 / 1e9 * scale;
        self.logits += k.logits_ns as f64 / 1e9 * scale;
    }
}

/// Model, kernel and core totals over a set of step records.
#[derive(Debug, Clone, Default)]
pub struct StepTotals {
    /// Steps recorded.
    pub steps: usize,
    /// `begin_step` seconds of prefill (incl. mixed) steps.
    pub prefill_s: f64,
    /// Rows computed in prefill steps.
    pub prefill_rows: usize,
    /// `begin_step` seconds of decode-only steps.
    pub decode_s: f64,
    /// Rows computed in decode-only steps.
    pub decode_rows: usize,
    /// Decode-only steps (the decode batch mean's denominator).
    pub decode_steps: usize,
    /// Kernel seconds in prefill steps.
    pub kernel_prefill: KernelSeconds,
    /// Kernel seconds in decode steps.
    pub kernel_decode: KernelSeconds,
    /// Computed KV bytes read in prefill steps.
    pub kv_bytes_prefill: u64,
    /// Computed KV bytes read in decode steps.
    pub kv_bytes_decode: u64,
    /// Computed matmul FLOPs.
    pub matmul_flops: f64,
    /// Preemptions.
    pub preemptions: usize,
    /// Blocks swapped out.
    pub swap_out_blocks: usize,
    /// Blocks swapped in.
    pub swap_in_blocks: usize,
    /// Copy-on-write copies.
    pub cow_copies: usize,
    /// Prefill chunks.
    pub prefill_chunks: usize,
    /// Mean fraction of the GPU pool the step's block tables referenced.
    pub kv_used_frac_mean: f64,
    /// Wrapper bookkeeping seconds.
    pub bookkeeping: f64,
    /// First time (seconds since epoch) each request id was scheduled for
    /// its prompt, by replica-local id.
    pub first_scheduled: BTreeMap<String, f64>,
}

impl StepTotals {
    /// Aggregates `records`. `kernel_scale` rescales kernel deltas; 1.0
    /// unless concurrent replicas made per-step deltas overlap (see
    /// [`overlap_scale`]).
    #[must_use]
    pub fn of(records: &[StepRecord], geo_blocks: &[usize], kernel_scale: f64) -> Self {
        let mut t = Self::default();
        let mut used = 0.0;
        for r in records {
            t.steps += 1;
            if r.is_prefill() {
                t.prefill_s += r.dur;
                t.prefill_rows += r.prefill_rows + r.decode_rows;
                t.kernel_prefill.add(&r.kernels, kernel_scale);
                t.kv_bytes_prefill += r.kv_bytes;
            } else {
                t.decode_s += r.dur;
                t.decode_rows += r.decode_rows;
                t.decode_steps += 1;
                t.kernel_decode.add(&r.kernels, kernel_scale);
                t.kv_bytes_decode += r.kv_bytes;
            }
            t.matmul_flops += r.matmul_flops;
            t.preemptions += r.preemptions;
            t.swap_out_blocks += r.swap_out_blocks;
            t.swap_in_blocks += r.swap_in_blocks;
            t.cow_copies += r.cow_copies;
            t.prefill_chunks += r.prefill_chunks;
            t.bookkeeping += r.bookkeeping;
            let total = geo_blocks.get(r.replica).copied().unwrap_or(1).max(1);
            used += r.kv_used_blocks as f64 / total as f64;
            for (id, prompt) in &r.scheduled {
                if *prompt {
                    t.first_scheduled.entry(id.clone()).or_insert(r.start);
                }
            }
        }
        if t.steps > 0 {
            t.kv_used_frac_mean = used / t.steps as f64;
        }
        t
    }

    /// Total `begin_step` seconds.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.prefill_s + self.decode_s
    }

    /// Mean sequences per decode-only step.
    #[must_use]
    pub fn decode_batch_mean(&self) -> f64 {
        if self.decode_steps == 0 {
            0.0
        } else {
            self.decode_rows as f64 / self.decode_steps as f64
        }
    }
}

/// Scale that maps the summed per-step kernel deltas back onto the
/// process-wide kernel total: concurrent replicas each see the other's
/// kernels inside their own `begin_step` window, so the sum over-counts.
#[must_use]
pub fn overlap_scale(records: &[StepRecord], process_total: &KernelSnapshot) -> f64 {
    let summed: u64 = records
        .iter()
        .map(|r| r.kernels.matmul_ns + r.kernels.attention_ns + r.kernels.logits_ns)
        .sum();
    let total = process_total.matmul_ns + process_total.attention_ns + process_total.logits_ns;
    if summed == 0 {
        1.0
    } else {
        (total as f64 / summed as f64).min(1.0)
    }
}

/// `a / b`, 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One span of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within the run, 1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id.
    pub parent: u64,
    /// Layer boundary name (`run`, `request`, `step`, `begin_step`, ...).
    pub name: &'static str,
    /// Start, seconds since the run epoch.
    pub start: f64,
    /// End, seconds since the run epoch.
    pub end: f64,
    /// Attributes (request ids, kernel counters, ...).
    pub attrs: Vec<(&'static str, String)>,
}

/// Spans kept in memory during the traced run and written when it ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        parent: u64,
        name: &'static str,
        start: f64,
        end: f64,
        attrs: Vec<(&'static str, String)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
            attrs,
        });
        id
    }

    /// Spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Records a `begin_step` span under `parent` from a step record, with
    /// its kernel counters as attributes.
    pub fn push_begin_step(&mut self, parent: u64, r: &StepRecord, kernel_scale: f64) -> u64 {
        let k = &r.kernels;
        let scaled = |ns: u64| format!("{}", ns as f64 * kernel_scale / 1e9);
        self.push(
            parent,
            "begin_step",
            r.start,
            r.start + r.dur,
            vec![
                ("replica", r.replica.to_string()),
                (
                    "phase",
                    if r.is_prefill() { "prefill" } else { "decode" }.into(),
                ),
                ("rows", (r.prefill_rows + r.decode_rows).to_string()),
                ("kernel.matmul_s", scaled(k.matmul_ns)),
                ("kernel.attention_s", scaled(k.attention_ns)),
                ("kernel.logits_s", scaled(k.logits_ns)),
                ("kernel.matmul_calls", k.matmul_calls.to_string()),
                ("kernel.attention_calls", k.attention_calls.to_string()),
                ("kernel.logits_calls", k.logits_calls.to_string()),
                ("kv_bytes_computed", r.kv_bytes.to_string()),
                (
                    "request_ids",
                    r.scheduled
                        .iter()
                        .map(|(id, _)| id.as_str())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            ],
        )
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval its children cover; for `begin_step` spans the kernel-time
    /// attributes count as children (kernels run inside the call), and the
    /// kernel seconds themselves are reported under `kernel`.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get(&s.id)
                .map_or(0.0, |c| covered_len(c, s.start, s.end));
            let mut own = (s.end - s.start) - covered;
            if s.name == "begin_step" {
                let kernel: f64 = s
                    .attrs
                    .iter()
                    .filter(|(k, _)| k.starts_with("kernel.") && k.ends_with("_s"))
                    .filter_map(|(_, v)| v.parse::<f64>().ok())
                    .sum();
                *out.entry("kernel").or_default() += kernel;
                own -= kernel;
            }
            *out.entry(s.name).or_default() += own.max(0.0);
        }
        out
    }

    /// The span log as one JSON document with a header object.
    #[must_use]
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160);
        let _ = write!(out, "{{\"header\":{header},\"self_time_s\":{{");
        for (i, (name, secs)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}:{secs}", json_str(name));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{},\"name\":{},\"start\":{},\"end\":{},\"attrs\":{{",
                s.id,
                s.parent,
                json_str(s.name),
                s.start,
                s.end
            );
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}{}:{}", json_str(k), json_str(v));
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_len(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use vllm::core::sampling::DecodingMode;
    use vllm::model::{BackendKind, ModelConfig};

    /// The geometry of a real executor serving `backend`.
    fn geometry(backend: BackendKind) -> Geometry {
        let cfg = ModelConfig {
            backend,
            ..ModelConfig::small()
        };
        let cache = vllm::core::CacheConfig::new(16, 4, 4).expect("valid cache config");
        Geometry::of(&CpuModelExecutor::from_config(cfg, &cache))
    }

    #[test]
    fn kv_bytes_match_each_backends_layout() {
        for backend in BackendKind::all() {
            let g = geometry(backend);
            let layout = vllm::model::backend::by_kind(backend).kv_layout();
            assert_eq!(
                g.kv_token_bytes(),
                layout.bytes_per_token(g.hidden) as u64,
                "{backend:?}"
            );
            // A 16-token block across all layers is the block manager's
            // per-block budget.
            assert_eq!(
                g.attention_kv_bytes(16),
                layout.bytes_per_block(g.n_layers, 16, g.hidden) as u64,
                "{backend:?}"
            );
        }
        // Explicit numbers for the small model (hidden 64, 4 layers):
        // f32 K+V = 512 B/token/layer; int8 K+V + two f32 scales = 136.
        assert_eq!(geometry(BackendKind::Scalar).kv_token_bytes(), 512);
        assert_eq!(geometry(BackendKind::Simd).kv_token_bytes(), 512);
        assert_eq!(geometry(BackendKind::QuantKv8).kv_token_bytes(), 136);
        assert_eq!(
            geometry(BackendKind::QuantKv8).attention_kv_bytes(100),
            100 * 4 * 136
        );
    }

    #[test]
    fn flops_formulas() {
        let g = geometry(BackendKind::Scalar);
        // 24·h²·layers per row: 24 · 4096 · 4 = 393_216.
        assert_eq!(g.matmul_flops(1), 393_216.0);
        assert_eq!(g.matmul_flops(10), 3_932_160.0);
        // The formula depends on the model shape only, not the KV layout.
        assert_eq!(geometry(BackendKind::QuantKv8).matmul_flops(1), 393_216.0);
    }

    fn item(tokens: usize, first: usize, cached: usize, chunked: bool) -> SeqStepInput {
        SeqStepInput {
            seq_id: 0,
            tokens: vec![1; tokens],
            first_position: first,
            num_cached_tokens: cached,
            block_table: vec![0, 1, 2],
            num_candidates: 1,
            mode: DecodingMode::Greedy,
            seed: 0,
            chunked,
        }
    }

    #[test]
    fn item_shape_mirrors_executor_split() {
        // Plain prefill: every row computed, context = prompt.
        assert_eq!(item_shape(&item(40, 0, 0, false)), (40, false, 40));
        // Generation step: one row on the decode path.
        assert_eq!(item_shape(&item(1, 40, 0, false)), (1, true, 41));
        // Fully prefix-cached prompt: one computed row, decode path.
        assert_eq!(item_shape(&item(33, 0, 32, false)), (1, true, 33));
        // One-row final chunk stays on the prompt path.
        assert_eq!(item_shape(&item(1, 255, 0, true)), (1, false, 256));
        // Chunk with earlier rows cached.
        assert_eq!(item_shape(&item(256, 256, 0, true)), (256, false, 512));
    }

    #[test]
    fn self_time_subtracts_children_and_kernels() {
        let mut log = SpanLog::default();
        let run = log.push(0, "run", 0.0, 10.0, vec![]);
        let step = log.push(run, "step", 1.0, 3.0, vec![]);
        log.push(run, "step", 2.5, 4.0, vec![]);
        log.push(
            step,
            "begin_step",
            1.5,
            2.5,
            vec![("kernel.matmul_s", "0.25".into())],
        );
        let st = log.self_times();
        // Run covered by [1, 4] → 7 s self.
        assert!((st["run"] - 7.0).abs() < 1e-12);
        // Steps: (2 - 1) + 1.5.
        assert!((st["step"] - 2.5).abs() < 1e-12);
        assert!((st["begin_step"] - 0.75).abs() < 1e-12);
        assert!((st["kernel"] - 0.25).abs() < 1e-12);
    }
}
