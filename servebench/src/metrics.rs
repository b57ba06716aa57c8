//! The benchmark's metric catalogue and the two metric sets a run prints:
//! end-to-end metrics (untraced run) and per-layer metrics (traced run).
//! Every workload prints every metric of its set; the catalogue here is
//! checked against `BENCHMARK.json` by a test.

use crate::layers::{ratio, KernelSeconds, StepTotals};
use crate::report::Outcome;
use crate::stats::{median, tail, Tail};

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 10] = [
    ("setup_s", "s", "lower"),
    ("gen_tok_s", "tok/s", "higher"),
    ("req_per_s", "req/s", "higher"),
    ("itl_p50_s", "s", "lower"),
    ("itl_tail_s", "s", "lower"),
    ("ttft_p50_s", "s", "lower"),
    ("ttft_tail_s", "s", "lower"),
    ("e2e_p50_s", "s", "lower"),
    ("e2e_tail_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 40] = [
    ("model.prefill_s", "s", "lower"),
    ("model.prefill_tok_s", "tok/s", "higher"),
    ("model.decode_s", "s", "lower"),
    ("model.decode_tok_s", "tok/s", "higher"),
    ("model.busy_frac", "fraction", "lower"),
    ("kernel.matmul_s.prefill", "s", "lower"),
    ("kernel.matmul_s.decode", "s", "lower"),
    ("kernel.attention_s.prefill", "s", "lower"),
    ("kernel.attention_s.decode", "s", "lower"),
    ("kernel.logits_s.prefill", "s", "lower"),
    ("kernel.logits_s.decode", "s", "lower"),
    ("kernel.attention_gbps.prefill", "GB/s", "higher"),
    ("kernel.attention_gbps.decode", "GB/s", "higher"),
    ("kernel.matmul_gflops", "GFLOP/s", "higher"),
    ("core.overhead_s", "s", "lower"),
    ("core.queue_wait_p50_s", "s", "lower"),
    ("core.queue_wait_tail_s", "s", "lower"),
    ("core.decode_batch_mean", "seqs", "higher"),
    ("core.kv_used_frac_mean", "fraction", "higher"),
    ("core.preemptions", "count", "lower"),
    ("core.swap_out_blocks", "count", "lower"),
    ("core.swap_in_blocks", "count", "lower"),
    ("core.cow_copies", "count", "lower"),
    ("core.prefill_chunks", "count", "lower"),
    ("cluster.tier_hit_frac", "fraction", "higher"),
    ("cluster.handoffs", "count", "higher"),
    ("cluster.handoff_blocks", "count", "lower"),
    ("cluster.retries", "count", "lower"),
    ("cluster.prefill_busy_frac", "fraction", "lower"),
    ("cluster.decode_busy_frac", "fraction", "lower"),
    ("frontend.stats_rtt_p50_s", "s", "lower"),
    ("frontend.requests_sent", "count", "higher"),
    ("frontend.requests_failed", "count", "lower"),
    ("loadgen.late_p50_s", "s", "lower"),
    ("loadgen.late_tail_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.steps", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
];

fn unit_of(table: &[(&'static str, &'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Pushes `(name, value)` pairs in catalogue order, checking that the set
/// is exactly the catalogue.
fn emit(
    out: &mut Outcome,
    table: &'static [(&'static str, &'static str, &'static str)],
    values: &[(&'static str, f64)],
) {
    assert_eq!(values.len(), table.len(), "metric set incomplete");
    for (name, _, _) in table {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1;
        out.metric(name, v, unit_of(table, name));
    }
}

/// Adds a tail's percentile and sample count to the run's notes.
fn note_tail(out: &mut Outcome, name: &str, t: &Tail) {
    out.note(
        format!("{name}.percentile"),
        format!(
            "p{} of {} samples ({} beyond)",
            t.percentile, t.samples, t.beyond
        ),
    );
}

/// The end-to-end figures of one untraced run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Generated tokens over the timed wall time.
    pub gen_tok_s: f64,
    /// Completed requests over the timed wall time.
    pub req_per_s: f64,
    /// Mean inter-token gap per request.
    pub itl: Vec<f64>,
    /// Every single inter-token gap (reported as notes: a sub-millisecond,
    /// bimodal distribution too noisy between runs to gate on).
    pub gaps: Vec<f64>,
    /// Times to first token.
    pub ttft: Vec<f64>,
    /// End-to-end latencies.
    pub e2e: Vec<f64>,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Prints the figures as the end-to-end metric set.
    pub fn emit(&self, out: &mut Outcome) {
        let itl = tail(&self.itl);
        let ttft = tail(&self.ttft);
        let e2e = tail(&self.e2e);
        note_tail(out, "itl_tail_s", &itl);
        note_tail(out, "ttft_tail_s", &ttft);
        note_tail(out, "e2e_tail_s", &e2e);
        if !self.gaps.is_empty() {
            let gaps = tail(&self.gaps);
            out.note("itl_gap_p50_s", median(&self.gaps));
            out.note("itl_gap_tail_s", gaps.value);
            note_tail(out, "itl_gap_tail_s", &gaps);
        }
        emit(
            out,
            &END_TO_END,
            &[
                ("setup_s", self.setup_s),
                ("gen_tok_s", self.gen_tok_s),
                ("req_per_s", self.req_per_s),
                ("itl_p50_s", median(&self.itl)),
                ("itl_tail_s", itl.value),
                ("ttft_p50_s", median(&self.ttft)),
                ("ttft_tail_s", ttft.value),
                ("e2e_p50_s", median(&self.e2e)),
                ("e2e_tail_s", e2e.value),
                ("peak_rss_mb", self.peak_rss_mb),
            ],
        );
    }
}

/// Cluster figures from `TIER`/`METRICS json`/`STATS` snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cluster {
    /// Tier hits over tier lookups.
    pub tier_hit_frac: f64,
    /// Completed handoffs.
    pub handoffs: f64,
    /// KV blocks shipped.
    pub handoff_blocks: f64,
    /// Placement retries.
    pub retries: f64,
    /// Prefill replica step time over wall time.
    pub prefill_busy_frac: f64,
    /// Decode replica step time over wall time.
    pub decode_busy_frac: f64,
}

/// The per-layer figures of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Model, kernel and core totals from the wrapped executor(s).
    pub steps: StepTotals,
    /// Replicas the step totals span (busy fraction denominator).
    pub replicas: usize,
    /// Wall seconds of the traced pass.
    pub wall_s: f64,
    /// Wall seconds of the identical untraced pass.
    pub untraced_wall_s: f64,
    /// Traced over untraced cost of the same work, minus one.
    pub overhead_frac: f64,
    /// Mean per-`step()` seconds outside `begin_step`.
    pub core_overhead_s: f64,
    /// Due time to first prompt scheduling, per request.
    pub queue_wait: Vec<f64>,
    /// Cluster snapshot deltas (zero on single-engine workloads).
    pub cluster: Cluster,
    /// `STATS` round trips issued on load connections.
    pub stats_rtt: Vec<f64>,
    /// Requests sent through the TCP frontend.
    pub frontend_sent: f64,
    /// Of those, failed.
    pub frontend_failed: f64,
    /// Generator lateness per request.
    pub late: Vec<f64>,
    /// Spans recorded.
    pub spans: usize,
}

impl Layers {
    /// Prints the figures as the per-layer metric set.
    pub fn emit(&self, out: &mut Outcome) {
        let t = &self.steps;
        let kp: KernelSeconds = t.kernel_prefill;
        let kd: KernelSeconds = t.kernel_decode;
        let qw = tail(&self.queue_wait);
        let late = tail(&self.late);
        note_tail(out, "core.queue_wait_tail_s", &qw);
        note_tail(out, "loadgen.late_tail_s", &late);
        out.note(
            "kernel.attention_gbps",
            "computed KV bytes (context length x layers x K+V bytes per token) / attention seconds",
        );
        let busy_den = self.wall_s * self.replicas.max(1) as f64;
        emit(
            out,
            &PER_LAYER,
            &[
                ("model.prefill_s", t.prefill_s),
                (
                    "model.prefill_tok_s",
                    ratio(t.prefill_rows as f64, t.prefill_s),
                ),
                ("model.decode_s", t.decode_s),
                (
                    "model.decode_tok_s",
                    ratio(t.decode_rows as f64, t.decode_s),
                ),
                ("model.busy_frac", ratio(t.busy_s(), busy_den)),
                ("kernel.matmul_s.prefill", kp.matmul),
                ("kernel.matmul_s.decode", kd.matmul),
                ("kernel.attention_s.prefill", kp.attention),
                ("kernel.attention_s.decode", kd.attention),
                ("kernel.logits_s.prefill", kp.logits),
                ("kernel.logits_s.decode", kd.logits),
                (
                    "kernel.attention_gbps.prefill",
                    ratio(t.kv_bytes_prefill as f64 / 1e9, kp.attention),
                ),
                (
                    "kernel.attention_gbps.decode",
                    ratio(t.kv_bytes_decode as f64 / 1e9, kd.attention),
                ),
                (
                    "kernel.matmul_gflops",
                    ratio(t.matmul_flops / 1e9, kp.matmul + kd.matmul),
                ),
                ("core.overhead_s", self.core_overhead_s),
                ("core.queue_wait_p50_s", median(&self.queue_wait)),
                ("core.queue_wait_tail_s", qw.value),
                ("core.decode_batch_mean", t.decode_batch_mean()),
                ("core.kv_used_frac_mean", t.kv_used_frac_mean),
                ("core.preemptions", t.preemptions as f64),
                ("core.swap_out_blocks", t.swap_out_blocks as f64),
                ("core.swap_in_blocks", t.swap_in_blocks as f64),
                ("core.cow_copies", t.cow_copies as f64),
                ("core.prefill_chunks", t.prefill_chunks as f64),
                ("cluster.tier_hit_frac", self.cluster.tier_hit_frac),
                ("cluster.handoffs", self.cluster.handoffs),
                ("cluster.handoff_blocks", self.cluster.handoff_blocks),
                ("cluster.retries", self.cluster.retries),
                ("cluster.prefill_busy_frac", self.cluster.prefill_busy_frac),
                ("cluster.decode_busy_frac", self.cluster.decode_busy_frac),
                ("frontend.stats_rtt_p50_s", median(&self.stats_rtt)),
                ("frontend.requests_sent", self.frontend_sent),
                ("frontend.requests_failed", self.frontend_failed),
                ("loadgen.late_p50_s", median(&self.late)),
                ("loadgen.late_tail_s", late.value),
                ("trace.overhead_frac", self.overhead_frac),
                ("trace.spans", self.spans as f64),
                ("trace.steps", t.steps as f64),
                ("trace.wall_s", self.wall_s),
                ("trace.untraced_wall_s", self.untraced_wall_s),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vllm::core::telemetry::Json;

    /// The catalogue and `BENCHMARK.json` (at the checkout root) list the
    /// same metrics with the same units and directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|(n, u, b)| ((*n).to_string(), (*u).to_string(), (*b).to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
