//! Result records: metric lists, the host fingerprint, the JSON writer and
//! the process's peak resident set.

use std::fmt::Write as _;

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Request counts of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Requests sent.
    pub sent: u64,
    /// Requests that returned exactly what was asked for.
    pub succeeded: u64,
    /// Requests that errored, were refused, or returned the wrong shape.
    pub failed: u64,
}

impl Counts {
    /// Records one request outcome.
    pub fn record(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"sent\":{},\"succeeded\":{},\"failed\":{}}}",
            self.sent, self.succeeded, self.failed
        )
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics to report (end-to-end or per-layer, by run mode).
    pub metrics: Vec<Metric>,
    /// Warm-up (set-up) request counts.
    pub warmup: Counts,
    /// Timed request counts.
    pub timed: Counts,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// Extra `key: value` lines for the human-readable summary and record
    /// (tail percentiles and their sample counts, ...).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a summary note.
    pub fn note(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Whether every correctness check passed and no timed request failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.timed.failed == 0 && self.warmup.failed == 0
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(metric.name),
                json_num(metric.value),
                json_str(metric.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.timed.sent.max(1),
            self.timed.failed
        )
    }

    /// The full run record (fingerprint, request counts, notes, failures,
    /// metrics) as one JSON object.
    #[must_use]
    pub fn record_json(&self, fingerprint: &Fingerprint, workload: &str, trace: bool) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"trace\":{trace},\"fingerprint\":{},\"requests\":{{\"warmup\":{},\"timed\":{}}},\"correct\":{},\"failures\":[",
            json_str(workload),
            fingerprint.json(),
            self.warmup.json(),
            self.timed.json(),
            self.correct()
        );
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        out.push_str(&failures.join(","));
        out.push_str("],\"notes\":{");
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        out.push_str(&notes.join(","));
        out.push_str("},\"metrics\":{");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        out.push_str(&metrics.join(","));
        out.push_str("}}");
        out
    }
}

/// Host and run identity stamped on every record.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// Threads in the program's kernel worker pool.
    pub pool_threads: usize,
    /// `VLLM_NUM_THREADS` as found (expected unset).
    pub num_threads_env: Option<String>,
    /// Detected vector ISA.
    pub isa: &'static str,
    /// Kernel backend serving the workload.
    pub backend: String,
    /// Workload seed.
    pub seed: u64,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

impl Fingerprint {
    /// Collects the fingerprint for a workload served by `backend`.
    #[must_use]
    pub fn collect(backend: &str, seed: u64) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            pool_threads: vllm::model::pool::global().parallelism(),
            num_threads_env: std::env::var("VLLM_NUM_THREADS").ok(),
            isa: detect_isa(),
            backend: backend.to_string(),
            seed,
            commit: git_commit(),
        }
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"pool_threads\":{},\"vllm_num_threads\":{},\"isa\":{},\"backend\":{},\"seed\":{},\"commit\":{}}}",
            self.nproc,
            self.pool_threads,
            self.num_threads_env
                .as_deref()
                .map_or_else(|| "null".to_string(), json_str),
            json_str(self.isa),
            json_str(&self.backend),
            self.seed,
            json_str(&self.commit)
        )
    }
}

/// The widest x86 vector extension the CPU reports.
fn detect_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a work tree.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| format!("unresolved {r}"), |c| c.trim().to_string()),
        None => head,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which JSON cannot carry, become 0).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.metric("setup_s", 0.25, "s");
        o.timed.record(true);
        o.timed.record(false);
        let line = o.result_line();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\td"), "\"a\\\"b\\\\c\\td\"");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
