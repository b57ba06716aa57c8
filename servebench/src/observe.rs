//! Client-side timing of requests served by an in-process engine: due,
//! send, first-token and finish times, and the gap before every output
//! token, read from the engine's public state after each `step()`.

use std::collections::HashMap;

use vllm::core::{RequestOutput, SeqId, SequenceGroup};

/// One request's timeline, in seconds since the run epoch.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// When the workload schedule said the request should be sent.
    pub due: f64,
    /// When the generator actually handed it to the engine.
    pub sent: f64,
    /// When the first output token of any of its sequences was visible.
    pub first_token: Option<f64>,
    /// When the finished request was returned.
    pub finish: Option<f64>,
}

impl Timeline {
    /// Time to first token, measured from the due time (so a late
    /// generator's delay counts against the system, as users see it).
    #[must_use]
    pub fn ttft(&self) -> Option<f64> {
        self.first_token.map(|t| t - self.due)
    }

    /// End-to-end latency from the due time.
    #[must_use]
    pub fn e2e(&self) -> Option<f64> {
        self.finish.map(|t| t - self.due)
    }

    /// How late the generator sent the request.
    #[must_use]
    pub fn late(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Per-request timelines plus inter-token gaps.
#[derive(Debug, Default)]
pub struct Observer {
    /// Timelines by request id.
    pub requests: HashMap<String, Timeline>,
    /// Per live sequence: `(tokens, time)` when its first output was seen
    /// and when its latest was.
    seqs: HashMap<SeqId, [(usize, f64); 2]>,
    /// Gap before every output token after a sequence's first, seconds.
    pub gaps: Vec<f64>,
    /// Mean inter-token gap of every finished request over all its
    /// sequences' gaps (requests with no gap observed are skipped), seconds.
    pub itl: Vec<f64>,
}

impl Observer {
    /// Records that request `id`, due at `due`, was sent at `sent`.
    pub fn sent(&mut self, id: &str, due: f64, sent: f64) {
        self.requests.insert(
            id.to_string(),
            Timeline {
                due,
                sent,
                first_token: None,
                finish: None,
            },
        );
    }

    /// Records that sequence `seq` of request `id` holds `n_out` output
    /// tokens at time `t`.
    pub fn tokens(&mut self, id: &str, seq: SeqId, n_out: usize, t: f64) {
        if n_out == 0 {
            return;
        }
        match self.seqs.get_mut(&seq) {
            Some([_, last]) if n_out > last.0 => {
                // One token per step is the norm; split a larger jump evenly.
                let new = n_out - last.0;
                let gap = (t - last.1) / new as f64;
                self.gaps.extend(std::iter::repeat_n(gap, new));
                *last = (n_out, t);
            }
            Some(_) => return,
            None => {
                self.seqs.insert(seq, [(n_out, t), (n_out, t)]);
            }
        }
        if let Some(tl) = self.requests.get_mut(id) {
            tl.first_token.get_or_insert(t);
        }
    }

    /// Closes a finished request's sequences: the request's mean
    /// inter-token gap over all of them joins `itl`.
    fn finish_request(&mut self, seqs: impl IntoIterator<Item = SeqId>) {
        let (mut secs, mut gaps) = (0.0, 0);
        for seq in seqs {
            if let Some([first, last]) = self.seqs.remove(&seq) {
                secs += last.1 - first.1;
                gaps += last.0 - first.0;
            }
        }
        if gaps > 0 {
            self.itl.push(secs / gaps as f64);
        }
    }

    /// Reads token counts from the running groups and the requests that
    /// finished in the step that just returned at `t`.
    pub fn after_step(&mut self, t: f64, running: &[SequenceGroup], finished: &[RequestOutput]) {
        for g in running {
            for s in g.seqs() {
                self.tokens(&g.request_id, s.seq_id, s.data.num_output_tokens(), t);
            }
        }
        for out in finished {
            for c in &out.outputs {
                self.tokens(&out.request_id, c.seq_id, c.tokens.len(), t);
            }
            self.finish_request(out.outputs.iter().map(|c| c.seq_id));
            if let Some(tl) = self.requests.get_mut(&out.request_id) {
                tl.finish = Some(t);
                tl.first_token.get_or_insert(t);
            }
        }
    }

    /// TTFT, e2e and lateness samples over every finished request.
    #[must_use]
    pub fn samples(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut ttft = Vec::new();
        let mut e2e = Vec::new();
        let mut late = Vec::new();
        for tl in self.requests.values() {
            if let (Some(a), Some(b)) = (tl.ttft(), tl.e2e()) {
                ttft.push(a);
                e2e.push(b);
            }
            late.push(tl.late());
        }
        (ttft, e2e, late)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttft_counts_from_due_time_when_generator_runs_late() {
        let mut o = Observer::default();
        // Due at 1.0 s, but the generator only sent it at 1.5 s.
        o.sent("r0", 1.0, 1.5);
        o.tokens("r0", 7, 1, 1.7);
        o.tokens("r0", 7, 2, 1.8);
        let tl = &o.requests["r0"];
        assert!((tl.ttft().unwrap() - 0.7).abs() < 1e-12, "{tl:?}");
        assert!((tl.late() - 0.5).abs() < 1e-12);
        // Not the 0.2 s a send-time clock would report.
        assert!((tl.first_token.unwrap() - tl.sent - 0.2).abs() < 1e-12);
        assert_eq!(o.gaps.len(), 1);
        assert!((o.gaps[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gaps_follow_each_sequence_and_ignore_repeats() {
        let mut o = Observer::default();
        o.sent("r", 0.0, 0.0);
        // Two forked sequences get their first token in the same step.
        o.tokens("r", 1, 1, 0.5);
        o.tokens("r", 2, 1, 0.5);
        // No change: no gap.
        o.tokens("r", 1, 1, 0.6);
        o.tokens("r", 1, 2, 0.7);
        o.tokens("r", 2, 3, 0.9);
        assert_eq!(o.gaps.len(), 3);
        assert!(
            o.gaps.iter().all(|g| (g - 0.2).abs() < 1e-12),
            "{:?}",
            o.gaps
        );
        assert_eq!(o.requests["r"].first_token, Some(0.5));
        // Finishing closes the request with one mean gap over its
        // sequences' 3 gaps (0.2 + 0.4 seconds); unknown ids add nothing.
        o.tokens("s", 4, 1, 1.0);
        o.finish_request([1, 2, 9]);
        o.finish_request([4]);
        assert_eq!(o.itl.len(), 1);
        assert!((o.itl[0] - 0.2).abs() < 1e-12);
    }
}
