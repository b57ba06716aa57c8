//! Attention kernels: the contiguous reference and the PagedAttention
//! kernel that reads K/V through a block table (§4.1, Eq. 4).
//!
//! The paged kernel streams over KV blocks with an online-softmax
//! accumulator, exactly mirroring the blockwise decomposition of Eq. 4: per
//! block it computes the score row `A_ij = softmax(q·K_j)` contribution and
//! accumulates `V_j A_ij` without materializing the full attention row.
//!
//! The prompt phase (§4.3) has its own block-native kernel,
//! [`paged_attention_prefill`]: it also reads K/V in place through the
//! block table, splits (row, head) pairs across the worker pool, and is
//! bit-identical to [`contiguous_causal_attention`] over gathered K/V.

use crate::backend::KvElement;
use crate::kv_cache::KvPool;
use crate::ops::{axpy, dot, softmax, timing};
use crate::pool::WorkerPool;

/// Multi-head causal attention over contiguous K/V buffers.
///
/// Queries `q` are `nq × hidden` at absolute positions `q_start ..
/// q_start + nq`; keys/values are `nk × hidden` at positions `0 .. nk`.
/// Query at absolute position `p` attends to keys `0 ..= p`. Used for the
/// prompt phase ("the prefill step uses a conventional self-attention
/// algorithm", §4.3) and as the FasterTransformer-style baseline kernel.
///
/// # Panics
///
/// Panics if shapes disagree or `q_start + nq > nk`.
#[allow(clippy::too_many_arguments)]
pub fn contiguous_causal_attention(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    nq: usize,
    nk: usize,
    q_start: usize,
    n_heads: usize,
    head_dim: usize,
    out: &mut [f32],
) {
    let hidden = n_heads * head_dim;
    assert_eq!(q.len(), nq * hidden);
    assert_eq!(k.len(), nk * hidden);
    assert_eq!(v.len(), nk * hidden);
    assert_eq!(out.len(), nq * hidden);
    assert!(q_start + nq <= nk, "queries attend beyond provided keys");
    let scale = 1.0 / (head_dim as f32).sqrt();

    let mut scores = vec![0.0f32; nk];
    for qi in 0..nq {
        let pos = q_start + qi;
        let ctx = pos + 1;
        for h in 0..n_heads {
            let ho = h * head_dim;
            let q_h = &q[qi * hidden + ho..qi * hidden + ho + head_dim];
            let s = &mut scores[..ctx];
            for (t, s_t) in s.iter_mut().enumerate() {
                let k_h = &k[t * hidden + ho..t * hidden + ho + head_dim];
                *s_t = dot(q_h, k_h) * scale;
            }
            softmax(s);
            let o = &mut out[qi * hidden + ho..qi * hidden + ho + head_dim];
            o.fill(0.0);
            for (t, &w) in s.iter().enumerate() {
                let v_h = &v[t * hidden + ho..t * hidden + ho + head_dim];
                axpy(o, w, v_h);
            }
        }
    }
}

/// Query rows of one head a prefill task processes together: every K/V
/// block a tile reads (and, for int8 pools, dequantizes) is reused by all
/// of its rows, so block reads cost `1 / PREFILL_ROW_TILE` of the scores.
const PREFILL_ROW_TILE: usize = 16;

/// Keys scored together, one per lane, against a key panel.
const SCORE_LANES: usize = 8;

/// Head-dimension lanes a value accumulation keeps in registers.
const VALUE_LANES: usize = 8;

/// Prefill attention over paged K/V (whole prompts and scheduler-budgeted
/// chunks), block-native and pool-parallel: query rows `num_cached ..
/// num_cached + nq` attend causally to K/V read in place through the block
/// table — every prior chunk's KV plus a causal intra-chunk mask.
///
/// The (query row × head) space is split across `workers` into contiguous
/// row-major ranges of equal causal cost (row `i` costs `num_cached + i +
/// 1`), so each task owns one contiguous slice of `out`. A task walks its
/// rows head by head in tiles of [`PREFILL_ROW_TILE`]; per tile and block
/// it copies the head's keys into a `head_dim × block_size` panel (int8
/// pools dequantize with [`KvPool::gather`]'s `f32::from(q) * scale`),
/// scores every tile row against that panel one key per lane, and later
/// accumulates the same block's values. Scratch is per task and reused
/// across its tiles; nothing is sized to the whole context times `hidden`.
///
/// Determinism contract: each (row, head) computes exactly what
/// [`contiguous_causal_attention`] computes over [`KvPool::gather`]ed K/V —
/// every score is a k-order [`dot`] (one lane per key, `-0.0` plus each
/// product in ascending `d`, the way `f32: Sum` folds), then [`softmax`]
/// over `0 ..= pos`, then t-order [`axpy`]. A row's output therefore
/// depends only on its query and KV `[0 ..= row]` — never on the pool
/// width, the split, which chunk the row arrived in or what else is
/// batched — which is what makes chunked prefill logits bit-identical to
/// an unchunked prefill on every backend.
///
/// # Panics
///
/// Panics if shapes disagree, the queries reach past `context_len`, or the
/// block table does not cover `context_len`.
#[allow(clippy::too_many_arguments)]
pub fn paged_attention_prefill(
    q: &[f32],
    pool: &KvPool,
    layer: usize,
    block_table: &[usize],
    nq: usize,
    context_len: usize,
    num_cached: usize,
    n_heads: usize,
    head_dim: usize,
    workers: &WorkerPool,
    out: &mut [f32],
) {
    let hidden = n_heads * head_dim;
    assert_eq!(q.len(), nq * hidden);
    assert_eq!(out.len(), nq * hidden);
    assert_eq!(pool.hidden(), hidden);
    assert!(
        num_cached + nq <= context_len,
        "queries attend beyond provided keys"
    );
    assert!(
        block_table.len() * pool.block_size() >= context_len,
        "block table too short for prefill context"
    );
    let start = std::time::Instant::now();
    let rows = PrefillRows {
        q,
        pool,
        layer,
        block_table,
        num_cached,
        n_heads,
        head_dim,
    };
    let bounds = causal_split(nq, num_cached, n_heads, workers.parallelism());
    workers.scoped(|scope| {
        let mut rest = &mut out[..];
        for w in bounds.windows(2) {
            let (chunk, tail) = rest.split_at_mut((w[1] - w[0]) * head_dim);
            rest = tail;
            let rows = &rows;
            let (p0, p1) = (w[0], w[1]);
            scope.spawn(move || rows.run(p0, p1, chunk));
        }
    });
    timing::record_attention(start.elapsed());
}

/// `o[d] += w[t] * v[t][d]` for `t` ascending, where value row `t` is
/// `v[t * v_stride + v_off ..][.. o.len()]`: per element, exactly the
/// additions of one [`axpy`] call per `t`, with the accumulator kept in
/// registers for [`VALUE_LANES`] elements at a time.
#[inline(always)]
fn accumulate_values(o: &mut [f32], w: &[f32], v: &[f32], v_stride: usize, v_off: usize) {
    let hd = o.len();
    let mut d = 0;
    while d + VALUE_LANES <= hd {
        let mut acc: [f32; VALUE_LANES] = o[d..d + VALUE_LANES].try_into().expect("one lane group");
        for (t, &w_t) in w.iter().enumerate() {
            let v0 = t * v_stride + v_off + d;
            let v_t: &[f32; VALUE_LANES] =
                v[v0..v0 + VALUE_LANES].try_into().expect("one lane group");
            for (acc_l, &v_l) in acc.iter_mut().zip(v_t) {
                *acc_l += w_t * v_l;
            }
        }
        o[d..d + VALUE_LANES].copy_from_slice(&acc);
        d += VALUE_LANES;
    }
    for (dd, o_d) in o.iter_mut().enumerate().skip(d) {
        let mut acc = *o_d;
        for (t, &w_t) in w.iter().enumerate() {
            acc += w_t * v[t * v_stride + v_off + dd];
        }
        *o_d = acc;
    }
}

/// Splits the row-major (row, head) pair space `0 .. nq * n_heads` into at
/// most `tasks` contiguous ranges of near-equal causal cost, returned as
/// ascending boundaries from `0` to `nq * n_heads`.
fn causal_split(nq: usize, num_cached: usize, n_heads: usize, tasks: usize) -> Vec<usize> {
    let pairs = nq * n_heads;
    let tasks = tasks.clamp(1, pairs.max(1));
    let cost = |row: usize| num_cached + row + 1;
    let total: usize = (0..nq).map(|r| cost(r) * n_heads).sum();
    let mut bounds = vec![0];
    let mut acc = 0;
    for p in 0..pairs {
        acc += cost(p / n_heads);
        // Close task `k` once the pairs so far cost `k / tasks` of the total.
        let k = bounds.len();
        if k < tasks && acc * tasks >= total * k {
            bounds.push(p + 1);
        }
    }
    if bounds.last() != Some(&pairs) {
        bounds.push(pairs);
    }
    bounds
}

/// The shared, read-only inputs of one prefill call.
struct PrefillRows<'a> {
    q: &'a [f32],
    pool: &'a KvPool,
    layer: usize,
    block_table: &'a [usize],
    num_cached: usize,
    n_heads: usize,
    head_dim: usize,
}

/// One task's reusable scratch.
#[derive(Default)]
struct PrefillScratch {
    /// `rows × stride` scores (then softmax weights) of the current tile.
    scores: Vec<f32>,
    /// The current block's keys for one head, `head_dim × block_size`.
    k_panel: Vec<f32>,
    /// The current block's values for one head (int8 pools only),
    /// `block_size × head_dim`.
    v_panel: Vec<f32>,
}

impl PrefillRows<'_> {
    /// Computes pairs `p0 .. p1` into `out` (`(p1 - p0) × head_dim`).
    fn run(&self, p0: usize, p1: usize, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { self.run_avx2(p0, p1, out) };
            return;
        }
        self.run_impl(p0, p1, out);
    }

    /// AVX2 instantiation of [`Self::run_impl`]: the same lane-wise
    /// operations (no FMA contraction), so results are bit-equal.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(&self, p0: usize, p1: usize, out: &mut [f32]) {
        self.run_impl(p0, p1, out);
    }

    #[inline(always)]
    fn run_impl(&self, p0: usize, p1: usize, out: &mut [f32]) {
        if p0 == p1 {
            return;
        }
        let nh = self.n_heads;
        let (first_row, last_row) = (p0 / nh, (p1 - 1) / nh);
        let mut scratch = PrefillScratch::default();
        for h in 0..nh {
            // This task's rows for head `h`: a contiguous range, because
            // the task's pairs are contiguous in row-major order.
            let lo = first_row + usize::from(first_row * nh + h < p0);
            let hi = last_row + usize::from(last_row * nh + h < p1);
            let mut a = lo;
            while a < hi {
                let b = (a + PREFILL_ROW_TILE).min(hi);
                self.tile(h, a, b, p0, out, &mut scratch);
                a = b;
            }
        }
    }

    /// Rows `a .. b` of head `h`; `out` starts at pair `p0`.
    #[inline(always)]
    fn tile(
        &self,
        h: usize,
        a: usize,
        b: usize,
        p0: usize,
        out: &mut [f32],
        scratch: &mut PrefillScratch,
    ) {
        let (hd, nh) = (self.head_dim, self.n_heads);
        let hidden = nh * hd;
        let ho = h * hd;
        let bs = self.pool.block_size();
        let scale = 1.0 / (hd as f32).sqrt();
        // Row `a + r` sits at position `num_cached + a + r` and reads keys
        // `0 ..= pos`; the tile's last row bounds every read.
        let stride = self.num_cached + b;
        let n_rows = b - a;
        let ctx_of = |r: usize| self.num_cached + a + r + 1;
        scratch.scores.clear();
        scratch.scores.resize(n_rows * stride, 0.0);
        // Panel rows are padded to whole lane groups; padding lanes hold
        // stale keys whose scores are never stored.
        let ps = bs.next_multiple_of(SCORE_LANES);
        scratch.k_panel.resize(hd * ps, 0.0);

        // Scores: one key per lane, each lane summing `q[d] * k[d]` in
        // ascending `d` from `-0.0`, exactly as [`dot`] does, then scaled.
        for (j, &block) in self.block_table.iter().enumerate() {
            let t0 = j * bs;
            if t0 >= stride {
                break;
            }
            let fill = bs.min(stride - t0);
            self.key_panel(block, ho, fill, ps, &mut scratch.k_panel);
            for r in 0..n_rows {
                let n = fill.min(ctx_of(r).saturating_sub(t0));
                if n == 0 {
                    continue;
                }
                let row = a + r;
                let q_h = &self.q[row * hidden + ho..row * hidden + ho + hd];
                let s = &mut scratch.scores[r * stride + t0..r * stride + t0 + n];
                for c in (0..n).step_by(SCORE_LANES) {
                    let mut acc = [-0.0f32; SCORE_LANES];
                    for (d, &qd) in q_h.iter().enumerate() {
                        let k: &[f32; SCORE_LANES] = scratch.k_panel
                            [d * ps + c..d * ps + c + SCORE_LANES]
                            .try_into()
                            .expect("panel rows are padded to whole lane groups");
                        for (acc_l, &k_l) in acc.iter_mut().zip(k) {
                            *acc_l += qd * k_l;
                        }
                    }
                    let end = n.min(c + SCORE_LANES);
                    for (s_t, &acc_l) in s[c..end].iter_mut().zip(&acc) {
                        *s_t = acc_l * scale;
                    }
                }
            }
        }
        for r in 0..n_rows {
            softmax(&mut scratch.scores[r * stride..r * stride + ctx_of(r)]);
            let o0 = ((a + r) * nh + h - p0) * hd;
            out[o0..o0 + hd].fill(0.0);
        }

        // Values: per row, `o += w[t] * v[t]` in ascending `t` — the same
        // per-element order as [`axpy`] calls — with the row's output held
        // in registers across each block.
        for (j, &block) in self.block_table.iter().enumerate() {
            let t0 = j * bs;
            if t0 >= stride {
                break;
            }
            let fill = bs.min(stride - t0);
            let (v, v_stride, v_off) = self.value_rows(block, ho, fill, &mut scratch.v_panel);
            for r in 0..n_rows {
                let n = fill.min(ctx_of(r).saturating_sub(t0));
                if n == 0 {
                    continue;
                }
                let o0 = ((a + r) * nh + h - p0) * hd;
                let w = &scratch.scores[r * stride + t0..r * stride + t0 + n];
                accumulate_values(&mut out[o0..o0 + hd], w, v, v_stride, v_off);
            }
        }
    }

    /// Writes the keys of slots `0 .. fill` of `block` for the head at
    /// offset `ho` into `panel` transposed (`panel[d * ps + slot]`).
    #[inline(always)]
    fn key_panel(&self, block: usize, ho: usize, fill: usize, ps: usize, panel: &mut [f32]) {
        let (hd, hidden) = (self.head_dim, self.pool.hidden());
        match self.pool.element() {
            KvElement::F32 => {
                let k = self.pool.key_block(self.layer, block);
                for slot in 0..fill {
                    let k_h = &k[slot * hidden + ho..slot * hidden + ho + hd];
                    for (d, &x) in k_h.iter().enumerate() {
                        panel[d * ps + slot] = x;
                    }
                }
            }
            KvElement::Int8Scaled => {
                let (k, scales) = self.pool.key_block_q8(self.layer, block);
                for slot in 0..fill {
                    let k_h = &k[slot * hidden + ho..slot * hidden + ho + hd];
                    let sc = scales[slot];
                    for (d, &x) in k_h.iter().enumerate() {
                        panel[d * ps + slot] = f32::from(x) * sc;
                    }
                }
            }
        }
    }

    /// The values of slots `0 .. fill` of `block` for the head at offset
    /// `ho`, as `(rows, stride, offset)`: slot `s` is
    /// `rows[s * stride + offset ..][.. head_dim]`. F32 blocks are read in
    /// place; int8 blocks are dequantized into `panel`.
    #[inline(always)]
    fn value_rows<'p>(
        &'p self,
        block: usize,
        ho: usize,
        fill: usize,
        panel: &'p mut Vec<f32>,
    ) -> (&'p [f32], usize, usize) {
        let (hd, hidden) = (self.head_dim, self.pool.hidden());
        match self.pool.element() {
            KvElement::F32 => (self.pool.value_block(self.layer, block), hidden, ho),
            KvElement::Int8Scaled => {
                let (v, scales) = self.pool.value_block_q8(self.layer, block);
                panel.clear();
                for slot in 0..fill {
                    let v_h = &v[slot * hidden + ho..slot * hidden + ho + hd];
                    let sc = scales[slot];
                    panel.extend(v_h.iter().map(|&x| f32::from(x) * sc));
                }
                (&panel[..], hd, 0)
            }
        }
    }
}

/// Single-query attention over contiguous K/V (the FasterTransformer-style
/// decode kernel used as the Fig. 18a baseline).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn contiguous_attention_decode(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    context_len: usize,
    n_heads: usize,
    head_dim: usize,
    out: &mut [f32],
) {
    contiguous_causal_attention(
        q,
        k,
        v,
        1,
        context_len,
        context_len - 1,
        n_heads,
        head_dim,
        out,
    );
}

/// PagedAttention for one query token (§4.1): K/V are fetched block by
/// block through `block_table` from the paged pool, with an online softmax
/// so the full score row is never materialized.
///
/// `context_len` counts the valid KV slots (the query token's own K/V must
/// already be written at position `context_len - 1`).
///
/// # Panics
///
/// Panics if the block table is too short for `context_len` or shapes
/// disagree.
#[allow(clippy::too_many_arguments)]
pub fn paged_attention_decode(
    q: &[f32],
    pool: &KvPool,
    layer: usize,
    block_table: &[usize],
    context_len: usize,
    n_heads: usize,
    head_dim: usize,
    out: &mut [f32],
) {
    check_decode_shapes(q, pool, block_table, context_len, n_heads, head_dim, out);
    for h in 0..n_heads {
        let ho = h * head_dim;
        decode_head(
            &q[ho..ho + head_dim],
            pool,
            layer,
            block_table,
            context_len,
            ho,
            &mut out[ho..ho + head_dim],
        );
    }
}

/// Validates the shared preconditions of a solo decode call: query/output
/// widths, pool width, and block-table coverage of `context_len`.
///
/// # Panics
///
/// Panics when any precondition is violated.
pub(crate) fn check_decode_shapes(
    q: &[f32],
    pool: &KvPool,
    block_table: &[usize],
    context_len: usize,
    n_heads: usize,
    head_dim: usize,
    out: &[f32],
) {
    let hidden = n_heads * head_dim;
    assert_eq!(q.len(), hidden);
    assert_eq!(out.len(), hidden);
    assert_eq!(pool.hidden(), hidden);
    let bs = pool.block_size();
    let num_blocks = context_len.div_ceil(bs);
    assert!(
        block_table.len() >= num_blocks,
        "block table has {} entries, context needs {num_blocks}",
        block_table.len()
    );
}

/// Online-softmax PagedAttention for one (query, head) pair: the shared
/// inner routine of the solo and batched decode kernels, so their outputs
/// are bit-identical by construction. Backends with their own inner loops
/// (SIMD lanes, quantized KV) supply a head routine of this same shape to
/// [`decode_batch_driver`].
///
/// `q_h` and `o` are `head_dim`-sized slices; `ho` is the head's offset
/// into the `hidden`-wide K/V vectors of the pool.
pub(crate) fn decode_head(
    q_h: &[f32],
    pool: &KvPool,
    layer: usize,
    block_table: &[usize],
    context_len: usize,
    ho: usize,
    o: &mut [f32],
) {
    let head_dim = q_h.len();
    let hidden = pool.hidden();
    let bs = pool.block_size();
    let num_blocks = context_len.div_ceil(bs);
    let scale = 1.0 / (head_dim as f32).sqrt();
    // Online softmax state for this head.
    let mut m = f32::NEG_INFINITY;
    let mut l = 0.0f32;
    let mut acc = vec![0.0f32; head_dim];
    for (j, &block) in block_table.iter().take(num_blocks).enumerate() {
        let fill = (context_len - j * bs).min(bs);
        let k_block = pool.key_block(layer, block);
        let v_block = pool.value_block(layer, block);
        for slot in 0..fill {
            let k_h = &k_block[slot * hidden + ho..slot * hidden + ho + head_dim];
            let s = dot(q_h, k_h) * scale;
            let m_new = m.max(s);
            let correction = (m - m_new).exp();
            let w = (s - m_new).exp();
            l = l * correction + w;
            for a in acc.iter_mut() {
                *a *= correction;
            }
            let v_h = &v_block[slot * hidden + ho..slot * hidden + ho + head_dim];
            axpy(&mut acc, w, v_h);
            m = m_new;
        }
    }
    if l > 0.0 {
        for (dst, a) in o.iter_mut().zip(&acc) {
            *dst = a / l;
        }
    } else {
        o.fill(0.0);
    }
}

/// One sequence's KV addressing for the batched decode kernel.
#[derive(Debug, Clone, Copy)]
pub struct DecodeSeq<'a> {
    /// Physical block indices for the sequence's logical blocks.
    pub block_table: &'a [usize],
    /// Valid KV slots (the query's own K/V already written at the end).
    pub context_len: usize,
}

/// Batched PagedAttention decode (§4.3, §5.1): one query token per
/// sequence, all sequences in one call, parallelized over (sequence, head)
/// pairs on the worker pool with independent online-softmax state per
/// pair.
///
/// `q` and `out` are `batch × hidden` with row `i` belonging to `seqs[i]`.
/// Each pair runs the same inner routine as [`paged_attention_decode`], so
/// every output row is bit-identical to a solo call for that sequence.
///
/// # Panics
///
/// Panics if shapes disagree or any block table is too short for its
/// context length.
#[allow(clippy::too_many_arguments)]
pub fn paged_attention_decode_batch(
    q: &[f32],
    pool: &KvPool,
    layer: usize,
    seqs: &[DecodeSeq<'_>],
    n_heads: usize,
    head_dim: usize,
    workers: &WorkerPool,
    out: &mut [f32],
) {
    decode_batch_driver(
        q,
        pool,
        layer,
        seqs,
        n_heads,
        head_dim,
        workers,
        out,
        decode_head,
    );
}

/// The batched-decode scaffolding shared by every backend: validates
/// shapes, splits the (sequence, head) pair space across the worker pool,
/// runs `head` on each pair, and records the span into the attention
/// kernel counters. Solo/batched bit-identity per backend follows from
/// each backend passing the same head routine to both entry points.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_batch_driver<F>(
    q: &[f32],
    pool: &KvPool,
    layer: usize,
    seqs: &[DecodeSeq<'_>],
    n_heads: usize,
    head_dim: usize,
    workers: &WorkerPool,
    out: &mut [f32],
    head: F,
) where
    F: Fn(&[f32], &KvPool, usize, &[usize], usize, usize, &mut [f32]) + Sync,
{
    let start = std::time::Instant::now();
    let hidden = n_heads * head_dim;
    let batch = seqs.len();
    assert_eq!(q.len(), batch * hidden);
    assert_eq!(out.len(), batch * hidden);
    assert_eq!(pool.hidden(), hidden);
    let bs = pool.block_size();
    for s in seqs {
        let num_blocks = s.context_len.div_ceil(bs);
        assert!(
            s.block_table.len() >= num_blocks,
            "block table has {} entries, context needs {num_blocks}",
            s.block_table.len()
        );
    }
    let total_pairs = batch * n_heads;
    if total_pairs == 0 {
        return;
    }
    // Split the (sequence, head) pair space into contiguous ranges, one
    // per worker. `out` is pair-major (`batch × n_heads × head_dim`), so a
    // pair range is a contiguous `&mut` chunk.
    let n_tasks = workers.parallelism().min(total_pairs);
    let pairs_per_task = total_pairs.div_ceil(n_tasks);
    let head = &head;
    workers.scoped(|scope| {
        for (t, out_chunk) in out.chunks_mut(pairs_per_task * head_dim).enumerate() {
            let base = t * pairs_per_task;
            scope.spawn(move || {
                for (i, o) in out_chunk.chunks_mut(head_dim).enumerate() {
                    let pair = base + i;
                    let seq = pair / n_heads;
                    let ho = (pair % n_heads) * head_dim;
                    let q_h = &q[seq * hidden + ho..seq * hidden + ho + head_dim];
                    head(
                        q_h,
                        pool,
                        layer,
                        seqs[seq].block_table,
                        seqs[seq].context_len,
                        ho,
                        o,
                    );
                }
            });
        }
    });
    timing::record_attention(start.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: usize = 2;
    const HD: usize = 4;
    const HIDDEN: usize = H * HD;

    /// Deterministic pseudo-random fill.
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f32 / 1000.0) - 1.0
            })
            .collect()
    }

    fn build_pool(k: &[f32], v: &[f32], ctx: usize, bs: usize) -> (KvPool, Vec<usize>) {
        let num_blocks = ctx.div_ceil(bs) + 2;
        let mut pool = KvPool::new(1, num_blocks, bs, HIDDEN);
        // Scramble the physical order to prove non-contiguity is handled.
        let table: Vec<usize> = (0..ctx.div_ceil(bs))
            .map(|j| (j * 7 + 3) % num_blocks)
            .collect();
        // Ensure table entries are distinct.
        let mut seen = std::collections::HashSet::new();
        let table: Vec<usize> = table
            .into_iter()
            .map(|b| {
                let mut b = b;
                while !seen.insert(b) {
                    b = (b + 1) % num_blocks;
                }
                b
            })
            .collect();
        for t in 0..ctx {
            pool.write(
                0,
                table[t / bs],
                t % bs,
                &k[t * HIDDEN..(t + 1) * HIDDEN],
                &v[t * HIDDEN..(t + 1) * HIDDEN],
            );
        }
        (pool, table)
    }

    #[test]
    fn paged_matches_contiguous_across_shapes() {
        for &ctx in &[1usize, 2, 5, 16, 17, 33, 64] {
            for &bs in &[1usize, 2, 4, 16] {
                let q = fill(1, HIDDEN);
                let k = fill(2 + ctx as u64, ctx * HIDDEN);
                let v = fill(3 + ctx as u64, ctx * HIDDEN);
                let mut reference = vec![0.0; HIDDEN];
                contiguous_attention_decode(&q, &k, &v, ctx, H, HD, &mut reference);

                let (pool, table) = build_pool(&k, &v, ctx, bs);
                let mut paged = vec![0.0; HIDDEN];
                paged_attention_decode(&q, &pool, 0, &table, ctx, H, HD, &mut paged);
                for (i, (a, b)) in reference.iter().zip(&paged).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "ctx={ctx} bs={bs} idx={i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn causal_mask_respected() {
        // With a single key visible, output must equal that value vector.
        let q = fill(10, HIDDEN);
        let k = fill(11, 4 * HIDDEN);
        let v = fill(12, 4 * HIDDEN);
        let mut out = vec![0.0; HIDDEN];
        contiguous_causal_attention(&q, &k, &v, 1, 4, 0, H, HD, &mut out);
        for (o, expect) in out.iter().zip(&v[0..HIDDEN]) {
            assert!((o - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn prefill_last_row_matches_decode() {
        let ctx = 9;
        let q = fill(20, ctx * HIDDEN);
        let k = fill(21, ctx * HIDDEN);
        let v = fill(22, ctx * HIDDEN);
        let mut full = vec![0.0; ctx * HIDDEN];
        contiguous_causal_attention(&q, &k, &v, ctx, ctx, 0, H, HD, &mut full);
        let mut last = vec![0.0; HIDDEN];
        contiguous_attention_decode(&q[(ctx - 1) * HIDDEN..], &k, &v, ctx, H, HD, &mut last);
        for (a, b) in full[(ctx - 1) * HIDDEN..].iter().zip(&last) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn offset_queries_attend_prefix() {
        // Queries starting at position 2 must see keys 0..=2, 0..=3.
        let nk = 4;
        let q = fill(30, 2 * HIDDEN);
        let k = fill(31, nk * HIDDEN);
        let v = fill(32, nk * HIDDEN);
        let mut out = vec![0.0; 2 * HIDDEN];
        contiguous_causal_attention(&q, &k, &v, 2, nk, 2, H, HD, &mut out);
        // Row 0 == decode over ctx 3 with the same query.
        let mut d = vec![0.0; HIDDEN];
        contiguous_attention_decode(
            &q[0..HIDDEN],
            &k[..3 * HIDDEN],
            &v[..3 * HIDDEN],
            3,
            H,
            HD,
            &mut d,
        );
        for (a, b) in out[..HIDDEN].iter().zip(&d) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn batched_decode_bit_identical_to_solo() {
        let workers = WorkerPool::new(3);
        for &bs in &[1usize, 4, 16] {
            let ctxs = [1usize, 5, 17, 33];
            // One shared physical pool holding all sequences.
            let blocks_needed: usize = ctxs.iter().map(|c| c.div_ceil(bs)).sum();
            let mut pool = KvPool::new(1, blocks_needed + 1, bs, HIDDEN);
            let mut tables: Vec<Vec<usize>> = Vec::new();
            let mut next_block = 0;
            for (si, &ctx) in ctxs.iter().enumerate() {
                let nb = ctx.div_ceil(bs);
                let table: Vec<usize> = (next_block..next_block + nb).collect();
                next_block += nb;
                let k = fill(100 + si as u64, ctx * HIDDEN);
                let v = fill(200 + si as u64, ctx * HIDDEN);
                for t in 0..ctx {
                    pool.write(
                        0,
                        table[t / bs],
                        t % bs,
                        &k[t * HIDDEN..(t + 1) * HIDDEN],
                        &v[t * HIDDEN..(t + 1) * HIDDEN],
                    );
                }
                tables.push(table);
            }
            let q = fill(300, ctxs.len() * HIDDEN);
            let seqs: Vec<DecodeSeq<'_>> = ctxs
                .iter()
                .zip(&tables)
                .map(|(&context_len, table)| DecodeSeq {
                    block_table: table,
                    context_len,
                })
                .collect();
            let mut batched = vec![0.0; ctxs.len() * HIDDEN];
            paged_attention_decode_batch(&q, &pool, 0, &seqs, H, HD, &workers, &mut batched);
            for (si, s) in seqs.iter().enumerate() {
                let mut solo = vec![0.0; HIDDEN];
                paged_attention_decode(
                    &q[si * HIDDEN..(si + 1) * HIDDEN],
                    &pool,
                    0,
                    s.block_table,
                    s.context_len,
                    H,
                    HD,
                    &mut solo,
                );
                assert_eq!(
                    &batched[si * HIDDEN..(si + 1) * HIDDEN],
                    &solo[..],
                    "bs={bs} seq={si}: batched row must be bit-identical to solo"
                );
            }
        }
    }

    #[test]
    fn causal_split_balances_cost_and_covers_every_pair() {
        // 8 rows × 2 heads after 4 cached rows: costs 5..=12 per pair.
        let bounds = causal_split(8, 4, 2, 3);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&16));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bounds.len(), 4, "three non-empty tasks");
        // Later rows cost more, so later tasks get fewer pairs.
        assert!(bounds[1] - bounds[0] > bounds[3] - bounds[2]);
        // More tasks than pairs: one pair each.
        assert_eq!(causal_split(1, 0, 2, 8), vec![0, 1, 2]);
        assert_eq!(causal_split(0, 0, 2, 4), vec![0]);
    }

    #[test]
    #[should_panic(expected = "block table")]
    fn short_block_table_panics() {
        let pool = KvPool::new(1, 2, 4, HIDDEN);
        let q = vec![0.0; HIDDEN];
        let mut out = vec![0.0; HIDDEN];
        paged_attention_decode(&q, &pool, 0, &[0], 9, H, HD, &mut out);
    }
}
