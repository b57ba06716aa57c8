//! The quantized-KV backend: scalar matmul kernels with int8 KV block
//! storage.
//!
//! K/V vectors are quantized on write with one f32 scale per stored vector
//! (`scale = max|x| / 127`, so the reconstruction error per element is at
//! most `scale / 2`), shrinking [`KvLayout::bytes_per_block`] by ~4× at
//! typical widths — which the block manager converts into proportionally
//! more blocks per memory budget, and the scheduler into a larger
//! concurrent batch (the paper's Fig. 12 capacity argument).
//!
//! The matmul family is byte-for-byte the scalar backend's — quantization
//! touches only the attention kernel's KV reads — so logits differ from
//! scalar only through the attention output, keeping greedy decode
//! token-stable on ordinary prompts.

use super::{BackendKind, KernelBackend, KvElement, KvLayout};
use crate::attention;
use crate::kv_cache::KvPool;
use crate::ops;
use crate::pool::WorkerPool;
use crate::DecodeSeq;

/// Dot product of an f32 query against an int8 key vector, accumulated in
/// f32 with four independent lanes (fixed combination order, matching the
/// shape of [`ops::dot`]'s unrolled pattern). The caller multiplies by the
/// vector's dequantization scale once, outside the loop.
#[inline]
fn dot_q8(q: &[f32], k_q: &[i8]) -> f32 {
    debug_assert_eq!(q.len(), k_q.len());
    let len = q.len();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut p = 0;
    while p + 4 <= len {
        s0 += q[p] * f32::from(k_q[p]);
        s1 += q[p + 1] * f32::from(k_q[p + 1]);
        s2 += q[p + 2] * f32::from(k_q[p + 2]);
        s3 += q[p + 3] * f32::from(k_q[p + 3]);
        p += 4;
    }
    while p < len {
        s0 += q[p] * f32::from(k_q[p]);
        p += 1;
    }
    (s0 + s1) + (s2 + s3)
}

/// `acc += s * dequant(v_q)` where the scale is folded into `s`.
#[inline]
fn axpy_q8(acc: &mut [f32], s: f32, v_q: &[i8]) {
    debug_assert_eq!(acc.len(), v_q.len());
    for (a, &x) in acc.iter_mut().zip(v_q) {
        *a += s * f32::from(x);
    }
}

/// Online-softmax decode head reading int8 KV blocks. Falls back to the
/// scalar f32 head when handed an f32 pool, so the backend also works
/// against pools tests allocate with [`KvPool::new`].
pub(crate) fn decode_head(
    q_h: &[f32],
    pool: &KvPool,
    layer: usize,
    block_table: &[usize],
    context_len: usize,
    ho: usize,
    o: &mut [f32],
) {
    if pool.element() == KvElement::F32 {
        attention::decode_head(q_h, pool, layer, block_table, context_len, ho, o);
        return;
    }
    let head_dim = q_h.len();
    let hidden = pool.hidden();
    let bs = pool.block_size();
    let num_blocks = context_len.div_ceil(bs);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut m = f32::NEG_INFINITY;
    let mut l = 0.0f32;
    let mut acc = vec![0.0f32; head_dim];
    for (j, &block) in block_table.iter().take(num_blocks).enumerate() {
        let fill = (context_len - j * bs).min(bs);
        let (k_block, k_scales) = pool.key_block_q8(layer, block);
        let (v_block, v_scales) = pool.value_block_q8(layer, block);
        for slot in 0..fill {
            let k_h = &k_block[slot * hidden + ho..slot * hidden + ho + head_dim];
            let s = dot_q8(q_h, k_h) * k_scales[slot] * scale;
            let m_new = m.max(s);
            let correction = (m - m_new).exp();
            let w = (s - m_new).exp();
            l = l * correction + w;
            for a in acc.iter_mut() {
                *a *= correction;
            }
            let v_h = &v_block[slot * hidden + ho..slot * hidden + ho + head_dim];
            axpy_q8(&mut acc, w * v_scales[slot], v_h);
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

/// Scalar matmul kernels over int8-with-per-slot-scale KV storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantKv8Backend;

impl KernelBackend for QuantKv8Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::QuantKv8
    }

    fn kv_layout(&self) -> KvLayout {
        KvLayout {
            element: KvElement::Int8Scaled,
        }
    }

    fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_matmul_timed(ops::matmul, ops::matmul_one_row_cols, a, b, m, k, n, out);
    }

    fn matmul_serial(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        ops::matmul(a, b, m, k, n, out);
    }

    fn matmul_logits(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_logits_timed(ops::matmul, ops::matmul_one_row_cols, a, b, m, k, n, out);
    }

    fn matmul_transb(&self, a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_transb_timed(a, bt, m, k, n, out);
    }

    fn paged_attention_decode(
        &self,
        q: &[f32],
        pool: &KvPool,
        layer: usize,
        block_table: &[usize],
        context_len: usize,
        n_heads: usize,
        head_dim: usize,
        out: &mut [f32],
    ) {
        attention::check_decode_shapes(q, pool, block_table, context_len, n_heads, head_dim, out);
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

    fn paged_attention_decode_batch(
        &self,
        q: &[f32],
        pool: &KvPool,
        layer: usize,
        seqs: &[DecodeSeq<'_>],
        n_heads: usize,
        head_dim: usize,
        workers: &WorkerPool,
        out: &mut [f32],
    ) {
        attention::decode_batch_driver(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::paged_attention_decode;

    const H: usize = 2;
    const HD: usize = 8;
    const HIDDEN: usize = H * HD;

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

    #[test]
    fn quant_attention_close_to_f32_attention() {
        let ctx = 33usize;
        let bs = 4usize;
        let nb = ctx.div_ceil(bs);
        let k = fill(2, ctx * HIDDEN);
        let v = fill(3, ctx * HIDDEN);
        let table: Vec<usize> = (0..nb).collect();
        let mut f32_pool = KvPool::new(1, nb, bs, HIDDEN);
        let mut q8_pool = KvPool::with_element(1, nb, bs, HIDDEN, KvElement::Int8Scaled);
        for t in 0..ctx {
            let kt = &k[t * HIDDEN..(t + 1) * HIDDEN];
            let vt = &v[t * HIDDEN..(t + 1) * HIDDEN];
            f32_pool.write(0, table[t / bs], t % bs, kt, vt);
            q8_pool.write(0, table[t / bs], t % bs, kt, vt);
        }
        let q = fill(1, HIDDEN);
        let mut exact = vec![0.0; HIDDEN];
        paged_attention_decode(&q, &f32_pool, 0, &table, ctx, H, HD, &mut exact);
        let mut quant = vec![0.0; HIDDEN];
        QuantKv8Backend.paged_attention_decode(&q, &q8_pool, 0, &table, ctx, H, HD, &mut quant);
        // Attention output is a convex combination of values whose per
        // element quantization error is <= scale/2 <= max|v|/254, so the
        // output error stays within ~1% of the value range here.
        for (i, (a, b)) in exact.iter().zip(&quant).enumerate() {
            assert!((a - b).abs() < 2e-2, "idx {i}: {a} vs {b}");
        }
    }

    #[test]
    fn quant_backend_on_f32_pool_matches_scalar_head() {
        // Tests and tools that allocate plain f32 pools must still work.
        let ctx = 9usize;
        let bs = 4usize;
        let nb = ctx.div_ceil(bs);
        let table: Vec<usize> = (0..nb).collect();
        let mut pool = KvPool::new(1, nb, bs, HIDDEN);
        let k = fill(7, ctx * HIDDEN);
        let v = fill(8, ctx * HIDDEN);
        for t in 0..ctx {
            pool.write(
                0,
                table[t / bs],
                t % bs,
                &k[t * HIDDEN..(t + 1) * HIDDEN],
                &v[t * HIDDEN..(t + 1) * HIDDEN],
            );
        }
        let q = fill(9, HIDDEN);
        let mut scalar_out = vec![0.0; HIDDEN];
        paged_attention_decode(&q, &pool, 0, &table, ctx, H, HD, &mut scalar_out);
        let mut quant_out = vec![0.0; HIDDEN];
        QuantKv8Backend.paged_attention_decode(&q, &pool, 0, &table, ctx, H, HD, &mut quant_out);
        assert_eq!(scalar_out, quant_out);
    }
}
