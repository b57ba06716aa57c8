//! Property tests for the attention kernels: the PagedAttention kernel must
//! match the contiguous reference for arbitrary shapes, block sizes, and
//! (scrambled) block tables, attention outputs must be convex
//! combinations of the value vectors, and the block-native prefill kernel
//! must be bit-identical to the contiguous causal kernel over gathered K/V
//! at every pool width.

use std::sync::OnceLock;

use proptest::prelude::*;

use vllm_model::{
    contiguous_attention_decode, contiguous_causal_attention, paged_attention_decode,
    paged_attention_prefill, KvElement, KvPool, WorkerPool,
};

/// Worker pools of width 1 ..= 4, built once for every case.
fn pools() -> &'static [WorkerPool] {
    static POOLS: OnceLock<Vec<WorkerPool>> = OnceLock::new();
    POOLS.get_or_init(|| (1..=4).map(WorkerPool::new).collect())
}

fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 4000) as f32 / 1000.0) - 2.0
        })
        .collect()
}

/// Builds a pool whose block table is a permutation chosen by `scramble`.
fn build_pool(
    k: &[f32],
    v: &[f32],
    ctx: usize,
    bs: usize,
    hidden: usize,
    scramble: u64,
) -> (KvPool, Vec<usize>) {
    build_pool_with(k, v, ctx, bs, hidden, scramble, KvElement::F32)
}

/// [`build_pool`] with a chosen KV element type.
fn build_pool_with(
    k: &[f32],
    v: &[f32],
    ctx: usize,
    bs: usize,
    hidden: usize,
    scramble: u64,
    element: KvElement,
) -> (KvPool, Vec<usize>) {
    let n_blocks = ctx.div_ceil(bs);
    let extra = 3;
    let mut pool = KvPool::with_element(1, n_blocks + extra, bs, hidden, element);
    let mut table: Vec<usize> = (0..n_blocks + extra).collect();
    // Fisher–Yates with a deterministic stream.
    let mut s = scramble | 1;
    for i in (1..table.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        table.swap(i, (s as usize) % (i + 1));
    }
    table.truncate(n_blocks);
    for t in 0..ctx {
        pool.write(
            0,
            table[t / bs],
            t % bs,
            &k[t * hidden..(t + 1) * hidden],
            &v[t * hidden..(t + 1) * hidden],
        );
    }
    (pool, table)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paged_equals_contiguous(
        ctx in 1usize..160,
        bs in 1usize..33,
        n_heads in 1usize..5,
        head_dim_pow in 1u32..5,
        seed in 0u64..1000,
    ) {
        let head_dim = 1usize << head_dim_pow;
        let hidden = n_heads * head_dim;
        let q = fill(seed, hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);

        let mut reference = vec![0.0f32; hidden];
        contiguous_attention_decode(&q, &k, &v, ctx, n_heads, head_dim, &mut reference);

        let (pool, table) = build_pool(&k, &v, ctx, bs, hidden, seed + 3);
        let mut paged = vec![0.0f32; hidden];
        paged_attention_decode(&q, &pool, 0, &table, ctx, n_heads, head_dim, &mut paged);

        for (i, (a, b)) in reference.iter().zip(&paged).enumerate() {
            prop_assert!((a - b).abs() < 1e-3, "idx {i}: {a} vs {b}");
        }
    }

    #[test]
    fn attention_output_within_value_hull(
        ctx in 1usize..64,
        seed in 0u64..1000,
    ) {
        // Softmax weights are a convex combination: every output coordinate
        // lies within [min, max] of the values at that coordinate.
        let n_heads = 2;
        let head_dim = 4;
        let hidden = n_heads * head_dim;
        let q = fill(seed, hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);
        let (pool, table) = build_pool(&k, &v, ctx, 4, hidden, seed + 3);
        let mut out = vec![0.0f32; hidden];
        paged_attention_decode(&q, &pool, 0, &table, ctx, n_heads, head_dim, &mut out);
        for j in 0..hidden {
            let col: Vec<f32> = (0..ctx).map(|t| v[t * hidden + j]).collect();
            let lo = col.iter().copied().fold(f32::INFINITY, f32::min) - 1e-4;
            let hi = col.iter().copied().fold(f32::NEG_INFINITY, f32::max) + 1e-4;
            prop_assert!(out[j] >= lo && out[j] <= hi, "coord {j}: {} not in [{lo},{hi}]", out[j]);
        }
    }

    #[test]
    fn block_size_invariance(
        ctx in 1usize..96,
        seed in 0u64..1000,
    ) {
        // The same KV content through different block sizes yields the same
        // attention output.
        let n_heads = 2;
        let head_dim = 8;
        let hidden = n_heads * head_dim;
        let q = fill(seed, hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);
        let mut first: Option<Vec<f32>> = None;
        for bs in [1usize, 3, 8, 16, 64] {
            let (pool, table) = build_pool(&k, &v, ctx, bs, hidden, seed + bs as u64);
            let mut out = vec![0.0f32; hidden];
            paged_attention_decode(&q, &pool, 0, &table, ctx, n_heads, head_dim, &mut out);
            match &first {
                None => first = Some(out),
                Some(reference) => {
                    for (a, b) in reference.iter().zip(&out) {
                        prop_assert!((a - b).abs() < 1e-3, "bs={bs}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn prefill_bit_identical_to_contiguous_over_gather(
        ctx in 1usize..120,
        bs in 1usize..33,
        n_heads in 1usize..5,
        head_dim_pow in 0u32..5,
        int8 in 0usize..2,
        cached_kind in 0usize..4,
        seed in 0u64..1000,
    ) {
        let head_dim = 1usize << head_dim_pow;
        let hidden = n_heads * head_dim;
        let element = if int8 == 1 { KvElement::Int8Scaled } else { KvElement::F32 };
        // Cached prefix: none, mid-block, block-aligned, or all but one row
        // (a one-row chunk).
        let num_cached = match cached_kind {
            0 => 0,
            1 => {
                let c = seed as usize % ctx;
                c + usize::from(c.is_multiple_of(bs) && bs > 1)
            }
            2 => ((seed as usize % ctx) / bs) * bs,
            _ => ctx - 1,
        }
        .min(ctx - 1);
        let nq = ctx - num_cached;
        let q = fill(seed, nq * hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);
        let (pool, table) = build_pool_with(&k, &v, ctx, bs, hidden, seed + 3, element);

        let (ks, vs) = pool.gather(0, &table, ctx);
        let mut reference = vec![0.0f32; nq * hidden];
        contiguous_causal_attention(
            &q, &ks, &vs, nq, ctx, num_cached, n_heads, head_dim, &mut reference,
        );
        let reference: Vec<u32> = reference.iter().map(|x| x.to_bits()).collect();
        for workers in pools() {
            let mut out = vec![f32::NAN; nq * hidden];
            paged_attention_prefill(
                &q, &pool, 0, &table, nq, ctx, num_cached, n_heads, head_dim, workers,
                &mut out,
            );
            let bits: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(
                &bits,
                &reference,
                "{:?} bs={} cached={} nq={} threads={}",
                element,
                bs,
                num_cached,
                nq,
                workers.parallelism()
            );
        }
    }
}
