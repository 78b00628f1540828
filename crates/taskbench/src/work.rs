//! The deterministic task body: busy-work, edge payloads, and the value
//! algebra that makes every executor produce the same checksum.
//!
//! A taskbench node does three things, all pure functions of the graph
//! description:
//!
//! 1. **Busy-work** ([`busy_work`]): `iters` rounds of a wrapping LCG
//!    whose result feeds the node's value. The iteration count is the
//!    *task-grain knob* — CPU time scales linearly with it while the
//!    arithmetic result depends only on the seed and count, never on
//!    timing.
//! 2. **Edge consumption**: each incoming dependency edge carries a
//!    payload of `len` bytes, deterministically expanded from the
//!    producing node's value ([`edge_payload`]) and folded to a 64-bit
//!    *contribution* by FNV-1a ([`fnv1a`]). Whether the bytes were generated
//!    locally (single-runtime executor) or traveled as a parcel
//!    (grain-net executor), the fold is over the same bytes — that is
//!    the bit-identity hinge of the cross-executor test.
//! 3. **Value mixing** ([`node_value`]): the busy-work result and the
//!    contributions (in ascending source-id order, which every executor
//!    preserves) are folded through a strong 64-bit mixer.
//!
//! Nothing here reads the clock.

use grain_counters::rng::{fnv1a, splitmix64, Pcg32, FNV1A_OFFSET};

/// Per-node seed: a function of the graph seed and the node id only.
#[inline]
pub fn node_seed(graph_seed: u64, node: u32) -> u64 {
    splitmix64(graph_seed ^ (u64::from(node) << 32) ^ 0x7461_736b_6265_6e63) // "taskbench"
}

/// Per-edge salt: a function of the graph seed and both endpoints, so
/// two edges between different node pairs never share a payload stream.
#[inline]
pub fn edge_salt(graph_seed: u64, src: u32, dst: u32) -> u64 {
    splitmix64(graph_seed ^ (u64::from(src) << 32) ^ u64::from(dst) ^ 0x6564_6765)
}

/// The busy-work kernel: `iters` rounds of a wrapping LCG, result mixed.
/// CPU time is linear in `iters`; the result is timing-independent.
/// Never inlined: one compiled copy, so the serial reference and every
/// task run the same machine code, and a task's time over the
/// reference's is the runtime's alone.
#[inline(never)]
pub fn busy_work(seed: u64, iters: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = std::hint::black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    splitmix64(x)
}

/// Expand an edge payload: `len` bytes drawn from a PCG stream keyed by
/// the producing node's settled value and the edge salt. The consumer
/// folds exactly these bytes, whether it regenerated them in-process or
/// received them over a parcelport link.
pub fn edge_payload(src_value: u64, salt: u64, len: u32) -> Vec<u8> {
    let mut rng = Pcg32::seed_from_u64(splitmix64(src_value ^ salt));
    let mut out = Vec::with_capacity(len as usize);
    while out.len() < len as usize {
        let word = rng.next_u32().to_le_bytes();
        let take = (len as usize - out.len()).min(4);
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// One edge's contribution computed producer- or consumer-side from the
/// source value: expand the payload, fold it with FNV-1a. The grain-net
/// executor ships the expanded bytes instead and folds on arrival — same
/// result.
pub fn contrib_from_value(src_value: u64, salt: u64, len: u32) -> u64 {
    fnv1a(FNV1A_OFFSET, &edge_payload(src_value, salt, len))
}

/// A node's value: busy-work folded with every incoming contribution in
/// ascending source-id order.
pub fn node_value(seed: u64, iters: u64, contribs: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = busy_work(seed, iters);
    for c in contribs {
        acc = splitmix64(acc ^ c);
    }
    acc
}

/// Fold one node's value into a graph checksum term. Terms are combined
/// with wrapping addition, so per-partition partial sums (the grain-net
/// executor) combine to the same total as a single pass.
#[inline]
pub fn checksum_term(node: u32, value: u64) -> u64 {
    splitmix64(value ^ splitmix64(u64::from(node)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_is_deterministic_and_seed_sensitive() {
        assert_eq!(busy_work(1, 1000), busy_work(1, 1000));
        assert_ne!(busy_work(1, 1000), busy_work(2, 1000));
        assert_ne!(busy_work(1, 1000), busy_work(1, 1001));
    }

    #[test]
    fn payload_matches_its_fold_shortcut() {
        let bytes = edge_payload(42, 7, 129);
        assert_eq!(bytes.len(), 129);
        assert_eq!(fnv1a(FNV1A_OFFSET, &bytes), contrib_from_value(42, 7, 129));
        // Zero-length edges still contribute the FNV offset basis.
        assert_eq!(contrib_from_value(42, 7, 0), FNV1A_OFFSET);
    }

    #[test]
    fn payloads_differ_across_edges_and_values() {
        assert_ne!(edge_payload(1, 7, 32), edge_payload(2, 7, 32));
        assert_ne!(edge_payload(1, 7, 32), edge_payload(1, 8, 32));
    }

    #[test]
    fn node_value_is_order_sensitive_in_contribs() {
        // Executors agree on pred order (ascending src id), so the fold
        // may be order-sensitive; assert it actually is, as a guard
        // against executors accidentally relying on commutativity.
        let a = node_value(9, 10, [1, 2]);
        let b = node_value(9, 10, [2, 1]);
        assert_ne!(a, b);
    }
}
