//! Seeded network-chaos plans: per-frame verdicts for the simulated
//! fabric.
//!
//! A [`NetPlan`] is to the network what a
//! [`StormPlan`](crate::storm::StormPlan) is to the service: a pure,
//! deterministic *description* of misbehaviour. The fabric
//! ([`crate::fabric::NetFabric`]) consults it once per injected parcel
//! and gets back a [`FrameFate`]: drop it, duplicate it, delay it,
//! push it back inside a reorder window — all decided by a PCG32 stream
//! derived from the frame's *identity*, never from arrival order.
//!
//! ## Why identity-keyed verdicts
//!
//! Real threads race: two localities' writer threads reach the fabric
//! in nondeterministic order. If verdicts were drawn from one shared
//! stream (or from per-link frame indices), a replay would hand
//! different frames different fates depending on that race. Keying the
//! stream on `(plan seed, src, dst, frame identity)` makes the fate a
//! pure function of *which frame this is*: a `Call` is identified by
//! `(origin, call_id)`, a `Reply` by `(destination, call_id)`, both
//! deterministic because call ids are assigned in program order on the
//! issuing locality. Equal seeds therefore yield equal chaos no matter
//! how the threads interleave.
//!
//! ## Stream-space split (satellite contract with `storm.rs`)
//!
//! [`crate::storm::StormPlan::generate`] seeds tenant `idx`'s stream as
//! `seed ^ (0x9e37_79b9_7f4a_7c15 · (idx + 1))` — a *multiplicative*
//! family over small indices. NetPlan streams are seeded as
//! `splitmix64(seed ^ NET_STREAM_SALT ^ pair ^ id)`: the
//! [`NET_STREAM_SALT`] constant plus a full `splitmix64` finalizer puts
//! them in a disjoint region of the 2⁶⁴ seed space, so attaching
//! network chaos to an existing storm consumes **no randomness** from
//! any tenant stream. The tenant side of the contract is frozen by the
//! `recorded_storm_seed_is_bit_identical` regression in
//! [`crate::storm`], a fingerprint of the plan a recorded seed produced
//! when the split was established.

use grain_counters::rng::{fnv1a, splitmix64, Pcg32, FNV1A_OFFSET};

/// Salt folded into every NetPlan stream seed, separating network
/// chaos from the storm tenants' multiplicative seed family.
const NET_STREAM_SALT: u64 = 0x6e65_7463_6861_6f73; // "netchaos"

/// Identity kind of a `Call` frame (keyed by origin locality).
pub const FRAME_KIND_CALL: u64 = 1;
/// Identity kind of a `Reply` frame (keyed by destination locality).
pub const FRAME_KIND_REPLY: u64 = 2;

/// Stable identity of a parcel frame, independent of delivery order:
/// `kind` is [`FRAME_KIND_CALL`] or [`FRAME_KIND_REPLY`], `who` the
/// locality that owns the `call_id` namespace (the call's origin; a
/// reply's destination), `call_id` the correlation id itself.
pub fn frame_id(kind: u64, who: u64, call_id: u64) -> u64 {
    splitmix64(kind ^ splitmix64(who ^ splitmix64(call_id)))
}

/// How a partitioned pair treats frames that reach the cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// Frames are parked and flushed (with fresh latency) on heal —
    /// a transient routing outage.
    Hold,
    /// Frames are silently destroyed — a blackhole. Control frames die
    /// too, so liveness monitors can detect the cut.
    Drop,
}

/// A timed partition between localities `a` and `b` (both directions),
/// active on the virtual clock during `[start_ns, end_ns)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One side of the cut.
    pub a: usize,
    /// The other side.
    pub b: usize,
    /// Virtual time the partition opens, in nanoseconds.
    pub start_ns: u64,
    /// Virtual time it heals, in nanoseconds.
    pub end_ns: u64,
    /// What happens to frames that reach the cut.
    pub mode: PartitionMode,
}

/// The chaos verdict class for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver one copy.
    Deliver,
    /// Destroy the frame (counted as a chaos drop).
    Drop,
    /// Deliver two copies (the receiver's dedup window must suppress
    /// the second).
    Duplicate,
}

/// Everything the fabric needs to schedule one frame: the verdict plus
/// the delay draws for the primary copy and (if duplicated) the echo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameFate {
    /// Drop / deliver / duplicate.
    pub verdict: Verdict,
    /// Uniform latency jitter of the primary copy, in ns.
    pub jitter_ns: u64,
    /// Extra reorder push-back of the primary copy, in ns (0 when the
    /// frame was not selected for reordering).
    pub extra_ns: u64,
    /// Jitter of the duplicate copy.
    pub dup_jitter_ns: u64,
    /// Reorder push-back of the duplicate copy.
    pub dup_extra_ns: u64,
}

/// A deterministic, seeded description of network misbehaviour.
///
/// All probabilities are independent per frame; `drop_p + dup_p` must
/// stay ≤ 1 (they partition one uniform draw). A default-constructed
/// plan ([`NetPlan::clean`]) delivers everything with a fixed base
/// latency — the simulated fabric then behaves like a slow, reliable
/// loopback.
#[derive(Debug, Clone)]
pub struct NetPlan {
    /// Master seed; equal seeds give bit-identical chaos.
    pub seed: u64,
    /// Probability a parcel is destroyed in flight.
    drop_p: f64,
    /// Probability a parcel is delivered twice.
    dup_p: f64,
    /// Probability a parcel is pushed back by up to
    /// `reorder_window_ns`, letting later frames overtake it.
    reorder_p: f64,
    /// Maximum reorder push-back, in ns.
    reorder_window_ns: u64,
    /// Base one-way latency of every link, in ns.
    pub base_latency_ns: u64,
    /// Maximum uniform latency jitter, in ns.
    pub jitter_ns: u64,
    /// Link bandwidth in bytes per virtual second; `None` = infinite
    /// (no serialization delay).
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Per-directed-link in-flight frame cap; submissions beyond it are
    /// tail-dropped. `None` = unbounded.
    pub link_queue_cap: Option<usize>,
    /// Timed partition windows (virtual clock). Only meaningful when
    /// the fabric runs paced; manual partitions work in any mode.
    pub partitions: Vec<PartitionWindow>,
}

impl NetPlan {
    /// A lossless plan: fixed 10 µs base latency, nothing else.
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_window_ns: 0,
            base_latency_ns: 10_000,
            jitter_ns: 0,
            bandwidth_bytes_per_sec: None,
            link_queue_cap: None,
            partitions: Vec::new(),
        }
    }

    /// Set the chaos drop probability.
    pub fn drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Set the duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Set the reorder probability and window.
    pub fn reorder(mut self, p: f64, window_ns: u64) -> Self {
        self.reorder_p = p;
        self.reorder_window_ns = window_ns;
        self
    }

    /// Set base latency and jitter bound.
    pub fn latency(mut self, base_ns: u64, jitter_ns: u64) -> Self {
        self.base_latency_ns = base_ns;
        self.jitter_ns = jitter_ns;
        self
    }

    /// Bound the per-directed-link in-flight frame count.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.link_queue_cap = Some(cap);
        self
    }

    /// Add a timed partition window.
    pub fn partition(mut self, w: PartitionWindow) -> Self {
        self.partitions.push(w);
        self
    }

    /// The PCG stream deciding frame `id`'s fate on link `src → dst`.
    /// See the module docs for the seed-space split contract.
    fn stream(&self, src: usize, dst: usize, id: u64) -> Pcg32 {
        let pair = splitmix64((src as u64) << 32 | (dst as u64 & 0xffff_ffff));
        Pcg32::seed_from_u64(splitmix64(self.seed ^ NET_STREAM_SALT ^ pair ^ id))
    }

    /// Decide the fate of frame `id` on link `src → dst`. A pure
    /// function of `(self.seed, src, dst, id)`: the same frame gets the
    /// same fate on every replay regardless of thread interleaving,
    /// because each frame owns a whole stream — no draw in one frame's
    /// fate can shift another frame's.
    pub fn fate(&self, src: usize, dst: usize, id: u64) -> FrameFate {
        let mut rng = self.stream(src, dst, id);
        let u = rng.next_f64();
        let verdict = if u < self.drop_p {
            Verdict::Drop
        } else if u < self.drop_p + self.dup_p {
            Verdict::Duplicate
        } else {
            Verdict::Deliver
        };
        let draw_delay = |rng: &mut Pcg32| {
            let jitter = if self.jitter_ns > 0 {
                rng.range_u64(self.jitter_ns + 1)
            } else {
                0
            };
            let reordered = rng.next_f64() < self.reorder_p;
            let extra = if reordered && self.reorder_window_ns > 0 {
                rng.range_u64(self.reorder_window_ns + 1)
            } else {
                0
            };
            (jitter, extra)
        };
        let (jitter_ns, extra_ns) = draw_delay(&mut rng);
        let (dup_jitter_ns, dup_extra_ns) = draw_delay(&mut rng);
        FrameFate {
            verdict,
            jitter_ns,
            extra_ns,
            dup_jitter_ns,
            dup_extra_ns,
        }
    }

    /// A stable 64-bit digest of the *whole* plan — seed and every
    /// chaos knob, including partition windows. Two plans with equal
    /// fingerprints produce identical fabric weather; bench snapshots
    /// record it (alongside the bare seed) so result rows stay joinable
    /// to the exact plan they ran under even when the plan's shape
    /// changes between runs with the same seed. FNV-1a over a canonical
    /// field serialization; floats contribute their IEEE bit patterns.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        let mut eat = |v: u64| h = fnv1a(h, &v.to_le_bytes());
        eat(self.seed);
        eat(self.drop_p.to_bits());
        eat(self.dup_p.to_bits());
        eat(self.reorder_p.to_bits());
        eat(self.reorder_window_ns);
        eat(self.base_latency_ns);
        eat(self.jitter_ns);
        eat(self.bandwidth_bytes_per_sec.map_or(0, |b| b ^ 1));
        eat(self.link_queue_cap.map_or(0, |c| c as u64 ^ 1));
        eat(self.partitions.len() as u64);
        for w in &self.partitions {
            eat(w.a as u64);
            eat(w.b as u64);
            eat(w.start_ns);
            eat(w.end_ns);
            eat(match w.mode {
                PartitionMode::Drop => 0,
                PartitionMode::Hold => 1,
            });
        }
        h
    }

    /// Jitter applied when a frame parked by a [`PartitionMode::Hold`]
    /// window is flushed at heal time. A distinct derivation (the id is
    /// re-mixed with a flush salt) so the flush delay is independent of
    /// the original fate draws but still replay-stable.
    pub fn flush_jitter_ns(&self, src: usize, dst: usize, id: u64) -> u64 {
        if self.jitter_ns == 0 {
            return 0;
        }
        let mut rng = self.stream(src, dst, splitmix64(id ^ 0x0066_6c75_7368)); // "flush"
        rng.range_u64(self.jitter_ns + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> NetPlan {
        NetPlan::clean(42)
            .drop(0.2)
            .duplicate(0.2)
            .reorder(0.5, 50_000)
            .latency(10_000, 20_000)
    }

    #[test]
    fn fingerprint_is_stable_and_knob_sensitive() {
        let a = chaotic();
        assert_eq!(a.fingerprint(), chaotic().fingerprint());
        // Every knob must move the digest: same seed, different weather
        // must stay distinguishable in recorded bench rows.
        assert_ne!(a.fingerprint(), NetPlan::clean(42).fingerprint());
        assert_ne!(a.fingerprint(), chaotic().drop(0.3).fingerprint());
        let throttled = NetPlan {
            bandwidth_bytes_per_sec: Some(1 << 20),
            ..chaotic()
        };
        assert_ne!(a.fingerprint(), throttled.fingerprint());
        assert_ne!(a.fingerprint(), chaotic().queue_cap(8).fingerprint());
        let parted = chaotic().partition(PartitionWindow {
            a: 0,
            b: 1,
            start_ns: 5,
            end_ns: 10,
            mode: PartitionMode::Hold,
        });
        assert_ne!(a.fingerprint(), parted.fingerprint());
        let dropped = chaotic().partition(PartitionWindow {
            a: 0,
            b: 1,
            start_ns: 5,
            end_ns: 10,
            mode: PartitionMode::Drop,
        });
        assert_ne!(parted.fingerprint(), dropped.fingerprint());
        // A seed change alone also moves it.
        let reseeded = NetPlan {
            seed: 43,
            ..chaotic()
        };
        assert_ne!(a.fingerprint(), reseeded.fingerprint());
    }

    #[test]
    fn recorded_plan_fingerprint_is_bit_identical() {
        // The digest of one fixture, recorded: a change to the fold or
        // to the canonical field order moves it.
        let plan = chaotic().partition(PartitionWindow {
            a: 0,
            b: 2,
            start_ns: 5,
            end_ns: 10,
            mode: PartitionMode::Hold,
        });
        assert_eq!(plan.fingerprint(), 0x3676_7AE7_2FCA_7CB1);
    }

    #[test]
    fn fates_are_deterministic_in_identity() {
        let plan = chaotic();
        for id in 0..100u64 {
            let fid = frame_id(FRAME_KIND_CALL, 3, id);
            assert_eq!(plan.fate(0, 1, fid), plan.fate(0, 1, fid));
        }
    }

    #[test]
    fn fates_differ_across_identities_and_links() {
        let plan = chaotic();
        let fates: Vec<FrameFate> = (0..64)
            .map(|i| plan.fate(0, 1, frame_id(FRAME_KIND_CALL, 0, i)))
            .collect();
        assert!(
            fates.windows(2).any(|w| w[0] != w[1]),
            "64 frames with identical fates"
        );
        // Same call id, different namespace kinds → different identity.
        assert_ne!(
            frame_id(FRAME_KIND_CALL, 0, 1),
            frame_id(FRAME_KIND_REPLY, 0, 1)
        );
        // Same identity on different links draws independently.
        assert!(
            (0..64).any(|i| {
                let fid = frame_id(FRAME_KIND_CALL, 0, i);
                plan.fate(0, 1, fid) != plan.fate(1, 0, fid)
            }),
            "links share a stream"
        );
    }

    #[test]
    fn verdict_probabilities_are_respected_in_aggregate() {
        let plan = NetPlan::clean(7).drop(0.3).duplicate(0.2);
        let n = 4000;
        let (mut drops, mut dups) = (0, 0);
        for i in 0..n {
            match plan.fate(0, 1, frame_id(FRAME_KIND_CALL, 0, i)).verdict {
                Verdict::Drop => drops += 1,
                Verdict::Duplicate => dups += 1,
                Verdict::Deliver => {}
            }
        }
        let drop_rate = drops as f64 / n as f64;
        let dup_rate = dups as f64 / n as f64;
        assert!((0.25..0.35).contains(&drop_rate), "drop rate {drop_rate}");
        assert!((0.15..0.25).contains(&dup_rate), "dup rate {dup_rate}");
    }

    #[test]
    fn certain_drop_drops_everything_and_clean_drops_nothing() {
        let all = NetPlan::clean(1).drop(1.0);
        let none = NetPlan::clean(1);
        for i in 0..100 {
            let fid = frame_id(FRAME_KIND_REPLY, 2, i);
            assert_eq!(all.fate(0, 1, fid).verdict, Verdict::Drop);
            assert_eq!(none.fate(0, 1, fid).verdict, Verdict::Deliver);
        }
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let plan = chaotic();
        for i in 0..200 {
            let f = plan.fate(0, 1, frame_id(FRAME_KIND_CALL, 0, i));
            assert!(f.jitter_ns <= plan.jitter_ns);
            assert!(f.extra_ns <= plan.reorder_window_ns);
            assert!(plan.flush_jitter_ns(0, 1, i) <= plan.jitter_ns);
        }
    }
}
