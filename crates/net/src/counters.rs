//! The `/parcels/*` performance-counter family.
//!
//! Mirrors HPX's parcel-layer counters under the same naming scheme the
//! rest of the project uses, instanced per locality:
//!
//! ```text
//! /parcels{locality#N/total}/count/sent
//! /parcels{locality#N/total}/count/received
//! /parcels{locality#N/total}/count/dropped
//! /parcels{locality#N/total}/count/duplicated
//! /parcels{locality#N/total}/count/deduped
//! /parcels{locality#N/total}/calls/issued
//! /parcels{locality#N/total}/calls/settled
//! /parcels{locality#N/total}/bytes/sent
//! /parcels{locality#N/total}/bytes/received
//! /parcels{locality#N/total}/time/average-serialization
//! /parcels{locality#N/total}/queue-length
//! ```
//!
//! Only parcels proper — `Call` and `Reply` frames — are counted;
//! handshake/teardown control frames are invisible here. That makes the
//! balance invariant exact at quiescence: summed across all localities,
//! `count/sent == count/received` once every outstanding call has
//! settled.
//!
//! Under chaos the clean identity generalizes to the conservation
//! ledger `sent == received + dropped + in_flight_at_sever` (the
//! fabric's terminal buckets absorb what never arrives), with
//! `duplicated`/`deduped` balancing each other: every extra copy the
//! network manufactures is suppressed by the receiver's dedup window
//! *before* `received` is bumped, so the clean books stay exact.
//! `calls/issued` vs `calls/settled` is the exactly-once surface: at
//! quiescence they must be equal — every `async_remote` future settled,
//! none twice (a double settle panics the promise).
//!
//! `sent`/`bytes/sent` are bumped by the link writer thread at the moment
//! of delivery; `received`/`bytes/received` by the owning locality when
//! it dispatches an inbound parcel. `time/average-serialization` is
//! argument+frame encode time per sent parcel, in nanoseconds.
//! `queue-length` is a live view of frames waiting in this locality's
//! outbound send queues.

use grain_counters::registry::RawView;
use grain_counters::{
    CounterPath, DerivedCounter, RawCounter, Registry, RegistryError, ScopedRegistry, Unit,
};
use std::sync::Arc;

/// Raw event counters for one locality's parcel traffic. Shared between
/// the locality, its links (writer threads bump `sent`), and the derived
/// registry views.
#[derive(Default)]
pub struct ParcelCounters {
    /// Parcels (Call/Reply frames) delivered to a peer.
    pub sent: Arc<RawCounter>,
    /// Parcels dispatched from a peer.
    pub received: Arc<RawCounter>,
    /// Parcels this side lost before delivery: backpressure severs and
    /// chaos/tail drops reported by a simulated transport.
    pub dropped: Arc<RawCounter>,
    /// Extra parcel copies a chaotic transport manufactured on send.
    pub duplicated: Arc<RawCounter>,
    /// Inbound parcels suppressed as duplicates (seen `Call` seq, or a
    /// `Reply` whose call already settled).
    pub deduped: Arc<RawCounter>,
    /// Remote calls issued by this locality (pending entries created).
    pub calls_issued: Arc<RawCounter>,
    /// Remote calls settled (pending entries removed + settled) — must
    /// equal `calls_issued` at quiescence: exactly-once, counted.
    pub calls_settled: Arc<RawCounter>,
    /// Encoded bytes of sent parcels.
    pub bytes_sent: Arc<RawCounter>,
    /// Encoded bytes of received parcels.
    pub bytes_received: Arc<RawCounter>,
    /// Nanoseconds spent serializing outbound call arguments and frames.
    pub ser_ns: Arc<RawCounter>,
    /// Number of serialization samples behind `ser_ns`.
    pub ser_samples: Arc<RawCounter>,
}

impl ParcelCounters {
    /// Register the family under `/parcels{locality#N/total}/…` in
    /// `registry`, through the returned scope: dropping it retires the
    /// family. `queue_len` is sampled live for the `queue-length` counter
    /// (sum of this locality's outbound send-queue depths).
    pub fn register(
        &self,
        registry: &Arc<Registry>,
        locality: usize,
        queue_len: impl Fn() -> f64 + Send + Sync + 'static,
    ) -> Result<ScopedRegistry, RegistryError> {
        let scope = registry.scope("parcels", Some(&CounterPath::total_instance_for(locality)));
        let raws: [(&str, &Arc<RawCounter>, Unit); 9] = [
            ("count/sent", &self.sent, Unit::Count),
            ("count/received", &self.received, Unit::Count),
            ("count/dropped", &self.dropped, Unit::Count),
            ("count/duplicated", &self.duplicated, Unit::Count),
            ("count/deduped", &self.deduped, Unit::Count),
            ("calls/issued", &self.calls_issued, Unit::Count),
            ("calls/settled", &self.calls_settled, Unit::Count),
            ("bytes/sent", &self.bytes_sent, Unit::Bytes),
            ("bytes/received", &self.bytes_received, Unit::Bytes),
        ];
        for (name, raw, unit) in raws {
            scope.register(name, RawView::new(Arc::clone(raw), unit))?;
        }
        let ns = Arc::clone(&self.ser_ns);
        let samples = Arc::clone(&self.ser_samples);
        scope.register(
            "time/average-serialization",
            DerivedCounter::new(Unit::Nanoseconds, move || {
                let n = samples.get();
                if n == 0 {
                    0.0
                } else {
                    ns.get() as f64 / n as f64
                }
            }),
        )?;
        scope.register("queue-length", DerivedCounter::new(Unit::Count, queue_len))?;
        Ok(scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_registers_and_reads_back() {
        let c = ParcelCounters::default();
        let reg = Arc::new(Registry::new());
        let scope = c.register(&reg, 3, || 2.0).expect("register");

        c.sent.add(5);
        c.bytes_sent.add(100);
        c.ser_ns.add(500);
        c.ser_samples.add(5);
        c.dropped.add(2);
        c.deduped.add(1);
        c.calls_issued.add(4);
        c.calls_settled.add(4);

        let t = "locality#3/total";
        let v = reg
            .query(&format!("/parcels{{{t}}}/count/sent"))
            .expect("sent");
        assert_eq!(v.value, 5.0);
        let v = reg
            .query(&format!("/parcels{{{t}}}/bytes/sent"))
            .expect("bytes");
        assert_eq!(v.value, 100.0);
        let v = reg
            .query(&format!("/parcels{{{t}}}/time/average-serialization"))
            .expect("avg ser");
        assert_eq!(v.value, 100.0);
        let v = reg
            .query(&format!("/parcels{{{t}}}/queue-length"))
            .expect("queue");
        assert_eq!(v.value, 2.0);
        let v = reg
            .query(&format!("/parcels{{{t}}}/count/dropped"))
            .expect("dropped");
        assert_eq!(v.value, 2.0);
        let v = reg
            .query(&format!("/parcels{{{t}}}/count/deduped"))
            .expect("deduped");
        assert_eq!(v.value, 1.0);
        let v = reg
            .query(&format!("/parcels{{{t}}}/calls/settled"))
            .expect("settled");
        assert_eq!(v.value, 4.0);
        // Locality-0 instance must NOT exist: paths are per locality.
        assert!(reg.query("/parcels{locality#0/total}/count/sent").is_err());
        assert_eq!(reg.len(), 11);
        drop(scope);
        assert!(reg.is_empty(), "dropping the scope retires the family");
    }

    #[test]
    fn average_serialization_is_zero_with_no_samples() {
        let c = ParcelCounters::default();
        let reg = Arc::new(Registry::new());
        let _scope = c.register(&reg, 0, || 0.0).expect("register");
        let v = reg
            .query("/parcels{locality#0/total}/time/average-serialization")
            .expect("avg");
        assert_eq!(v.value, 0.0);
    }
}
