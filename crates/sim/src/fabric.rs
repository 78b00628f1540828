//! The simulated network fabric: an event-driven link layer under the
//! parcelport.
//!
//! A [`NetFabric`] owns an explicit **virtual clock** (nanoseconds, only
//! ever advanced to the timestamp of the event being processed) and a
//! single binary heap of pending events, drained by one pump thread.
//! Localities inject encoded frames through [`NetFabric::submit`]; the
//! fabric consults its [`NetPlan`] for the frame's fate (drop,
//! duplicate, delay, reorder), models per-directed-link bandwidth and
//! queue caps, applies partitions, and finally hands surviving frames
//! to the destination's registered sink — the same
//! `(sender, bytes)`-shaped callback the real parcelport feeds.
//!
//! ## Ledger discipline
//!
//! Every injected **parcel** ends in exactly one terminal bucket, so at
//! quiescence the books must balance:
//!
//! ```text
//! injected + duplicated ==
//!     delivered + dropped_chaos + tail_dropped + blackholed + severed
//! ```
//!
//! (`duplicated` counts the *extra* copies the fabric manufactures;
//! `severed` counts frames destroyed because their pair was severed —
//! the fabric-side twin of the locality books' `in_flight_at_sever`.)
//! Control frames (handshake, liveness pings) ride reliably — no chaos
//! verdicts — but still respect partitions and severs; they are
//! tracked by their own two counters and never enter the parcel
//! ledger, mirroring the `/parcels/*` counting discipline.
//!
//! ## Partitions
//!
//! A partition between `a` and `b` cuts both directions. In
//! [`PartitionMode::Hold`] parcels reaching the cut are parked and
//! flushed (with fresh latency) on heal; in [`PartitionMode::Drop`]
//! they are destroyed (`blackholed`). Control frames are always
//! destroyed at a cut — that is what lets a liveness monitor on either
//! side detect the blackhole. Partitions apply at *delivery* time, so
//! frames already in flight when the window opens are caught by it,
//! exactly like a cable pulled mid-transfer.
//!
//! ## Virtual time
//!
//! The pump is free-running: events are processed as fast as the host
//! allows and the virtual clock jumps event-to-event (hours of
//! simulated traffic in milliseconds).

use crate::netplan::{NetPlan, PartitionMode, Verdict};
use grain_counters::registry::RawView;
use grain_counters::sync::{deadline_after, AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
use grain_counters::{DerivedCounter, RawCounter, Registry, RegistryError, ScopedRegistry, Unit};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Destination callback: `(sender locality, frame bytes)` — the same
/// shape as the parcelport's `FrameHandler`.
pub type SimSink = Arc<dyn Fn(usize, Vec<u8>) + Send + Sync>;

/// Fixed one-way latency of control frames, in virtual ns. Control
/// traffic is not subject to chaos verdicts, bandwidth, or queue caps.
const CONTROL_LATENCY_NS: u64 = 1_000;

/// How the fabric classifies one submitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFrameClass {
    /// A `Call`/`Reply` parcel with its replay-stable identity (see
    /// [`crate::netplan::frame_id`]); subject to every chaos verdict
    /// and tracked by the parcel ledger.
    Parcel {
        /// Identity-derived key feeding the verdict stream.
        id: u64,
    },
    /// Handshake / teardown / liveness traffic: delivered reliably
    /// (except across partitions and severs), outside the ledger.
    Control,
}

/// What [`NetFabric::submit`] did with the frame — the sender-side
/// counters (`/parcels/count/dropped|duplicated`) are bumped from this.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOutcome {
    /// The frame was destroyed immediately (chaos drop, tail drop, or
    /// severed pair) and will never reach the destination.
    pub dropped: bool,
    /// A second copy was scheduled.
    pub duplicated: bool,
}

/// Immutable snapshot of the fabric's parcel ledger plus transient
/// gauges. See the module docs for the conservation identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerSnapshot {
    /// Parcels submitted by senders.
    pub injected: u64,
    /// Extra copies manufactured by duplication verdicts.
    pub duplicated: u64,
    /// Parcels handed to a destination sink.
    pub delivered: u64,
    /// Parcels destroyed by a drop verdict.
    pub dropped_chaos: u64,
    /// Parcels destroyed by a full link queue.
    tail_dropped: u64,
    /// Parcels destroyed at a [`PartitionMode::Drop`] cut.
    blackholed: u64,
    /// Parcels destroyed because their pair was severed while they
    /// were in flight (the fabric's `in_flight_at_sever`).
    pub severed: u64,
    /// Partition windows opened so far.
    pub partitions_opened: u64,
    /// Partition windows healed so far.
    pub partitions_healed: u64,
    /// Parcels currently scheduled in the event heap (gauge).
    pub in_flight: u64,
    /// Parcels currently parked at a Hold cut (gauge).
    pub held: u64,
}

impl LedgerSnapshot {
    /// True when every injected parcel is accounted for in exactly one
    /// terminal bucket — only meaningful at quiescence (`in_flight`
    /// and `held` both zero).
    pub fn conserved(&self) -> bool {
        self.in_flight == 0
            && self.held == 0
            && self.injected + self.duplicated
                == self.delivered
                    + self.dropped_chaos
                    + self.tail_dropped
                    + self.blackholed
                    + self.severed
    }
}

/// Shared raw counters behind the snapshot.
struct Ledger {
    injected: Arc<RawCounter>,
    duplicated: Arc<RawCounter>,
    delivered: Arc<RawCounter>,
    dropped_chaos: Arc<RawCounter>,
    tail_dropped: Arc<RawCounter>,
    blackholed: Arc<RawCounter>,
    severed: Arc<RawCounter>,
    control_delivered: Arc<RawCounter>,
    control_dropped: Arc<RawCounter>,
    partitions_opened: Arc<RawCounter>,
    partitions_healed: Arc<RawCounter>,
}

impl Ledger {
    fn new() -> Self {
        Self {
            injected: Arc::new(RawCounter::new()),
            duplicated: Arc::new(RawCounter::new()),
            delivered: Arc::new(RawCounter::new()),
            dropped_chaos: Arc::new(RawCounter::new()),
            tail_dropped: Arc::new(RawCounter::new()),
            blackholed: Arc::new(RawCounter::new()),
            severed: Arc::new(RawCounter::new()),
            control_delivered: Arc::new(RawCounter::new()),
            control_dropped: Arc::new(RawCounter::new()),
            partitions_opened: Arc::new(RawCounter::new()),
            partitions_healed: Arc::new(RawCounter::new()),
        }
    }
}

/// One frame in flight (or parked at a Hold cut).
struct FlightFrame {
    src: usize,
    dst: usize,
    bytes: Vec<u8>,
    parcel: bool,
}

enum EventKind {
    Deliver(FlightFrame),
    PartitionStart {
        a: usize,
        b: usize,
        mode: PartitionMode,
    },
    PartitionEnd {
        a: usize,
        b: usize,
    },
}

struct Event {
    at_ns: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at_ns == other.at_ns && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ties broken by submission sequence: FIFO among equal stamps.
        (self.at_ns, self.seq).cmp(&(other.at_ns, other.seq))
    }
}

/// Per-directed-pair link state.
#[derive(Default)]
struct PairState {
    severed: bool,
    /// Virtual time the link's serializer is busy until (bandwidth).
    next_free_ns: u64,
    /// Parcels of this pair currently in the event heap.
    in_heap: usize,
    /// Parcels parked by an active Hold partition, in arrival order.
    held: Vec<FlightFrame>,
}

struct FabricState {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    sinks: HashMap<usize, SimSink>,
    pairs: HashMap<(usize, usize), PairState>,
    /// Active partitions, keyed by normalized `(min, max)` pair.
    partitions: HashMap<(usize, usize), PartitionMode>,
    /// Parcels currently in the heap, across all pairs (gauge).
    parcels_in_heap: u64,
    /// Parcels currently held, across all pairs (gauge).
    parcels_held: u64,
    paused: bool,
    /// An event is being processed outside the lock right now.
    processing: bool,
    stopped: bool,
}

/// The simulated network fabric. See the module docs.
pub struct NetFabric {
    plan: NetPlan,
    state: Mutex<FabricState>,
    /// Pump wake-ups (new events, resume, stop).
    wake: Condvar,
    /// Quiescence waiters (heap drained).
    idle: Condvar,
    ledger: Ledger,
    clock_ns: AtomicU64,
    stopped: AtomicBool,
}

impl NetFabric {
    /// Build a fabric for `plan` and start its pump thread. Timed
    /// partition windows in the plan are pre-scheduled.
    pub fn new(plan: NetPlan) -> Arc<Self> {
        let mut heap = BinaryHeap::new();
        let mut next_seq = 0u64;
        for w in &plan.partitions {
            heap.push(Reverse(Event {
                at_ns: w.start_ns,
                seq: next_seq,
                kind: EventKind::PartitionStart {
                    a: w.a,
                    b: w.b,
                    mode: w.mode,
                },
            }));
            next_seq += 1;
            heap.push(Reverse(Event {
                at_ns: w.end_ns,
                seq: next_seq,
                kind: EventKind::PartitionEnd { a: w.a, b: w.b },
            }));
            next_seq += 1;
        }
        let fabric = Arc::new(Self {
            plan,
            state: Mutex::new(FabricState {
                heap,
                next_seq,
                sinks: HashMap::new(),
                pairs: HashMap::new(),
                partitions: HashMap::new(),
                parcels_in_heap: 0,
                parcels_held: 0,
                paused: false,
                processing: false,
                stopped: false,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            ledger: Ledger::new(),
            clock_ns: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
        });
        {
            let fabric = Arc::clone(&fabric);
            grain_counters::sync::spawn("grain-sim-fabric", move || fabric.pump())
                .expect("failed to spawn fabric pump thread");
        }
        fabric
    }

    /// The plan this fabric executes.
    pub fn plan(&self) -> &NetPlan {
        &self.plan
    }

    /// Current virtual time, ns.
    fn now_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Acquire)
    }

    /// Register (or replace) the delivery sink of locality `dst`.
    pub fn register_sink(&self, dst: usize, sink: SimSink) {
        self.state.lock().sinks.insert(dst, sink);
    }

    /// Inject one encoded frame onto the directed link `src → dst`.
    /// Never blocks on network progress: verdicts and scheduling happen
    /// inline, delivery happens on the pump thread.
    pub fn submit(
        &self,
        src: usize,
        dst: usize,
        bytes: Vec<u8>,
        class: SimFrameClass,
    ) -> SubmitOutcome {
        let mut outcome = SubmitOutcome::default();
        let now = self.now_ns();
        let mut st = self.state.lock();
        let severed = st.stopped || st.pairs.get(&(src, dst)).is_some_and(|p| p.severed);
        match class {
            SimFrameClass::Control => {
                if severed {
                    self.ledger.control_dropped.incr();
                    outcome.dropped = true;
                    return outcome;
                }
                let at_ns = now + CONTROL_LATENCY_NS;
                self.schedule_frame(&mut st, src, dst, bytes, false, at_ns);
            }
            SimFrameClass::Parcel { id } => {
                self.ledger.injected.incr();
                if severed {
                    self.ledger.severed.incr();
                    outcome.dropped = true;
                    return outcome;
                }
                let fate = self.plan.fate(src, dst, id);
                if fate.verdict == Verdict::Drop {
                    self.ledger.dropped_chaos.incr();
                    outcome.dropped = true;
                    return outcome;
                }
                if let Some(cap) = self.plan.link_queue_cap {
                    let in_heap = st.pairs.get(&(src, dst)).map_or(0, |p| p.in_heap);
                    if in_heap >= cap {
                        self.ledger.tail_dropped.incr();
                        outcome.dropped = true;
                        return outcome;
                    }
                }
                // Bandwidth: the link serializes one frame at a time.
                let pair = st.pairs.entry((src, dst)).or_default();
                let tx_ns = |n: usize| match self.plan.bandwidth_bytes_per_sec {
                    Some(bps) if bps > 0 => (n as u128 * 1_000_000_000 / bps as u128) as u64,
                    _ => 0,
                };
                let start = now.max(pair.next_free_ns);
                pair.next_free_ns = start + tx_ns(bytes.len());
                let sent_at = pair.next_free_ns;
                let arrive = sent_at + self.plan.base_latency_ns + fate.jitter_ns + fate.extra_ns;
                if fate.verdict == Verdict::Duplicate {
                    // The echo reserves its own slot right behind the
                    // original, then takes its own delay draws.
                    let dup_len = bytes.len();
                    self.schedule_frame(&mut st, src, dst, bytes.clone(), true, arrive);
                    let pair = st.pairs.entry((src, dst)).or_default();
                    pair.next_free_ns += tx_ns(dup_len);
                    let dup_arrive = pair.next_free_ns
                        + self.plan.base_latency_ns
                        + fate.dup_jitter_ns
                        + fate.dup_extra_ns;
                    self.schedule_frame(&mut st, src, dst, bytes, true, dup_arrive);
                    self.ledger.duplicated.incr();
                    outcome.duplicated = true;
                } else {
                    self.schedule_frame(&mut st, src, dst, bytes, true, arrive);
                }
            }
        }
        self.wake.notify_all();
        outcome
    }

    fn schedule_frame(
        &self,
        st: &mut FabricState,
        src: usize,
        dst: usize,
        bytes: Vec<u8>,
        parcel: bool,
        at_ns: u64,
    ) {
        let seq = st.next_seq;
        st.next_seq += 1;
        if parcel {
            st.pairs.entry((src, dst)).or_default().in_heap += 1;
            st.parcels_in_heap += 1;
        }
        st.heap.push(Reverse(Event {
            at_ns,
            seq,
            kind: EventKind::Deliver(FlightFrame {
                src,
                dst,
                bytes,
                parcel,
            }),
        }));
    }

    /// Stop processing events (submissions still enqueue). Used by
    /// deterministic choreography: pause, inject a known set of frames,
    /// partition or kill, then [`NetFabric::resume`].
    pub fn pause(&self) {
        self.state.lock().paused = true;
    }

    /// Resume event processing after [`NetFabric::pause`].
    pub fn resume(&self) {
        self.state.lock().paused = false;
        self.wake.notify_all();
    }

    /// Open a partition between `a` and `b` right now (both
    /// directions). Idempotent while already cut.
    pub fn partition_now(&self, a: usize, b: usize, mode: PartitionMode) {
        let mut st = self.state.lock();
        self.open_partition(&mut st, a, b, mode);
    }

    /// Heal the `a`–`b` partition right now, flushing held frames with
    /// fresh latency. No-op if the pair is not cut.
    pub fn heal_now(&self, a: usize, b: usize) {
        let mut st = self.state.lock();
        self.close_partition(&mut st, a, b);
        self.wake.notify_all();
    }

    fn open_partition(&self, st: &mut FabricState, a: usize, b: usize, mode: PartitionMode) {
        let key = (a.min(b), a.max(b));
        if st.partitions.insert(key, mode).is_none() {
            self.ledger.partitions_opened.incr();
        }
    }

    fn close_partition(&self, st: &mut FabricState, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        if st.partitions.remove(&key).is_none() {
            return;
        }
        self.ledger.partitions_healed.incr();
        let now = self.now_ns();
        for (src, dst) in [(a, b), (b, a)] {
            let held = match st.pairs.get_mut(&(src, dst)) {
                Some(p) => std::mem::take(&mut p.held),
                None => continue,
            };
            for (i, f) in held.into_iter().enumerate() {
                st.parcels_held -= u64::from(f.parcel);
                let jitter = self
                    .plan
                    .flush_jitter_ns(src, dst, now ^ ((i as u64) << 20));
                let at_ns = now + self.plan.base_latency_ns + jitter;
                let parcel = f.parcel;
                self.schedule_frame(st, src, dst, f.bytes, parcel, at_ns);
            }
        }
    }

    /// Destroy the `src ↔ dst` pair in both directions: in-flight and
    /// held parcels are counted into the `severed` bucket as they
    /// surface, and all future submissions on the pair die instantly.
    /// This is what a [`crate::fabric`]-backed link calls from its
    /// sever path.
    pub fn sever_pair(&self, a: usize, b: usize) {
        let mut st = self.state.lock();
        for (src, dst) in [(a, b), (b, a)] {
            let pair = st.pairs.entry((src, dst)).or_default();
            if pair.severed {
                continue;
            }
            pair.severed = true;
            let held = std::mem::take(&mut pair.held);
            for f in held {
                st.parcels_held -= 1;
                debug_assert!(f.parcel, "held frames are always parcels");
                self.ledger.severed.incr();
            }
        }
    }

    /// Stop the pump thread and destroy remaining in-flight frames
    /// (counted as severed / control-dropped). Idempotent.
    pub fn stop(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut st = self.state.lock();
        st.stopped = true;
        let drained: Vec<Event> = std::mem::take(&mut st.heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        for ev in drained {
            if let EventKind::Deliver(f) = ev.kind {
                self.account_destroyed(&f, DestroyCause::Severed);
            }
        }
        st.parcels_in_heap = 0;
        let mut released_held = 0u64;
        for pair in st.pairs.values_mut() {
            pair.in_heap = 0;
            let held = std::mem::take(&mut pair.held);
            for f in held {
                released_held += u64::from(f.parcel);
                self.ledger.severed.incr();
            }
        }
        st.parcels_held -= released_held;
        self.wake.notify_all();
        self.idle.notify_all();
    }

    /// Block until the event heap is fully drained (nothing in flight,
    /// nothing mid-delivery) or `timeout` elapses. Returns `true` on
    /// quiescence. Held frames at an open Hold cut do **not** count as
    /// in flight — use [`NetFabric::wait_quiescent`] to also require
    /// them gone.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        self.wait_idle_where(timeout, |st| st.heap.is_empty() && !st.processing)
    }

    /// Block until nothing is in flight **and** nothing is held at a
    /// cut. Returns `false` on timeout.
    pub fn wait_quiescent(&self, timeout: Duration) -> bool {
        self.wait_idle_where(timeout, |st| {
            st.heap.is_empty() && !st.processing && st.parcels_held == 0
        })
    }

    /// A `timeout` that reaches past the clock's range is no deadline.
    fn wait_idle_where(&self, timeout: Duration, idle: impl Fn(&mut FabricState) -> bool) -> bool {
        let deadline = deadline_after(timeout);
        self.idle.wait_until(&mut self.state.lock(), deadline, idle)
    }

    /// Snapshot the ledger and gauges.
    pub fn ledger(&self) -> LedgerSnapshot {
        let (in_flight, held) = {
            let st = self.state.lock();
            (st.parcels_in_heap, st.parcels_held)
        };
        LedgerSnapshot {
            injected: self.ledger.injected.get(),
            duplicated: self.ledger.duplicated.get(),
            delivered: self.ledger.delivered.get(),
            dropped_chaos: self.ledger.dropped_chaos.get(),
            tail_dropped: self.ledger.tail_dropped.get(),
            blackholed: self.ledger.blackholed.get(),
            severed: self.ledger.severed.get(),
            partitions_opened: self.ledger.partitions_opened.get(),
            partitions_healed: self.ledger.partitions_healed.get(),
            in_flight,
            held,
        }
    }

    /// Register the `/net{fabric/total}/…` counter family in `registry`
    /// through the returned scope: whoever attaches the fabric holds it,
    /// and dropping it retires the family.
    pub fn register(
        self: &Arc<Self>,
        registry: &Arc<Registry>,
    ) -> Result<ScopedRegistry, RegistryError> {
        let scope = registry.scope("net", Some("fabric/total"));
        let raws: [(&str, &Arc<RawCounter>); 9] = [
            ("frames/injected", &self.ledger.injected),
            ("frames/duplicated", &self.ledger.duplicated),
            ("frames/delivered", &self.ledger.delivered),
            ("frames/dropped-chaos", &self.ledger.dropped_chaos),
            ("frames/tail-dropped", &self.ledger.tail_dropped),
            ("frames/blackholed", &self.ledger.blackholed),
            ("frames/in-flight-at-sever", &self.ledger.severed),
            ("partitions/opened", &self.ledger.partitions_opened),
            ("partitions/healed", &self.ledger.partitions_healed),
        ];
        for (name, ctr) in raws {
            scope.register(name, RawView::new(Arc::clone(ctr), Unit::Count))?;
        }
        let w = Arc::downgrade(self);
        scope.register(
            "frames/held",
            DerivedCounter::new(Unit::Count, move || {
                w.upgrade().map_or(0.0, |f| f.ledger().held as f64)
            }),
        )?;
        let w: Weak<Self> = Arc::downgrade(self);
        scope.register(
            "partitions/active",
            DerivedCounter::new(Unit::Count, move || {
                w.upgrade()
                    .map_or(0.0, |f| f.state.lock().partitions.len() as f64)
            }),
        )?;
        Ok(scope)
    }

    /// The pump: pop events in virtual-time order, advance the clock,
    /// apply partitions/severs at delivery time, call sinks outside the
    /// state lock (a delivery may re-enter `submit`).
    fn pump(self: Arc<Self>) {
        loop {
            // Phase 1: wait for, then claim, the next due event.
            let ev = {
                let mut st = self.state.lock();
                let asleep = |st: &mut FabricState| st.paused || st.heap.is_empty();
                if !st.stopped && asleep(&mut st) {
                    self.idle.notify_all();
                    // Unbounded: a pump with nothing to deliver sleeps
                    // until a submit, a resume or a stop notifies.
                    self.wake
                        .wait_until(&mut st, None, |st| st.stopped || !asleep(st));
                }
                if st.stopped {
                    self.idle.notify_all();
                    return;
                }
                let Reverse(ev) = st.heap.pop().expect("woken with an event due");
                if let EventKind::Deliver(f) = &ev.kind {
                    if f.parcel {
                        st.parcels_in_heap -= 1;
                        if let Some(p) = st.pairs.get_mut(&(f.src, f.dst)) {
                            p.in_heap -= 1;
                        }
                    }
                }
                st.processing = true;
                ev
            };
            // Phase 2: advance the virtual clock (monotonically — a
            // heal-flush may schedule below an older stamp).
            self.clock_ns.fetch_max(ev.at_ns, Ordering::AcqRel);

            // Phase 3: act.
            let mut delivery: Option<(SimSink, FlightFrame)> = None;
            {
                let mut st = self.state.lock();
                match ev.kind {
                    EventKind::PartitionStart { a, b, mode } => {
                        self.open_partition(&mut st, a, b, mode)
                    }
                    EventKind::PartitionEnd { a, b } => self.close_partition(&mut st, a, b),
                    EventKind::Deliver(f) => {
                        let severed = st.pairs.get(&(f.src, f.dst)).is_some_and(|p| p.severed);
                        let cut = st
                            .partitions
                            .get(&(f.src.min(f.dst), f.src.max(f.dst)))
                            .copied();
                        if severed {
                            self.account_destroyed(&f, DestroyCause::Severed);
                        } else if let Some(mode) = cut {
                            match (mode, f.parcel) {
                                (PartitionMode::Hold, true) => {
                                    st.parcels_held += 1;
                                    st.pairs.entry((f.src, f.dst)).or_default().held.push(f);
                                }
                                _ => self.account_destroyed(&f, DestroyCause::Blackholed),
                            }
                        } else {
                            match st.sinks.get(&f.dst) {
                                Some(sink) => delivery = Some((Arc::clone(sink), f)),
                                None => self.account_destroyed(&f, DestroyCause::Severed),
                            }
                        }
                    }
                }
            }
            if let Some((sink, f)) = delivery {
                if f.parcel {
                    self.ledger.delivered.incr();
                } else {
                    self.ledger.control_delivered.incr();
                }
                sink(f.src, f.bytes);
            }
            let mut st = self.state.lock();
            st.processing = false;
            if st.heap.is_empty() {
                self.idle.notify_all();
            }
        }
    }

    fn account_destroyed(&self, f: &FlightFrame, cause: DestroyCause) {
        if f.parcel {
            match cause {
                DestroyCause::Severed => self.ledger.severed.incr(),
                DestroyCause::Blackholed => self.ledger.blackholed.incr(),
            }
        } else {
            self.ledger.control_dropped.incr();
        }
    }
}

#[derive(Clone, Copy)]
enum DestroyCause {
    Severed,
    Blackholed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netplan::{frame_id, NetPlan, FRAME_KIND_CALL};
    use std::sync::mpsc;

    fn collector() -> (SimSink, mpsc::Receiver<(usize, Vec<u8>)>) {
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        (
            Arc::new(move |from, bytes| {
                let _ = tx.lock().send((from, bytes));
            }),
            rx,
        )
    }

    fn pid(i: u64) -> SimFrameClass {
        SimFrameClass::Parcel {
            id: frame_id(FRAME_KIND_CALL, 0, i),
        }
    }

    #[test]
    fn clean_fabric_delivers_in_order_with_ledger_balance() {
        let fabric = NetFabric::new(NetPlan::clean(1));
        let (sink, rx) = collector();
        fabric.register_sink(1, sink);
        for i in 0..20u64 {
            fabric.submit(0, 1, vec![i as u8], pid(i));
        }
        let got: Vec<u8> = (0..20)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("delivery").1[0])
            .collect();
        assert_eq!(got, (0..20u8).collect::<Vec<_>>(), "clean = FIFO");
        assert!(fabric.wait_quiescent(Duration::from_secs(5)));
        let l = fabric.ledger();
        assert_eq!(l.injected, 20);
        assert_eq!(l.delivered, 20);
        assert!(l.conserved(), "{l:?}");
        fabric.stop();
    }

    /// A timeout past the clock's range is no deadline: an idle fabric is
    /// drained and quiescent at once, with no deadline to compute.
    #[test]
    fn idle_fabric_waits_with_no_deadline() {
        let fabric = NetFabric::new(NetPlan::clean(1));
        assert!(fabric.wait_drained(Duration::MAX));
        assert!(fabric.wait_quiescent(Duration::MAX));
        fabric.stop();
    }

    #[test]
    fn chaotic_fabric_conserves_parcels() {
        let plan = NetPlan::clean(99)
            .drop(0.2)
            .duplicate(0.2)
            .reorder(0.5, 40_000)
            .latency(5_000, 10_000);
        let fabric = NetFabric::new(plan);
        let (sink, rx) = collector();
        fabric.register_sink(1, sink);
        let n = 500u64;
        for i in 0..n {
            fabric.submit(0, 1, vec![0u8; 16], pid(i));
        }
        assert!(fabric.wait_quiescent(Duration::from_secs(10)));
        let l = fabric.ledger();
        assert_eq!(l.injected, n);
        assert!(l.dropped_chaos > 0, "{l:?}");
        assert!(l.duplicated > 0, "{l:?}");
        assert!(l.conserved(), "{l:?}");
        let mut seen = 0u64;
        while rx.try_recv().is_ok() {
            seen += 1;
        }
        assert_eq!(seen, l.delivered);
        fabric.stop();
    }

    #[test]
    fn same_seed_same_delivery_multiset() {
        let run = || {
            let plan = NetPlan::clean(7)
                .drop(0.3)
                .duplicate(0.2)
                .latency(1_000, 5_000);
            let fabric = NetFabric::new(plan);
            let (sink, rx) = collector();
            fabric.register_sink(1, sink);
            for i in 0..200u64 {
                fabric.submit(0, 1, vec![(i % 251) as u8], pid(i));
            }
            assert!(fabric.wait_quiescent(Duration::from_secs(10)));
            let l = fabric.ledger();
            fabric.stop();
            let mut got: Vec<u8> = std::iter::from_fn(|| rx.try_recv().ok())
                .map(|(_, b)| b[0])
                .collect();
            got.sort_unstable();
            (l, got)
        };
        let (la, a) = run();
        let (lb, b) = run();
        assert_eq!(la, lb);
        assert_eq!(a, b);
    }

    #[test]
    fn hold_partition_parks_then_heals() {
        let fabric = NetFabric::new(NetPlan::clean(3));
        let (sink, rx) = collector();
        fabric.register_sink(1, sink);
        fabric.partition_now(0, 1, PartitionMode::Hold);
        for i in 0..5u64 {
            fabric.submit(0, 1, vec![i as u8], pid(i));
        }
        assert!(fabric.wait_drained(Duration::from_secs(5)));
        let l = fabric.ledger();
        assert_eq!(l.held, 5, "{l:?}");
        assert_eq!(l.delivered, 0);
        assert!(rx.try_recv().is_err());
        fabric.heal_now(0, 1);
        for _ in 0..5 {
            rx.recv_timeout(Duration::from_secs(5)).expect("flushed");
        }
        assert!(fabric.wait_quiescent(Duration::from_secs(5)));
        let l = fabric.ledger();
        assert_eq!(l.delivered, 5);
        assert_eq!(l.partitions_opened, 1);
        assert_eq!(l.partitions_healed, 1);
        assert!(l.conserved(), "{l:?}");
        fabric.stop();
    }

    #[test]
    fn drop_partition_blackholes_parcels_and_control() {
        let fabric = NetFabric::new(NetPlan::clean(3));
        let (sink, rx) = collector();
        fabric.register_sink(1, sink);
        fabric.partition_now(0, 1, PartitionMode::Drop);
        fabric.submit(0, 1, vec![1], pid(0));
        fabric.submit(0, 1, vec![2], SimFrameClass::Control);
        assert!(fabric.wait_quiescent(Duration::from_secs(5)));
        let l = fabric.ledger();
        assert_eq!(l.blackholed, 1, "{l:?}");
        assert_eq!(fabric.ledger.control_dropped.get(), 1, "{l:?}");
        assert!(rx.try_recv().is_err());
        assert!(l.conserved(), "{l:?}");
        fabric.stop();
    }

    #[test]
    fn sever_counts_in_flight_and_rejects_new_frames() {
        let fabric = NetFabric::new(NetPlan::clean(5));
        let (sink, _rx) = collector();
        fabric.register_sink(1, sink);
        fabric.pause();
        for i in 0..4u64 {
            fabric.submit(0, 1, vec![0], pid(i));
        }
        fabric.sever_pair(0, 1);
        fabric.resume();
        assert!(fabric.wait_quiescent(Duration::from_secs(5)));
        let after = fabric.submit(0, 1, vec![0], pid(9));
        assert!(after.dropped);
        let l = fabric.ledger();
        assert_eq!(l.severed, 5, "4 in flight + 1 post-sever: {l:?}");
        assert_eq!(l.delivered, 0);
        assert!(l.conserved(), "{l:?}");
        fabric.stop();
    }

    #[test]
    fn virtual_clock_advances_with_events() {
        let fabric = NetFabric::new(NetPlan::clean(1).latency(50_000, 0));
        let (sink, rx) = collector();
        fabric.register_sink(1, sink);
        assert_eq!(fabric.now_ns(), 0);
        fabric.submit(0, 1, vec![0], pid(0));
        rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert!(fabric.wait_quiescent(Duration::from_secs(5)));
        assert!(fabric.now_ns() >= 50_000);
        fabric.stop();
    }

    #[test]
    fn queue_cap_tail_drops() {
        let fabric = NetFabric::new(NetPlan::clean(2).queue_cap(2));
        let (sink, _rx) = collector();
        fabric.register_sink(1, sink);
        fabric.pause();
        let mut dropped = 0;
        for i in 0..10u64 {
            if fabric.submit(0, 1, vec![0], pid(i)).dropped {
                dropped += 1;
            }
        }
        fabric.resume();
        assert!(fabric.wait_quiescent(Duration::from_secs(5)));
        let l = fabric.ledger();
        assert_eq!(l.tail_dropped, dropped);
        assert_eq!(l.tail_dropped, 8, "{l:?}");
        assert!(l.conserved(), "{l:?}");
        fabric.stop();
    }
}
