//! A locality: one runtime participating in a distributed world.
//!
//! Mirrors HPX's locality concept. Each process (or, in loopback mode,
//! each [`crate::bootstrap::Fabric`] slot) owns one [`Locality`]: a
//! scheduler plus
//!
//! * an **action registry** — named handlers a peer may invoke;
//! * a **link table** — one [`Link`] per reachable peer;
//! * a **pending-call table** — outstanding [`Frame::Call`]s awaiting
//!   their [`Frame::Reply`], each holding the settler for the caller's
//!   future.
//!
//! [`Locality::async_remote`] is the distributed analog of
//! `Runtime::async_call`: it serializes the arguments, ships a `Call`
//! parcel, and returns a `SharedFuture<R>` settled by the reply. On the
//! destination the action body runs as a *first-class task* on that
//! locality's scheduler — same priorities, same counters, same panic
//! isolation as local work. A remote panic therefore comes back as
//! [`TaskError::Panicked`] (message included), never as a hang; a peer
//! dying settles every future still addressed to it with
//! [`TaskError::Disconnected`].
//!
//! Every failure is a settled error value. The pending-call table is the
//! single point of truth: whoever removes an entry (reply dispatch, send
//! failure, call deadline, peer disconnect) settles it, so each call
//! settles **exactly once** no matter how the race between reply,
//! timeout, and disconnect resolves — and the `calls/issued` vs
//! `calls/settled` counters prove it at quiescence instead of sampling.
//!
//! # Chaos hardening
//!
//! A link over a chaotic transport (see [`crate::parcelport::sim_pair`])
//! can duplicate, reorder, delay, drop, or silently blackhole frames.
//! [`NetConfig`] arms the defenses, all off by default:
//!
//! * **Idempotent dispatch** — every inbound `Call` passes a bounded
//!   per-origin [`DedupWindow`] keyed on `call_id` (which each origin
//!   allocates monotonically, so it doubles as a per-peer sequence
//!   number). A duplicated `Call` is counted under
//!   `/parcels/count/deduped` and *not* re-executed. A duplicated or
//!   post-settle `Reply` misses the pending table and is likewise
//!   counted, never double-settled.
//! * **Call deadlines** — `call_deadline` bounds how long a pending call
//!   may wait; a dropped request or reply settles the caller's future
//!   with [`TaskError::Timeout`] instead of hanging forever.
//! * **Liveness** — `liveness_deadline` arms a monitor thread that pings
//!   peers every 50 ms (`PING_INTERVAL`) and severs any link silent past
//!   the deadline, converting a blackholed peer into an ordinary
//!   disconnect (`TaskError::Disconnected`, sweep of its pending calls).

#![deny(clippy::unwrap_used)]

use crate::codec::{self, Frame, Wire, WireFault};
use crate::counters::ParcelCounters;
use crate::parcelport::{DisconnectHandler, FrameHandler, Link};
use grain_counters::sync::{Mutex, RwLock};
use grain_counters::RegistryError;
use grain_runtime::{channel, Runtime, SharedFuture, TaskError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Type-erased action handler: decode the argument bytes, start the work,
/// hand back a future of the *encoded* result. `Err(WireFault)` reports a
/// protocol-level failure (undecodable arguments) without spawning.
pub type RawHandler =
    Arc<dyn Fn(&Runtime, Vec<u8>) -> Result<SharedFuture<Vec<u8>>, WireFault> + Send + Sync>;

/// Bound on each per-origin [`DedupWindow`], in remembered call ids.
/// Ids older than the window are conservatively treated as already seen.
const DEDUP_WINDOW: usize = 1024;

/// How often the monitor pings each peer while liveness is armed (a
/// tighter deadline shortens the tick itself, see
/// [`monitor_tick_interval`]).
const PING_INTERVAL: Duration = Duration::from_millis(50);

/// The two deadlines of one locality. `Default` arms neither (the dedup
/// window is free, always safe and always on), which keeps
/// clean-transport worlds byte-for-byte on their old behavior — no
/// monitor thread is spawned unless a deadline is configured.
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    /// Sever a link whose peer has been silent this long (no frame of any
    /// kind received). `None` disables liveness monitoring.
    pub liveness_deadline: Option<Duration>,
    /// Settle any pending call older than this with
    /// [`TaskError::Timeout`]. `None` means calls wait indefinitely (a
    /// disconnect still sweeps them).
    pub call_deadline: Option<Duration>,
}

/// Bounded duplicate-suppression window for one origin's call ids.
///
/// Relies on origins allocating call ids monotonically (they do:
/// `next_call` is a counter), so the id doubles as a per-peer sequence
/// number. Ids at or below the eviction watermark are conservatively
/// duplicates: a fresh id can only land there if the peer reordered more
/// than `cap` calls, which real plans keep orders of magnitude away from.
struct DedupWindow {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
    /// Highest evicted id; everything ≤ this is treated as seen.
    watermark: u64,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> Self {
        Self {
            seen: HashSet::new(),
            order: VecDeque::new(),
            watermark: 0,
            cap: cap.max(1),
        }
    }

    /// Record `id`; returns `true` if it was fresh (first sighting).
    fn insert(&mut self, id: u64) -> bool {
        if id <= self.watermark || self.seen.contains(&id) {
            return false;
        }
        self.seen.insert(id);
        self.order.push_back(id);
        while self.order.len() > self.cap {
            if let Some(evicted) = self.order.pop_front() {
                self.seen.remove(&evicted);
                self.watermark = self.watermark.max(evicted);
            }
        }
        true
    }
}

/// One outstanding remote call.
struct Pending {
    /// Locality the call was addressed to (so a disconnect can sweep by
    /// peer).
    dest: usize,
    /// When the call was issued, for the deadline sweep.
    issued_at: Instant,
    /// Settles the caller's future. Removing the entry and invoking this
    /// is the one-and-only settle of that call.
    settle: Box<dyn FnOnce(Result<Vec<u8>, TaskError>) + Send>,
}

/// State shared between the public [`Locality`] handle and the network
/// threads (which hold only `Weak` references — a dropped locality makes
/// its inbound frames no-ops rather than keeping it alive).
pub struct LocalityShared {
    id: usize,
    world: usize,
    runtime: Arc<Runtime>,
    config: NetConfig,
    actions: RwLock<HashMap<String, RawHandler>>,
    links: RwLock<HashMap<usize, Arc<Link>>>,
    pending: Mutex<HashMap<u64, Pending>>,
    /// Per-origin duplicate-suppression windows for inbound calls.
    dedup: Mutex<HashMap<usize, DedupWindow>>,
    /// Last time any frame arrived from each linked peer.
    last_heard: Mutex<HashMap<usize, Instant>>,
    next_call: AtomicU64,
    next_ping: AtomicU64,
    parcels: Arc<ParcelCounters>,
    dead: AtomicBool,
}

impl LocalityShared {
    /// Dispatch one inbound frame (called from a reader / loopback writer
    /// / fabric pump thread).
    fn on_frame(self: &Arc<Self>, from: usize, bytes: Vec<u8>) {
        let frame = match Frame::decode(&bytes) {
            Ok(f) => f,
            Err(_) => {
                // A peer speaking garbage is indistinguishable from a
                // corrupted transport: drop the link.
                self.sever_link(from);
                return;
            }
        };
        // Any well-formed frame proves the peer alive.
        self.note_heard(from);
        let n = bytes.len() as u64;
        match frame {
            Frame::Call {
                call_id,
                origin,
                action,
                args,
            } => {
                let origin = origin as usize;
                if !self.dedup_fresh(origin, call_id) {
                    // Duplicated by the network: already dispatched (or
                    // about to be, by the copy that won). Never re-run.
                    self.parcels.deduped.incr();
                    return;
                }
                self.parcels.received.incr();
                self.parcels.bytes_received.add(n);
                self.handle_call(call_id, origin, &action, args);
            }
            Frame::Reply { call_id, outcome } => {
                if !self.handle_reply(call_id, outcome, n) {
                    // Duplicated reply, or a reply racing a deadline /
                    // disconnect settle that won. Either way the call is
                    // settled exactly once already.
                    self.parcels.deduped.incr();
                }
            }
            Frame::Goodbye { locality_id } => self.sever_link(locality_id as usize),
            Frame::Ping { nonce } => {
                // Liveness probe: answer without blocking or severing —
                // a congested link is not a dead one.
                let link = self.links.read().get(&from).cloned();
                if let Some(link) = link {
                    let _ = link.try_send(&Frame::Pong { nonce });
                }
            }
            Frame::Pong { .. } => {} // note_heard above did the work
            // Bootstrap frames are consumed during the handshake, before
            // a link's reader delivers here; arriving late they are noise.
            Frame::Hello { .. } | Frame::Welcome { .. } | Frame::PeerHello { .. } => {}
        }
    }

    /// Refresh the liveness clock for `peer`.
    fn note_heard(&self, peer: usize) {
        self.last_heard.lock().insert(peer, Instant::now());
    }

    /// Record `(origin, call_id)`; `false` means duplicate.
    fn dedup_fresh(&self, origin: usize, call_id: u64) -> bool {
        let mut windows = self.dedup.lock();
        windows
            .entry(origin)
            .or_insert_with(|| DedupWindow::new(DEDUP_WINDOW))
            .insert(call_id)
    }

    fn handle_call(self: &Arc<Self>, call_id: u64, origin: usize, action: &str, args: Vec<u8>) {
        let handler = self.actions.read().get(action).cloned();
        let Some(handler) = handler else {
            self.send_reply(
                origin,
                call_id,
                Err(WireFault::UnknownAction(action.to_string())),
            );
            return;
        };
        match handler(&self.runtime, args) {
            Err(fault) => self.send_reply(origin, call_id, Err(fault)),
            Ok(result) => {
                let me = Arc::downgrade(self);
                result.on_settled(move |settled| {
                    let Some(me) = me.upgrade() else { return };
                    let outcome = match settled {
                        Ok(bytes) => Ok((**bytes).clone()),
                        Err(e) => Err(fault_of(e)),
                    };
                    me.send_reply(origin, call_id, outcome);
                });
            }
        }
    }

    /// Settle the pending call this reply answers, booking its
    /// `frame_bytes` as received traffic first: whoever the settle wakes
    /// may read the books at once and must find the reply in them.
    /// Returns `false` if the call was already settled (duplicate / late
    /// reply) — the frame is then a dedup event, not traffic.
    fn handle_reply(
        self: &Arc<Self>,
        call_id: u64,
        outcome: Result<Vec<u8>, WireFault>,
        frame_bytes: u64,
    ) -> bool {
        let entry = self.pending.lock().remove(&call_id);
        let Some(entry) = entry else { return false };
        self.parcels.received.incr();
        self.parcels.bytes_received.add(frame_bytes);
        let outcome = outcome.map_err(|fault| task_error_of(fault, entry.dest));
        self.settle_entry(entry, outcome);
        true
    }

    /// The one funnel every settle path goes through, so
    /// `calls/settled` counts each pending entry exactly once.
    fn settle_entry(&self, entry: Pending, outcome: Result<Vec<u8>, TaskError>) {
        self.parcels.calls_settled.incr();
        (entry.settle)(outcome);
    }

    /// A peer went away: forget its link and settle everything addressed
    /// to it with [`TaskError::Disconnected`].
    fn on_peer_disconnect(self: &Arc<Self>, peer: usize) {
        self.links.write().remove(&peer);
        self.last_heard.lock().remove(&peer);
        let drained: Vec<Pending> = {
            let mut pending = self.pending.lock();
            let ids: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| p.dest == peer)
                .map(|(id, _)| *id)
                .collect();
            ids.into_iter()
                .filter_map(|id| pending.remove(&id))
                .collect()
        };
        // Settle outside the lock: settling runs continuations inline,
        // which may issue further sends or even new remote calls.
        for p in drained {
            self.settle_entry(p, Err(TaskError::Disconnected { locality: peer }));
        }
    }

    fn sever_link(self: &Arc<Self>, peer: usize) {
        let link = self.links.read().get(&peer).cloned();
        if let Some(link) = link {
            // `sever` fires the disconnect handler, which calls
            // `on_peer_disconnect` above.
            link.sever();
        }
    }

    fn send_reply(
        self: &Arc<Self>,
        dest: usize,
        call_id: u64,
        outcome: Result<Vec<u8>, WireFault>,
    ) {
        let link = self.links.read().get(&dest).cloned();
        if let Some(link) = link {
            let _ = link.send(&Frame::Reply { call_id, outcome });
        }
        // No link to the origin: the caller's disconnect sweep has
        // already settled the call on its side; nothing to do here.
    }

    /// Remove-and-settle one pending call (send-failure path). No-op if a
    /// racing reply or disconnect settled it first.
    fn settle_pending(self: &Arc<Self>, call_id: u64, outcome: Result<Vec<u8>, TaskError>) {
        let entry = self.pending.lock().remove(&call_id);
        if let Some(entry) = entry {
            self.settle_entry(entry, outcome);
        }
    }

    /// One monitor tick: ping live peers, sever the silent ones, settle
    /// deadline-expired calls. All settling happens outside the locks.
    fn monitor_tick(self: &Arc<Self>) {
        if let Some(deadline) = self.config.liveness_deadline {
            let links: Vec<Arc<Link>> = self.links.read().values().cloned().collect();
            let now = Instant::now();
            let mut stale: Vec<usize> = Vec::with_capacity(links.len());
            {
                let heard = self.last_heard.lock();
                for link in &links {
                    match heard.get(&link.peer()) {
                        Some(at) if now.duration_since(*at) > deadline => {
                            stale.push(link.peer());
                        }
                        _ => {}
                    }
                }
            }
            for peer in stale {
                self.sever_link(peer);
            }
            let nonce = self.next_ping.fetch_add(1, Ordering::Relaxed);
            let links: Vec<Arc<Link>> = self.links.read().values().cloned().collect();
            for link in links {
                // Non-blocking, non-severing: a full queue skips a round.
                let _ = link.try_send(&Frame::Ping { nonce });
            }
        }
        if let Some(deadline) = self.config.call_deadline {
            let now = Instant::now();
            let expired: Vec<(Pending, Duration)> = {
                let mut pending = self.pending.lock();
                let ids: Vec<u64> = pending
                    .iter()
                    .filter(|(_, p)| now.duration_since(p.issued_at) > deadline)
                    .map(|(id, _)| *id)
                    .collect();
                ids.into_iter()
                    .filter_map(|id| {
                        pending
                            .remove(&id)
                            .map(|p| (now.duration_since(p.issued_at), p))
                            .map(|(waited, p)| (p, waited))
                    })
                    .collect()
            };
            for (entry, waited) in expired {
                self.settle_entry(entry, Err(TaskError::Timeout { waited }));
            }
        }
    }

    fn total_queue_len(&self) -> usize {
        self.links.read().values().map(|l| l.queue_len()).sum()
    }
}

/// A runtime participating in a distributed world. See the module docs.
///
/// Cheap to clone: a `Locality` is a handle to shared state, so bootstrap
/// accept threads and tests can hold their own copies.
#[derive(Clone)]
pub struct Locality {
    shared: Arc<LocalityShared>,
}

impl Locality {
    /// Wrap `runtime` as locality `id` of a world of `world` localities
    /// and register its `/parcels/*` counter family, with default
    /// [`NetConfig`] (no liveness monitor, no call deadlines).
    ///
    /// The runtime should have been built with
    /// `RuntimeConfig { locality_id: id, .. }` so its `/threads{…}`
    /// counters live under the same instance name.
    pub fn new(runtime: Arc<Runtime>, id: usize, world: usize) -> Result<Self, RegistryError> {
        Self::with_config(runtime, id, world, NetConfig::default())
    }

    /// [`Locality::new`] with explicit robustness knobs. Setting either
    /// `liveness_deadline` or `call_deadline` spawns a monitor thread
    /// (`grain-net-mon-{id}`) that holds only a weak reference — it exits
    /// when the locality is dropped or leaves the world.
    pub fn with_config(
        runtime: Arc<Runtime>,
        id: usize,
        world: usize,
        config: NetConfig,
    ) -> Result<Self, RegistryError> {
        debug_assert_eq!(
            runtime.locality_id(),
            id,
            "runtime locality_id must match the locality id"
        );
        let monitored = config.liveness_deadline.is_some() || config.call_deadline.is_some();
        let tick = monitor_tick_interval(&config);
        let shared = Arc::new(LocalityShared {
            id,
            world,
            runtime,
            config,
            actions: RwLock::new(HashMap::new()),
            links: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            dedup: Mutex::new(HashMap::new()),
            last_heard: Mutex::new(HashMap::new()),
            next_call: AtomicU64::new(1),
            next_ping: AtomicU64::new(1),
            parcels: Arc::new(ParcelCounters::new()),
            dead: AtomicBool::new(false),
        });
        let probe = {
            let w = Arc::downgrade(&shared);
            move || {
                w.upgrade()
                    .map(|s| s.total_queue_len() as f64)
                    .unwrap_or(0.0)
            }
        };
        shared
            .parcels
            .register(shared.runtime.registry(), id, probe)?;
        if monitored {
            let w: Weak<LocalityShared> = Arc::downgrade(&shared);
            std::thread::Builder::new()
                .name(format!("grain-net-mon-{id}"))
                .spawn(move || loop {
                    std::thread::sleep(tick);
                    let Some(shared) = w.upgrade() else { return };
                    if shared.dead.load(Ordering::SeqCst) {
                        return;
                    }
                    shared.monitor_tick();
                })
                .expect("failed to spawn net monitor thread");
        }
        Ok(Self { shared })
    }

    /// This locality's id.
    pub fn id(&self) -> usize {
        self.shared.id
    }

    /// Number of localities in the world.
    pub fn world(&self) -> usize {
        self.shared.world
    }

    /// The robustness knobs this locality was built with.
    pub fn net_config(&self) -> &NetConfig {
        &self.shared.config
    }

    /// The scheduler this locality runs tasks on.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.shared.runtime
    }

    /// This locality's parcel counters (also queryable through the
    /// runtime's registry under `/parcels{locality#N/total}/…`).
    pub fn parcels(&self) -> &Arc<ParcelCounters> {
        &self.shared.parcels
    }

    /// Peers this locality currently holds a live link to.
    pub fn connected_peers(&self) -> Vec<usize> {
        let mut peers: Vec<usize> = self.shared.links.read().keys().copied().collect();
        peers.sort_unstable();
        peers
    }

    /// Register `f` under `action`: peers may now invoke it via
    /// [`Locality::async_remote`]. The body runs as a first-class task on
    /// this locality's scheduler; a panic inside it travels back to the
    /// caller as [`TaskError::Panicked`].
    pub fn register_action<A, R, F>(&self, action: &str, f: F)
    where
        A: Wire + Send + 'static,
        R: Wire + Send + Sync + 'static,
        F: Fn(A) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let raw: RawHandler = Arc::new(move |rt: &Runtime, bytes: Vec<u8>| {
            let args = codec::from_bytes::<A>(&bytes)
                .map_err(|e| WireFault::BadArguments(e.to_string()))?;
            let f = Arc::clone(&f);
            Ok(rt.async_call(move |_cx| codec::to_bytes(&f(args))))
        });
        self.shared.actions.write().insert(action.to_string(), raw);
    }

    /// Register an action whose body *returns a future* instead of a
    /// value: the reply is sent when that future settles. This is the
    /// hook for pull-style protocols (e.g. ghost-zone exchange) where the
    /// answer may not exist yet when the request arrives.
    pub fn register_deferred_action<A, R, F>(&self, action: &str, f: F)
    where
        A: Wire + Send + 'static,
        R: Wire + Send + Sync + 'static,
        F: Fn(&Runtime, A) -> SharedFuture<R> + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let raw: RawHandler = Arc::new(move |rt: &Runtime, bytes: Vec<u8>| {
            let args = codec::from_bytes::<A>(&bytes)
                .map_err(|e| WireFault::BadArguments(e.to_string()))?;
            let inner: SharedFuture<R> = f(rt, args);
            let (promise, encoded) = channel::<Vec<u8>>();
            inner.on_settled(move |settled| match settled {
                Ok(v) => promise.set(codec::to_bytes(v.as_ref())),
                Err(e) => promise.fail(e.clone()),
            });
            Ok(encoded)
        });
        self.shared.actions.write().insert(action.to_string(), raw);
    }

    /// `hpx::async` against a remote locality: serialize `args`, invoke
    /// `action` on `dest`, get a future for the (decoded) result.
    ///
    /// Every failure settles the future rather than hanging it:
    /// * remote panic → [`TaskError::Panicked`] with the remote message;
    /// * unknown action / undecodable args or reply →
    ///   [`TaskError::Remote`] naming `dest`;
    /// * no link, send failure, or peer death before the reply →
    ///   [`TaskError::Disconnected`] naming `dest`;
    /// * configured `call_deadline` expiring first →
    ///   [`TaskError::Timeout`].
    ///
    /// `dest == self.id()` is the local fast path: no link or parcel
    /// counters involved, but arguments and result still round-trip
    /// through the wire codec so local and remote calls compute
    /// bit-identical results.
    pub fn async_remote<A, R>(&self, dest: usize, action: &str, args: &A) -> SharedFuture<R>
    where
        A: Wire,
        R: Wire + Send + Sync + 'static,
    {
        let shared = &self.shared;
        let t0 = Instant::now();
        let args_bytes = codec::to_bytes(args);

        if dest == shared.id {
            let handler = shared.actions.read().get(action).cloned();
            return match handler {
                None => SharedFuture::faulted(TaskError::Remote {
                    locality: dest,
                    message: format!("unknown action '{action}'"),
                }),
                Some(h) => match h(&shared.runtime, args_bytes) {
                    Err(fault) => SharedFuture::faulted(task_error_of(fault, dest)),
                    Ok(encoded) => decode_future::<R>(&encoded, dest),
                },
            };
        }

        if shared.dead.load(Ordering::SeqCst) {
            // This locality has left the world; nothing will ever reply.
            return SharedFuture::faulted(TaskError::Disconnected { locality: dest });
        }

        let call_id = shared.next_call.fetch_add(1, Ordering::Relaxed);
        let (promise, future) = channel::<R>();
        let settle: Box<dyn FnOnce(Result<Vec<u8>, TaskError>) + Send> =
            Box::new(move |outcome| match outcome {
                Ok(bytes) => match codec::from_bytes::<R>(&bytes) {
                    Ok(v) => promise.set(v),
                    Err(e) => promise.fail(TaskError::Remote {
                        locality: dest,
                        message: format!("undecodable reply: {e}"),
                    }),
                },
                Err(e) => promise.fail(e),
            });
        // Insert before sending: the reply may arrive on another thread
        // before `send` returns. `calls_issued` is bumped with the entry
        // in place, so issued == settled is exact at quiescence.
        shared.parcels.calls_issued.incr();
        shared.pending.lock().insert(
            call_id,
            Pending {
                dest,
                issued_at: t0,
                settle,
            },
        );

        let frame = Frame::Call {
            call_id,
            origin: shared.id as u32,
            action: action.to_string(),
            args: args_bytes,
        };
        shared.parcels.ser_ns.add(t0.elapsed().as_nanos() as u64);
        shared.parcels.ser_samples.incr();

        let link = shared.links.read().get(&dest).cloned();
        let delivered = match link {
            Some(link) => link.send(&frame).is_ok(),
            None => false,
        };
        if !delivered {
            shared.settle_pending(call_id, Err(TaskError::Disconnected { locality: dest }));
        }
        future
    }

    /// Graceful leave: tell every peer goodbye, drain the send queues,
    /// stop accepting new outbound calls.
    pub fn shutdown(&self) {
        self.shared.dead.store(true, Ordering::SeqCst);
        let links: Vec<Arc<Link>> = self.shared.links.read().values().cloned().collect();
        for link in links {
            let _ = link.send(&Frame::Goodbye {
                locality_id: self.shared.id as u32,
            });
            link.close();
        }
    }

    /// Abrupt death (test hook / fault injection): sever every link
    /// without a goodbye. Peers observe it exactly like a crashed
    /// process; all calls still addressed to this locality — and all of
    /// this locality's own outstanding calls — settle with
    /// [`TaskError::Disconnected`].
    pub fn kill(&self) {
        self.shared.dead.store(true, Ordering::SeqCst);
        let links: Vec<Arc<Link>> = self.shared.links.read().values().cloned().collect();
        for link in links {
            link.sever();
        }
    }

    /// Frame handler for this locality's inbound links (holds only a
    /// `Weak`; frames for a dropped locality are dropped).
    pub(crate) fn frame_handler(&self) -> FrameHandler {
        let w = Arc::downgrade(&self.shared);
        Arc::new(move |from, bytes| {
            if let Some(shared) = w.upgrade() {
                shared.on_frame(from, bytes);
            }
        })
    }

    /// Disconnect handler for this locality's links.
    pub(crate) fn disconnect_handler(&self) -> DisconnectHandler {
        let w = Arc::downgrade(&self.shared);
        Arc::new(move |peer| {
            if let Some(shared) = w.upgrade() {
                shared.on_peer_disconnect(peer);
            }
        })
    }

    /// Install an outbound link to its peer (bootstrap hook). Starts the
    /// peer's liveness clock: a peer that never speaks after linking is
    /// exactly the silent-blackhole case the monitor exists for.
    pub(crate) fn add_link(&self, link: Arc<Link>) {
        self.shared.note_heard(link.peer());
        self.shared.links.write().insert(link.peer(), link);
    }
}

/// How often the monitor thread wakes: fine enough to resolve the
/// tightest configured deadline, never busier than 1ms.
fn monitor_tick_interval(config: &NetConfig) -> Duration {
    let mut tick = PING_INTERVAL;
    if let Some(d) = config.liveness_deadline {
        tick = tick.min(d / 4);
    }
    if let Some(d) = config.call_deadline {
        tick = tick.min(d / 4);
    }
    tick.max(Duration::from_millis(1))
}

/// Map a locally-settled error to its wire form (serving side). The
/// *root* of a dependency chain decides the kind, so a panic three
/// dataflow hops upstream still comes back to the caller as `Panicked`.
fn fault_of(e: &TaskError) -> WireFault {
    match e.root_cause() {
        TaskError::Panicked { message } => WireFault::Panicked(message.clone()),
        TaskError::Cancelled => WireFault::Cancelled,
        TaskError::BrokenPromise => WireFault::BrokenPromise,
        other => WireFault::Other(other.to_string()),
    }
}

/// Map a wire fault back to a `TaskError` on the calling side.
fn task_error_of(fault: WireFault, dest: usize) -> TaskError {
    match fault {
        WireFault::Panicked(message) => TaskError::Panicked { message },
        WireFault::Cancelled => TaskError::Cancelled,
        WireFault::BrokenPromise => TaskError::BrokenPromise,
        WireFault::UnknownAction(a) => TaskError::Remote {
            locality: dest,
            message: format!("unknown action '{a}'"),
        },
        WireFault::BadArguments(m) => TaskError::Remote {
            locality: dest,
            message: format!("bad arguments: {m}"),
        },
        WireFault::Other(m) => TaskError::Remote {
            locality: dest,
            message: m,
        },
    }
}

/// Adapt a future of encoded bytes into a future of the decoded value.
fn decode_future<R>(encoded: &SharedFuture<Vec<u8>>, dest: usize) -> SharedFuture<R>
where
    R: Wire + Send + Sync + 'static,
{
    let (promise, future) = channel::<R>();
    encoded.on_settled(move |settled| match settled {
        Ok(bytes) => match codec::from_bytes::<R>(bytes) {
            Ok(v) => promise.set(v),
            Err(e) => promise.fail(TaskError::Remote {
                locality: dest,
                message: format!("undecodable reply: {e}"),
            }),
        },
        Err(e) => promise.fail(e.clone()),
    });
    future
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_window_suppresses_repeats_and_bounds_memory() {
        let mut w = DedupWindow::new(4);
        assert!(w.insert(1));
        assert!(w.insert(2));
        assert!(!w.insert(1), "repeat suppressed");
        assert!(!w.insert(2), "repeat suppressed");
        assert!(w.insert(3));
        assert!(w.insert(4));
        assert!(w.insert(5), "window slides");
        assert!(w.seen.len() <= 4, "memory bounded");
        // 1 was evicted; the watermark still damns it.
        assert!(!w.insert(1), "evicted id stays suppressed via watermark");
        // Far-future ids are always fresh.
        assert!(w.insert(1000));
        assert!(!w.insert(1000));
    }

    #[test]
    fn dedup_window_handles_reordering_within_cap() {
        let mut w = DedupWindow::new(64);
        // Arrivals out of order, all within the window: each fresh once.
        for id in [5u64, 2, 9, 1, 7, 3] {
            assert!(w.insert(id), "id {id} fresh");
        }
        for id in [5u64, 2, 9, 1, 7, 3] {
            assert!(!w.insert(id), "id {id} duplicate");
        }
        assert!(w.insert(4), "unseen id inside the range is still fresh");
    }

    #[test]
    fn monitor_tick_interval_tracks_tightest_deadline() {
        let mut cfg = NetConfig::default();
        assert_eq!(monitor_tick_interval(&cfg), PING_INTERVAL);
        cfg.call_deadline = Some(Duration::from_millis(20));
        assert_eq!(monitor_tick_interval(&cfg), Duration::from_millis(5));
        cfg.liveness_deadline = Some(Duration::from_millis(2));
        assert_eq!(monitor_tick_interval(&cfg), Duration::from_millis(1));
    }
}
