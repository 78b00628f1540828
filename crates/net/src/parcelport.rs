//! The parcelport: point-to-point links that carry encoded frames.
//!
//! A [`Link`] is one *directed* lane from the owning locality to a single
//! peer: a bounded send queue drained by a dedicated writer thread. The
//! writer takes *everything* queued under one lock, delivers each frame,
//! flushes the transport, and only then looks at the queue again
//! ([`writer_loop`]). What it *does* with each frame is behind the
//! [`Transport`](crate::transport::Transport) seam; three transports share
//! the shape:
//!
//! * **TCP** — the writer thread coalesces `u32`-LE length-prefixed frames
//!   into one socket write per batch (`TCP_NODELAY` is set: batching is
//!   ours, not Nagle's); a companion reader thread reads frames off the
//!   same socket through one buffer and hands the raw bytes to the
//!   locality's frame handler. One socket therefore backs *two* links (one
//!   per direction), each owned by its side.
//! * **Loopback** — no socket at all: the writer thread delivers the
//!   encoded bytes straight into the peer's frame handler. Both ends live
//!   in one process, which makes multi-locality tests hermetic and
//!   deterministic while exercising the identical queue/writer machinery.
//! * **Simulated** ([`sim_pair`]) — the writer submits frames to a
//!   [`grain_sim::NetFabric`], which applies a seeded chaos plan
//!   (latency, loss, duplication, reordering, partitions) before handing
//!   survivors to the peer's frame handler. Severing either direction
//!   severs the fabric pair, so in-flight frames are accounted as
//!   `in_flight_at_sever` rather than silently lost.
//!
//! Backpressure is bounded and deadlock-free by construction: `send`
//! blocks while the queue is full, but only up to [`SEND_TIMEOUT`]. A
//! send that cannot make progress for that long means the peer has
//! effectively stopped draining — the link is severed, the rejected
//! parcel is booked under `/parcels/count/dropped`, and every
//! outstanding future against that peer settles with
//! `TaskError::Disconnected` instead of the whole fabric deadlocking.
//! The returned [`SendError`] names the peer so callers can say *which*
//! link stalled.
//!
//! Counter discipline: the *sending* side bumps `/parcels/count/sent`
//! and `/parcels/bytes/sent` in the writer thread as it hands the frame
//! to the transport; the *receiving* locality bumps `received` when it
//! dispatches the frame. Only parcels proper ([`Frame::is_parcel`]: `Call`/`Reply`)
//! are counted — handshake and teardown control frames are not traffic.

use crate::codec::{CodecError, Frame, MAX_FRAME};
use crate::counters::ParcelCounters;
use crate::transport::{
    push_framed, LoopbackTransport, SimTransport, TcpTransport, Transport, FLUSH_BYTES,
};
use grain_counters::sync::{deadline_after, AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
use grain_sim::NetFabric;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Callback invoked with `(sender_locality, frame_bytes)` for every frame
/// that arrives at a locality.
pub type FrameHandler = Arc<dyn Fn(usize, Vec<u8>) + Send + Sync>;

/// Callback invoked with the peer's locality id when a link to that peer
/// is severed (fired at most once per link).
pub type DisconnectHandler = Arc<dyn Fn(usize) + Send + Sync>;

/// How long a full send queue may stall a sender before the link is
/// declared dead. Generous: hitting this means the peer's reader has not
/// drained *anything* for the whole window.
const SEND_TIMEOUT: Duration = Duration::from_secs(10);

/// Default bound on the send queue, in frames.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Why a send did not take the frame. Carries the peer's locality id so
/// callers (and their error messages) can name the lane that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The link is closed or severed; the peer is unreachable.
    Closed {
        /// Locality id of the unreachable peer.
        peer: usize,
    },
    /// The queue stayed full for the link's send timeout; the link has
    /// been severed to break the stall and the rejected parcel booked as
    /// dropped.
    Backpressure {
        /// Locality id of the peer whose lane stalled.
        peer: usize,
    },
}

impl SendError {
    /// Locality id of the peer the failed send was addressed to.
    pub fn peer(&self) -> usize {
        match self {
            SendError::Closed { peer } | SendError::Backpressure { peer } => *peer,
        }
    }
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Closed { peer } => write!(f, "link to locality {peer} closed"),
            SendError::Backpressure { peer } => {
                write!(f, "send queue to locality {peer} stalled; link severed")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// Internal queue-level push failure; [`Link::send`] maps this onto
/// [`SendError`] with the peer id attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushError {
    /// Queue closed or severed.
    Closed,
    /// Queue stayed full past the deadline.
    Timeout,
}

/// Mutable queue state behind the lock.
struct QueueState {
    /// Encoded frames with their "counts as a parcel" flag.
    frames: VecDeque<(Vec<u8>, bool)>,
    /// No further sends accepted; the writer drains what is queued.
    closed: bool,
}

/// Bounded MPSC queue feeding one writer thread.
struct SendQueue {
    state: Mutex<QueueState>,
    /// Abrupt teardown: queued frames are discarded, the writer exits.
    /// Written under `state`'s lock; the writer also reads it between
    /// the frames of a batch, without the lock.
    severed: AtomicBool,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

impl SendQueue {
    fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                frames: VecDeque::new(),
                closed: false,
            }),
            severed: AtomicBool::new(false),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        }
    }

    /// Enqueue, blocking while full up to `timeout`.
    fn push(&self, bytes: Vec<u8>, parcel: bool, timeout: Duration) -> Result<(), PushError> {
        let deadline = deadline_after(timeout);
        let mut st = self.state.lock();
        let room = |st: &mut QueueState| st.closed || st.frames.len() < self.cap;
        if !self.not_full.wait_until(&mut st, deadline, room) {
            return Err(PushError::Timeout);
        }
        if st.closed {
            return Err(PushError::Closed);
        }
        st.frames.push_back((bytes, parcel));
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Move every queued frame into the empty `batch`, blocking while
    /// there is none. One lock per batch, however many frames it holds;
    /// the two deques trade allocations, so a steady writer allocates
    /// nothing here. `false` once the queue is drained-and-closed or
    /// severed.
    fn take_all(&self, batch: &mut VecDeque<(Vec<u8>, bool)>) -> bool {
        let mut st = self.state.lock();
        let ready = |st: &mut QueueState| self.is_severed() || st.closed || !st.frames.is_empty();
        // Unbounded: the writer sleeps until a push, a close or a sever
        // notifies under the lock.
        self.not_empty.wait_until(&mut st, None, ready);
        if self.is_severed() || st.frames.is_empty() {
            return false;
        }
        std::mem::swap(&mut st.frames, batch);
        drop(st);
        self.not_full.notify_all();
        true
    }

    fn is_severed(&self) -> bool {
        self.severed.load(Ordering::Acquire)
    }

    fn len(&self) -> usize {
        self.state.lock().frames.len()
    }

    /// Stop accepting sends; the writer drains what is queued, then exits.
    fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Abrupt teardown: discard queued frames and release all waiters.
    fn sever(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        self.severed.store(true, Ordering::Release);
        st.frames.clear();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Transport-specific teardown invoked on sever: shuts the TCP socket
/// down to unblock reader/writer syscalls, or severs the fabric pair so
/// in-flight simulated frames are ledgered. Must be idempotent — sever
/// can race with partner propagation.
type SeverHook = Box<dyn Fn() + Send + Sync>;

/// One directed lane from the owning locality to `peer`.
///
/// Created via [`Link::tcp`], [`loopback_pair`], or [`sim_pair`]; send
/// frames with [`Link::send`]; tear down with [`Link::close`] (graceful
/// drain) or [`Link::sever`] (abrupt, fires the disconnect handler).
pub struct Link {
    /// Locality id of the remote end.
    peer: usize,
    queue: Arc<SendQueue>,
    counters: Arc<ParcelCounters>,
    on_disconnect: DisconnectHandler,
    disconnect_fired: AtomicBool,
    /// The reverse-direction link of a loopback/sim pair; severing one
    /// side severs the other so both localities observe the disconnect.
    partner: Mutex<Weak<Link>>,
    /// Transport teardown run on sever (socket shutdown / fabric sever).
    sever_hook: Option<SeverHook>,
    /// Send-stall budget in nanoseconds; [`SEND_TIMEOUT`] outside tests,
    /// which shorten it so a stall test does not wait out the
    /// production-sized window.
    send_timeout_ns: AtomicU64,
}

impl Link {
    fn new_inner(
        peer: usize,
        counters: Arc<ParcelCounters>,
        on_disconnect: DisconnectHandler,
        cap: usize,
        sever_hook: Option<SeverHook>,
    ) -> Arc<Link> {
        Arc::new(Link {
            peer,
            queue: Arc::new(SendQueue::new(cap)),
            counters,
            on_disconnect,
            disconnect_fired: AtomicBool::new(false),
            partner: Mutex::new(Weak::new()),
            sever_hook,
            send_timeout_ns: AtomicU64::new(SEND_TIMEOUT.as_nanos() as u64),
        })
    }

    /// Wrap an already-handshaken TCP socket as a link to `peer`.
    ///
    /// Sets `TCP_NODELAY` — the writer batches frames itself, and a
    /// request/response parcel must not wait out the peer's delayed ACK
    /// — then spawns the writer thread (draining the send queue into the
    /// socket) and a reader thread (delivering inbound frames to
    /// `incoming`). Either thread severing the link fires
    /// `on_disconnect(peer)` exactly once.
    pub fn tcp(
        peer: usize,
        stream: TcpStream,
        incoming: FrameHandler,
        on_disconnect: DisconnectHandler,
        counters: Arc<ParcelCounters>,
        cap: usize,
    ) -> io::Result<Arc<Link>> {
        stream.set_nodelay(true)?;
        let writer_stream = stream.try_clone()?;
        let reader_stream = stream.try_clone()?;
        let hook: SeverHook = Box::new(move || {
            let _ = stream.shutdown(Shutdown::Both);
        });
        let link = Link::new_inner(peer, counters, on_disconnect, cap, Some(hook));

        {
            let link = Arc::clone(&link);
            grain_counters::sync::spawn(format!("grain-net-tx-{peer}"), move || {
                writer_loop(link, TcpTransport::new(writer_stream))
            })?;
        }
        {
            let link = Arc::clone(&link);
            grain_counters::sync::spawn(format!("grain-net-rx-{peer}"), move || {
                reader_loop(link, reader_stream, incoming)
            })?;
        }
        Ok(link)
    }

    /// Locality id of the remote end of this link.
    pub fn peer(&self) -> usize {
        self.peer
    }

    /// Frames currently waiting in the send queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Replace the send-stall budget (default [`SEND_TIMEOUT`]).
    #[cfg(test)]
    fn set_send_timeout(&self, timeout: Duration) {
        self.send_timeout_ns
            .store(timeout.as_nanos() as u64, Ordering::Relaxed);
    }

    fn send_timeout(&self) -> Duration {
        Duration::from_nanos(self.send_timeout_ns.load(Ordering::Relaxed))
    }

    /// Encode `frame` and enqueue it for delivery.
    ///
    /// Blocks while the queue is full, up to the link's send timeout; a
    /// stall that long severs the link (see module docs), books the
    /// rejected parcel under `/parcels/count/dropped`, and returns
    /// [`SendError::Backpressure`] naming the peer.
    pub fn send(&self, frame: &Frame) -> Result<(), SendError> {
        let bytes = frame.encode();
        let parcel = frame.is_parcel();
        match self.queue.push(bytes, parcel, self.send_timeout()) {
            Ok(()) => Ok(()),
            Err(PushError::Timeout) => {
                if parcel {
                    self.counters.dropped.incr();
                }
                self.sever();
                Err(SendError::Backpressure { peer: self.peer })
            }
            Err(PushError::Closed) => Err(SendError::Closed { peer: self.peer }),
        }
    }

    /// Enqueue without blocking and without severing on a full queue.
    ///
    /// Used by liveness probes: a ping that doesn't fit is simply not
    /// sent this round — a congested-but-draining link must not be
    /// declared dead by its own monitor.
    pub fn try_send(&self, frame: &Frame) -> Result<(), SendError> {
        let bytes = frame.encode();
        let parcel = frame.is_parcel();
        match self.queue.push(bytes, parcel, Duration::ZERO) {
            Ok(()) => Ok(()),
            Err(PushError::Timeout) => Err(SendError::Backpressure { peer: self.peer }),
            Err(PushError::Closed) => Err(SendError::Closed { peer: self.peer }),
        }
    }

    /// Graceful shutdown: no further sends are accepted, queued frames
    /// are still delivered, then the writer exits. Does not fire the
    /// disconnect handler — the caller initiated this.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Abrupt teardown: discard queued frames, run the transport's sever
    /// hook (socket shutdown / fabric pair sever), sever the partner
    /// direction (if any), and fire the disconnect handler (once).
    pub fn sever(&self) {
        self.sever_inner(true);
    }

    fn sever_inner(&self, propagate: bool) {
        self.queue.sever();
        if let Some(hook) = &self.sever_hook {
            hook();
        }
        if propagate {
            let partner = self.partner.lock().upgrade();
            if let Some(p) = partner {
                p.sever_inner(false);
            }
        }
        if !self.disconnect_fired.swap(true, Ordering::SeqCst) {
            (self.on_disconnect)(self.peer);
        }
    }
}

/// One end of an in-process link pair: identity plus the inbound plumbing
/// of the locality that owns this end.
pub struct EndPoint {
    /// Locality id of this end.
    pub id: usize,
    /// Where frames addressed to this end are delivered.
    pub incoming: FrameHandler,
    /// Fired (with the peer's id) when the pair is severed.
    pub on_disconnect: DisconnectHandler,
    /// This end's parcel counters (bumped on *send* by its outbound link).
    pub counters: Arc<ParcelCounters>,
}

/// Build both directions of an in-process link between localities `a` and
/// `b`. Returns `(a_to_b, b_to_a)`. Severing either direction severs the
/// other, so both localities observe the disconnect — exactly like a TCP
/// socket dying.
pub fn loopback_pair(a: EndPoint, b: EndPoint, cap: usize) -> (Arc<Link>, Arc<Link>) {
    let a_to_b = Link::new_inner(b.id, Arc::clone(&a.counters), a.on_disconnect, cap, None);
    let b_to_a = Link::new_inner(a.id, Arc::clone(&b.counters), b.on_disconnect, cap, None);
    *a_to_b.partner.lock() = Arc::downgrade(&b_to_a);
    *b_to_a.partner.lock() = Arc::downgrade(&a_to_b);

    spawn_writer(&a_to_b, LoopbackTransport::new(b.incoming, a.id), a.id);
    spawn_writer(&b_to_a, LoopbackTransport::new(a.incoming, b.id), b.id);
    (a_to_b, b_to_a)
}

/// Build both directions of a *simulated* link between localities `a` and
/// `b`, routed through `fabric`. Returns `(a_to_b, b_to_a)`.
///
/// Each end's `incoming` handler is registered as the fabric sink for its
/// locality id, so frames arrive whenever the fabric's virtual clock says
/// they do — possibly late, duplicated, reordered, or never. Severing
/// either direction severs the fabric pair (ledgering in-flight frames as
/// `in_flight_at_sever`) and the partner link, mirroring a socket dying.
pub fn sim_pair(
    fabric: &Arc<NetFabric>,
    a: EndPoint,
    b: EndPoint,
    cap: usize,
) -> (Arc<Link>, Arc<Link>) {
    fabric.register_sink(a.id, Arc::clone(&a.incoming));
    fabric.register_sink(b.id, Arc::clone(&b.incoming));

    let hook_ab: SeverHook = {
        let fabric = Arc::clone(fabric);
        let (a_id, b_id) = (a.id, b.id);
        Box::new(move || fabric.sever_pair(a_id, b_id))
    };
    let hook_ba: SeverHook = {
        let fabric = Arc::clone(fabric);
        let (a_id, b_id) = (a.id, b.id);
        Box::new(move || fabric.sever_pair(a_id, b_id))
    };

    let a_to_b = Link::new_inner(
        b.id,
        Arc::clone(&a.counters),
        a.on_disconnect,
        cap,
        Some(hook_ab),
    );
    let b_to_a = Link::new_inner(
        a.id,
        Arc::clone(&b.counters),
        b.on_disconnect,
        cap,
        Some(hook_ba),
    );
    *a_to_b.partner.lock() = Arc::downgrade(&b_to_a);
    *b_to_a.partner.lock() = Arc::downgrade(&a_to_b);

    spawn_writer(
        &a_to_b,
        SimTransport::new(Arc::clone(fabric), a.id, b.id, Arc::clone(&a.counters)),
        a.id,
    );
    spawn_writer(
        &b_to_a,
        SimTransport::new(Arc::clone(fabric), b.id, a.id, Arc::clone(&b.counters)),
        b.id,
    );
    (a_to_b, b_to_a)
}

fn spawn_writer<T: Transport>(link: &Arc<Link>, transport: T, sender_id: usize) {
    let link = Arc::clone(link);
    let name = format!("grain-net-tx-{sender_id}-to-{}", link.peer);
    grain_counters::sync::spawn(name, move || writer_loop(link, transport))
        .expect("failed to spawn link writer thread");
}

/// Drain the send queue into the transport until closed/severed, bumping
/// the owning side's sent counters per delivered parcel. A transport
/// refusal severs the link.
///
/// One loop for every transport: take the whole queue under one lock,
/// deliver each frame, flush, and only then look at the queue again —
/// so a burst becomes one batch (one socket write on TCP), a frame
/// pushed while a batch is in hand is the next batch without another
/// `send` to wake anyone, and nothing a transport buffers outlives the
/// batch it came in. A sever stops the batch where it is, as it
/// discards what is still queued.
fn writer_loop<T: Transport>(link: Arc<Link>, mut transport: T) {
    let mut batch = VecDeque::new();
    while link.queue.take_all(&mut batch) {
        for (bytes, parcel) in batch.drain(..) {
            if link.queue.is_severed() {
                return;
            }
            // Booked before the hand-over: by the time the peer has
            // dispatched a parcel, the sender's books hold it.
            if parcel {
                link.counters.sent.incr();
                link.counters.bytes_sent.add(bytes.len() as u64);
            }
            if transport.deliver(bytes, parcel).is_err() {
                link.sever();
                return;
            }
        }
        if transport.flush().is_err() {
            link.sever();
            return;
        }
    }
    // Graceful drain complete (e.g. TCP shuts its write side down so the
    // peer sees a trailing Goodbye, then EOF).
    transport.finish();
}

/// Read length-prefixed frames off the socket and deliver the raw bytes
/// to `incoming` until EOF/error, then sever the link. One buffer the
/// size of the writer's batch sits in front of the socket, so a
/// coalesced batch is one `read`, not two per frame.
fn reader_loop(link: Arc<Link>, stream: TcpStream, incoming: FrameHandler) {
    let mut stream = BufReader::with_capacity(FLUSH_BYTES, stream);
    loop {
        match read_raw_frame(&mut stream) {
            Ok(bytes) => (incoming)(link.peer, bytes),
            Err(_) => {
                link.sever();
                return;
            }
        }
    }
}

/// Read one length-prefixed frame's raw bytes from `stream`.
fn read_raw_frame(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("inbound frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// Write one frame, length-prefixed, directly to a socket in one write.
/// Used during the bootstrap handshake, before the link's writer thread
/// exists.
pub fn write_frame(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    let bytes = frame.encode();
    let mut framed = Vec::with_capacity(4 + bytes.len());
    push_framed(&mut framed, &bytes);
    stream.write_all(&framed)
}

/// Read and decode one frame directly from a socket (bootstrap handshake
/// counterpart of [`write_frame`]). Unbuffered: it must not consume bytes
/// that belong to the link built on the socket next.
pub fn read_frame(stream: &mut TcpStream) -> io::Result<Frame> {
    let bytes = read_raw_frame(stream)?;
    Frame::decode(&bytes).map_err(|e: CodecError| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"))
    })
}

#[cfg(test)]
#[path = "../../runtime/tests/support/pace.rs"]
mod pace;

#[cfg(test)]
mod tests {
    use super::pace::pace;
    use super::*;
    use crate::codec::Frame;
    use crate::transport::TransportError;
    use grain_counters::sync::AtomicUsize;
    use grain_sim::NetPlan;
    use std::sync::mpsc;
    use std::time::Instant;

    fn counters() -> Arc<ParcelCounters> {
        Arc::new(ParcelCounters::new())
    }

    fn endpoint(
        id: usize,
        tx: mpsc::Sender<(usize, Vec<u8>)>,
        disconnects: Arc<AtomicUsize>,
        ctrs: Arc<ParcelCounters>,
    ) -> EndPoint {
        EndPoint {
            id,
            incoming: Arc::new(move |from, bytes| {
                let _ = tx.send((from, bytes));
            }),
            on_disconnect: Arc::new(move |_| {
                disconnects.fetch_add(1, Ordering::SeqCst);
            }),
            counters: ctrs,
        }
    }

    #[test]
    fn loopback_delivers_frames_and_counts_parcels() {
        let (tx_a, _rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        let dis = Arc::new(AtomicUsize::new(0));
        let ca = counters();
        let cb = counters();
        let (a_to_b, _b_to_a) = loopback_pair(
            endpoint(0, tx_a, Arc::clone(&dis), Arc::clone(&ca)),
            endpoint(1, tx_b, Arc::clone(&dis), cb),
            16,
        );

        let call = Frame::Call {
            call_id: 7,
            origin: 0,
            action: "echo".into(),
            args: vec![1, 2, 3],
        };
        a_to_b.send(&call).expect("send");
        let hello = Frame::PeerHello { locality_id: 0 };
        a_to_b.send(&hello).expect("send");

        let (from, bytes) = rx_b.recv_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(from, 0);
        assert_eq!(Frame::decode(&bytes).expect("decode"), call);
        let (_, bytes) = rx_b.recv_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(Frame::decode(&bytes).expect("decode"), hello);

        // Booked before the hand-over, so no waiting. Only the Call
        // counts as a parcel, not the PeerHello.
        assert_eq!(ca.sent.get(), 1);
        assert_eq!(ca.bytes_sent.get(), call.encode().len() as u64);
        assert_eq!(dis.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn severing_one_side_fires_both_disconnect_handlers_once() {
        let (tx_a, _rx_a) = mpsc::channel();
        let (tx_b, _rx_b) = mpsc::channel();
        let dis_a = Arc::new(AtomicUsize::new(0));
        let dis_b = Arc::new(AtomicUsize::new(0));
        let (a_to_b, b_to_a) = loopback_pair(
            endpoint(0, tx_a, Arc::clone(&dis_a), counters()),
            endpoint(1, tx_b, Arc::clone(&dis_b), counters()),
            16,
        );

        a_to_b.sever();
        a_to_b.sever(); // idempotent
        assert_eq!(dis_a.load(Ordering::SeqCst), 1);
        assert_eq!(dis_b.load(Ordering::SeqCst), 1);
        assert_eq!(
            b_to_a.send(&Frame::PeerHello { locality_id: 1 }),
            Err(SendError::Closed { peer: 0 })
        );
    }

    #[test]
    fn push_times_out_when_queue_stays_full() {
        let q = SendQueue::new(1);
        q.push(vec![0u8], false, Duration::from_millis(10))
            .expect("first push fits");
        let err = q
            .push(vec![1u8], false, Duration::from_millis(50))
            .expect_err("second push must time out");
        assert_eq!(err, PushError::Timeout);
    }

    /// Holds what it is given until `flush`, and parks inside its first
    /// `deliver` until the test lets it go.
    struct HeldTransport {
        held: Vec<Vec<u8>>,
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
        flushed: mpsc::Sender<Vec<Vec<u8>>>,
    }

    impl Transport for HeldTransport {
        fn deliver(&mut self, bytes: Vec<u8>, _parcel: bool) -> Result<(), TransportError> {
            if let Some((inside, go)) = self.gate.take() {
                inside.send(()).expect("test listens");
                go.recv().expect("test releases");
            }
            self.held.push(bytes);
            Ok(())
        }

        fn flush(&mut self) -> Result<(), TransportError> {
            let _ = self.flushed.send(std::mem::take(&mut self.held));
            Ok(())
        }
    }

    #[test]
    fn a_frame_pushed_mid_batch_is_flushed_without_another_send() {
        let (inside_tx, inside_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel();
        let (flushed_tx, flushed_rx) = mpsc::channel();
        let link = Link::new_inner(1, counters(), Arc::new(|_| {}), 16, None);
        spawn_writer(
            &link,
            HeldTransport {
                held: Vec::new(),
                gate: Some((inside_tx, go_rx)),
                flushed: flushed_tx,
            },
            0,
        );
        let first = Frame::Ping { nonce: 1 };
        let second = Frame::Ping { nonce: 2 };
        link.send(&first).expect("send");
        // The writer has taken its batch and is inside `deliver`: the
        // second frame's wake-up finds nobody waiting on the queue.
        inside_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("writer reached deliver");
        link.send(&second).expect("send");
        go_tx.send(()).expect("writer waits");
        // Flush follows each batch, and the queue is looked at again
        // before blocking: both frames come out, nothing further sent.
        let wait = Duration::from_secs(5);
        assert_eq!(flushed_rx.recv_timeout(wait), Ok(vec![first.encode()]));
        assert_eq!(flushed_rx.recv_timeout(wait), Ok(vec![second.encode()]));
        link.close();
    }

    #[test]
    fn buffered_reads_keep_frame_boundaries_and_the_size_check() {
        let small = vec![7u8; 5];
        let straddler = vec![8u8; 11]; // starts inside the 16-byte buffer, ends outside
        let jumbo = vec![9u8; 100]; // larger than the whole buffer
        let mut wire = Vec::new();
        for frame in [&small, &straddler, &jumbo, &small] {
            push_framed(&mut wire, frame);
        }
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut stream = BufReader::with_capacity(16, wire.as_slice());
        for frame in [&small, &straddler, &jumbo, &small] {
            assert_eq!(&read_raw_frame(&mut stream).expect("frame"), frame);
        }
        let err = read_raw_frame(&mut stream).expect_err("over MAX_FRAME");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // And a stream that ends inside a frame is an error, not a frame.
        let mut torn = BufReader::with_capacity(16, &wire[..wire.len() - 10]);
        for _ in 0..3 {
            read_raw_frame(&mut torn).expect("whole frames");
        }
        assert!(read_raw_frame(&mut torn).is_err());
    }

    #[test]
    fn backpressure_severs_names_peer_and_books_the_drop() {
        // The receiving handler blocks until released, so the writer
        // thread stalls mid-delivery and the 1-deep queue stays full.
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        let (tx_a, _rx_a) = mpsc::channel();
        let dis = Arc::new(AtomicUsize::new(0));
        let ca = counters();
        let blocking = EndPoint {
            id: 1,
            incoming: Arc::new(move |_, _| {
                while !gate.load(Ordering::SeqCst) {
                    pace(Duration::from_millis(1));
                }
            }),
            on_disconnect: Arc::new(|_| {}),
            counters: counters(),
        };
        let (a_to_b, _b_to_a) = loopback_pair(
            endpoint(0, tx_a, Arc::clone(&dis), Arc::clone(&ca)),
            blocking,
            1,
        );
        a_to_b.set_send_timeout(Duration::from_millis(50));

        let call = |id| Frame::Call {
            call_id: id,
            origin: 0,
            action: "x".into(),
            args: vec![],
        };
        // First frame is popped by the writer (now stuck in the handler);
        // the second fills the queue; the third hits backpressure.
        a_to_b.send(&call(1)).expect("first send");
        let deadline = Instant::now() + Duration::from_secs(5);
        while a_to_b.queue_len() > 0 && Instant::now() < deadline {
            pace(Duration::from_millis(1));
        }
        a_to_b.send(&call(2)).expect("second send fills queue");
        let err = a_to_b.send(&call(3)).expect_err("third send must stall");
        assert_eq!(err, SendError::Backpressure { peer: 1 });
        assert_eq!(err.peer(), 1);
        assert_eq!(ca.dropped.get(), 1, "rejected parcel booked as dropped");
        assert_eq!(dis.load(Ordering::SeqCst), 1, "stall severed the link");
        release.store(true, Ordering::SeqCst);
    }

    #[test]
    fn sim_pair_delivers_through_the_fabric() {
        let fabric = NetFabric::new(NetPlan::clean(11));
        let (tx_a, _rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        let dis = Arc::new(AtomicUsize::new(0));
        let ca = counters();
        let (a_to_b, _b_to_a) = sim_pair(
            &fabric,
            endpoint(0, tx_a, Arc::clone(&dis), Arc::clone(&ca)),
            endpoint(1, tx_b, Arc::clone(&dis), counters()),
            16,
        );

        let call = Frame::Call {
            call_id: 5,
            origin: 0,
            action: "echo".into(),
            args: vec![4, 5],
        };
        a_to_b.send(&call).expect("send");
        let (from, bytes) = rx_b.recv_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(from, 0);
        assert_eq!(Frame::decode(&bytes).expect("decode"), call);

        assert_eq!(ca.sent.get(), 1);
        assert_eq!(ca.dropped.get(), 0);

        // Severing one direction severs the fabric pair and the partner.
        a_to_b.sever();
        assert_eq!(dis.load(Ordering::SeqCst), 2);
        assert!(fabric.wait_drained(Duration::from_secs(5)));
        fabric.stop();
    }

    #[test]
    fn tcp_pair_roundtrips_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let sockets = [
            client.try_clone().expect("clone"),
            server.try_clone().expect("clone"),
        ];

        let (tx_srv, rx_srv) = mpsc::channel::<(usize, Vec<u8>)>();
        let dis = Arc::new(AtomicUsize::new(0));
        let dis2 = Arc::clone(&dis);
        let srv_link = Link::tcp(
            1,
            server,
            Arc::new(move |from, bytes| {
                let _ = tx_srv.send((from, bytes));
            }),
            Arc::new(move |_| {
                dis2.fetch_add(1, Ordering::SeqCst);
            }),
            counters(),
            16,
        )
        .expect("server link");

        let (tx_cli, _rx_cli) = mpsc::channel::<(usize, Vec<u8>)>();
        let cli_link = Link::tcp(
            0,
            client,
            Arc::new(move |from, bytes| {
                let _ = tx_cli.send((from, bytes));
            }),
            Arc::new(|_| {}),
            counters(),
            16,
        )
        .expect("client link");
        // A link's socket never leaves batching to Nagle.
        for socket in &sockets {
            assert!(socket.nodelay().expect("getsockopt"));
        }

        let reply = Frame::Reply {
            call_id: 42,
            outcome: Ok(vec![9, 9]),
        };
        cli_link.send(&reply).expect("send");
        let (from, bytes) = rx_srv.recv_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(from, 1);
        assert_eq!(Frame::decode(&bytes).expect("decode"), reply);

        // Dropping the client's socket (sever) must fire the server's
        // disconnect handler via reader EOF.
        cli_link.sever();
        let deadline = Instant::now() + Duration::from_secs(5);
        while dis.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            pace(Duration::from_millis(1));
        }
        assert_eq!(dis.load(Ordering::SeqCst), 1);
        drop(srv_link);
    }
}
