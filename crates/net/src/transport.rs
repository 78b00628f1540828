//! The transport seam: where a link's writer thread puts frames.
//!
//! A [`crate::parcelport::Link`] is a bounded queue plus a writer
//! thread; *what the writer does with each frame* is this trait. Three
//! impls share the seam:
//!
//! * [`TcpTransport`] — length-prefixed frames onto a socket;
//! * [`LoopbackTransport`] — straight into the peer's frame handler;
//! * [`SimTransport`] — into a [`NetFabric`], which models latency,
//!   loss, duplication, reordering, bandwidth, and partitions under a
//!   seeded [`grain_sim::NetPlan`], then (maybe, later, once or twice)
//!   delivers to the peer's handler via its registered sink.
//!
//! The seam is deliberately *below* the send queue and counters: every
//! transport inherits the same backpressure, sever, and
//! `/parcels/count/sent` discipline, so swapping TCP for the simulated
//! fabric changes nothing about how the locality layer behaves — which
//! is exactly what makes chaos results transfer back to the real
//! transports.
//!
//! `SimTransport` classifies frames by *identity* before submitting
//! ([`sim_class_of`]): a `Call` is keyed by `(origin, call_id)`, a
//! `Reply` by `(destination, call_id)`. The fabric's verdicts are a
//! pure function of that identity, which is what makes chaos replays
//! bit-identical under real thread races (see `grain_sim::netplan`).

use crate::codec::Frame;
use crate::counters::ParcelCounters;
use crate::parcelport::FrameHandler;
use grain_sim::fabric::{NetFabric, SimFrameClass};
use grain_sim::netplan::{frame_id, FRAME_KIND_CALL, FRAME_KIND_REPLY};
use std::fmt;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

/// The transport failed to accept a frame; the link must sever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportError;

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transport failed to accept frame")
    }
}

impl std::error::Error for TransportError {}

/// Where a link's writer thread delivers encoded frames.
///
/// `deliver` is called once per dequeued frame, in queue order, from
/// the writer thread only (so `&mut self` suffices). Returning `Err`
/// severs the link. `finish` is called after a graceful drain.
pub trait Transport: Send + 'static {
    /// Deliver one encoded frame. `parcel` mirrors
    /// [`Frame::is_parcel`] for counter discipline.
    fn deliver(&mut self, bytes: Vec<u8>, parcel: bool) -> Result<(), TransportError>;

    /// Push any internally buffered bytes to the peer. Called by the
    /// writer loop after every batch it took off the send queue, before
    /// it looks at the queue again, so a coalescing transport never
    /// sits on a frame while the peer waits. Default: nothing buffered.
    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Graceful-drain hook: the queue closed and everything queued was
    /// delivered.
    fn finish(&mut self) {}
}

/// Length-prefixed frames onto a TCP socket, coalesced.
///
/// `deliver` appends `len ‖ bytes` to a reusable write buffer and the
/// writer loop's `flush` sends the whole batch in one `write_all` — one
/// syscall for a burst of small frames, and never a length prefix in a
/// segment of its own (the write-write-read pattern that waits out the
/// peer's delayed ACK). Length prefixes make concatenation safe on a
/// byte stream. The writer loop flushes after every batch, so
/// coalescing adds no latency when traffic is sparse.
pub struct TcpTransport {
    stream: TcpStream,
    /// Coalesced bytes not yet written.
    wbuf: Vec<u8>,
}

/// The write buffer goes out whenever it reaches this size: large
/// enough to batch a burst of small frames, small enough that one jumbo
/// frame neither gets copied nor pins its size in the buffer.
pub(crate) const FLUSH_BYTES: usize = 32 * 1024;

/// Append `bytes` to `buf` as one frame of the stream: `u32`-LE length,
/// then the bytes.
pub(crate) fn push_framed(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

impl TcpTransport {
    /// Wrap a connected socket.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            wbuf: Vec::new(),
        }
    }
}

impl Transport for TcpTransport {
    fn deliver(&mut self, bytes: Vec<u8>, _parcel: bool) -> Result<(), TransportError> {
        if bytes.len() >= FLUSH_BYTES {
            // A jumbo frame is not copied: its prefix rides with what
            // is buffered, its body goes out from where it is.
            self.wbuf
                .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            self.flush()?;
            return self.stream.write_all(&bytes).map_err(|_| TransportError);
        }
        push_framed(&mut self.wbuf, &bytes);
        if self.wbuf.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        if !self.wbuf.is_empty() {
            self.stream
                .write_all(&self.wbuf)
                .map_err(|_| TransportError)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    fn finish(&mut self) {
        // Flush the write side so the peer sees everything (including a
        // trailing Goodbye) before EOF.
        let _ = self.flush();
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// Straight into the peer's frame handler, in-process.
pub struct LoopbackTransport {
    peer_incoming: FrameHandler,
    sender_id: usize,
}

impl LoopbackTransport {
    /// Deliver to `peer_incoming`, labelled as coming from `sender_id`.
    pub fn new(peer_incoming: FrameHandler, sender_id: usize) -> Self {
        Self {
            peer_incoming,
            sender_id,
        }
    }
}

impl Transport for LoopbackTransport {
    fn deliver(&mut self, bytes: Vec<u8>, _parcel: bool) -> Result<(), TransportError> {
        (self.peer_incoming)(self.sender_id, bytes);
        Ok(())
    }
}

/// Into a simulated fabric, under a seeded chaos plan.
///
/// The transport *accepting* a frame does not mean the peer will see
/// it: the fabric may drop or duplicate it. Sender-side books learn
/// about that immediately — a chaos/tail drop bumps this side's
/// `dropped`, a duplication bumps `duplicated` — so the parcel ledger
/// stays locally auditable without peeking into the fabric.
pub struct SimTransport {
    fabric: Arc<NetFabric>,
    src: usize,
    dst: usize,
    counters: Arc<ParcelCounters>,
}

impl SimTransport {
    /// A lane from `src` to `dst` through `fabric`, booking outcomes
    /// into `counters` (the sending locality's parcel family).
    pub fn new(
        fabric: Arc<NetFabric>,
        src: usize,
        dst: usize,
        counters: Arc<ParcelCounters>,
    ) -> Self {
        Self {
            fabric,
            src,
            dst,
            counters,
        }
    }
}

impl Transport for SimTransport {
    fn deliver(&mut self, bytes: Vec<u8>, parcel: bool) -> Result<(), TransportError> {
        let class = sim_class_of(&bytes, self.dst);
        debug_assert_eq!(
            parcel,
            matches!(class, SimFrameClass::Parcel { .. }),
            "queue parcel flag must agree with frame classification"
        );
        let outcome = self.fabric.submit(self.src, self.dst, bytes, class);
        if parcel {
            if outcome.dropped {
                self.counters.dropped.incr();
            }
            if outcome.duplicated {
                self.counters.duplicated.incr();
            }
        }
        Ok(())
    }
}

/// Classify an encoded frame for the fabric: parcels get their
/// replay-stable identity, everything else (including bytes that fail
/// to decode, which cannot happen for locally-encoded frames) rides as
/// control traffic.
fn sim_class_of(bytes: &[u8], dst: usize) -> SimFrameClass {
    match Frame::decode(bytes) {
        Ok(Frame::Call {
            call_id, origin, ..
        }) => SimFrameClass::Parcel {
            id: frame_id(FRAME_KIND_CALL, origin as u64, call_id),
        },
        Ok(Frame::Reply { call_id, .. }) => SimFrameClass::Parcel {
            id: frame_id(FRAME_KIND_REPLY, dst as u64, call_id),
        },
        _ => SimFrameClass::Control,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_parcel_flag() {
        let call = Frame::Call {
            call_id: 3,
            origin: 1,
            action: "x".into(),
            args: vec![],
        };
        let reply = Frame::Reply {
            call_id: 3,
            outcome: Ok(vec![]),
        };
        let ping = Frame::Ping { nonce: 1 };
        assert!(matches!(
            sim_class_of(&call.encode(), 2),
            SimFrameClass::Parcel { .. }
        ));
        assert!(matches!(
            sim_class_of(&reply.encode(), 2),
            SimFrameClass::Parcel { .. }
        ));
        assert_eq!(sim_class_of(&ping.encode(), 2), SimFrameClass::Control);
        assert_eq!(sim_class_of(b"garbage", 2), SimFrameClass::Control);
    }

    #[test]
    fn call_and_reply_identities_use_their_own_namespaces() {
        // A call from locality 1 and its reply back to locality 1 must
        // share the `who = 1` namespace but differ by kind.
        let call = Frame::Call {
            call_id: 9,
            origin: 1,
            action: "x".into(),
            args: vec![],
        };
        let reply = Frame::Reply {
            call_id: 9,
            outcome: Ok(vec![]),
        };
        let call_id = match sim_class_of(&call.encode(), 2) {
            SimFrameClass::Parcel { id } => id,
            SimFrameClass::Control => panic!("call is a parcel"),
        };
        let reply_id = match sim_class_of(&reply.encode(), 1) {
            SimFrameClass::Parcel { id } => id,
            SimFrameClass::Control => panic!("reply is a parcel"),
        };
        assert_ne!(call_id, reply_id);
        assert_eq!(call_id, frame_id(FRAME_KIND_CALL, 1, 9));
        assert_eq!(reply_id, frame_id(FRAME_KIND_REPLY, 1, 9));
    }
}
