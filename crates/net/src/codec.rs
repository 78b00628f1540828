//! The versioned wire codec.
//!
//! Every parcel on the wire is one *frame*: a 4-byte magic, a version
//! byte, a tag byte, and a tag-specific payload, carried inside a
//! `u32`-length-prefixed envelope written by the parcelport. Decoding is
//! total: any byte sequence — truncated, corrupted, malicious — produces
//! a [`CodecError`], never a panic, because frames arrive from outside
//! the process's trust boundary.
//!
//! Task arguments and results travel as opaque byte payloads produced by
//! the [`Wire`] trait, a minimal self-describing-free serializer for the
//! value shapes remote actions exchange (integers, floats bit-exactly,
//! strings, vectors, tuples). `f64` crosses the wire via
//! [`f64::to_bits`], so a distributed computation can be *bit-identical*
//! to its shared-memory twin.

use std::fmt;

/// First bytes of every frame; rejects cross-protocol traffic early.
const MAGIC: [u8; 4] = *b"GRNP";

/// Wire protocol version. Bumped on any incompatible frame change; a
/// mismatch is a [`CodecError::Version`] at decode time.
const VERSION: u8 = 1;

/// Hard upper bound on one frame's payload (16 MiB). A length prefix
/// beyond this is treated as corruption rather than an allocation
/// request — the receive path must stay bounded.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the structure requires.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    Magic,
    /// The frame's version byte is not [`VERSION`].
    Version(u8),
    /// Unknown frame or fault tag.
    Tag(u8),
    /// A declared length exceeds [`MAX_FRAME`] or the remaining input.
    Length(u64),
    /// A string field is not valid UTF-8.
    Utf8,
    /// Bytes remained after the structure was fully decoded.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::Magic => write!(f, "bad frame magic"),
            CodecError::Version(v) => write!(f, "unsupported wire version {v}"),
            CodecError::Tag(t) => write!(f, "unknown tag {t}"),
            CodecError::Length(n) => write!(f, "implausible length {n}"),
            CodecError::Utf8 => write!(f, "string field is not UTF-8"),
            CodecError::Trailing(n) => write!(f, "{n} trailing byte(s) after frame"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked cursor over received bytes. Every accessor returns
/// `Err(CodecError::Truncated)` instead of slicing out of range.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// `f64` transported as raw bits (bit-exact across the wire).
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u64()?;
        if n > MAX_FRAME as u64 || n > self.remaining() as u64 {
            return Err(CodecError::Length(n));
        }
        self.take(n as usize)
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let b = self.bytes()?;
        // Validate in place, then copy exactly once on success —
        // `String::from_utf8(b.to_vec())` copies before validating, so
        // corrupt input paid an allocation just to be rejected.
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| CodecError::Utf8)
    }

    /// Assert the input is fully consumed (frame decoding ends with this
    /// so trailing garbage is loud, not silently ignored).
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

/// Append-only encoder mirror of [`Reader`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as raw bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// The encoded bytes.
    fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reset for reuse, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// A task fault in wire form: the serializable projection of
/// [`grain_runtime::TaskError`] a remote reply carries home. The caller
/// maps it back — `Panicked` to `TaskError::Panicked` (a remote panic
/// must surface exactly like a local one), the protocol-level kinds to
/// `TaskError::Remote`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFault {
    /// The remote task's body panicked; message captured remotely.
    Panicked(String),
    /// The remote task was cancelled before running.
    Cancelled,
    /// The remote promise was dropped without a value.
    BrokenPromise,
    /// The named action is not registered on the destination.
    UnknownAction(String),
    /// The destination could not decode the call's arguments.
    BadArguments(String),
    /// Any other remote failure, carried as text (e.g. a dependency
    /// chain rendered by `Display`).
    Other(String),
}

const FAULT_PANICKED: u8 = 1;
const FAULT_CANCELLED: u8 = 2;
const FAULT_BROKEN: u8 = 3;
const FAULT_UNKNOWN_ACTION: u8 = 4;
const FAULT_BAD_ARGS: u8 = 5;
const FAULT_OTHER: u8 = 6;

impl WireFault {
    fn encode(&self, w: &mut Writer) {
        match self {
            WireFault::Panicked(m) => {
                w.u8(FAULT_PANICKED);
                w.string(m);
            }
            WireFault::Cancelled => w.u8(FAULT_CANCELLED),
            WireFault::BrokenPromise => w.u8(FAULT_BROKEN),
            WireFault::UnknownAction(m) => {
                w.u8(FAULT_UNKNOWN_ACTION);
                w.string(m);
            }
            WireFault::BadArguments(m) => {
                w.u8(FAULT_BAD_ARGS);
                w.string(m);
            }
            WireFault::Other(m) => {
                w.u8(FAULT_OTHER);
                w.string(m);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            FAULT_PANICKED => WireFault::Panicked(r.string()?),
            FAULT_CANCELLED => WireFault::Cancelled,
            FAULT_BROKEN => WireFault::BrokenPromise,
            FAULT_UNKNOWN_ACTION => WireFault::UnknownAction(r.string()?),
            FAULT_BAD_ARGS => WireFault::BadArguments(r.string()?),
            FAULT_OTHER => WireFault::Other(r.string()?),
            t => return Err(CodecError::Tag(t)),
        })
    }
}

/// One parcel. `Call`/`Reply` carry action traffic (counted by the
/// `/parcels/*` family); the rest are bootstrap/teardown control frames
/// (not counted — they have no matching reply, so counting them would
/// unbalance `sent == received` at quiescence).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Peer → root: request to join; `listen_addr` is where the peer
    /// accepts direct connections from other localities (empty when the
    /// transport is loopback and no listener exists).
    Hello {
        /// Where the joining peer listens for `PeerHello` dials.
        listen_addr: String,
    },
    /// Root → peer: the assigned locality id, the world size, and the
    /// already-joined peers to dial directly.
    Welcome {
        /// Id assigned to the joining peer.
        locality_id: u32,
        /// Total number of localities in this world.
        world: u32,
        /// `(locality id, listen address)` of every previously joined
        /// peer the newcomer must connect to.
        peers: Vec<(u32, String)>,
    },
    /// Peer → peer: identifies the dialing locality on a direct link.
    PeerHello {
        /// Locality id of the dialer.
        locality_id: u32,
    },
    /// A remote action invocation.
    Call {
        /// Correlates the eventual [`Frame::Reply`].
        call_id: u64,
        /// Locality the reply must go back to.
        origin: u32,
        /// Registered action name on the destination.
        action: String,
        /// [`Wire`]-encoded arguments.
        args: Vec<u8>,
    },
    /// The settled outcome of a [`Frame::Call`].
    Reply {
        /// The call this settles.
        call_id: u64,
        /// Encoded result value, or the fault that prevented one.
        outcome: Result<Vec<u8>, WireFault>,
    },
    /// Graceful leave: the sender will close the link; outstanding calls
    /// to it settle as disconnected.
    Goodbye {
        /// Locality id of the leaver.
        locality_id: u32,
    },
    /// Liveness probe. Not a parcel (uncounted control traffic); any
    /// inbound frame refreshes the peer's `last_heard`, the ping merely
    /// guarantees a quiet link still carries *something*.
    Ping {
        /// Echoed back in the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Liveness response to a [`Frame::Ping`].
    Pong {
        /// The probe's nonce.
        nonce: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_PEER_HELLO: u8 = 3;
const TAG_CALL: u8 = 4;
const TAG_REPLY: u8 = 5;
const TAG_GOODBYE: u8 = 6;
const TAG_PING: u8 = 7;
const TAG_PONG: u8 = 8;

impl Frame {
    /// True for the frames the `/parcels/*` counters track (action
    /// traffic, not bootstrap control).
    pub fn is_parcel(&self) -> bool {
        matches!(self, Frame::Call { .. } | Frame::Reply { .. })
    }

    /// Encode into a standalone byte vector (magic + version + tag +
    /// payload). The parcelport adds the transport length prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u8(VERSION);
        match self {
            Frame::Hello { listen_addr } => {
                w.u8(TAG_HELLO);
                w.string(listen_addr);
            }
            Frame::Welcome {
                locality_id,
                world,
                peers,
            } => {
                w.u8(TAG_WELCOME);
                w.u32(*locality_id);
                w.u32(*world);
                w.u32(peers.len() as u32);
                for (id, addr) in peers {
                    w.u32(*id);
                    w.string(addr);
                }
            }
            Frame::PeerHello { locality_id } => {
                w.u8(TAG_PEER_HELLO);
                w.u32(*locality_id);
            }
            Frame::Call {
                call_id,
                origin,
                action,
                args,
            } => {
                w.u8(TAG_CALL);
                w.u64(*call_id);
                w.u32(*origin);
                w.string(action);
                w.bytes(args);
            }
            Frame::Reply { call_id, outcome } => {
                w.u8(TAG_REPLY);
                w.u64(*call_id);
                match outcome {
                    Ok(bytes) => {
                        w.u8(0);
                        w.bytes(bytes);
                    }
                    Err(fault) => {
                        w.u8(1);
                        fault.encode(&mut w);
                    }
                }
            }
            Frame::Goodbye { locality_id } => {
                w.u8(TAG_GOODBYE);
                w.u32(*locality_id);
            }
            Frame::Ping { nonce } => {
                w.u8(TAG_PING);
                w.u64(*nonce);
            }
            Frame::Pong { nonce } => {
                w.u8(TAG_PONG);
                w.u64(*nonce);
            }
        }
        w.into_vec()
    }

    /// Decode one frame; total over arbitrary bytes.
    pub fn decode(buf: &[u8]) -> Result<Frame, CodecError> {
        let mut r = Reader::new(buf);
        if r.take(4)? != MAGIC {
            return Err(CodecError::Magic);
        }
        let v = r.u8()?;
        if v != VERSION {
            return Err(CodecError::Version(v));
        }
        let frame = match r.u8()? {
            TAG_HELLO => Frame::Hello {
                listen_addr: r.string()?,
            },
            TAG_WELCOME => {
                let locality_id = r.u32()?;
                let world = r.u32()?;
                let n = r.u32()?;
                // A peer list longer than the remaining bytes could even
                // plausibly hold is corruption, not an allocation hint.
                if n as usize > r.remaining() {
                    return Err(CodecError::Length(n as u64));
                }
                let mut peers = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let id = r.u32()?;
                    let addr = r.string()?;
                    peers.push((id, addr));
                }
                Frame::Welcome {
                    locality_id,
                    world,
                    peers,
                }
            }
            TAG_PEER_HELLO => Frame::PeerHello {
                locality_id: r.u32()?,
            },
            TAG_CALL => Frame::Call {
                call_id: r.u64()?,
                origin: r.u32()?,
                action: r.string()?,
                // Single necessary copy: the frame buffer is borrowed
                // and the decoded `Frame` owns its payload (the buffer
                // is dropped right after decode).
                args: r.bytes()?.to_vec(),
            },
            TAG_REPLY => {
                let call_id = r.u64()?;
                let outcome = match r.u8()? {
                    // Single necessary copy, as for Call args above.
                    0 => Ok(r.bytes()?.to_vec()),
                    1 => Err(WireFault::decode(&mut r)?),
                    t => return Err(CodecError::Tag(t)),
                };
                Frame::Reply { call_id, outcome }
            }
            TAG_GOODBYE => Frame::Goodbye {
                locality_id: r.u32()?,
            },
            TAG_PING => Frame::Ping { nonce: r.u64()? },
            TAG_PONG => Frame::Pong { nonce: r.u64()? },
            t => return Err(CodecError::Tag(t)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Values remote actions can take and return. Implementations must
/// roundtrip exactly: `decode(encode(v)) == v`, bit-for-bit for floats.
pub trait Wire: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decode one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encode a [`Wire`] value into a standalone payload.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    v.encode(&mut w);
    w.into_vec()
}

/// Decode a standalone payload produced by [`to_bytes`]; rejects
/// trailing bytes.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

impl Wire for () {
    fn encode(&self, _w: &mut Writer) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut Writer) {
        w.u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
}

impl Wire for u8 {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u8()
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Length(v))
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::Tag(t)),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.f64()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.string(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.string()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.u64()?;
        // Each element consumes at least one byte; a count beyond the
        // remaining input is corruption, not an allocation request.
        if n > r.remaining() as u64 {
            return Err(CodecError::Length(n));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Wire for Box<[f64]> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self.iter() {
            w.f64(*v);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.u64()?;
        if n.checked_mul(8).is_none_or(|b| b > r.remaining() as u64) {
            return Err(CodecError::Length(n));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(r.f64()?);
        }
        Ok(out.into_boxed_slice())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(CodecError::Tag(t)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
        self.3.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: &Frame) {
        let bytes = f.encode();
        let back = Frame::decode(&bytes).expect("roundtrip decode");
        assert_eq!(&back, f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(&Frame::Hello {
            listen_addr: "127.0.0.1:4433".into(),
        });
        roundtrip(&Frame::Welcome {
            locality_id: 3,
            world: 4,
            peers: vec![(1, "a:1".into()), (2, "b:2".into())],
        });
        roundtrip(&Frame::PeerHello { locality_id: 9 });
        roundtrip(&Frame::Call {
            call_id: 77,
            origin: 2,
            action: "stencil/edge".into(),
            args: vec![1, 2, 3, 255],
        });
        roundtrip(&Frame::Reply {
            call_id: 77,
            outcome: Ok(vec![9, 8]),
        });
        roundtrip(&Frame::Reply {
            call_id: 78,
            outcome: Err(WireFault::Panicked("boom".into())),
        });
        roundtrip(&Frame::Goodbye { locality_id: 1 });
        roundtrip(&Frame::Ping { nonce: 0xdead });
        roundtrip(&Frame::Pong { nonce: 0xdead });
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = Frame::Call {
            call_id: 1,
            origin: 0,
            action: "x".into(),
            args: vec![0; 32],
        }
        .encode();
        for n in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..n]).is_err(), "prefix {n} decoded");
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = Frame::Goodbye { locality_id: 0 }.encode();
        bytes[0] ^= 0xFF;
        assert_eq!(Frame::decode(&bytes), Err(CodecError::Magic));
        let mut bytes = Frame::Goodbye { locality_id: 0 }.encode();
        bytes[4] = VERSION + 1;
        assert_eq!(Frame::decode(&bytes), Err(CodecError::Version(VERSION + 1)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::Goodbye { locality_id: 0 }.encode();
        bytes.push(0);
        assert_eq!(Frame::decode(&bytes), Err(CodecError::Trailing(1)));
    }

    #[test]
    fn wire_values_roundtrip_bit_exactly() {
        let v = f64::from_bits(0x7FF0_0000_0000_0001); // a signalling NaN
        let b = to_bytes(&v);
        let back: f64 = from_bytes(&b).expect("decode");
        assert_eq!(back.to_bits(), v.to_bits());

        let part: Box<[f64]> = vec![0.1, -0.0, f64::MIN_POSITIVE].into_boxed_slice();
        let back: Box<[f64]> = from_bytes(&to_bytes(&part)).expect("decode");
        assert_eq!(
            back.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            part.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );

        let tup = (3u64, "hi".to_string(), vec![1.0f64, 2.0]);
        let back: (u64, String, Vec<f64>) = from_bytes(&to_bytes(&tup)).expect("decode");
        assert_eq!(back, tup);
    }

    #[test]
    fn hostile_lengths_rejected() {
        // A Vec<f64> claiming u64::MAX elements must fail cleanly.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_vec();
        assert!(from_bytes::<Vec<f64>>(&bytes).is_err());
        assert!(from_bytes::<Box<[f64]>>(&bytes).is_err());
        assert!(from_bytes::<String>(&bytes).is_err());
    }
}
