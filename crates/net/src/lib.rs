//! grain-net: the distribution layer.
//!
//! Everything HPX calls "the parcel layer", rebuilt std-only on top of
//! the grain runtime:
//!
//! * [`codec`] — the versioned wire format: length-delimited frames with
//!   a total (never-panicking) decoder, plus the [`codec::Wire`] trait
//!   for argument/result serialization. `f64` crosses the wire via
//!   `to_bits`, so distributed numeric results are bit-identical to
//!   local ones.
//! * [`parcelport`] — point-to-point links: a bounded send queue drained
//!   by a writer thread, over TCP (length-prefixed frames) or in-process
//!   loopback (same machinery, no sockets).
//! * [`transport`] — the seam under the writer thread: TCP, loopback,
//!   and a simulated transport that routes frames through a seeded
//!   [`grain_sim::NetFabric`] for deterministic chaos testing.
//! * [`locality`] — the distributed unit: action registry, pending-call
//!   table, and [`locality::Locality::async_remote`], the distributed
//!   `hpx::async`. Remote panics come back as `TaskError::Panicked`;
//!   dead peers settle their futures with `TaskError::Disconnected`.
//! * [`block_of`] / [`block_owner`] — the split of a global index range
//!   into one contiguous block per locality, and its inverse; the
//!   [`EdgeBoard`] is where the producer of a boundary edge and its
//!   remote consumers meet, in either order.
//! * [`bootstrap`] — world construction: hermetic in-process
//!   [`bootstrap::Fabric`] worlds for tests, and a TCP root/join
//!   protocol for multi-process runs.
//! * [`counters`] — the `/parcels{locality#N/total}/…` counter family.
//!
//! ```
//! use grain_net::bootstrap::Fabric;
//! use grain_runtime::RuntimeConfig;
//!
//! let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
//! fabric
//!     .locality(1)
//!     .register_action("double", |x: u64| x * 2);
//! let fut = fabric
//!     .locality(0)
//!     .async_remote::<u64, u64>(1, "double", &21);
//! assert_eq!(*fut.wait().expect("settled"), 42);
//! fabric.shutdown();
//! ```

#![warn(missing_docs)]

pub mod bootstrap;
pub mod codec;
pub mod counters;
mod exchange;
pub mod locality;
pub mod parcelport;
pub mod transport;

pub use bootstrap::{tcp_join, tcp_root, Fabric, TcpNode};
pub use codec::{CodecError, Frame, Wire, WireFault, MAX_FRAME};
pub use counters::ParcelCounters;
pub use exchange::{block_of, block_owner, EdgeBoard};
pub use locality::{Locality, NetConfig, PeersChangedGuard};
pub use parcelport::{Link, SendError};
pub use transport::{LoopbackTransport, SimTransport, TcpTransport, Transport, TransportError};
