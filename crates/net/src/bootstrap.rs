//! World bootstrap: wiring localities together.
//!
//! Two modes share the locality/link machinery above them:
//!
//! * [`Fabric::loopback`] — every locality lives in *this* process,
//!   connected by in-memory loopback links. No sockets, no ports, fully
//!   hermetic and deterministic: this is what tests and single-machine
//!   benchmarks use. `Fabric::kill` severs one locality abruptly,
//!   emulating a crashed process. [`Fabric::chaotic`] is the same world
//!   with the links routed through a seeded [`grain_sim::NetFabric`]:
//!   identical API, but frames can now be delayed, dropped, duplicated,
//!   reordered, or partitioned according to the [`NetPlan`] — the
//!   harness for every chaos test and the `netstorm` binary.
//! * [`tcp_root`] / [`tcp_join`] — the multi-process mode. Locality 0
//!   (the *root*, HPX's console locality) binds a listener; each joiner
//!   dials it, sends `Hello{listen_addr}`, and receives
//!   `Welcome{locality_id, world, peers}` assigning its id and listing
//!   the peers that joined before it. The joiner then dials each listed
//!   peer directly (`PeerHello{id}`), producing a full mesh without the
//!   root relaying traffic.
//!
//! Id assignment is strictly root-ordered (join order), so a world of
//! size `W` always ends up with ids `0..W` — code addressing
//! "locality `k` of `W`" works identically in both modes.

use crate::codec::Frame;
use crate::locality::{Locality, NetConfig};
use crate::parcelport::{self, EndPoint, Link, DEFAULT_QUEUE_CAP};
use grain_counters::sync::{deadline_after, AtomicBool, Mutex, Ordering};
use grain_counters::ScopedRegistry;
use grain_runtime::{Runtime, RuntimeConfig};
use grain_sim::{NetFabric, NetPlan};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// An in-process world of loopback- or chaos-connected localities.
pub struct Fabric {
    localities: Vec<Locality>,
    /// The simulated network, when built with [`Fabric::chaotic`], and
    /// the scope keeping its `/net{fabric/total}/…` counters on locality
    /// 0 while the world lives.
    net: Option<(Arc<NetFabric>, ScopedRegistry)>,
}

impl Fabric {
    /// Build a world of `world` localities in this process, full-mesh
    /// connected with loopback links. `mk_config` produces the runtime
    /// configuration for each locality (its `locality_id` is overridden
    /// to the slot index).
    pub fn loopback(world: usize, mk_config: impl Fn(usize) -> RuntimeConfig) -> Self {
        Self::build(world, None, |_| NetConfig::default(), mk_config)
    }

    /// Build a world of `world` localities full-mesh connected *through a
    /// simulated network* driven by `plan`. `mk_net` produces each
    /// locality's robustness knobs ([`NetConfig`]) — chaos plans that
    /// drop or blackhole frames need call deadlines and/or liveness
    /// monitoring armed, or futures whose frames are destroyed would
    /// wait forever.
    ///
    /// The same seed replays the same network weather: frame fates are a
    /// pure function of `(plan.seed, src, dst, frame identity)`, not of
    /// thread timing.
    pub fn chaotic(
        world: usize,
        plan: NetPlan,
        mk_net: impl Fn(usize) -> NetConfig,
        mk_config: impl Fn(usize) -> RuntimeConfig,
    ) -> Self {
        Self::build(world, Some(NetFabric::new(plan)), mk_net, mk_config)
    }

    fn build(
        world: usize,
        net: Option<Arc<NetFabric>>,
        mk_net: impl Fn(usize) -> NetConfig,
        mk_config: impl Fn(usize) -> RuntimeConfig,
    ) -> Self {
        assert!(world >= 1, "a world needs at least one locality");
        let localities: Vec<Locality> = (0..world)
            .map(|i| {
                let mut cfg = mk_config(i);
                cfg.locality_id = i;
                let rt = Arc::new(Runtime::new(cfg));
                Locality::with_config(rt, i, world, mk_net(i)).expect("register parcel counters")
            })
            .collect();
        let net = net.map(|fabric| {
            let registry = localities[0].runtime().registry();
            let counters = fabric
                .register(registry)
                .expect("a fresh locality holds no /net counters");
            (fabric, counters)
        });
        for i in 0..world {
            for j in (i + 1)..world {
                let end = |k: usize| EndPoint {
                    id: k,
                    incoming: localities[k].frame_handler(),
                    on_disconnect: localities[k].disconnect_handler(),
                    counters: Arc::clone(localities[k].parcels()),
                };
                let (i_to_j, j_to_i) = match &net {
                    Some((f, _)) => parcelport::sim_pair(f, end(i), end(j), DEFAULT_QUEUE_CAP),
                    None => parcelport::loopback_pair(end(i), end(j), DEFAULT_QUEUE_CAP),
                };
                localities[i].add_link(i_to_j);
                localities[j].add_link(j_to_i);
            }
        }
        Self { localities, net }
    }

    /// The simulated network, when this world was built with
    /// [`Fabric::chaotic`] — for ledger assertions, partitions, pausing.
    pub fn net(&self) -> Option<&Arc<NetFabric>> {
        self.net.as_ref().map(|(fabric, _)| fabric)
    }

    /// Number of localities in this world (including killed ones).
    pub fn world(&self) -> usize {
        self.localities.len()
    }

    /// The locality in slot `i`.
    pub fn locality(&self, i: usize) -> &Locality {
        &self.localities[i]
    }

    /// Abruptly kill locality `i`: sever all its links without a
    /// goodbye, exactly as if its process crashed. Every outstanding
    /// remote future addressed to it — on any surviving locality —
    /// settles with `TaskError::Disconnected`.
    pub fn kill(&self, i: usize) {
        self.localities[i].kill();
    }

    /// Graceful teardown: every locality says goodbye and drains its
    /// queues, then every runtime finishes its local work. A chaotic
    /// world also drains and stops the simulated network (its pump
    /// thread holds an `Arc`, so an unstopped fabric would linger).
    pub fn shutdown(&self) {
        for loc in &self.localities {
            loc.shutdown();
        }
        for loc in &self.localities {
            loc.runtime().wait_idle();
        }
        if let Some((fabric, _)) = &self.net {
            fabric.wait_quiescent(Duration::from_secs(5));
            fabric.stop();
        }
    }
}

/// A locality bootstrapped over TCP, plus its listener plumbing.
pub struct TcpNode {
    locality: Locality,
    listen_addr: String,
    stop: Arc<AtomicBool>,
}

impl TcpNode {
    /// The locality this node hosts.
    pub fn locality(&self) -> &Locality {
        &self.locality
    }

    /// The address this node accepts peer connections on.
    pub fn listen_addr(&self) -> &str {
        &self.listen_addr
    }

    /// Block until links to all `world - 1` peers exist, up to `timeout`.
    /// The wait ends on the link event itself: installing a link wakes
    /// it, so a world is ready the moment its last link lands. Returns
    /// `false` on timeout; a `timeout` that reaches past the clock's
    /// range is no deadline.
    pub fn wait_for_world(&self, timeout: Duration) -> bool {
        self.locality
            .wait_for_links(self.locality.world() - 1, deadline_after(timeout))
    }

    /// Stop the accept loop (graceful node teardown).
    pub fn stop_listening(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway self-connection.
        let _ = TcpStream::connect(&self.listen_addr);
    }
}

impl Drop for TcpNode {
    fn drop(&mut self) {
        self.stop_listening();
    }
}

/// Start the root (locality 0) of a `world`-locality TCP world, listening
/// on `bind` (e.g. `"127.0.0.1:0"`). Returns once the listener is live;
/// call [`TcpNode::wait_for_world`] to block until all peers joined.
pub fn tcp_root(bind: &str, world: usize, mut cfg: RuntimeConfig) -> io::Result<TcpNode> {
    assert!(world >= 1, "a world needs at least one locality");
    cfg.locality_id = 0;
    let rt = Arc::new(Runtime::new(cfg));
    let locality = Locality::new(rt, 0, world)
        .map_err(|e| io::Error::other(format!("counter registration failed: {e}")))?;

    let listener = TcpListener::bind(bind)?;
    let listen_addr = listener.local_addr()?.to_string();
    let stop = Arc::new(AtomicBool::new(false));
    {
        let locality = locality.clone();
        let stop = Arc::clone(&stop);
        let world = world as u32;
        grain_counters::sync::spawn("grain-net-root-accept", move || {
            // (id, listen_addr) of everyone joined so far, handed to
            // each newcomer so it can dial them directly.
            let joined: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());
            let mut next_id: u32 = 1;
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(mut stream) = conn else { continue };
                // Before the handshake's first write, as in `dial`.
                if stream.set_nodelay(true).is_err() {
                    continue;
                }
                match parcelport::read_frame(&mut stream) {
                    Ok(Frame::Hello { listen_addr }) => {
                        let id = next_id;
                        next_id += 1;
                        let peers = joined.lock().clone();
                        let welcome = Frame::Welcome {
                            locality_id: id,
                            world,
                            peers,
                        };
                        if parcelport::write_frame(&mut stream, &welcome).is_err() {
                            continue;
                        }
                        joined.lock().push((id, listen_addr));
                        if let Ok(link) = tcp_link(&locality, id as usize, stream) {
                            locality.add_link(link);
                        }
                    }
                    // Anything else on the root port is a stray
                    // connection (including our own stop poke).
                    _ => continue,
                }
            }
        })?;
    }
    Ok(TcpNode {
        locality,
        listen_addr,
        stop,
    })
}

/// Join the world whose root listens at `root_addr`. Binds a listener of
/// its own (for peers that join later), handshakes with the root to get
/// an id, then dials every previously-joined peer.
pub fn tcp_join(root_addr: &str, mut cfg: RuntimeConfig) -> io::Result<TcpNode> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let listen_addr = listener.local_addr()?.to_string();

    // Handshake first: the assigned id decides the runtime's counter
    // namespace, so the runtime cannot exist before the Welcome.
    let mut root_stream = dial(root_addr)?;
    parcelport::write_frame(
        &mut root_stream,
        &Frame::Hello {
            listen_addr: listen_addr.clone(),
        },
    )?;
    let (my_id, world, peers) = match parcelport::read_frame(&mut root_stream)? {
        Frame::Welcome {
            locality_id,
            world,
            peers,
        } => (locality_id as usize, world as usize, peers),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Welcome from root, got {other:?}"),
            ))
        }
    };

    cfg.locality_id = my_id;
    let rt = Arc::new(Runtime::new(cfg));
    let locality = Locality::new(rt, my_id, world)
        .map_err(|e| io::Error::other(format!("counter registration failed: {e}")))?;

    // Link to the root over the handshake socket.
    locality.add_link(tcp_link(&locality, 0, root_stream)?);

    // Dial everyone who joined before us.
    for (peer_id, peer_addr) in peers {
        let mut stream = dial(&peer_addr)?;
        parcelport::write_frame(
            &mut stream,
            &Frame::PeerHello {
                locality_id: my_id as u32,
            },
        )?;
        locality.add_link(tcp_link(&locality, peer_id as usize, stream)?);
    }

    // Accept everyone who joins after us.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let locality = locality.clone();
        let stop = Arc::clone(&stop);
        grain_counters::sync::spawn(format!("grain-net-accept-{my_id}"), move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(mut stream) = conn else { continue };
                // Before the handshake's first write, as in `dial`.
                if stream.set_nodelay(true).is_err() {
                    continue;
                }
                match parcelport::read_frame(&mut stream) {
                    Ok(Frame::PeerHello { locality_id }) => {
                        if let Ok(link) = tcp_link(&locality, locality_id as usize, stream) {
                            locality.add_link(link);
                        }
                    }
                    _ => continue,
                }
            }
        })?;
    }
    Ok(TcpNode {
        locality,
        listen_addr,
        stop,
    })
}

/// Connect to `addr` with `TCP_NODELAY` set before the handshake's first
/// write: the handshake is request/response too.
fn dial(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Wrap an already-handshaken socket as a link owned by `locality`.
fn tcp_link(locality: &Locality, peer: usize, stream: TcpStream) -> io::Result<Arc<Link>> {
    Link::tcp(
        peer,
        stream,
        locality.frame_handler(),
        locality.disconnect_handler(),
        Arc::clone(locality.parcels()),
        DEFAULT_QUEUE_CAP,
    )
}
