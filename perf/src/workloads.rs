//! The serving stacks the workloads drive and the epoch that measures
//! one of them: fresh stack, fixed warm-up, fixed timed operations,
//! teardown, with the serial reference timed before and after.
//!
//! Every call into `crates/*` goes through a public function. The one
//! piece of taskbench that is rebuilt here is the job body
//! ([`spawn_graph`]): `run_service_job` blocks its caller, so a single
//! generator thread could never keep two jobs outstanding with it, and
//! `storm::spawn_in_job` throws the checksum away.

use crate::host::{self, HostSample};
use crate::spec::{
    Kind, Reference, Scale, Workload, DIST_LOCALITIES, FLEET_STATS_MAX_AGE, FLEET_WORKERS, TENANTS,
};
use crate::stats::{self, Tail};
use crate::trace::Tracer;
use grain_fleet::{FleetConfig, FleetGateway, FleetJobHandle, FleetJobSpec};
use grain_fleet::{FleetWorker, FleetWorkerConfig};
use grain_net::bootstrap::{tcp_join, tcp_root, Fabric, TcpNode};
use grain_net::locality::Locality;
use grain_runtime::{channel, when_all, Runtime, RuntimeConfig, SharedFuture, TaskContext};
use grain_service::{JobHandle, JobService, JobSpec, JobState};
use grain_sim::storm::GraphFamily;
use grain_taskbench::{work, DistTaskBench, GraphKind, GraphSpec, TaskGraph};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// An operation that takes longer than this has hung; it is counted as
/// failed and the run goes on instead of blocking forever.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// The span context of one operation: children recorded through it
/// hang under the operation's root span.
pub struct OpTrace<'a> {
    tracer: &'a mut Tracer,
    op: u64,
    root: u32,
}

impl OpTrace<'_> {
    /// Record `[start, end]` as child span `name` of this operation.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.tracer
            .record(self.op, Some(self.root), name, start, end);
    }
}

/// Run `f`; when the operation is traced, record it as span `name`.
fn timed<R>(trace: Option<&mut OpTrace<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        None => f(),
        Some(trace) => {
            let start = Instant::now();
            let out = f();
            trace.child(name, start, Instant::now());
            out
        }
    }
}

/// Sum of the `/threads/*` raw counters of the runtimes that run a
/// stack's tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadsSample {
    /// Tasks completed.
    pub tasks: u64,
    /// Σ t_exec, ns.
    pub exec_ns: u64,
    /// Σ t_func, ns.
    pub func_ns: u64,
    /// Pending-queue probes.
    pub pending_accesses: u64,
    /// Pending-queue probes that found nothing.
    pub pending_misses: u64,
    /// Tasks taken from another worker's queues.
    pub stolen: u64,
}

impl ThreadsSample {
    /// Read and add up the counters of `runtimes`.
    pub fn of<'a>(runtimes: impl IntoIterator<Item = &'a Runtime>) -> Self {
        let mut s = Self::default();
        for rt in runtimes {
            let c = rt.counters();
            s.tasks += c.tasks.sum();
            s.exec_ns += c.exec_ns.sum();
            s.func_ns += c.func_ns.sum();
            s.pending_accesses += c.pending_accesses.sum();
            s.pending_misses += c.pending_misses.sum();
            s.stolen += c.stolen.sum();
        }
        s
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            tasks: self.tasks - earlier.tasks,
            exec_ns: self.exec_ns - earlier.exec_ns,
            func_ns: self.func_ns - earlier.func_ns,
            pending_accesses: self.pending_accesses - earlier.pending_accesses,
            pending_misses: self.pending_misses - earlier.pending_misses,
            stolen: self.stolen - earlier.stolen,
        }
    }

    /// Average task overhead t_o (Eq. 3), ns.
    pub fn t_o_ns(&self) -> f64 {
        self.func_ns.saturating_sub(self.exec_ns) as f64 / self.tasks.max(1) as f64
    }

    /// Average task duration t_d (Eq. 2), ns.
    pub fn t_d_ns(&self) -> f64 {
        self.exec_ns as f64 / self.tasks.max(1) as f64
    }

    /// Idle-rate (Eq. 1).
    pub fn idle_rate(&self) -> f64 {
        self.func_ns.saturating_sub(self.exec_ns) as f64 / self.func_ns.max(1) as f64
    }

    /// Share of pending-queue probes that found nothing.
    pub fn pending_miss_ratio(&self) -> f64 {
        self.pending_misses as f64 / self.pending_accesses.max(1) as f64
    }
}

/// A serving stack a closed loop can drive.
pub trait Stack {
    /// What `submit` hands to `wait`.
    type Ticket;
    /// Start operation `op`.
    fn submit(&mut self, op: u64, trace: Option<&mut OpTrace<'_>>) -> Self::Ticket;
    /// Block until the operation ends; `true` if its result is correct.
    fn wait(&mut self, ticket: Self::Ticket, trace: Option<&mut OpTrace<'_>>) -> bool;
    /// Counters of the runtimes that run this stack's tasks.
    fn threads(&self) -> ThreadsSample;
    /// Worker threads that run this stack's tasks.
    fn task_threads(&self) -> usize;
    /// Tear the stack down; returns how many end-of-epoch identities
    /// (ledger conserved, parcels sent = received) did not hold.
    fn teardown(self) -> u64;
}

/// What a closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time from the first submit to the last completion.
    pub wall: Duration,
    /// Latency of each operation, submit to verified result, µs.
    pub lat_us: Vec<f64>,
    /// When each operation's result was in hand, µs after the first
    /// submit; same order as `lat_us`.
    pub done_us: Vec<f64>,
    /// Operations whose result was wrong or that never finished.
    pub failed: u64,
}

/// Drive `ops` operations (numbered from `first_op`) through `stack`
/// from this one thread, keeping `outstanding` in flight and waiting
/// for them in submission order. The thread blocks in `wait`; it never
/// polls.
pub fn closed_loop<S: Stack>(
    stack: &mut S,
    first_op: u64,
    ops: u64,
    outstanding: usize,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    fn op_trace<'a>(
        tracer: &'a mut Option<&mut Tracer>,
        op: u64,
        root: Option<u32>,
    ) -> Option<OpTrace<'a>> {
        let tracer = tracer.as_deref_mut()?;
        Some(OpTrace {
            tracer,
            op,
            root: root?,
        })
    }

    let mut inflight: VecDeque<(Instant, Option<u32>, u64, S::Ticket)> =
        VecDeque::with_capacity(outstanding);
    let mut phase = Phase {
        lat_us: Vec::with_capacity(ops as usize),
        done_us: Vec::with_capacity(ops as usize),
        ..Phase::default()
    };
    let mut next = 0;
    let t0 = Instant::now();
    loop {
        while next < ops && inflight.len() < outstanding {
            let op = first_op + next;
            let start = Instant::now();
            let root = tracer.as_deref_mut().map(|t| t.open(op, "op", start));
            let ticket = stack.submit(op, op_trace(&mut tracer, op, root).as_mut());
            inflight.push_back((start, root, op, ticket));
            next += 1;
        }
        let Some((start, root, op, ticket)) = inflight.pop_front() else {
            break;
        };
        let ok = stack.wait(ticket, op_trace(&mut tracer, op, root).as_mut());
        let end = Instant::now();
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.close(root, end);
        }
        phase.lat_us.push((end - start).as_secs_f64() * 1e6);
        phase.done_us.push((end - t0).as_secs_f64() * 1e6);
        phase.failed += u64::from(!ok);
    }
    phase.wall = t0.elapsed();
    phase
}

/// The workload's graph for `seed`: always the paper's 1-D stencil.
pub fn build_graph(w: &Workload, seed: u64) -> TaskGraph {
    let kind = GraphKind::Stencil1d {
        width: w.lanes,
        steps: w.steps,
    };
    GraphSpec::shape(kind, seed)
        .grain(w.grain_iters)
        .payload(w.payload_bytes)
        .build()
}

/// Time the plain single-threaded run of `graph` on `threads` threads
/// at once, each repeating it on its own until at least `min` has been
/// timed. Returns the checksum and the ns one thread needs per task
/// (from the mean of the threads' rates).
///
/// `threads` is the cores the process has: one once it is pinned. Where
/// it is not, one thread alone would see the machine at its best (the
/// scheduler moves it to whichever core a neighbour leaves free) while
/// a stack's workers need every core: with a 60 % hog on one of two
/// cores `graph_fine` efficiency fell 18 % against a one-thread
/// reference and 6 % against this one.
pub fn time_reference(graph: &TaskGraph, min: Duration, threads: usize) -> (u64, f64) {
    let one_thread = || {
        let t0 = Instant::now();
        let mut reps = 0u64;
        loop {
            let sum = black_box(graph.checksum_reference());
            reps += 1;
            let elapsed = t0.elapsed();
            if elapsed >= min {
                let tasks = (reps * graph.len() as u64) as f64;
                return (sum, tasks / elapsed.as_nanos() as f64);
            }
        }
    };
    let (sums, rates): (Vec<u64>, Vec<f64>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(one_thread)).collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .map(|r| r.expect("the reference kernel does not panic"))
            .unzip()
    });
    (sums[0], threads as f64 / rates.iter().sum::<f64>())
}

/// `run_local` on one runtime.
pub struct GraphStack {
    rt: Runtime,
    graph: Arc<TaskGraph>,
    expected: u64,
}

impl GraphStack {
    /// A fresh runtime with `workers` workers for `graph`.
    pub fn new(workers: usize, graph: Arc<TaskGraph>, expected: u64) -> Self {
        Self {
            rt: Runtime::with_workers(workers),
            graph,
            expected,
        }
    }
}

impl Stack for GraphStack {
    type Ticket = ();

    fn submit(&mut self, _op: u64, _trace: Option<&mut OpTrace<'_>>) {}

    fn wait(&mut self, (): (), trace: Option<&mut OpTrace<'_>>) -> bool {
        let sum = timed(trace, "graph.run", || {
            grain_taskbench::run_local(&self.rt, &self.graph)
        });
        sum.is_ok_and(|s| s == self.expected)
    }

    fn threads(&self) -> ThreadsSample {
        ThreadsSample::of([&self.rt])
    }

    fn task_threads(&self) -> usize {
        self.rt.num_workers()
    }

    fn teardown(self) -> u64 {
        0
    }
}

/// Spawn every node of `graph` through a job's context, wired exactly
/// as `grain_taskbench::exec_local` wires them, and return the node
/// value futures in id order.
pub fn spawn_graph(ctx: &TaskContext<'_>, graph: &TaskGraph) -> Vec<SharedFuture<u64>> {
    let spec = graph.spec;
    let mut futs: Vec<SharedFuture<u64>> = Vec::with_capacity(graph.len());
    for id in 0..graph.len() as u32 {
        let preds = graph.preds(id);
        let seed = work::node_seed(spec.seed, id);
        let iters = spec.node_iters(id);
        if preds.is_empty() {
            futs.push(ctx.async_call(move |_| work::node_value(seed, iters, [])));
            continue;
        }
        let deps: Vec<SharedFuture<u64>> =
            preds.iter().map(|e| futs[e.src as usize].clone()).collect();
        let edges: Vec<(u64, u32)> = preds
            .iter()
            .map(|e| (work::edge_salt(spec.seed, e.src, e.dst), e.payload))
            .collect();
        futs.push(ctx.dataflow(&deps, move |_, vals| {
            let contribs = vals
                .iter()
                .zip(&edges)
                .map(|(v, &(salt, len))| work::contrib_from_value(**v, salt, len));
            work::node_value(seed, iters, contribs)
        }));
    }
    futs
}

/// The graph checksum from its node values (ids ascending from 0).
fn checksum_of(values: &[Arc<u64>]) -> u64 {
    values.iter().enumerate().fold(0u64, |acc, (id, v)| {
        acc.wrapping_add(work::checksum_term(id as u32, **v))
    })
}

/// Instants a job body leaves for the generator when asked to.
#[derive(Default)]
pub(crate) struct BodyStamps {
    /// First instruction of the job's root task.
    pub(crate) started: OnceLock<Instant>,
    /// The last node value settled.
    pub(crate) done: OnceLock<Instant>,
}

/// A job in flight on a [`ServiceStack`].
pub struct ServiceTicket {
    handle: JobHandle,
    sink: SharedFuture<u64>,
    submitted: Instant,
    pub(crate) stamps: Option<Arc<BodyStamps>>,
}

/// The graph as `JobService` jobs, tenants alternating.
pub struct ServiceStack {
    service: JobService,
    graph: Arc<TaskGraph>,
    expected: u64,
}

impl ServiceStack {
    /// A fresh service with `workers` runtime workers.
    pub fn new(workers: usize, graph: Arc<TaskGraph>, expected: u64) -> Self {
        Self {
            service: JobService::with_workers(workers),
            graph,
            expected,
        }
    }

    /// The service (for the ladder's rungs).
    pub fn service(&self) -> &JobService {
        &self.service
    }

    /// Submit job `op` with a body that stamps its start and end, for
    /// callers that time a job without waiting on it (the open loop).
    pub(crate) fn submit_stamped(&self, op: u64) -> ServiceTicket {
        self.submit_job(op, Some(Arc::default()), None)
    }

    fn submit_job(
        &self,
        op: u64,
        stamps: Option<Arc<BodyStamps>>,
        trace: Option<&mut OpTrace<'_>>,
    ) -> ServiceTicket {
        let spec = JobSpec::new("stencil", TENANTS[op as usize % TENANTS.len()])
            .estimated_tasks(self.graph.len() as u64 + 1);
        let (promise, sink) = channel::<u64>();
        // The body is `FnMut` (a retried job runs it again), so the
        // promise sits in a slot the first run empties.
        let slot = Arc::new(Mutex::new(Some(promise)));
        let graph = Arc::clone(&self.graph);
        let body_stamps = stamps.clone();
        let handle = timed(trace, "service.submit", || {
            self.service.submit(spec, move |ctx| {
                if let Some(s) = &body_stamps {
                    let _ = s.started.set(Instant::now());
                }
                let futs = spawn_graph(ctx, &graph);
                let slot = Arc::clone(&slot);
                let stamps = body_stamps.clone();
                when_all(&futs).on_settled(move |settled| {
                    if let Some(s) = &stamps {
                        let _ = s.done.set(Instant::now());
                    }
                    let promise = slot.lock().ok().and_then(|mut p| p.take());
                    if let Some(promise) = promise {
                        match settled {
                            Ok(vals) => promise.set(checksum_of(vals)),
                            Err(e) => promise.fail(e.clone()),
                        }
                    }
                });
            })
        });
        ServiceTicket {
            handle,
            sink,
            submitted: Instant::now(),
            stamps,
        }
    }
}

impl Stack for ServiceStack {
    type Ticket = ServiceTicket;

    fn submit(&mut self, op: u64, trace: Option<&mut OpTrace<'_>>) -> ServiceTicket {
        let stamps = trace.is_some().then(Arc::default);
        self.submit_job(op, stamps, trace)
    }

    fn wait(&mut self, ticket: ServiceTicket, trace: Option<&mut OpTrace<'_>>) -> bool {
        let outcome = ticket.handle.wait_timeout(OP_TIMEOUT);
        let woke = Instant::now();
        if let (Some(trace), Some(stamps)) = (trace, &ticket.stamps) {
            if let (Some(&started), Some(&done)) = (stamps.started.get(), stamps.done.get()) {
                trace.child("service.queue_to_start", ticket.submitted, started);
                trace.child("service.body", started, done);
                trace.child("service.settle_to_wake", done, woke);
            }
        }
        outcome.is_some_and(|o| o.state == JobState::Completed)
            && ticket
                .sink
                .wait_timeout(OP_TIMEOUT)
                .is_ok_and(|sum| *sum == self.expected)
    }

    fn threads(&self) -> ThreadsSample {
        ThreadsSample::of([self.service.runtime()])
    }

    fn task_threads(&self) -> usize {
        self.service.runtime().num_workers()
    }

    fn teardown(self) -> u64 {
        let c = self.service.counters();
        u64::from(c.rejected.get() + c.shed.get() > 0)
    }
}

/// A world of localities, one runtime worker each: in-process loopback
/// links, or real sockets on 127.0.0.1.
pub enum World {
    /// `Fabric::loopback`.
    Loopback(Fabric),
    /// `tcp_root` + `tcp_join`, locality id = index.
    Tcp(Vec<TcpNode>),
}

impl World {
    /// `n` loopback localities.
    pub fn loopback(n: usize) -> Self {
        World::Loopback(Fabric::loopback(n, |_| RuntimeConfig::with_workers(1)))
    }

    /// `n` localities in this process joined over 127.0.0.1, with every
    /// link of the full mesh established.
    pub fn tcp(n: usize) -> io::Result<Self> {
        let root = tcp_root("127.0.0.1:0", n, RuntimeConfig::with_workers(1))?;
        let addr = root.listen_addr().to_string();
        let mut nodes = vec![root];
        for _ in 1..n {
            nodes.push(tcp_join(&addr, RuntimeConfig::with_workers(1))?);
        }
        for node in &nodes {
            if !node.wait_for_world(OP_TIMEOUT) {
                return Err(io::Error::other("TCP world never became a full mesh"));
            }
        }
        Ok(World::Tcp(nodes))
    }

    /// Number of localities.
    pub fn size(&self) -> usize {
        match self {
            World::Loopback(f) => f.world(),
            World::Tcp(nodes) => nodes.len(),
        }
    }

    /// Locality `i`.
    pub fn locality(&self, i: usize) -> &Locality {
        match self {
            World::Loopback(f) => f.locality(i),
            World::Tcp(nodes) => nodes[i].locality(),
        }
    }

    /// Every locality, by id.
    pub fn localities(&self) -> impl Iterator<Item = &Locality> {
        (0..self.size()).map(|i| self.locality(i))
    }

    /// Calls issued, calls settled, parcels sent and parcels received,
    /// summed over the world.
    fn books(&self) -> [u64; 4] {
        self.localities().fold([0; 4], |[i, t, s, r], loc| {
            let p = loc.parcels();
            [
                i + p.calls_issued.get(),
                t + p.calls_settled.get(),
                s + p.sent.get(),
                r + p.received.get(),
            ]
        })
    }

    /// Parcels sent − parcels received once the world is quiet: every
    /// call settled and both of its parcels (call and reply) counted on
    /// both sides. A reply settles its call an instant before either
    /// side counts it, so this waits for the books to close (up to two
    /// seconds); if they never do, the shortfall is returned instead.
    pub fn sent_minus_received(&self) -> i64 {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let [issued, settled, sent, received] = self.books();
            let closed = issued == settled && sent == 2 * issued && received == sent;
            if closed || Instant::now() >= deadline {
                let shortfall = (2 * issued).abs_diff(sent).max(sent.abs_diff(received));
                return if sent == received {
                    shortfall as i64
                } else {
                    sent as i64 - received as i64
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Say goodbye on every link and let every runtime finish.
    pub fn shutdown(self) {
        match self {
            World::Loopback(f) => f.shutdown(),
            World::Tcp(nodes) => {
                for node in &nodes {
                    node.locality().shutdown();
                }
                for node in &nodes {
                    node.stop_listening();
                    node.locality().runtime().wait_idle();
                }
            }
        }
    }
}

/// The graph split by `DistTaskBench` over a loopback world.
pub struct DistStack {
    world: World,
    graph: Arc<TaskGraph>,
    expected: u64,
}

impl DistStack {
    /// A fresh loopback world for `graph`.
    pub fn new(graph: Arc<TaskGraph>, expected: u64) -> Self {
        Self {
            world: World::loopback(DIST_LOCALITIES),
            graph,
            expected,
        }
    }

    /// The world (for the ladder's parcel counts).
    pub fn world(&self) -> &World {
        &self.world
    }
}

impl Stack for DistStack {
    type Ticket = Vec<DistTaskBench>;

    fn submit(&mut self, _op: u64, mut trace: Option<&mut OpTrace<'_>>) -> Vec<DistTaskBench> {
        // Installing again replaces the previous operation's actions.
        let instances: Vec<DistTaskBench> = timed(trace.as_deref_mut(), "dist.install", || {
            self.world
                .localities()
                .map(|loc| DistTaskBench::install(loc, Arc::clone(&self.graph)))
                .collect()
        });
        timed(trace, "dist.start", || {
            instances.iter().for_each(DistTaskBench::start)
        });
        instances
    }

    fn wait(&mut self, instances: Vec<DistTaskBench>, trace: Option<&mut OpTrace<'_>>) -> bool {
        let sum = timed(trace, "dist.collect", || instances[0].collect());
        sum.is_ok_and(|s| s == self.expected)
    }

    fn threads(&self) -> ThreadsSample {
        ThreadsSample::of(self.world.localities().map(|loc| loc.runtime().as_ref()))
    }

    fn task_threads(&self) -> usize {
        self.world.size()
    }

    fn teardown(self) -> u64 {
        let unbalanced = self.world.sent_minus_received() != 0;
        self.world.shutdown();
        u64::from(unbalanced)
    }
}

/// A gateway on locality 0 routing jobs to fleet workers on the rest.
pub struct FleetStack {
    // Dropped in this order: the gateway's pump stops polling before
    // the workers and the links under them go away.
    gateway: FleetGateway,
    workers: Vec<FleetWorker>,
    world: World,
    job: Workload,
    seed: u64,
}

impl FleetStack {
    /// Install a gateway and `world.size() − 1` one-worker fleet workers
    /// on `world`; jobs take their shape from `job`. `stats_max_age`
    /// sets how often the gateway polls its workers
    /// ([`FleetStack::default_stats_max_age`] or the workload's pin).
    pub fn new(world: World, job: &Workload, seed: u64, stats_max_age: Duration) -> Self {
        let ids: Vec<usize> = (1..world.size()).collect();
        let workers = ids
            .iter()
            .map(|&i| FleetWorker::install(world.locality(i), FleetWorkerConfig::new(0, 1)))
            .collect();
        let config = FleetConfig {
            stats_max_age,
            ..FleetConfig::new(ids)
        };
        let gateway = FleetGateway::install(world.locality(0), config);
        Self {
            gateway,
            workers,
            world,
            job: *job,
            seed,
        }
    }

    /// The polling interval a gateway has unless told otherwise.
    pub fn default_stats_max_age() -> Duration {
        FleetConfig::new(Vec::new()).stats_max_age
    }

    /// The gateway (for the ladder's ledger counts).
    pub fn gateway(&self) -> &FleetGateway {
        &self.gateway
    }

    /// The world (for the ladder's parcel counts).
    pub fn world(&self) -> &World {
        &self.world
    }
}

impl Stack for FleetStack {
    type Ticket = FleetJobHandle;

    fn submit(&mut self, op: u64, trace: Option<&mut OpTrace<'_>>) -> FleetJobHandle {
        let spec = FleetJobSpec::new("stencil", TENANTS[op as usize % TENANTS.len()])
            .family(GraphFamily::Stencil)
            .tasks(self.job.tasks_per_op())
            .grain_iters(self.job.grain_iters)
            .payload_bytes(self.job.payload_bytes)
            .seed(self.seed ^ op);
        timed(trace, "fleet.submit", || self.gateway.submit(spec))
    }

    fn wait(&mut self, handle: FleetJobHandle, trace: Option<&mut OpTrace<'_>>) -> bool {
        let outcome = timed(trace, "fleet.wait", || handle.wait_timeout(OP_TIMEOUT));
        // A fleet job returns no checksum; its body is the graph plus
        // the root task, and every one of them must have completed.
        outcome.is_some_and(|o| {
            o.state == JobState::Completed && o.tasks_completed == self.job.tasks_per_op() + 1
        })
    }

    fn threads(&self) -> ThreadsSample {
        ThreadsSample::of(self.workers.iter().map(|w| w.service().runtime()))
    }

    fn task_threads(&self) -> usize {
        self.workers.len()
    }

    fn teardown(self) -> u64 {
        let Self {
            gateway,
            workers,
            world,
            ..
        } = self;
        let leaked = !gateway.ledger().conserved();
        drop(gateway);
        let unbalanced = world.sent_minus_received() != 0;
        drop(workers);
        world.shutdown();
        u64::from(leaked) + u64::from(unbalanced)
    }
}

/// Everything one epoch measured.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Operations run and verified (warm-up and timed).
    pub attempted: u64,
    /// Operations with a wrong result, plus end-of-epoch identities
    /// that did not hold.
    pub failed: u64,
    /// Timed operations.
    pub ops: u64,
    /// Operations the generator kept outstanding.
    pub outstanding: usize,
    /// Tasks of the timed operations.
    pub tasks: u64,
    /// Wall time of the timed phase, s.
    pub wall_s: f64,
    /// Input generation + stack construction + warm-up, s.
    pub setup_s: f64,
    /// Latency of each timed operation, µs.
    pub lat_us: Vec<f64>,
    /// When each timed operation's result was in hand, µs after the
    /// first timed submit.
    pub done_us: Vec<f64>,
    /// Serial reference before and after the stack's life, ns per task.
    pub reference_ns_per_task: [f64; 2],
    /// Worker threads that ran the tasks.
    pub task_threads: usize,
    /// Cores those threads had: `task_threads`, or fewer when the
    /// process may run on fewer (one, once it is pinned).
    pub cores: usize,
    /// Time to build the graph, µs.
    pub build_us: f64,
    /// `/threads/*` over the timed phase.
    pub threads: ThreadsSample,
    /// Process numbers at the end of the timed phase, and what the
    /// timed phase added to CPU time and context switches.
    pub host: HostSample,
    /// CPU seconds the timed phase used.
    pub cpu_s: f64,
    /// Context switches during the timed phase.
    pub ctx_switches: u64,
}

impl Epoch {
    /// Mean of the two serial-reference timings, ns per task.
    pub fn reference_ns(&self) -> f64 {
        (self.reference_ns_per_task[0] + self.reference_ns_per_task[1]) / 2.0
    }

    /// Tasks completed per second of the timed phase.
    pub fn tasks_per_s(&self) -> f64 {
        self.tasks as f64 / self.wall_s
    }

    /// Serial reference time for the phase's work ÷ (cores the task
    /// threads had × phase wall).
    pub fn efficiency(&self) -> f64 {
        let serial_s = self.reference_ns() * self.tasks as f64 / 1e9;
        serial_s / (self.cores as f64 * self.wall_s)
    }

    /// Median operation latency, µs.
    pub fn op_p50_us(&self) -> f64 {
        stats::median(&self.lat_us)
    }

    /// Tail operation latency by the ten-samples-beyond rule.
    pub fn op_tail(&self) -> Tail {
        stats::tail(&self.lat_us)
    }

    /// What one operation's tasks take run serially on one core, µs,
    /// by this epoch's reference.
    pub fn serial_op_us(&self) -> f64 {
        self.reference_ns() * (self.tasks / self.ops) as f64 / 1e3
    }

    /// Median operation latency ÷ serial time of the operation's tasks.
    pub fn op_p50_vs_serial(&self) -> f64 {
        self.op_p50_us() / self.serial_op_us()
    }

    /// Tail operation latency ÷ serial time of the operation's tasks.
    pub fn op_tail_vs_serial(&self) -> f64 {
        self.op_tail().value / self.serial_op_us()
    }

    /// How far the two reference timings are apart, % of their mean.
    pub fn reference_drift_pct(&self) -> f64 {
        let [a, b] = self.reference_ns_per_task;
        (a - b).abs() / self.reference_ns() * 100.0
    }

    /// The timed operations cut into [`WINDOWS`] runs of consecutive
    /// operations, each measured on its own: throughput from the
    /// completion before its first operation to its last completion,
    /// latency as the median of its operations. Fewer windows when
    /// there are few operations: operations finish in bursts of
    /// `outstanding`, and a window shorter than two bursts would time
    /// the burst, not the stack.
    pub fn windows(&self) -> Vec<Window> {
        let n = self.lat_us.len();
        let count = (n / (2 * self.outstanding)).clamp(1, WINDOWS);
        let tasks_per_op = (self.tasks / self.ops) as f64;
        let (mut from, mut from_us) = (0, 0.0);
        (1..=count)
            .map(|k| {
                let to = k * n / count;
                let wall_us = self.done_us[to - 1] - from_us;
                let window = Window {
                    tasks_per_s: (to - from) as f64 * tasks_per_op / wall_us * 1e6,
                    op_p50_us: stats::median(&self.lat_us[from..to]),
                };
                (from, from_us) = (to, self.done_us[to - 1]);
                window
            })
            .collect()
    }
}

/// Windows per epoch. A tenth of an epoch is 0.1-0.2 s: long against
/// one operation, short against the seconds a neighbour's burst lasts,
/// so a run has many windows that no burst touched.
pub const WINDOWS: usize = 10;

/// One window of an epoch ([`Epoch::windows`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Tasks completed per second of the window.
    pub tasks_per_s: f64,
    /// Median latency of the window's operations, µs.
    pub op_p50_us: f64,
}

/// One epoch of `w`: build the graph, time the reference, build a fresh
/// stack and warm it up, time the fixed operations, tear down, time the
/// reference again. With a tracer the timed operations record spans.
pub fn run_epoch(
    w: &Workload,
    scale: Scale,
    seed: u64,
    epoch: u64,
    tracer: Option<&mut Tracer>,
) -> io::Result<Epoch> {
    let graph_seed = seed.wrapping_mul(1_000_003).wrapping_add(epoch);
    let workers = host::nproc();
    match w.kind {
        Kind::GraphLocal => measure(w, scale, graph_seed, tracer, |graph, expected| {
            Ok(GraphStack::new(workers, graph, expected))
        }),
        Kind::ServiceJobs => measure(w, scale, graph_seed, tracer, |graph, expected| {
            Ok(ServiceStack::new(workers, graph, expected))
        }),
        Kind::DistGraph => measure(w, scale, graph_seed, tracer, |graph, expected| {
            Ok(DistStack::new(graph, expected))
        }),
        Kind::FleetTcp => measure(w, scale, graph_seed, tracer, |_, _| {
            let world = World::tcp(FLEET_WORKERS + 1)?;
            Ok(FleetStack::new(world, w, graph_seed, FLEET_STATS_MAX_AGE))
        }),
    }
}

fn measure<S: Stack>(
    w: &Workload,
    scale: Scale,
    graph_seed: u64,
    mut tracer: Option<&mut Tracer>,
    make: impl FnOnce(Arc<TaskGraph>, u64) -> io::Result<S>,
) -> io::Result<Epoch> {
    let (ops, warmup_ops) = (scale.ops(w), scale.warmup_ops(w));
    let reference = |graph: &TaskGraph| match w.reference {
        Reference::Measured => time_reference(graph, scale.reference_min, host::nproc()),
        Reference::Pinned(ns_per_task) => (graph.checksum_reference(), ns_per_task),
    };

    let t_build = Instant::now();
    let graph = Arc::new(build_graph(w, graph_seed));
    let built = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.record(0, None, "graph.build", t_build, built);
    }
    let (expected, reference_before) = reference(&graph);

    let t_stack = Instant::now();
    let mut stack = make(Arc::clone(&graph), expected)?;
    let warmup = closed_loop(&mut stack, 0, warmup_ops, w.outstanding, None);
    let setup = (built - t_build) + t_stack.elapsed();

    let (threads_before, host_before) = (stack.threads(), HostSample::take());
    let timed = closed_loop(&mut stack, warmup_ops, ops, w.outstanding, tracer);
    let (threads, host) = (stack.threads().since(&threads_before), HostSample::take());

    let task_threads = stack.task_threads();
    let cores = task_threads.min(host::nproc());
    let broken_identities = stack.teardown();
    let (_, reference_after) = reference(&graph);

    Ok(Epoch {
        attempted: warmup_ops + ops,
        failed: warmup.failed + timed.failed + broken_identities,
        ops,
        outstanding: w.outstanding,
        tasks: ops * w.tasks_per_op(),
        wall_s: timed.wall.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        lat_us: timed.lat_us,
        done_us: timed.done_us,
        reference_ns_per_task: [reference_before, reference_after],
        task_threads,
        cores,
        build_us: (built - t_build).as_secs_f64() * 1e6,
        threads,
        host,
        cpu_s: host.cpu_s - host_before.cpu_s,
        ctx_switches: host.ctx_switches.saturating_sub(host_before.ctx_switches),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An epoch of operations finished at `done_us` with latencies
    /// `lat_us`, 100 tasks each; everything else is not looked at.
    fn epoch(lat_us: Vec<f64>, done_us: Vec<f64>) -> Epoch {
        let ops = lat_us.len() as u64;
        Epoch {
            attempted: ops,
            failed: 0,
            ops,
            outstanding: 1,
            tasks: ops * 100,
            wall_s: done_us[done_us.len() - 1] / 1e6,
            setup_s: 0.1,
            lat_us,
            done_us,
            reference_ns_per_task: [1000.0, 1000.0],
            task_threads: 1,
            cores: 1,
            build_us: 0.0,
            threads: ThreadsSample::default(),
            host: HostSample::default(),
            cpu_s: 0.0,
            ctx_switches: 0,
        }
    }

    #[test]
    fn windows_are_consecutive_operations_measured_on_their_own() {
        // 40 operations of 1 ms, one at a time; operations 20-23 (the
        // sixth window) take 3 ms each because a neighbour was busy.
        let lat_us: Vec<f64> = (0..40)
            .map(|i| {
                if (20..24).contains(&i) {
                    3000.0
                } else {
                    1000.0
                }
            })
            .collect();
        let done_us: Vec<f64> = lat_us
            .iter()
            .scan(0.0, |t, l| {
                *t += l;
                Some(*t)
            })
            .collect();
        let windows = epoch(lat_us, done_us).windows();
        assert_eq!(windows.len(), WINDOWS);
        for (k, w) in windows.iter().enumerate() {
            let slow = if k == 5 { 3.0 } else { 1.0 };
            assert_eq!(w.op_p50_us, 1000.0 * slow, "window {k}");
            // 4 operations x 100 tasks in 4 ms (or 12).
            assert!(
                (w.tasks_per_s - 100_000.0 / slow).abs() < 1e-6,
                "window {k}"
            );
        }
    }

    #[test]
    fn a_window_is_never_shorter_than_two_bursts_of_completions() {
        let six = |outstanding| Epoch {
            outstanding,
            ..epoch(
                vec![500.0; 6],
                vec![500.0, 500.0, 1000.0, 1000.0, 1500.0, 1500.0],
            )
        };
        // Two outstanding: six operations make one window, not three
        // that each end on a burst.
        let windows = six(2).windows();
        assert_eq!(windows.len(), 1);
        assert!((windows[0].tasks_per_s - 600.0 / 1500e-6).abs() < 1e-6);
        assert_eq!(six(1).windows().len(), 3);
        // Fewer operations than one window needs still make one.
        assert_eq!(six(4).windows().len(), 1);
    }
}
