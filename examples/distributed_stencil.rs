//! A distributed 1-D stencil graph — the `1d_stencil_8` analog — across
//! an in-process world of loopback localities, checked against the
//! sequential reference checksum, with the `/parcels/*` counter family
//! read back per locality.
//!
//! ```sh
//! cargo run --release --example distributed_stencil
//! ```

use grain::net::block_of;
use grain::net::bootstrap::Fabric;
use grain::runtime::RuntimeConfig;
use grain::taskbench::{DistTaskBench, GraphKind, GraphSpec};
use std::sync::Arc;

fn main() {
    let world = 3;
    let (width, steps) = (12, 40);
    let graph = Arc::new(
        GraphSpec::shape(GraphKind::Stencil1d { width, steps }, 0xd157)
            .grain(2_000)
            .payload(256)
            .build(),
    );
    println!(
        "distributed stencil: {world} localities, {width} lanes x {} levels = {} tasks, {} edges",
        steps + 1,
        graph.len(),
        graph.edges.len()
    );

    // A hermetic world: every locality is a full runtime in this
    // process, wired full-mesh with loopback parcelports.
    let fabric = Fabric::loopback(world, |_| RuntimeConfig::with_workers(1));
    let instances: Vec<DistTaskBench> = (0..world)
        .map(|k| DistTaskBench::install(fabric.locality(k), Arc::clone(&graph)))
        .collect();
    let t0 = std::time::Instant::now();
    for inst in &instances {
        inst.start();
    }
    let sum = instances[0].collect().expect("distributed run settled");
    println!("checksum {sum:#018x} in {:.3?}", t0.elapsed());

    // The same graph, folded sequentially on this thread.
    assert_eq!(sum, graph.checksum_reference(), "distributed checksum");
    println!("matches the sequential reference checksum ✓");

    // Read the parcel books per locality through each registry.
    println!();
    for k in 0..world {
        let (ofs, cnt) = block_of(k, world, graph.len());
        let reg = fabric.locality(k).runtime().registry();
        let t = format!("locality#{k}/total");
        let sent = reg
            .query(&format!("/parcels{{{t}}}/count/sent"))
            .expect("counter");
        let recv = reg
            .query(&format!("/parcels{{{t}}}/count/received"))
            .expect("counter");
        let ser = reg
            .query(&format!("/parcels{{{t}}}/time/average-serialization"))
            .expect("counter");
        println!(
            "locality#{k}: tasks [{}, {}) | parcels sent {:>4} received {:>4} | avg serialization {:>6.0} ns",
            ofs,
            ofs + cnt,
            sent.value,
            recv.value,
            ser.value
        );
    }
    fabric.shutdown();
}
