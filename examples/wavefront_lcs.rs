//! A second application on the runtime: blocked longest-common-subsequence
//! (LCS) dynamic programming — a *wavefront* dependency pattern, where
//! tile (i, j) needs the bottom row of the tile above, the right column
//! of the tile to the left, and the corner of the diagonal tile.
//!
//! Unlike the stencil's constant-width steps, wavefront parallelism grows
//! and shrinks along the anti-diagonals, so the tile (grain) size trades
//! off differently: tiny tiles expose parallelism earlier but multiply
//! task-management overhead — the same study, different topology.
//!
//! ```sh
//! cargo run --release --example wavefront_lcs
//! ```

use grain::runtime::{Runtime, SharedFuture};
use std::sync::Arc;

/// Boundary data a tile passes to its successors.
#[derive(Debug, Clone)]
struct TileEdge {
    /// dp values of the tile's bottom row.
    bottom: Vec<u32>,
    /// dp values of the tile's right column.
    right: Vec<u32>,
    /// dp value of the tile's bottom-right corner's diagonal predecessor
    /// (i.e. dp at (r0-1, c0-1) for the *next* diagonal tile).
    corner: u32,
}

/// Sequential reference LCS-length DP.
fn lcs_sequential(a: &[u8], b: &[u8]) -> u32 {
    let mut prev = vec![0u32; b.len() + 1];
    let mut cur = vec![0u32; b.len() + 1];
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            cur[j] = if a[i - 1] == b[j - 1] {
                prev[j - 1] + 1
            } else {
                prev[j].max(cur[j - 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Compute one tile given its boundary inputs. `top` has `cols` entries,
/// `left` has `rows` entries, `corner` is dp of the cell diagonal to the
/// tile's top-left.
fn compute_tile(a: &[u8], b: &[u8], top: &[u32], left: &[u32], corner: u32) -> TileEdge {
    let rows = a.len();
    let cols = b.len();
    // dp with a halo row/col assembled from the inputs.
    let mut prev: Vec<u32> = std::iter::once(corner).chain(top.iter().copied()).collect();
    let mut cur = vec![0u32; cols + 1];
    let mut right = Vec::with_capacity(rows);
    for i in 1..=rows {
        cur[0] = left[i - 1];
        for j in 1..=cols {
            cur[j] = if a[i - 1] == b[j - 1] {
                prev[j - 1] + 1
            } else {
                prev[j].max(cur[j - 1])
            };
        }
        right.push(cur[cols]);
        std::mem::swap(&mut prev, &mut cur);
    }
    TileEdge {
        bottom: prev[1..].to_vec(),
        // corner for the tile diagonally down-right: dp of this tile's
        // bottom-right cell… which its right/bottom already carry; the
        // *next* diagonal needs dp at this tile's bottom-right, i.e.:
        corner: *right.last().unwrap_or(&corner),
        right,
    }
}

/// Blocked LCS on the task runtime: one dataflow task per tile.
fn lcs_blocked(rt: &Runtime, a: Arc<Vec<u8>>, b: Arc<Vec<u8>>, tile: usize) -> u32 {
    let rows = a.len().div_ceil(tile);
    let cols = b.len().div_ceil(tile);
    let mut tiles: Vec<SharedFuture<TileEdge>> = Vec::with_capacity(rows * cols);

    for i in 0..rows {
        for j in 0..cols {
            let r0 = i * tile;
            let c0 = j * tile;
            let r1 = ((i + 1) * tile).min(a.len());
            let c1 = ((j + 1) * tile).min(b.len());
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));

            // Dependencies: up, left, diagonal (when they exist).
            let up = if i > 0 {
                Some(tiles[(i - 1) * cols + j].clone())
            } else {
                None
            };
            let lf = if j > 0 {
                Some(tiles[i * cols + j - 1].clone())
            } else {
                None
            };
            let dg = if i > 0 && j > 0 {
                Some(tiles[(i - 1) * cols + j - 1].clone())
            } else {
                None
            };
            let deps: Vec<SharedFuture<TileEdge>> = [up.clone(), lf.clone(), dg.clone()]
                .into_iter()
                .flatten()
                .collect();

            let fut = rt.dataflow(&deps, move |_, _vals| {
                let top: Vec<u32> = match &up {
                    Some(f) => f.try_get().expect("dep ready").expect("dep ok").bottom[..].to_vec(),
                    None => vec![0; c1 - c0],
                };
                let left: Vec<u32> = match &lf {
                    Some(f) => f.try_get().expect("dep ready").expect("dep ok").right[..].to_vec(),
                    None => vec![0; r1 - r0],
                };
                // dp[r0][c0]: the diagonal tile's bottom-right value; on
                // the top row or left column it is the DP's zero halo.
                let corner = match &dg {
                    Some(f) => f.try_get().expect("dep ready").expect("dep ok").corner,
                    None => 0,
                };
                compute_tile(&a[r0..r1], &b[c0..c1], &top, &left, corner)
            });
            tiles.push(fut);
        }
    }
    let last = tiles.last().unwrap().get();
    rt.wait_idle();
    *last.bottom.last().unwrap()
}

fn synthetic_sequence(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (b"ACGT")[(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 62) as usize]
        })
        .collect()
}

fn main() {
    let rt = Runtime::with_workers(grain::topology::host::available_cores().max(2));
    let a = Arc::new(synthetic_sequence(2_048, 1));
    let b = Arc::new(synthetic_sequence(2_048, 2));
    let expect = lcs_sequential(&a, &b);
    println!("LCS length (sequential reference): {expect}\n");

    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>10}",
        "tile", "tasks", "wall(s)", "t_o/task", "idle-rate"
    );
    for tile in [32usize, 128, 512, 2_048] {
        rt.reset_counters();
        let t0 = std::time::Instant::now();
        let got = lcs_blocked(&rt, Arc::clone(&a), Arc::clone(&b), tile);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(got, expect, "blocked result must match the DP oracle");
        let c = rt.counters().window();
        println!(
            "{:>6} {:>8} {:>10.4} {:>10.1}ns {:>9.1}%",
            tile,
            c.tasks,
            wall,
            c.task_overhead_ns(),
            c.idle_rate() * 100.0
        );
    }
    println!(
        "\nSame U-curve, wavefront topology: tiny tiles drown in task management,\n\
         huge tiles serialize the anti-diagonal. Correctness checked against the\n\
         sequential DP at every tile size."
    );
}
