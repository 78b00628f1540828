//! Simulated workloads: task DAGs with per-task work sizes.

/// One task in a simulated workload.
#[derive(Debug, Clone)]
pub struct SimTaskSpec {
    /// Work size in grid points (drives the kernel-time model). A task of
    /// zero points still pays the platform's fixed per-task cost.
    pub points: u64,
    /// Indices of tasks that must complete before this one is spawned
    /// (dataflow semantics: the task does not exist, even as a staged
    /// descriptor, until its inputs are done).
    pub deps: Vec<u32>,
}

/// A complete task DAG plus the memory-footprint hint the cache model
/// needs.
#[derive(Debug, Clone, Default)]
pub struct SimWorkload {
    /// The tasks. Indices into this vector are the dependency ids.
    pub tasks: Vec<SimTaskSpec>,
    /// Bytes of distinct data the whole *concurrent working phase* of the
    /// workload touches (for the stencil: grid bytes per time step). Used
    /// by the residency model; 0 disables residency (conservative).
    pub footprint_bytes: f64,
}

impl SimWorkload {
    /// An empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// `n` independent tasks of `points` each.
    pub fn independent(n: usize, points: u64) -> Self {
        Self {
            tasks: (0..n)
                .map(|_| SimTaskSpec {
                    points,
                    deps: Vec::new(),
                })
                .collect(),
            footprint_bytes: 0.0,
        }
    }

    /// A sequential chain of `n` tasks of `points` each (worst-case
    /// dependency structure; useful in tests and the starvation bench).
    pub fn chain(n: usize, points: u64) -> Self {
        Self {
            tasks: (0..n)
                .map(|i| SimTaskSpec {
                    points,
                    deps: if i == 0 { vec![] } else { vec![i as u32 - 1] },
                })
                .collect(),
            footprint_bytes: 0.0,
        }
    }

    /// A binary fork-join tree of `depth` levels: 2^depth leaves of
    /// `leaf_points` each, joined pairwise by zero-work join tasks —
    /// the classic recursive-decomposition DAG (e.g. the Fibonacci
    /// example), useful as a second workload family beside the stencil.
    pub fn fork_join(depth: u32, leaf_points: u64) -> Self {
        let mut wl = Self::new();
        // Build bottom-up: leaves first, then join layers.
        let mut layer: Vec<u32> = (0..(1usize << depth))
            .map(|_| wl.push(leaf_points, Vec::new()))
            .collect();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| wl.push(0, pair.to_vec()))
                .collect();
        }
        wl
    }

    /// A layered random DAG: `layers` layers of `width` tasks each; every
    /// task past layer 0 depends on 1–3 uniformly-chosen tasks of the
    /// previous layer. Deterministic for a given `seed`. Models irregular
    /// applications (the "graph applications" class of §I-A).
    pub fn layered_random(layers: usize, width: usize, points: u64, seed: u64) -> Self {
        assert!(layers > 0 && width > 0);
        // xorshift64* — deterministic, dependency-free. The multiply
        // spreads nearby seeds apart before the `| 1` nonzero guard.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        let mut wl = Self::new();
        for layer in 0..layers {
            for _ in 0..width {
                let deps = if layer == 0 {
                    Vec::new()
                } else {
                    let base = ((layer - 1) * width) as u32;
                    let k = 1 + (next() % 3) as usize;
                    (0..k)
                        .map(|_| base + (next() % width as u64) as u32)
                        .collect()
                };
                wl.push(points, deps);
            }
        }
        wl
    }

    /// A 2-D wavefront: `rows × cols` tiles, tile (i, j) depending on its
    /// top and left neighbours — the dependency topology of blocked
    /// dynamic-programming kernels (sequence alignment, triangular
    /// solves). Parallelism grows and shrinks along the anti-diagonals,
    /// unlike the stencil's constant-width steps.
    pub fn wavefront(rows: usize, cols: usize, points: u64) -> Self {
        assert!(rows > 0 && cols > 0);
        let mut wl = Self::new();
        for i in 0..rows {
            for j in 0..cols {
                let mut deps = Vec::new();
                if i > 0 {
                    deps.push(((i - 1) * cols + j) as u32);
                }
                if j > 0 {
                    deps.push((i * cols + j - 1) as u32);
                }
                wl.push(points, deps);
            }
        }
        wl
    }

    /// Append a task; returns its index for use as a dependency.
    pub fn push(&mut self, points: u64, deps: Vec<u32>) -> u32 {
        let idx = self.tasks.len() as u32;
        self.tasks.push(SimTaskSpec { points, deps });
        idx
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total grid points across all tasks.
    pub fn total_points(&self) -> u64 {
        self.tasks.iter().map(|t| t.points).sum()
    }

    /// Validate the DAG: every dependency index in range, no task
    /// depending on itself or a later task (the builders in this project
    /// only create forward edges, which also guarantees acyclicity).
    pub fn validate(&self) -> Result<(), String> {
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                if d as usize >= self.tasks.len() {
                    return Err(format!("task {i} depends on missing task {d}"));
                }
                if d as usize >= i {
                    return Err(format!(
                        "task {i} depends on task {d}, which is not earlier in the DAG"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_has_no_deps() {
        let w = SimWorkload::independent(5, 100);
        assert_eq!(w.len(), 5);
        assert!(w.tasks.iter().all(|t| t.deps.is_empty()));
        assert_eq!(w.total_points(), 500);
        w.validate().unwrap();
    }

    #[test]
    fn chain_links_consecutively() {
        let w = SimWorkload::chain(4, 10);
        assert_eq!(w.tasks[0].deps, Vec::<u32>::new());
        assert_eq!(w.tasks[3].deps, vec![2]);
        w.validate().unwrap();
    }

    #[test]
    fn push_returns_usable_indices() {
        let mut w = SimWorkload::new();
        let a = w.push(10, vec![]);
        let b = w.push(20, vec![a]);
        let _c = w.push(30, vec![a, b]);
        assert_eq!(w.len(), 3);
        w.validate().unwrap();
    }

    #[test]
    fn fork_join_shape() {
        let wl = SimWorkload::fork_join(3, 100);
        // 8 leaves + 4 + 2 + 1 joins.
        assert_eq!(wl.len(), 15);
        wl.validate().unwrap();
        assert_eq!(wl.total_points(), 800);
        // The root is the last task and joins two subtrees.
        assert_eq!(wl.tasks.last().unwrap().deps.len(), 2);
    }

    #[test]
    fn fork_join_depth_zero_is_one_leaf() {
        let wl = SimWorkload::fork_join(0, 7);
        assert_eq!(wl.len(), 1);
        assert!(wl.tasks[0].deps.is_empty());
    }

    #[test]
    fn layered_random_is_valid_and_deterministic() {
        let a = SimWorkload::layered_random(5, 16, 1_000, 42);
        let b = SimWorkload::layered_random(5, 16, 1_000, 42);
        a.validate().unwrap();
        assert_eq!(a.len(), 80);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.deps, y.deps);
        }
        let c = SimWorkload::layered_random(5, 16, 1_000, 43);
        assert!(a.tasks.iter().zip(&c.tasks).any(|(x, y)| x.deps != y.deps));
    }

    #[test]
    fn layered_random_layer0_has_no_deps() {
        let wl = SimWorkload::layered_random(3, 8, 10, 7);
        for t in &wl.tasks[..8] {
            assert!(t.deps.is_empty());
        }
        for t in &wl.tasks[8..] {
            assert!(!t.deps.is_empty());
        }
    }

    #[test]
    fn wavefront_dependencies() {
        let wl = SimWorkload::wavefront(3, 4, 10);
        assert_eq!(wl.len(), 12);
        wl.validate().unwrap();
        assert!(wl.tasks[0].deps.is_empty(), "corner tile has no deps");
        assert_eq!(wl.tasks[1].deps, vec![0], "top row depends left only");
        assert_eq!(wl.tasks[4].deps, vec![0], "left col depends up only");
        assert_eq!(wl.tasks[5].deps, vec![1, 4], "interior depends up+left");
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut w = SimWorkload::new();
        w.tasks.push(SimTaskSpec {
            points: 1,
            deps: vec![9],
        });
        assert!(w.validate().is_err());
    }

    #[test]
    fn validate_rejects_backward_or_self_edges() {
        let mut w = SimWorkload::new();
        w.tasks.push(SimTaskSpec {
            points: 1,
            deps: vec![0],
        });
        assert!(w.validate().is_err(), "self-dependency");

        let mut w = SimWorkload::new();
        w.tasks.push(SimTaskSpec {
            points: 1,
            deps: vec![1],
        });
        w.tasks.push(SimTaskSpec {
            points: 1,
            deps: vec![],
        });
        assert!(w.validate().is_err(), "forward (cyclic-capable) edge");
    }
}
