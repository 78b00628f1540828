//! Simulated workloads: task DAGs with per-task work sizes. The shapes
//! come from elsewhere: `grain_taskbench::TaskGraph::sim_workload` lowers
//! Task Bench's five graph families, and `grain_stencil::stencil_workload`
//! builds the paper's ring.

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
    /// depending on itself or a later task (which also guarantees
    /// acyclicity).
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
    fn push_returns_usable_indices() {
        let mut w = SimWorkload::new();
        let a = w.push(10, vec![]);
        let b = w.push(20, vec![a]);
        let _c = w.push(30, vec![a, b]);
        assert_eq!(w.len(), 3);
        w.validate().unwrap();
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
