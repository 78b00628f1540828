//! Stencil problem parameters.

/// Parameters of the 1-D heat-diffusion benchmark, matching the knobs of
/// HPX's `1d_stencil_4`: `np` partitions of `nx` grid points each, `nt`
/// time steps, and the physical constants `k` (heat transfer coefficient),
/// `dt` (time step) and `dx` (grid spacing).
///
/// The paper controls granularity by varying `nx` while holding
/// `np · nx = 100 000 000` constant (§II): partition size *is* task size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilParams {
    /// Grid points per partition (the granularity knob).
    pub nx: usize,
    /// Number of partitions.
    pub np: usize,
    /// Time steps.
    pub nt: usize,
    /// Heat transfer coefficient.
    pub k: f64,
    /// Time step length.
    dt: f64,
    /// Grid spacing.
    dx: f64,
}

impl StencilParams {
    /// The HPX example's default physical constants with the given
    /// problem shape.
    pub fn new(nx: usize, np: usize, nt: usize) -> Self {
        Self {
            nx,
            np,
            nt,
            k: 0.5,
            dt: 1.0,
            dx: 1.0,
        }
    }

    /// `total / nx` partitions (rounded up so at least the requested
    /// total is covered; the paper adjusts `np` the same way to hold the
    /// grid size constant).
    pub fn for_total(total_points: usize, nx: usize, nt: usize) -> Self {
        assert!(nx > 0 && total_points > 0);
        let np = total_points.div_ceil(nx).max(1);
        Self::new(nx, np, nt)
    }

    /// Total grid points.
    pub fn total_points(&self) -> usize {
        self.nx * self.np
    }

    /// Total tasks the futurized run will execute (`np · nt`).
    pub fn total_tasks(&self) -> usize {
        self.np * self.nt
    }

    /// The update coefficient `k·dt/dx²` of the explicit scheme.
    pub fn coefficient(&self) -> f64 {
        self.k * self.dt / (self.dx * self.dx)
    }

    /// Stability bound of the explicit scheme: `k·dt/dx² ≤ 0.5`.
    fn is_stable(&self) -> bool {
        self.coefficient() <= 0.5
    }

    /// Sanity-check the shape.
    pub fn validate(&self) -> Result<(), String> {
        if self.nx == 0 {
            return Err("nx must be positive".into());
        }
        if self.np == 0 {
            return Err("np must be positive".into());
        }
        if !self.is_stable() {
            return Err(format!(
                "unstable explicit scheme: k*dt/dx^2 = {} > 0.5",
                self.coefficient()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_hpx_example() {
        let p = StencilParams::new(1000, 100, 50);
        assert_eq!(p.k, 0.5);
        assert_eq!(p.dt, 1.0);
        assert_eq!(p.dx, 1.0);
        assert_eq!(p.coefficient(), 0.5);
        assert!(p.is_stable());
        p.validate().unwrap();
    }

    #[test]
    fn for_total_rounds_up() {
        let p = StencilParams::for_total(1000, 300, 1);
        assert_eq!(p.np, 4);
        assert!(p.total_points() >= 1000);
    }

    #[test]
    fn total_tasks_is_np_times_nt() {
        let p = StencilParams::new(100, 7, 3);
        assert_eq!(p.total_tasks(), 21);
    }

    #[test]
    fn unstable_scheme_rejected() {
        let mut p = StencilParams::new(10, 10, 1);
        p.dt = 3.0;
        assert!(!p.is_stable());
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_shape_rejected() {
        let p = StencilParams {
            nx: 0,
            ..StencilParams::new(1, 1, 1)
        };
        assert!(p.validate().is_err());
    }
}
