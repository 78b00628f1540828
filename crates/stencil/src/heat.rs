//! The heat kernel and partition type.
//!
//! The update is the explicit three-point scheme of HPX's `1d_stencil`
//! family:
//!
//! ```text
//! u'[i] = u[i] + k·dt/dx² · (u[i−1] − 2·u[i] + u[i+1])
//! ```
//!
//! over a *ring* of points (the last point neighbours the first). With
//! partitioning, a partition's edge updates read the last element of the
//! left neighbour and the first element of the right neighbour — the data
//! dependency captured by Fig. 2 of the paper.

/// One partition's worth of temperatures. Partitions are immutable once
/// produced (each time step makes new ones), so they are shared through
/// `Arc` by the futures layer.
pub type Partition = Box<[f64]>;

/// Initial condition of `1d_stencil_4`: partition `i` starts uniformly at
/// temperature `i`.
pub(crate) fn initial_partition(index: usize, nx: usize) -> Partition {
    vec![index as f64; nx].into_boxed_slice()
}

/// The point update.
#[inline]
pub fn heat(coeff: f64, left: f64, middle: f64, right: f64) -> f64 {
    middle + coeff * (left - 2.0 * middle + right)
}

/// Compute one partition's next time step from itself and its two
/// neighbours (`left` is the partition to the left on the ring, etc.).
/// This is the body of every task in the benchmark.
pub fn heat_part(coeff: f64, left: &[f64], middle: &[f64], right: &[f64]) -> Partition {
    let nx = middle.len();
    assert!(nx > 0, "empty partition");
    assert!(!left.is_empty() && !right.is_empty(), "empty neighbour");
    let mut next = Vec::with_capacity(nx);
    if nx == 1 {
        next.push(heat(coeff, left[left.len() - 1], middle[0], right[0]));
    } else {
        next.push(heat(coeff, left[left.len() - 1], middle[0], middle[1]));
        for j in 1..nx - 1 {
            next.push(heat(coeff, middle[j - 1], middle[j], middle[j + 1]));
        }
        next.push(heat(coeff, middle[nx - 2], middle[nx - 1], right[0]));
    }
    next.into_boxed_slice()
}

/// Total heat (sum of temperatures). The ring scheme conserves this
/// exactly (up to floating-point), which validation and property tests
/// exploit.
pub fn total_heat<'a>(partitions: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    partitions.into_iter().flat_map(|p| p.iter()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_partition_is_uniform_index() {
        let p = initial_partition(3, 5);
        assert_eq!(&*p, &[3.0; 5]);
    }

    #[test]
    fn heat_at_equilibrium_is_identity() {
        assert_eq!(heat(0.5, 7.0, 7.0, 7.0), 7.0);
    }

    #[test]
    fn heat_moves_toward_neighbours() {
        // Cold point between hot neighbours warms up.
        let v = heat(0.25, 10.0, 0.0, 10.0);
        assert!(v > 0.0);
        // Hot point between cold neighbours cools down.
        let v = heat(0.25, 0.0, 10.0, 0.0);
        assert!(v < 10.0);
    }

    #[test]
    fn heat_part_interior_matches_pointwise() {
        let coeff = 0.5;
        let m = [1.0, 2.0, 4.0, 8.0];
        let l = [0.5];
        let r = [16.0];
        let out = heat_part(coeff, &l, &m, &r);
        assert_eq!(out.len(), 4);
        assert_eq!(out[1], heat(coeff, m[0], m[1], m[2]));
        assert_eq!(out[2], heat(coeff, m[1], m[2], m[3]));
        // Edges read the neighbours.
        assert_eq!(out[0], heat(coeff, 0.5, m[0], m[1]));
        assert_eq!(out[3], heat(coeff, m[2], m[3], 16.0));
    }

    #[test]
    fn heat_part_single_point_partition() {
        let out = heat_part(0.5, &[1.0, 2.0], &[5.0], &[3.0]);
        // left neighbour element is the *last* of the left partition.
        assert_eq!(out[0], heat(0.5, 2.0, 5.0, 3.0));
    }

    #[test]
    fn total_heat_sums_across_partitions() {
        let a = [1.0, 2.0];
        let b = [3.0];
        assert_eq!(total_heat([&a[..], &b[..]]), 6.0);
    }

    #[test]
    #[should_panic(expected = "empty partition")]
    fn empty_partition_rejected() {
        heat_part(0.5, &[1.0], &[], &[1.0]);
    }
}
