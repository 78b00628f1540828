//! Pull-based edge exchange between localities: the block split of a
//! global index range, and the board where the producer of a boundary
//! edge and its remote consumers meet.
//!
//! A distributed dataflow graph (a taskbench graph) gives each locality
//! one contiguous block of the global index range. A consumer whose
//! input lives on another locality calls a deferred action there; the
//! action answers with the board's future for that edge, which the
//! producer links to its task once it exists. Either side may arrive
//! first, so requests and production interleave in any order without
//! barriers, and an upstream error settles the edge as an error instead
//! of leaving the consumer waiting.

use grain_runtime::grain_counters::sync::Mutex;
use grain_runtime::{channel, Promise, Settled, SharedFuture};
use std::collections::HashMap;
use std::hash::Hash;

/// Contiguous block of the index range `0..n` owned by locality `k` of
/// `world`: `(offset, count)`, balanced to within one index (the first
/// `n % world` blocks hold one extra).
pub fn block_of(k: usize, world: usize, n: usize) -> (usize, usize) {
    let base = n / world;
    let extra = n % world;
    let count = base + usize::from(k < extra);
    let offset = k * base + k.min(extra);
    (offset, count)
}

/// The locality whose [`block_of`] holds index `id < n`: the arithmetic
/// inverse of the split.
pub fn block_owner(id: usize, world: usize, n: usize) -> usize {
    debug_assert!(id < n, "index {id} outside 0..{n}");
    let base = n / world;
    let extra = n % world;
    // The first `extra` blocks hold `base + 1` indices each; when
    // `base` is 0 every valid index lies in them.
    let long = extra * (base + 1);
    if id < long {
        id / (base + 1)
    } else {
        extra + (id - long) / base
    }
}

/// One edge: the future handed to remote requesters and (until the
/// producer links it) the promise that will settle it.
struct Slot<V> {
    future: SharedFuture<V>,
    promise: Option<Promise<V>>,
}

/// Meeting point of edge producers and remote consumers, keyed by edge.
pub struct EdgeBoard<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
}

impl<K: Eq + Hash, V: Send + Sync + 'static> EdgeBoard<K, V> {
    fn with_slot<R>(&self, key: K, f: impl FnOnce(&mut Slot<V>) -> R) -> R {
        let mut slots = self.slots.lock();
        let slot = slots.entry(key).or_insert_with(|| {
            let (promise, future) = channel();
            Slot {
                future,
                promise: Some(promise),
            }
        });
        f(slot)
    }

    /// The future a remote requester of `key` waits on.
    pub fn future_of(&self, key: K) -> SharedFuture<V> {
        self.with_slot(key, |s| s.future.clone())
    }

    /// Link edge `key` to the future that produces it: when `src`
    /// settles, `edge` of its value (or its error) settles the edge.
    /// Only the first link of a key takes effect.
    pub fn publish<T: 'static>(
        &self,
        key: K,
        src: &SharedFuture<T>,
        edge: impl FnOnce(&T) -> V + Send + 'static,
    ) {
        let promise = self.with_slot(key, |s| s.promise.take());
        if let Some(promise) = promise {
            src.on_settled(move |settled: &Settled<T>| match settled {
                Ok(v) => promise.set(edge(v)),
                Err(e) => promise.fail(e.clone()),
            });
        }
    }
}

impl<K, V> Default for EdgeBoard<K, V> {
    /// An empty board.
    fn default() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_runtime::TaskError;

    const SHAPES: [(usize, usize); 6] = [(1, 1), (2, 5), (3, 7), (4, 4), (3, 100), (5, 3)];

    #[test]
    fn blocks_cover_the_range_exactly_once() {
        for (world, n) in SHAPES {
            let mut covered = Vec::new();
            for k in 0..world {
                let (ofs, cnt) = block_of(k, world, n);
                assert!(cnt >= n / world, "world={world} n={n} k={k}");
                covered.extend(ofs..ofs + cnt);
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "world={world} n={n}");
        }
    }

    #[test]
    fn the_owner_is_the_block_that_holds_the_index() {
        for (world, n) in SHAPES {
            for k in 0..world {
                let (ofs, cnt) = block_of(k, world, n);
                for id in ofs..ofs + cnt {
                    assert_eq!(block_owner(id, world, n), k, "world={world} n={n} id={id}");
                }
            }
        }
    }

    #[test]
    fn a_request_before_the_producer_settles_when_it_does() {
        let board: EdgeBoard<u8, u64> = EdgeBoard::default();
        let early = board.future_of(1);
        let (p, src) = channel::<Vec<u64>>();
        board.publish(1, &src, |v| v[0]);
        board.publish(1, &SharedFuture::ready(vec![7]), |v| v[0]);
        assert!(!early.is_ready(), "a second link must not settle the edge");
        p.set(vec![42, 0]);
        assert_eq!(early.try_get().map(|v| v.map(|v| *v)), Some(Ok(42)));
        assert_eq!(*board.future_of(1).get(), 42, "a late request sees it too");
    }

    #[test]
    fn an_upstream_error_settles_the_edge_as_that_error() {
        let board: EdgeBoard<u8, u64> = EdgeBoard::default();
        board.publish(
            0,
            &SharedFuture::<Vec<u64>>::faulted(TaskError::Cancelled),
            |v| v[0],
        );
        assert_eq!(board.future_of(0).error(), Some(TaskError::Cancelled));
    }
}
