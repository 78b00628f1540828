//! The counter registry: symbolic name → live counter.
//!
//! HPX maps every counter to an immutable name in its global address space;
//! on a single locality that reduces to a registry keyed by
//! [`CounterPath`]. One registry serves a whole runtime, and counters
//! enter it only through a [`ScopedRegistry`]: each component (the
//! scheduler, a locality's parcel layer, the service, a job) owns the
//! scopes it registers through, so dropping the component retires
//! exactly its own paths. Anyone can discover and query what is live.

use crate::path::CounterPath;
use crate::raw::{RawCounter, Sharded};
use crate::sync::RwLock;
use crate::value::{CounterValue, Unit};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A queryable performance counter. Implemented by raw counters, sharded
/// counters and derived (computed) counters.
pub trait Counter: Send + Sync {
    /// Take a sample.
    fn value(&self) -> CounterValue;
    /// Reset the counter to the beginning of a monitoring epoch.
    /// Derived counters reset their inputs' contribution if they own them;
    /// most derived counters are pure views and do nothing.
    fn reset(&self);
}

/// Adapter exposing a [`RawCounter`] through the [`Counter`] trait.
pub struct RawView {
    counter: Arc<RawCounter>,
    unit: Unit,
}

impl RawView {
    /// Expose `counter` with the given unit.
    pub fn new(counter: Arc<RawCounter>, unit: Unit) -> Self {
        Self { counter, unit }
    }
}

impl Counter for RawView {
    fn value(&self) -> CounterValue {
        CounterValue::new(self.counter.get() as f64, self.unit)
    }
    fn reset(&self) {
        self.counter.reset();
    }
}

/// Adapter exposing the *sum* of a [`Sharded`] counter (the `total`
/// instance).
pub struct ShardedTotal {
    counter: Arc<Sharded>,
    unit: Unit,
}

impl ShardedTotal {
    /// Expose the sum over all shards of `counter`.
    pub fn new(counter: Arc<Sharded>, unit: Unit) -> Self {
        Self { counter, unit }
    }
}

impl Counter for ShardedTotal {
    fn value(&self) -> CounterValue {
        CounterValue::new(self.counter.sum() as f64, self.unit)
    }
    fn reset(&self) {
        self.counter.reset();
    }
}

/// Adapter exposing a single shard of a [`Sharded`] counter (a per-worker
/// instance).
pub struct ShardedWorker {
    counter: Arc<Sharded>,
    worker: usize,
    unit: Unit,
}

impl ShardedWorker {
    /// Expose shard `worker` of `counter`.
    pub fn new(counter: Arc<Sharded>, worker: usize, unit: Unit) -> Self {
        assert!(worker < counter.shard_count(), "worker index out of range");
        Self {
            counter,
            worker,
            unit,
        }
    }
}

impl Counter for ShardedWorker {
    fn value(&self) -> CounterValue {
        CounterValue::new(self.counter.get(self.worker) as f64, self.unit)
    }
    fn reset(&self) {
        // Resetting a single worker's shard would desynchronize the total;
        // per-worker views reset the whole family, as HPX does for
        // aggregate counters.
        self.counter.reset();
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The path string failed to parse.
    BadPath(String),
    /// A counter is already registered under this path.
    Duplicate(String),
    /// No counter is registered under this path.
    NotFound(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::BadPath(p) => write!(f, "bad counter path: {p}"),
            RegistryError::Duplicate(p) => write!(f, "counter already registered: {p}"),
            RegistryError::NotFound(p) => write!(f, "no such counter: {p}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The counter registry.
///
/// Registration happens when a component starts (cold); queries happen
/// at runtime (warm but not hot — the hot path increments raw counters
/// directly). A `BTreeMap` keeps discovery output deterministically
/// ordered.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<dyn Counter>>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample the counter registered under `path`.
    pub fn query(&self, path: &str) -> Result<CounterValue, RegistryError> {
        let parsed: CounterPath = path
            .parse()
            .map_err(|_| RegistryError::BadPath(path.to_owned()))?;
        let key = parsed.to_string();
        let map = self.counters.read();
        map.get(&key)
            .map(|c| c.value())
            .ok_or(RegistryError::NotFound(key))
    }

    /// All registered paths matching `pattern` (a path whose counter name
    /// may end in `*`, and whose missing instance matches any instance),
    /// in lexicographic order.
    pub fn discover(&self, pattern: &str) -> Result<Vec<String>, RegistryError> {
        let pat: CounterPath = pattern
            .parse()
            .map_err(|_| RegistryError::BadPath(pattern.to_owned()))?;
        let map = self.counters.read();
        Ok(map
            .keys()
            .filter(|k| {
                k.parse::<CounterPath>()
                    .map(|p| pat.matches(&p))
                    .unwrap_or(false)
            })
            .cloned()
            .collect())
    }

    /// A registration handle scoped to one `object{instance}` namespace,
    /// or to the bare `object` when `instance` is `None`.
    ///
    /// Counters registered through the scope live under
    /// `/object{instance}/<name>` (or `/object/<name>`); dropping the
    /// scope retires them. This is the only way into a registry, so
    /// every counter lives exactly as long as the scope its owner holds.
    /// The prefix is validated here, once: an `object{instance}` no path
    /// could parse back to makes every `register` through the scope fail
    /// with [`RegistryError::BadPath`].
    pub fn scope(self: &Arc<Self>, object: &str, instance: Option<&str>) -> ScopedRegistry {
        ScopedRegistry {
            registry: Arc::clone(self),
            prefix: CounterPath::scope_prefix(object, instance),
            instanced: instance.is_some(),
            keys: crate::sync::Mutex::new(Vec::new()),
        }
    }

    /// All registered paths.
    pub fn paths(&self) -> Vec<String> {
        self.counters.read().keys().cloned().collect()
    }

    /// Reset every registered counter (start of a monitoring epoch).
    pub fn reset_all(&self) {
        for c in self.counters.read().values() {
            c.reset();
        }
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.counters.read().len()
    }

    /// True if no counter has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.read().is_empty()
    }
}

/// A handle that registers counters inside one `object{instance}` (or
/// bare `object`) namespace and retires them all when dropped. Created
/// by [`Registry::scope`].
pub struct ScopedRegistry {
    registry: Arc<Registry>,
    /// `/{object}{instance}` or `/{object}`, or the same text as the
    /// error when no path built on it would parse back.
    prefix: Result<String, String>,
    /// Whether the prefix names an instance (a name may then hold `{`).
    instanced: bool,
    /// The canonical keys registered through this scope.
    keys: crate::sync::Mutex<Vec<String>>,
}

impl ScopedRegistry {
    /// The full path `name` maps to inside this scope.
    fn path_of(&self, name: &str) -> String {
        format!("{}/{name}", self.prefix())
    }

    /// The `/object{instance}` prefix rendered as a path fragment (useful
    /// for display).
    pub fn prefix(&self) -> String {
        match &self.prefix {
            Ok(p) | Err(p) => p.clone(),
        }
    }

    /// Register `counter` under `name` within the scope. The path is
    /// built from the prefix validated at [`Registry::scope`], so nothing
    /// is parsed here; every key built this way parses back to itself.
    pub fn register(
        &self,
        name: &str,
        counter: impl Counter + 'static,
    ) -> Result<(), RegistryError> {
        self.insert(name, Arc::new(counter))
    }

    /// The one body behind every `register`: generic callers only box
    /// their counter, so the key build and map insert are compiled once,
    /// not once per counter type (per-job counters register on every
    /// job).
    fn insert(&self, name: &str, counter: Arc<dyn Counter>) -> Result<(), RegistryError> {
        let key = match &self.prefix {
            Ok(prefix) if CounterPath::scoped_name_is_valid(name, self.instanced) => {
                // Sized up front: `format!` would grow it twice.
                let mut key = String::with_capacity(prefix.len() + 1 + name.len());
                for part in [prefix, "/", name] {
                    key.push_str(part);
                }
                key
            }
            _ => return Err(RegistryError::BadPath(self.path_of(name))),
        };
        let mut map = self.registry.counters.write();
        if map.contains_key(&key) {
            return Err(RegistryError::Duplicate(key));
        }
        map.insert(key.clone(), counter);
        drop(map);
        self.keys.lock().push(key);
        Ok(())
    }

    /// Sample a counter registered in this scope by its short `name`.
    pub fn query(&self, name: &str) -> Result<CounterValue, RegistryError> {
        self.registry.query(&self.path_of(name))
    }

    /// Full paths of every counter registered through this scope, in
    /// registration order.
    pub fn paths(&self) -> Vec<String> {
        self.keys.lock().clone()
    }

    /// Remove every counter registered through this scope, under one
    /// write lock and by the keys it inserted; returns how many were
    /// removed (counters already removed directly are skipped).
    fn unregister_all(&self) -> usize {
        let keys = std::mem::take(&mut *self.keys.lock());
        let mut map = self.registry.counters.write();
        keys.iter().filter(|k| map.remove(*k).is_some()).count()
    }
}

impl Drop for ScopedRegistry {
    fn drop(&mut self) {
        // A scope is the lifetime of its namespace: dropping it retires
        // any counters still registered.
        self.unregister_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry holding one raw counter at `/threads/<name>`, with the
    /// scope that keeps it there.
    fn reg_with_raw(name: &str) -> (Arc<Registry>, ScopedRegistry, Arc<RawCounter>) {
        let reg = Arc::new(Registry::new());
        let scope = reg.scope("threads", None);
        let c = Arc::new(RawCounter::new());
        scope
            .register(name, RawView::new(Arc::clone(&c), Unit::Count))
            .unwrap();
        (reg, scope, c)
    }

    #[test]
    fn register_and_query() {
        let (reg, _scope, c) = reg_with_raw("count/cumulative");
        c.add(7);
        let v = reg.query("/threads/count/cumulative").unwrap();
        assert_eq!(v.as_count(), 7);
    }

    #[test]
    fn duplicate_rejected() {
        let (reg, _scope, _) = reg_with_raw("count/cumulative");
        let err = reg
            .scope("threads", None)
            .register(
                "count/cumulative",
                RawView::new(Arc::new(RawCounter::new()), Unit::Count),
            )
            .unwrap_err();
        assert!(matches!(err, RegistryError::Duplicate(_)));
        assert_eq!(
            reg.len(),
            1,
            "the refused scope retires nothing of the first"
        );
    }

    #[test]
    fn missing_counter_is_not_found() {
        let reg = Registry::new();
        assert!(matches!(
            reg.query("/threads/idle-rate"),
            Err(RegistryError::NotFound(_))
        ));
    }

    #[test]
    fn bad_path_is_reported() {
        let reg = Registry::new();
        assert!(matches!(
            reg.query("threads/idle-rate"),
            Err(RegistryError::BadPath(_))
        ));
    }

    #[test]
    fn discover_with_wildcard() {
        let reg = Arc::new(Registry::new());
        let scope = reg.scope("threads", None);
        for name in ["count/cumulative", "count/pending-accesses", "time/average"] {
            scope
                .register(name, RawView::new(Arc::new(RawCounter::new()), Unit::Count))
                .unwrap();
        }
        let found = reg.discover("/threads/count/*").unwrap();
        assert_eq!(
            found,
            vec![
                "/threads/count/cumulative".to_owned(),
                "/threads/count/pending-accesses".to_owned()
            ]
        );
    }

    #[test]
    fn instanceless_pattern_matches_instances() {
        let reg = Arc::new(Registry::new());
        let shard = Arc::new(Sharded::new(2));
        shard.add(0, 3);
        shard.add(1, 4);
        let total = reg.scope("threads", Some("locality#0/total"));
        total
            .register(
                "count/cumulative",
                ShardedTotal::new(Arc::clone(&shard), Unit::Count),
            )
            .unwrap();
        let workers: Vec<ScopedRegistry> = (0..2)
            .map(|w| {
                let scope = reg.scope("threads", Some(&format!("locality#0/worker-thread#{w}")));
                scope
                    .register(
                        "count/cumulative",
                        ShardedWorker::new(Arc::clone(&shard), w, Unit::Count),
                    )
                    .unwrap();
                scope
            })
            .collect();
        let hits = reg.discover("/threads/count/cumulative").unwrap();
        assert_eq!(hits.len(), 3);
        let total = reg
            .query("/threads{locality#0/total}/count/cumulative")
            .unwrap();
        assert_eq!(total.as_count(), 7);
        let w1 = reg
            .query("/threads{locality#0/worker-thread#1}/count/cumulative")
            .unwrap();
        assert_eq!(w1.as_count(), 4);
        drop(workers);
        assert_eq!(reg.discover("/threads/count/cumulative").unwrap().len(), 1);
    }

    #[test]
    fn scope_registers_queries_and_retires() {
        let reg = Arc::new(Registry::new());
        let scope = reg.scope("jobs", Some("tenant-a/render#3"));
        let c = Arc::new(RawCounter::new());
        scope
            .register("count/tasks", RawView::new(Arc::clone(&c), Unit::Count))
            .unwrap();
        scope
            .register(
                "time/cumulative-exec",
                RawView::new(Arc::new(RawCounter::new()), Unit::Nanoseconds),
            )
            .unwrap();
        c.add(5);
        assert_eq!(
            scope.path_of("count/tasks"),
            "/jobs{tenant-a/render#3}/count/tasks"
        );
        // Visible through the scope and through the shared registry.
        assert_eq!(scope.query("count/tasks").unwrap().as_count(), 5);
        assert_eq!(
            reg.query("/jobs{tenant-a/render#3}/count/tasks")
                .unwrap()
                .as_count(),
            5
        );
        assert_eq!(scope.paths().len(), 2);
        assert_eq!(scope.unregister_all(), 2);
        assert!(reg.is_empty());
        // Idempotent.
        assert_eq!(scope.unregister_all(), 0);
    }

    #[test]
    fn scope_refuses_a_bad_instance_or_name() {
        let reg = Arc::new(Registry::new());
        let view = || RawView::new(Arc::new(RawCounter::new()), Unit::Count);
        // `}` would end the instance early: no path parses back to it.
        let bad = reg.scope("jobs", Some("a}/b#1"));
        assert!(matches!(
            bad.register("count/tasks", view()),
            Err(RegistryError::BadPath(p)) if p == "/jobs{a}/b#1}/count/tasks"
        ));
        let good = reg.scope("jobs", Some("a#1"));
        assert!(matches!(
            good.register("@p", view()),
            Err(RegistryError::BadPath(_))
        ));
        // Without an instance, a `/` in the object or a `{` in the name
        // would parse back as something else.
        let bare = reg.scope("service", None);
        assert!(matches!(
            bare.register("tenants/{t}/grain", view()),
            Err(RegistryError::BadPath(p)) if p == "/service/tenants/{t}/grain"
        ));
        assert!(matches!(
            reg.scope("a/b", None).register("n", view()),
            Err(RegistryError::BadPath(_))
        ));
        assert!(reg.is_empty());
        assert!(bad.paths().is_empty() && good.paths().is_empty() && bare.paths().is_empty());
    }

    #[test]
    fn dropping_a_scope_retires_its_namespace() {
        let reg = Arc::new(Registry::new());
        {
            let scope = reg.scope("jobs", Some("sweep#0"));
            scope
                .register(
                    "count/tasks",
                    RawView::new(Arc::new(RawCounter::new()), Unit::Count),
                )
                .unwrap();
            assert_eq!(reg.len(), 1);
        }
        assert!(reg.is_empty(), "drop retires the scope's counters");
    }

    #[test]
    fn scopes_are_isolated_between_instances() {
        let reg = Arc::new(Registry::new());
        let a = reg.scope("jobs", Some("a#1"));
        let b = reg.scope("jobs", Some("b#2"));
        let ca = Arc::new(RawCounter::new());
        let cb = Arc::new(RawCounter::new());
        a.register("count/tasks", RawView::new(Arc::clone(&ca), Unit::Count))
            .unwrap();
        b.register("count/tasks", RawView::new(Arc::clone(&cb), Unit::Count))
            .unwrap();
        ca.add(1);
        cb.add(2);
        assert_eq!(a.query("count/tasks").unwrap().as_count(), 1);
        assert_eq!(b.query("count/tasks").unwrap().as_count(), 2);
        a.unregister_all();
        assert_eq!(b.query("count/tasks").unwrap().as_count(), 2);
    }

    #[test]
    fn reset_all_zeroes() {
        let (reg, _scope, c) = reg_with_raw("count/stolen");
        c.add(9);
        reg.reset_all();
        assert_eq!(reg.query("/threads/count/stolen").unwrap().as_count(), 0);
    }
}
