//! Symbolic counter paths.
//!
//! HPX addresses every performance counter with a symbolic name of the form
//!
//! ```text
//! /objectname{full_instancename}/countername@parameters
//! ```
//!
//! e.g. `/threads{locality#0/worker-thread#1}/idle-rate`. This module
//! implements a parser and formatter for that grammar, restricted to the
//! pieces the paper's study actually uses: an object, an optional instance,
//! a multi-segment counter name and an optional parameter string.

use std::fmt;
use std::str::FromStr;

/// A parsed counter path.
///
/// ```
/// use grain_counters::CounterPath;
///
/// let p: CounterPath = "/threads{locality#0/worker-thread#1}/idle-rate"
///     .parse()
///     .unwrap();
/// assert_eq!(p.object, "threads");
/// assert_eq!(p.instance.as_deref(), Some("locality#0/worker-thread#1"));
/// assert_eq!(p.name, "idle-rate");
/// assert_eq!(p.to_string(), "/threads{locality#0/worker-thread#1}/idle-rate");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CounterPath {
    /// The performance object, e.g. `threads`.
    pub object: String,
    /// Optional instance qualifier, e.g. `locality#0/worker-thread#1` or
    /// `locality#0/total`.
    pub instance: Option<String>,
    /// The counter name below the object, e.g. `idle-rate` or
    /// `count/cumulative` (may contain `/`).
    pub name: String,
    /// Optional parameter suffix introduced by `@`.
    parameters: Option<String>,
}

/// Error produced when a counter path cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    msg: String,
}

impl PathError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid counter path: {}", self.msg)
    }
}

impl std::error::Error for PathError {}

impl CounterPath {
    /// Build a path from an object and a counter name, with no instance.
    pub fn new(object: impl Into<String>, name: impl Into<String>) -> Self {
        Self {
            object: object.into(),
            instance: None,
            name: name.into(),
            parameters: None,
        }
    }

    /// Return a copy of this path with the given instance qualifier.
    #[must_use]
    pub fn with_instance(mut self, instance: impl Into<String>) -> Self {
        self.instance = Some(instance.into());
        self
    }

    /// The path with the instance qualifier removed:
    /// `/threads{locality#0/total}/idle-rate` → `/threads/idle-rate`.
    ///
    /// Useful for grouping per-worker instances of the same counter.
    pub fn base(&self) -> CounterPath {
        CounterPath {
            object: self.object.clone(),
            instance: None,
            name: self.name.clone(),
            parameters: self.parameters.clone(),
        }
    }

    /// Prefix naming locality `id` in an instance qualifier (the HPX
    /// locality namespace the multi-locality layer populates):
    /// `locality_prefix(3)` → `"locality#3"`. Every instance string in
    /// the project is built from this helper so non-root localities get
    /// correct counter paths.
    fn locality_prefix(id: usize) -> String {
        format!("locality#{id}")
    }

    /// Instance string for worker `w` on locality 0, the single-locality
    /// convention used before the distribution layer existed.
    pub fn worker_instance(w: usize) -> String {
        Self::worker_instance_for(0, w)
    }

    /// Instance string for worker `w` on locality `locality`.
    pub fn worker_instance_for(locality: usize, w: usize) -> String {
        format!("{}/worker-thread#{w}", Self::locality_prefix(locality))
    }

    /// Instance string for the aggregate over all workers on locality
    /// `locality`.
    pub fn total_instance_for(locality: usize) -> String {
        format!("{}/total", Self::locality_prefix(locality))
    }

    /// The `/object{instance}` prefix of every path in one scope, or an
    /// error if a path built on it would not parse back to this object
    /// and instance: an empty object, a brace in the object, or a `}` in
    /// the instance. [`scoped_name_is_valid`](Self::scoped_name_is_valid)
    /// checks the rest, so a scope validates its prefix once and builds
    /// each path by concatenation.
    pub(crate) fn scope_prefix(object: &str, instance: &str) -> Result<String, PathError> {
        if object.is_empty() || object.contains(['{', '}']) || instance.contains('}') {
            return Err(PathError::new(format!(
                "`{object}{{{instance}}}` is not an object{{instance}} prefix"
            )));
        }
        let mut prefix = String::with_capacity(object.len() + instance.len() + 3);
        for part in ["/", object, "{", instance, "}"] {
            prefix.push_str(part);
        }
        Ok(prefix)
    }

    /// Whether `name` is a counter name (with optional `@parameters`)
    /// that parses back unchanged after a valid scope prefix and `/`.
    pub(crate) fn scoped_name_is_valid(name: &str) -> bool {
        name.split('@').next().is_some_and(|n| !n.is_empty())
    }

    /// True if `self` (possibly containing a trailing `*` wildcard in its
    /// name) matches `other`. Only the counter *name* may carry a wildcard;
    /// objects must match exactly and an absent instance acts as a wildcard
    /// over instances.
    pub fn matches(&self, other: &CounterPath) -> bool {
        if self.object != other.object {
            return false;
        }
        if let Some(inst) = &self.instance {
            if other.instance.as_deref() != Some(inst.as_str()) {
                return false;
            }
        }
        if let Some(prefix) = self.name.strip_suffix('*') {
            other.name.starts_with(prefix)
        } else {
            self.name == other.name
        }
    }
}

impl FromStr for CounterPath {
    type Err = PathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix('/')
            .ok_or_else(|| PathError::new(format!("`{s}` must start with '/'")))?;

        // Split the object (and optional {instance}) from the counter name.
        let (object, instance, name_part) = if let Some(brace) = rest.find('{') {
            let object = &rest[..brace];
            let close = rest
                .find('}')
                .ok_or_else(|| PathError::new(format!("`{s}` has unterminated '{{'")))?;
            if close < brace {
                return Err(PathError::new(format!("`{s}` has '}}' before '{{'")));
            }
            let instance = &rest[brace + 1..close];
            let tail = rest[close + 1..]
                .strip_prefix('/')
                .ok_or_else(|| PathError::new(format!("`{s}` missing '/' after instance")))?;
            (object, Some(instance), tail)
        } else {
            let slash = rest
                .find('/')
                .ok_or_else(|| PathError::new(format!("`{s}` missing counter name")))?;
            (&rest[..slash], None, &rest[slash + 1..])
        };

        if object.is_empty() {
            return Err(PathError::new(format!("`{s}` has empty object")));
        }

        let (name, parameters) = match name_part.split_once('@') {
            Some((n, p)) => (n, Some(p.to_owned())),
            None => (name_part, None),
        };
        if name.is_empty() {
            return Err(PathError::new(format!("`{s}` has empty counter name")));
        }

        Ok(CounterPath {
            object: object.to_owned(),
            instance: instance.map(str::to_owned),
            name: name.to_owned(),
            parameters,
        })
    }
}

impl fmt::Display for CounterPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}", self.object)?;
        if let Some(inst) = &self.instance {
            write!(f, "{{{inst}}}")?;
        }
        write!(f, "/{}", self.name)?;
        if let Some(p) = &self.parameters {
            write!(f, "@{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_path() {
        let p: CounterPath = "/threads/idle-rate".parse().unwrap();
        assert_eq!(p.object, "threads");
        assert_eq!(p.instance, None);
        assert_eq!(p.name, "idle-rate");
        assert_eq!(p.parameters, None);
    }

    #[test]
    fn parses_instance() {
        let p: CounterPath = "/threads{locality#0/total}/count/cumulative"
            .parse()
            .unwrap();
        assert_eq!(p.object, "threads");
        assert_eq!(p.instance.as_deref(), Some("locality#0/total"));
        assert_eq!(p.name, "count/cumulative");
    }

    #[test]
    fn parses_parameters() {
        let p: CounterPath = "/threads/idle-rate@interval=100ms".parse().unwrap();
        assert_eq!(p.parameters.as_deref(), Some("interval=100ms"));
    }

    #[test]
    fn roundtrips_display() {
        for s in [
            "/threads/idle-rate",
            "/threads{locality#0/worker-thread#7}/time/average",
            "/threads{locality#0/total}/count/pending-accesses",
            "/threads/idle-rate@window=5",
        ] {
            let p: CounterPath = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "threads/idle-rate",
            "/threads",
            "//idle-rate",
            "/threads{unterminated/idle-rate",
            "/threads{x}no-slash",
            "/threads/",
        ] {
            assert!(s.parse::<CounterPath>().is_err(), "should reject `{s}`");
        }
    }

    /// The scope shortcut agrees with the parser: a prefix and name it
    /// accepts parse back to exactly that object, instance and name, and
    /// every one it refuses would not.
    #[test]
    fn scope_prefix_agrees_with_the_parser() {
        let objects = ["jobs", "a/b", "", "j{", "j}", "x y"];
        let instances = ["render#1", "t/a#3", "", "a}b", "a}/b", "{x", "a@b"];
        let names = ["count", "count/tasks", "t@p=1", "", "@p", "a{b}", "x}/y"];
        for object in objects {
            for instance in instances {
                for name in names {
                    let built = CounterPath::scope_prefix(object, instance)
                        .ok()
                        .filter(|_| CounterPath::scoped_name_is_valid(name))
                        .map(|prefix| format!("{prefix}/{name}"));
                    let full = format!("/{object}{{{instance}}}/{name}");
                    let round_trips = full.parse::<CounterPath>().is_ok_and(|p| {
                        p.object == object
                            && p.instance.as_deref() == Some(instance)
                            && p.to_string() == full
                    });
                    assert_eq!(
                        built.is_some(),
                        round_trips,
                        "{object:?} {instance:?} {name:?}"
                    );
                    if let Some(built) = built {
                        assert_eq!(built, full);
                    }
                }
            }
        }
    }

    #[test]
    fn multi_segment_name_without_instance() {
        let p: CounterPath = "/threads/count/pending-misses".parse().unwrap();
        assert_eq!(p.name, "count/pending-misses");
    }

    #[test]
    fn wildcard_matching() {
        let pat: CounterPath = "/threads/count/*".parse().unwrap();
        let a: CounterPath = "/threads/count/cumulative".parse().unwrap();
        let b: CounterPath = "/threads/time/average".parse().unwrap();
        assert!(pat.matches(&a));
        assert!(!pat.matches(&b));
    }

    #[test]
    fn instance_wildcard_matching() {
        let pat: CounterPath = "/threads/idle-rate".parse().unwrap();
        let inst: CounterPath = "/threads{locality#0/worker-thread#1}/idle-rate"
            .parse()
            .unwrap();
        // pattern without instance matches any instance…
        assert!(pat.matches(&inst));
        // …but a pattern with an instance requires that exact instance.
        assert!(!inst.matches(&pat));
    }

    #[test]
    fn base_strips_instance() {
        let p: CounterPath = "/threads{locality#0/worker-thread#1}/idle-rate"
            .parse()
            .unwrap();
        assert_eq!(p.base().to_string(), "/threads/idle-rate");
    }

    #[test]
    fn worker_instance_formatting() {
        assert_eq!(
            CounterPath::worker_instance(3),
            "locality#0/worker-thread#3"
        );
        assert_eq!(CounterPath::total_instance_for(0), "locality#0/total");
    }

    #[test]
    fn locality_parameterized_instances() {
        assert_eq!(CounterPath::locality_prefix(7), "locality#7");
        assert_eq!(CounterPath::total_instance_for(2), "locality#2/total");
        assert_eq!(
            CounterPath::worker_instance_for(2, 5),
            "locality#2/worker-thread#5"
        );
        // Locality 0 helpers stay the historical single-locality strings.
        assert_eq!(
            CounterPath::worker_instance_for(0, 3),
            CounterPath::worker_instance(3)
        );
    }
}
