//! The one sleep of the tests. A test that paces its scenario (lets a
//! peer fall behind, a task outlast a waiter, a timer lapse) includes
//! this one file by path — an integration test at its top, a unit-test
//! module beside its `mod tests`, from the file that holds it:
//!
//! ```ignore
//! #[cfg(test)]
//! #[path = "../../runtime/tests/support/pace.rs"]
//! mod pace;
//! ```
//!
//! so the module-wide allow it would otherwise need, which also
//! silences the park, std condvar-wait and thread-start entries of
//! `crates/clippy.toml`, sits on this one function instead.

use std::time::Duration;

/// Sleep the calling thread for `d`.
#[allow(
    clippy::disallowed_methods,
    reason = "a test paces its scenario with sleeps; the rule is for product code"
)]
pub fn pace(d: Duration) {
    std::thread::sleep(d);
}
