//! Library backing the `chromata` command-line tool.
//!
//! The binary is a thin wrapper around [`parse`] and [`run`], so every
//! command is unit-testable without spawning processes. See
//! `chromata help` for the command grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
pub mod chaos;
pub mod registry;
pub mod serve;
pub mod wire;

pub use app::{load_task, parse, run, write_stdout, CacheAction, CliError, Command};
pub use chaos::{run_campaign, ChaosOptions};
pub use serve::{ServeOptions, Server, ShutdownHandle};

/// Serializes the lib tests that clear the process-wide store, persist
/// through it or run a chaos campaign. They run concurrently in one
/// process, so without it a clear can land between another test's
/// analysis and its save (which then writes nothing), and a successful
/// save can reset the read-through flag a campaign is about to check.
#[cfg(test)]
pub(crate) fn store_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
