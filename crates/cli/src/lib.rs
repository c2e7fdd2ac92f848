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

pub use app::{load_task, parse, run, CacheAction, CliError, Command};
pub use chaos::{run_campaign, ChaosOptions};
pub use serve::{ServeOptions, Server, ShutdownHandle};
