//! The chromata benchmark: one runner, four workloads, one schema.
//!
//! `chromata-bench run --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload in its own process. It drives the
//! program only through public APIs — `analyze_governed`,
//! `clear_stage_caches`, `stage_cache_stats`, `persist_now`,
//! `load_cache_dir`, `solve_act` and `validate_witness` from `chromata`;
//! `verify_figure7_with_crashes` from `chromata-runtime`; `registry`,
//! `wire`, `Server` and `serve::request_line` from `chromata-cli` — and
//! checks every answer against [`known`] answers or an in-process
//! reference. It prints a table of every metric (unit, n, median,
//! quartiles) and, as its last line, one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (untraced) or the
//! per-layer metrics (traced).
//!
//! Workloads (see `README.md` for why each was chosen):
//!
//! * `library-cold` — the 19 registry tasks decided cold, pass after
//!   pass; one operation is one pass.
//! * `mutant-stream` — seeded near-duplicate mutants through one store
//!   that is never cleared; one operation is one mutant.
//! * `serve-replay` — verdict replays over loopback TCP from a server
//!   restored from a snapshot; one operation is one request.
//! * `decide-verify` — decide, then model-check Figure 7 under crash
//!   injection; one operation is one pass.
//!
//! End-to-end metrics ([`metrics::END_TO_END`]) are the same six on every
//! workload; per-layer metrics ([`metrics::PER_LAYER`]) are the traced
//! run's breakdown by layer, with predictions in `README.md`.

pub mod compare;
pub mod known;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use workloads::{run, Plan, Workload};
