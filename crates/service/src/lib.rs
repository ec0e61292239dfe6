//! # datalog-service
//!
//! A concurrent materialized-view Datalog server — the serving-path payoff
//! of the paper's §VII minimization. The optimization "reduces the number
//! of joins done during the evaluation", a saving that compounds only when
//! a program is evaluated many times; this crate supplies that long-lived
//! setting: programs are **optimized once at install time** and then answer
//! a stream of queries over **incrementally maintained** views.
//!
//! Layers:
//!
//! * [`protocol`] — the line-delimited JSON wire format: request/response
//!   shapes, stable error codes, field accessors (spec: `docs/SERVICE.md`);
//! * [`registry`] — named programs; the install pipeline (parse → validate
//!   → §VII minimize) and the request dispatcher. A `query`
//!   reads the published fixpoint (`Database::select`) unless it names
//!   `"strategy":"magic"`, which evaluates magic sets from the view's base
//!   facts on every ask, through a per-program
//!   [`datalog_engine::PlanCache`] (plans are kept, answers are not);
//! * [`view`] — per-program materialisations
//!   ([`datalog_engine::Materialized`], one context each) with batched
//!   insert/remove and snapshot-isolated, never-blocking reads: one
//!   published `Arc<Database>`, swapped after every write batch;
//! * [`metrics`] — per-program and server-wide request counts, latency, and
//!   aggregated [`datalog_engine::Stats`], served by the `stats` request;
//! * [`pool`] — the fixed-size worker thread pool the server runs requests
//!   on;
//! * [`server`] — the TCP daemon: a readiness-driven `poll(2)` event loop
//!   (idle connections cost no threads and no wake-ups) feeding a bounded
//!   worker pool, with admission control, streaming payload-limit
//!   enforcement, wall-clock idle deadlines, panic isolation, and graceful
//!   shutdown;
//! * [`client`] — a small blocking client used by the CLI, tests, and
//!   benches.
//!
//! ## In-process quick start
//!
//! ```
//! use datalog_service::Registry;
//!
//! let registry = Registry::new();
//! let (resp, _) = registry.handle_line(
//!     r#"{"op":"install","program":"tc",
//!         "rules":"g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z)."}"#,
//! );
//! assert!(resp.contains("\"ok\":true"));
//! registry.handle_line(r#"{"op":"insert","program":"tc","facts":"a(1,2). a(2,3)."}"#);
//! let (resp, _) = registry.handle_line(r#"{"op":"query","program":"tc","atom":"g(1, X)"}"#);
//! assert!(resp.contains("g(1, 3)"));
//! ```

#![warn(rust_2018_idioms)]

pub mod client;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod view;

pub use client::Client;
pub use metrics::Metrics;
pub use pool::ThreadPool;
pub use protocol::{ErrorCode, ServiceError};
pub use registry::{Control, ProgramEntry, Registry};
pub use server::{Server, ServerConfig};
pub use view::{View, ViewState};
