//! End-to-end benchmark of the ptherm fleet service.
//!
//! `run` starts [`ptherm_fleet::FleetServer`] on a Unix socket, replays a
//! seeded JSONL corpus into it from two connections (an open-loop paced
//! phase, then a closed-loop saturation phase), checks every answer
//! bitwise against a direct engine call, and reports the metrics named
//! in `BENCHMARK.json`. A traced run adds per-layer numbers by replaying
//! each template one public call at a time.

pub mod check;
pub mod client;
pub mod corpus;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
