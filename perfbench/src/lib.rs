//! The rdht benchmark's library: workloads, the timing decorator, the
//! history checker, the registry reader and the traced-run ledger. The
//! `perfbench` binary runs the workloads; `crash_repro` reproduces the
//! crash/restart fault the history checker found (see README.md).

pub mod clock;
pub mod cluster;
pub mod cpu;
pub mod gen;
pub mod history;
pub mod ledger;
pub mod load;
pub mod report;
pub mod scrape;
pub mod sim;
pub mod stats;
pub mod timed;
