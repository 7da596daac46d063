//! A run's outcome: operation counts, the history check, and metrics.

use crate::history::{self, History};
use crate::load::{EndToEnd, Record};

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.ums.gen_ts_us", "us"),
    ("core.ums.put_replicas_us", "us"),
    ("core.ums.last_ts_us", "us"),
    ("core.ums.get_replica_us", "us"),
    ("core.ums.replicas_probed_per_retrieve", "count"),
    ("net.client.messages_per_op", "count"),
    ("net.client.retries", "count"),
    ("net.peer.queue_wait_us", "us"),
    ("net.peer.apply_us", "us"),
    ("net.peer.batch_wait_us", "us"),
    ("net.peer.reply_us", "us"),
    ("net.peer.service_us", "us"),
    ("net.peer.drain_batch_depth", "count"),
    ("net.transport_us", "us"),
    ("storage.fsync_us", "us"),
    ("storage.wal_syncs_per_insert", "count"),
    ("storage.batch_ops", "count"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.compactions", "count"),
    ("membership.handoff_p50_ms", "ms"),
    ("membership.export_ms", "ms"),
    ("membership.install_ms", "ms"),
    ("membership.commit_ms", "ms"),
    ("membership.replicas_moved_per_handoff", "count"),
    ("membership.counters_moved_per_handoff", "count"),
    ("membership.stall_ms_per_handoff", "ms"),
    ("sim.sim_s_per_s", "s/s"),
    ("sim.retrieve_p50_ms", "ms"),
    ("sim.messages_per_query", "count"),
    ("sim.replicas_probed_per_query", "count"),
    ("sim.joins", "count"),
    ("sim.stabilize_rounds", "count"),
    ("sim.kts_indirect_initializations", "count"),
    ("trace.overhead_insert_p50_pct", "%"),
    ("trace.overhead_retrieve_p50_pct", "%"),
];

/// Every end-to-end metric an untraced run prints.
pub const END_TO_END: [&str; 6] = [
    "ops_per_s",
    "insert_p50_us",
    "insert_p90_us",
    "retrieve_p50_us",
    "retrieve_p90_us",
    "setup_s",
];

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Planted stale reads shown to the checker, and how many it flagged.
    pub planted: u32,
    pub flagged: u32,
    pub metrics: Vec<(String, f64, String)>,
    pub layers: Vec<(String, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records the end-to-end figures of the timed interval. The p99s are
    /// printed, not reported: on a shared 2-vCPU machine they follow the
    /// hypervisor's preemptions more than the program (see README.md).
    pub fn end_to_end(&mut self, figures: &EndToEnd) {
        self.metric("ops_per_s", figures.ops_per_s, "1/s");
        self.metric("insert_p50_us", figures.insert_p50_us, "us");
        self.metric("insert_p90_us", figures.insert_p90_us, "us");
        self.metric("retrieve_p50_us", figures.retrieve_p50_us, "us");
        self.metric("retrieve_p90_us", figures.retrieve_p90_us, "us");
        println!(
            "tail: insert p99 {:.1} us, retrieve p99 {:.1} us",
            figures.insert_p99_us, figures.retrieve_p99_us
        );
    }

    /// Records a per-layer figure; its unit comes from [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.push((name.to_string(), value));
    }

    /// Counts a record's operations, checks its history, and shows the
    /// checker a planted stale read. Errors and rule violations are failed
    /// operations.
    pub fn check(&mut self, record: &Record) {
        self.attempted += record.attempted;
        self.failed += record.errors.len() as u64;
        for error in record.errors.iter().take(5) {
            println!("failed: {error}");
        }
        self.check_history(&record.history);
    }

    pub fn check_history(&mut self, history: &History) {
        let violations = history::check(history);
        for (index, reason) in violations.iter().take(5) {
            println!("violation at op {index}: {reason}");
        }
        self.failed += violations.len() as u64;
        if let Some(flagged) = history::self_test(history) {
            self.planted += 1;
            if flagged {
                self.flagged += 1;
            } else {
                println!("history checker missed a planted stale read");
            }
        }
    }

    /// The result line (`correct` says the checker was shown a planted
    /// stale read and flagged it): end-to-end metrics, or with `traced` every
    /// per-layer metric.
    pub fn json(&self, traced: bool) -> String {
        let mut metrics: Vec<String> = Vec::new();
        let entry = |name: &str, value: f64, unit: &str| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        };
        if traced {
            for (name, unit) in PER_LAYER {
                let value = self
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                metrics.push(entry(name, value, unit));
            }
        } else {
            for name in END_TO_END {
                let (_, value, unit) = self
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"));
                metrics.push(entry(name, *value, unit));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.planted > 0 && self.flagged == self.planted,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (`0` for a non-finite value).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}
