//! One closed-loop client: runs planned operations through `rdht_core::ums`
//! over a timed environment and records latency plus history.

use std::time::Instant;

use rdht_core::{ums, UmsAccess};
use rdht_hashing::Key;

use crate::clock;
use crate::cluster::DEPLOYMENT;
use crate::gen::{self, Rng, Zipf};
use crate::history::{History, Op, Outcome};
use crate::stats;
use crate::timed::Timed;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Retrieve,
}

/// The operation mix and key popularity of one workload.
pub struct Mix {
    pub keys: usize,
    pub insert_share: f64,
    /// `Some(s)`: Zipf(s) over a fixed permutation of the keys; `None`:
    /// uniform.
    pub zipf: Option<f64>,
    pub payload_len: usize,
}

/// A client's seeded operation stream.
pub struct Plan {
    rng: Rng,
    zipf: Option<(Zipf, Vec<usize>)>,
    keys: usize,
    insert_share: f64,
}

impl Plan {
    pub fn new(mix: &Mix, seed: u64, lane: u64) -> Self {
        // The popularity ranking is part of the workload, the same in
        // every run; the draws come from the seed, per client.
        let zipf = mix.zipf.map(|s| {
            let order = gen::permutation(mix.keys, &mut Rng::stream(DEPLOYMENT, 0x21bf));
            (Zipf::new(mix.keys, s), order)
        });
        Plan {
            rng: Rng::stream(seed, lane),
            zipf,
            keys: mix.keys,
            insert_share: mix.insert_share,
        }
    }

    pub fn draw(&mut self) -> (Kind, usize) {
        let kind = if self.rng.unit() < self.insert_share {
            Kind::Insert
        } else {
            Kind::Retrieve
        };
        let key = match &self.zipf {
            Some((zipf, order)) => order[zipf.sample(&mut self.rng)],
            None => self.rng.below(self.keys),
        };
        (kind, key)
    }
}

pub fn keys(count: usize) -> Vec<Key> {
    (0..count)
        .map(|i| Key::new(format!("bench-{i:06}")))
        .collect()
}

/// One finished operation's latency, by completion time.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: Kind,
    pub end: u64,
    pub latency_ns: f64,
}

/// What one client saw.
#[derive(Default)]
pub struct Record {
    pub history: History,
    pub samples: Vec<Sample>,
    pub probes: Vec<f64>,
    pub attempted: u64,
    pub errors: Vec<String>,
}

impl Record {
    pub fn extend(&mut self, other: Record) {
        self.history.extend(other.history);
        self.samples.extend(other.samples);
        self.probes.extend(other.probes);
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
    }
}

/// The client identity payloads carry, and its insert counter.
pub struct Writer {
    pub id: u64,
    pub next_seq: u64,
}

/// Runs one operation and records it. A failed call or a partial insert is
/// recorded as an error (a failed operation), not as history.
pub fn execute<A: UmsAccess>(
    access: &mut Timed<A>,
    keys: &[Key],
    (kind, key): (Kind, usize),
    writer: &mut Writer,
    payload_len: usize,
    record: &mut Record,
) {
    record.attempted += 1;
    let started = Instant::now();
    let start = clock::ns(started);
    let outcome = match kind {
        Kind::Insert => {
            let seq = writer.next_seq;
            writer.next_seq += 1;
            let data = gen::payload(writer.id, seq, payload_len);
            match ums::insert(access, &keys[key], data) {
                Ok(report) if report.replicas_failed == 0 => Ok(Outcome::Insert {
                    writer: writer.id,
                    seq,
                    stamp: report.timestamp.0,
                }),
                Ok(report) => {
                    record.history.failed_inserts.insert((writer.id, seq));
                    Err(format!(
                        "insert of key {key}: {} of {} replicas failed",
                        report.replicas_failed,
                        report.replicas_failed + report.replicas_written
                    ))
                }
                Err(error) => {
                    record.history.failed_inserts.insert((writer.id, seq));
                    Err(format!("insert of key {key}: {error}"))
                }
            }
        }
        Kind::Retrieve => match ums::retrieve(access, &keys[key]) {
            Ok(report) => {
                record.probes.push(report.replicas_probed as f64);
                Ok(Outcome::Retrieve {
                    stamp: report.timestamp.0,
                    payload: report.data.as_deref().and_then(gen::decode),
                    has_data: report.data.is_some(),
                    current: report.is_current,
                    degraded: report.degraded,
                })
            }
            Err(error) => Err(format!("retrieve of key {key}: {error}")),
        },
    };
    let latency_ns = started.elapsed().as_nanos() as f64;
    let end = start + latency_ns as u64;
    if let Some(lane) = &access.lane {
        let name = match kind {
            Kind::Insert => "bench.insert",
            Kind::Retrieve => "bench.retrieve",
        };
        lane.span(name, started);
    }
    match outcome {
        Ok(outcome) => {
            record.history.ops.push(Op {
                key: key as u32,
                start,
                end,
                outcome,
            });
            record.samples.push(Sample {
                kind,
                end,
                latency_ns,
            });
        }
        Err(error) => record.errors.push(error),
    }
}

/// The end-to-end figures of a measured interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub insert_p50_us: f64,
    pub insert_p90_us: f64,
    pub insert_p99_us: f64,
    pub retrieve_p50_us: f64,
    pub retrieve_p90_us: f64,
    pub retrieve_p99_us: f64,
}

/// Throughput and exact percentiles of the samples that completed within
/// `[lo, hi)` (nanoseconds on the benchmark clock).
pub fn end_to_end(samples: &[Sample], (lo, hi): (u64, u64)) -> EndToEnd {
    let (mut inserts, mut retrieves) = (Vec::new(), Vec::new());
    for sample in samples.iter().filter(|s| s.end >= lo && s.end < hi) {
        match sample.kind {
            Kind::Insert => inserts.push(sample.latency_ns / 1e3),
            Kind::Retrieve => retrieves.push(sample.latency_ns / 1e3),
        }
    }
    EndToEnd {
        ops_per_s: (inserts.len() + retrieves.len()) as f64 / ((hi - lo) as f64 / 1e9),
        insert_p50_us: stats::quantile(&inserts, 0.5),
        insert_p90_us: stats::quantile(&inserts, 0.9),
        insert_p99_us: stats::quantile(&inserts, 0.99),
        retrieve_p50_us: stats::quantile(&retrieves, 0.5),
        retrieve_p90_us: stats::quantile(&retrieves, 0.9),
        retrieve_p99_us: stats::quantile(&retrieves, 0.99),
    }
}
