//! The timing [`UmsAccess`] decorator: wraps any environment (a
//! `ClusterClient`, the simulator's `SimAccess`) and times every call UMS
//! makes into it, from outside the program. When a trace sink is attached
//! it also records each call as a `core.ums.<call>` span.

use std::time::Instant;

use rdht_core::{PutReplicasOutcome, ReplicaValue, Timestamp, UmsAccess, UmsError};
use rdht_hashing::{HashId, Key};
use rdht_metrics::TraceSink;

use crate::clock;

/// Per-call durations in nanoseconds, one entry per call.
#[derive(Clone, Debug, Default)]
pub struct CallTimes {
    pub gen_ts: Vec<f64>,
    pub put_replicas: Vec<f64>,
    pub last_ts: Vec<f64>,
    pub get_replica: Vec<f64>,
}

impl CallTimes {
    pub fn extend(&mut self, other: CallTimes) {
        self.gen_ts.extend(other.gen_ts);
        self.put_replicas.extend(other.put_replicas);
        self.last_ts.extend(other.last_ts);
        self.get_replica.extend(other.get_replica);
    }
}

/// A span lane: where the decorator records its spans.
pub struct Lane {
    pub sink: TraceSink,
    pub tid: u64,
}

impl Lane {
    /// Records a span that started at `start` and ends now.
    pub fn span(&self, name: &str, start: Instant) {
        let dur = clock::us(start.elapsed());
        self.sink.complete_at(
            name,
            u64::from(std::process::id()),
            self.tid,
            self.sink.now_us().saturating_sub(dur),
            dur,
        );
    }
}

pub struct Timed<A> {
    pub inner: A,
    pub times: CallTimes,
    pub lane: Option<Lane>,
}

impl<A> Timed<A> {
    pub fn new(inner: A) -> Self {
        Timed {
            inner,
            times: CallTimes::default(),
            lane: None,
        }
    }

    fn finish(&mut self, name: &'static str, start: Instant) {
        let ns = start.elapsed().as_nanos() as f64;
        let bucket = match name {
            "core.ums.gen_ts" => &mut self.times.gen_ts,
            "core.ums.put_replicas" => &mut self.times.put_replicas,
            "core.ums.last_ts" => &mut self.times.last_ts,
            _ => &mut self.times.get_replica,
        };
        bucket.push(ns);
        if let Some(lane) = &self.lane {
            lane.span(name, start);
        }
    }
}

impl<A: UmsAccess> UmsAccess for Timed<A> {
    fn kts_gen_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
        let start = Instant::now();
        let result = self.inner.kts_gen_ts(key);
        self.finish("core.ums.gen_ts", start);
        result
    }

    fn kts_last_ts(&mut self, key: &Key) -> Result<Timestamp, UmsError> {
        let start = Instant::now();
        let result = self.inner.kts_last_ts(key);
        self.finish("core.ums.last_ts", start);
        result
    }

    fn put_replica(
        &mut self,
        hash: HashId,
        key: &Key,
        value: &ReplicaValue,
    ) -> Result<(), UmsError> {
        self.inner.put_replica(hash, key, value)
    }

    fn get_replica(&mut self, hash: HashId, key: &Key) -> Result<Option<ReplicaValue>, UmsError> {
        let start = Instant::now();
        let result = self.inner.get_replica(hash, key);
        self.finish("core.ums.get_replica", start);
        result
    }

    fn put_replicas(&mut self, key: &Key, value: &ReplicaValue) -> PutReplicasOutcome {
        let start = Instant::now();
        let outcome = self.inner.put_replicas(key, value);
        self.finish("core.ums.put_replicas", start);
        outcome
    }

    fn replication_count(&self) -> usize {
        self.inner.replication_count()
    }
}
