//! The three cluster workloads: closed-loop clients driving a live
//! `rdht_net::Cluster` through `rdht_core::ums`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use rdht_hashing::Key;
use rdht_metrics::{Registry, TraceConfig, TraceSink};
use rdht_net::{
    Cluster, ClusterClient, ClusterConfig, ClusterStorage, MembershipError, PeerId, TransportKind,
};
use rdht_storage::{FsyncPolicy, StorageOptions};

use crate::clock;
use crate::gen::Rng;
use crate::ledger;
use crate::load::{self, EndToEnd, Kind, Mix, Plan, Record, Writer};
use crate::report::Report;
use crate::scrape::Totals;
use crate::stats;
use crate::timed::{CallTimes, Lane, Timed};

/// Hand-offs driven while one client works: `cycles` join + leave pairs
/// per round of `ops` client operations, each cycle released when the
/// client has completed its share of the round.
pub struct Churn {
    pub ops: u64,
    pub cycles: u64,
}

pub struct Spec {
    pub name: &'static str,
    pub peers: usize,
    pub replicas: usize,
    pub transport: TransportKind,
    /// `None`: no journal.
    pub fsync: Option<FsyncPolicy>,
    pub mix: Mix,
    pub clients: usize,
    pub churn: Option<Churn>,
}

pub fn read_mostly() -> Spec {
    Spec {
        name: "read_mostly",
        peers: 8,
        replicas: 10,
        transport: TransportKind::Channel,
        fsync: None,
        mix: Mix {
            keys: 4096,
            insert_share: 0.05,
            zipf: Some(0.99),
            payload_len: 64,
        },
        clients: 2,
        churn: None,
    }
}

pub fn write_durable_tcp() -> Spec {
    Spec {
        name: "write_durable_tcp",
        peers: 4,
        replicas: 10,
        transport: TransportKind::Tcp,
        fsync: Some(FsyncPolicy::group_commit(64, Duration::ZERO)),
        mix: Mix {
            keys: 1024,
            insert_share: 0.8,
            zipf: None,
            payload_len: 256,
        },
        clients: 2,
        churn: None,
    }
}

pub fn churn_handoff() -> Spec {
    Spec {
        name: "churn_handoff",
        peers: 6,
        replicas: 10,
        transport: TransportKind::Channel,
        fsync: Some(FsyncPolicy::Never),
        mix: Mix {
            keys: 1024,
            insert_share: 0.2,
            zipf: None,
            payload_len: 64,
        },
        clients: 1,
        churn: Some(Churn {
            ops: 5_000,
            cycles: 4,
        }),
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Operations each client runs before the clock starts.
const WARMUP_OPS: usize = 300;
/// Operations between two looks at the clock.
const BLOCK: usize = 32;
/// Writer ids of the preload (clients use their index).
const PRELOAD_WRITER: u64 = 1 << 32;
/// Seed of the deployment: peer ids, the hash family and the ids of
/// joining peers. Fixed, so that every run measures the same cluster and
/// `--seed` varies only the operation stream.
pub const DEPLOYMENT: u64 = 0x5eed_0d07;

/// A live cluster plus everything the benchmark tracks about it.
struct Bench<'a> {
    spec: &'a Spec,
    cluster: Cluster,
    keys: Vec<Key>,
    /// Every registry the cluster ever had (joined peers included).
    registries: Vec<Registry>,
    record: Record,
    dir: Option<PathBuf>,
    seed: u64,
    next_writer: u64,
    /// The peers' trace sink, when the cluster records spans.
    trace: Option<TraceSink>,
}

impl Bench<'_> {
    fn totals(&self) -> Totals {
        Totals::read(&self.registries)
    }

    fn shutdown(self) -> Record {
        self.cluster.shutdown();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        self.record
    }
}

fn setup<'a>(
    spec: &'a Spec,
    seed: u64,
    dir: Option<PathBuf>,
    trace: Option<TraceSink>,
) -> Bench<'a> {
    let mut config = ClusterConfig::new(spec.peers, spec.replicas, DEPLOYMENT)
        .with_transport(spec.transport)
        .with_forwarder_reap_idle(Duration::from_millis(200));
    if let (Some(fsync), Some(dir)) = (spec.fsync, &dir) {
        let _ = std::fs::remove_dir_all(dir);
        config = config.with_storage(ClusterStorage::with_options(
            dir,
            StorageOptions::with_fsync(fsync),
        ));
    }
    if let Some(sink) = &trace {
        config = config.with_trace(sink.clone());
    }
    let cluster = Cluster::spawn_with(config);
    let registries = cluster
        .peer_ids()
        .into_iter()
        .filter_map(|peer| cluster.registry(peer))
        .collect();
    let keys = load::keys(spec.mix.keys);
    // Preload every key once, striped over the clients.
    let record = Mutex::new(Record::default());
    std::thread::scope(|scope| {
        for stripe in 0..spec.clients {
            let (cluster, keys, record) = (&cluster, &keys, &record);
            scope.spawn(move || {
                let mut access = Timed::new(cluster.client());
                let mut writer = Writer {
                    id: PRELOAD_WRITER + stripe as u64,
                    next_seq: 0,
                };
                let mut mine = Record::default();
                for key in (stripe..keys.len()).step_by(spec.clients) {
                    load::execute(
                        &mut access,
                        keys,
                        (Kind::Insert, key),
                        &mut writer,
                        spec.mix.payload_len,
                        &mut mine,
                    );
                }
                mine.samples.clear();
                record.lock().expect("preload record").extend(mine);
            });
        }
    });
    Bench {
        spec,
        cluster,
        keys,
        registries,
        record: record.into_inner().expect("preload record"),
        dir,
        seed,
        next_writer: 0,
        trace,
    }
}

/// What one measured phase produced.
#[derive(Default)]
struct Phase {
    record: Record,
    times: CallTimes,
    messages: u64,
    retries: u64,
    /// The timed interval `[lo, hi)` on the benchmark clock.
    interval: (u64, u64),
    handoff_ms: Vec<f64>,
    replicas_moved: f64,
    counters_moved: f64,
    /// Client-side trace sinks (traced phases only), each with the offset
    /// that maps its timestamps onto the peers' sink.
    sinks: Vec<(TraceSink, i64)>,
}

impl Phase {
    fn end_to_end(&self) -> EndToEnd {
        load::end_to_end(&self.record.samples, self.interval)
    }

    /// Records one hand-off that started at `started`: its time and what
    /// it moved, or its error.
    fn handoff(
        &mut self,
        outcome: Result<(usize, usize), MembershipError>,
        started: Instant,
        what: &str,
        peer: PeerId,
        errors: &mut Vec<String>,
    ) {
        match outcome {
            Ok((replicas, counters)) => {
                self.handoff_ms.push(started.elapsed().as_secs_f64() * 1e3);
                self.replicas_moved += replicas as f64;
                self.counters_moved += counters as f64;
            }
            Err(error) => errors.push(format!("{what} {:016x}: {error}", peer.0)),
        }
    }

    /// Operations run after the warm-up, timed window or not.
    fn ops(&self) -> f64 {
        (self.record.samples.len() + self.record.errors.len()) as f64
    }
}

/// Fresh client sinks, each with its offset onto the peers' sink.
fn client_sinks(bench: &Bench, count: usize) -> Vec<(TraceSink, i64)> {
    (0..count)
        .map(|_| {
            let peers = bench.trace.as_ref().expect("a traced cluster");
            let sink = TraceSink::new();
            let offset = peers.now_us() as i64 - sink.now_us() as i64;
            (sink, offset)
        })
        .collect()
}

fn client(bench: &Bench, sink: Option<&TraceSink>, tid: u64) -> Timed<ClusterClient> {
    let mut access = Timed::new(bench.cluster.client());
    if let Some(sink) = sink {
        access
            .inner
            .attach_trace(sink.clone(), TraceConfig::always());
        access.lane = Some(Lane {
            sink: sink.clone(),
            tid,
        });
    }
    access
}

/// What a client thread hands back: its record, call times, and the
/// messages and retries it spent in the timed part.
type ClientOutput = (Record, CallTimes, u64, u64);

fn warm_up(
    access: &mut Timed<ClusterClient>,
    plan: &mut Plan,
    keys: &[Key],
    writer: &mut Writer,
    payload_len: usize,
    ops: usize,
) -> Record {
    let mut record = Record::default();
    for _ in 0..ops {
        load::execute(access, keys, plan.draw(), writer, payload_len, &mut record);
    }
    record.samples.clear();
    access.times = CallTimes::default();
    record
}

/// Closed-loop clients for `seconds` after a warm-up of `warmup` ops each;
/// the figures cover the operations that completed inside the timed
/// window, the check covers all of them.
fn steady(bench: &mut Bench, seconds: f64, traced: bool, warmup: usize) -> Phase {
    let spec = bench.spec;
    let sinks = client_sinks(bench, if traced { spec.clients } else { 0 });
    let barrier = Barrier::new(spec.clients);
    let start = Mutex::new(None::<Instant>);
    let first_writer = bench.next_writer;
    bench.next_writer += spec.clients as u64;
    let outputs: Vec<ClientOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let mut access = client(bench, sinks.get(c).map(|(sink, _)| sink), c as u64 + 1);
                let (keys, barrier, start) = (&bench.keys, &barrier, &start);
                let writer_id = first_writer + c as u64;
                let mut plan = Plan::new(&spec.mix, bench.seed, writer_id + 1);
                scope.spawn(move || {
                    let mut writer = Writer {
                        id: writer_id,
                        next_seq: 0,
                    };
                    let len = spec.mix.payload_len;
                    let mut record =
                        warm_up(&mut access, &mut plan, keys, &mut writer, len, warmup);
                    let (messages, retries) = (access.inner.messages(), access.inner.retries());
                    if barrier.wait().is_leader() {
                        *start.lock().expect("start lock") = Some(Instant::now());
                    }
                    barrier.wait();
                    let t0 = start
                        .lock()
                        .expect("start lock")
                        .expect("set by the leader");
                    let deadline = t0 + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        for _ in 0..BLOCK {
                            load::execute(
                                &mut access,
                                keys,
                                plan.draw(),
                                &mut writer,
                                len,
                                &mut record,
                            );
                        }
                    }
                    (
                        record,
                        access.times,
                        access.inner.messages() - messages,
                        access.inner.retries() - retries,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    let t0 = clock::ns(
        start
            .into_inner()
            .expect("start lock")
            .expect("clients ran"),
    );
    let mut phase = Phase {
        interval: (t0, t0 + (seconds * 1e9) as u64),
        sinks,
        ..Phase::default()
    };
    for (record, times, messages, retries) in outputs {
        phase.record.extend(record);
        phase.times.extend(times);
        phase.messages += messages;
        phase.retries += retries;
    }
    phase
}

/// Rounds of one client's `churn.ops` operations while this thread runs
/// `churn.cycles` join + leave hand-offs, each released when the client
/// has completed its share of the round. Runs whole rounds until `seconds`
/// have passed, or exactly `rounds` when given.
fn churning(
    bench: &mut Bench,
    seconds: f64,
    rounds: Option<u64>,
    traced: bool,
    warmup: usize,
) -> Phase {
    let spec = bench.spec;
    let churn = spec.churn.as_ref().expect("a churn workload");
    let sinks = client_sinks(bench, usize::from(traced));
    let writer_id = bench.next_writer;
    bench.next_writer += 1;
    let mut access = client(bench, sinks.first().map(|(sink, _)| sink), 1);
    let mut plan = Plan::new(&spec.mix, bench.seed, writer_id + 1);
    let mut writer = Writer {
        id: writer_id,
        next_seq: 0,
    };
    let len = spec.mix.payload_len;
    let mut record = warm_up(
        &mut access,
        &mut plan,
        &bench.keys,
        &mut writer,
        len,
        warmup,
    );
    let (messages, retries) = (access.inner.messages(), access.inner.retries());
    let mut joiners = Rng::stream(DEPLOYMENT, 0xc4a2 + writer_id);
    let progress = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let mut phase = Phase {
        sinks,
        ..Phase::default()
    };
    let mut handoffs_attempted = 0;
    let mut handoff_errors = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);

    let Bench {
        cluster,
        registries,
        keys,
        ..
    } = bench;
    let (client_record, times) = std::thread::scope(|scope| {
        let (progress, stop, barrier, keys) = (&progress, &stop, &barrier, &*keys);
        let worker = scope.spawn(move || {
            loop {
                for _ in 0..churn.ops {
                    load::execute(
                        &mut access,
                        keys,
                        plan.draw(),
                        &mut writer,
                        len,
                        &mut record,
                    );
                    progress.fetch_add(1, Ordering::Release);
                }
                barrier.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
            (
                record,
                access.times,
                access.inner.messages(),
                access.inner.retries(),
            )
        });
        let mut round = 0u64;
        loop {
            for cycle in 0..churn.cycles {
                let due = round * churn.ops + cycle * churn.ops / churn.cycles;
                while progress.load(Ordering::Acquire) < due {
                    std::thread::sleep(Duration::from_micros(50));
                }
                let id = PeerId(joiners.next_u64());
                handoffs_attempted += 2;
                let started = Instant::now();
                let joined = cluster
                    .join_peer(id)
                    .map(|r| (r.replicas_moved, r.counters_moved));
                phase.handoff(joined, started, "join", id, &mut handoff_errors);
                registries.extend(cluster.registry(id));
                let started = Instant::now();
                let left = cluster
                    .leave_peer(id)
                    .map(|r| (r.replicas_moved, r.counters_moved));
                phase.handoff(left, started, "leave", id, &mut handoff_errors);
            }
            round += 1;
            let done = match rounds {
                Some(rounds) => round >= rounds,
                None => Instant::now() >= deadline,
            };
            stop.store(done, Ordering::Release);
            // Both sides meet at the end of the round.
            barrier.wait();
            if done {
                break;
            }
        }
        let (record, times, m, r) = worker.join().expect("client thread");
        ((record, m, r), times)
    });
    let ((mut client_record, m, r), times) = (client_record, times);
    client_record.attempted += handoffs_attempted;
    client_record.errors.extend(handoff_errors);
    phase.interval = (clock::ns(t0), clock::ns(Instant::now()));
    phase.record = client_record;
    phase.times = times;
    phase.messages = m - messages;
    phase.retries = r - retries;
    phase
}

/// Where a workload keeps its journals: inside the working directory.
fn data_dir(spec: &Spec, setup: usize) -> Option<PathBuf> {
    spec.fsync.map(|_| {
        Path::new(".bench_data").join(format!("{}-{}-{setup}", spec.name, std::process::id()))
    })
}

fn measure(bench: &mut Bench, seconds: f64, traced: bool, warmup: usize) -> Phase {
    if bench.spec.churn.is_some() {
        let rounds = traced.then_some(1);
        churning(bench, seconds, rounds, traced, warmup)
    } else {
        steady(bench, seconds, traced, warmup)
    }
}

/// An untraced run: `SETUPS` set-ups (spawn plus preload), the last one
/// measured for `seconds`.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut bench = None;
    for attempt in 0..SETUPS {
        let started = Instant::now();
        let built = setup(spec, seed, data_dir(spec, attempt), None);
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(previous) = bench.replace(built) {
            report.check(&Bench::shutdown(previous));
        }
    }
    let mut bench = bench.expect("at least one set-up");
    let phase = measure(&mut bench, seconds, false, WARMUP_OPS);
    let figures = phase.end_to_end();
    let mut record = bench.shutdown();
    record.extend(phase.record);
    report.check(&record);
    report.end_to_end(&figures);
    report.metric("setup_s", stats::median(&setup_s), "s");
    report
}

/// Seconds the traced phase of a steady workload runs (its spans are kept
/// in memory until the run ends).
const TRACED_SECONDS: f64 = 0.5;

/// A traced run: one set-up, an untraced phase for half the time, then a
/// traced phase; per-layer figures, the ledger, and the tracing overhead
/// (traced against untraced medians).
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let peer_sink = TraceSink::new();
    let mut bench = setup(spec, seed, data_dir(spec, 0), Some(peer_sink.clone()));
    let warm = measure(&mut bench, 0.0, false, WARMUP_OPS);
    let before = bench.totals();
    let plain = measure(&mut bench, seconds / 2.0, false, 0);
    let registry = bench.totals().since(&before);
    let traced = measure(&mut bench, TRACED_SECONDS.min(seconds / 2.0), true, 0);

    let (untraced_e2e, traced_e2e) = (plain.end_to_end(), traced.end_to_end());
    let analysis = ledger::analyse(
        peer_sink.events(),
        traced
            .sinks
            .iter()
            .map(|(sink, offset)| (sink.events(), *offset))
            .collect(),
    );
    print!("{}", ledger::render(&analysis));
    let overhead = |traced: f64, plain: f64| 100.0 * stats::ratio(traced - plain, plain);
    println!(
        "tracing overhead: insert p50 {:.1} -> {:.1} us ({:+.1}%), retrieve p50 {:.1} -> {:.1} us ({:+.1}%)",
        untraced_e2e.insert_p50_us,
        traced_e2e.insert_p50_us,
        overhead(traced_e2e.insert_p50_us, untraced_e2e.insert_p50_us),
        untraced_e2e.retrieve_p50_us,
        traced_e2e.retrieve_p50_us,
        overhead(traced_e2e.retrieve_p50_us, untraced_e2e.retrieve_p50_us),
    );
    let mut parts: Vec<String> = vec![peer_sink.render_chrome_trace()];
    parts.extend(
        traced
            .sinks
            .iter()
            .map(|(sink, _)| sink.render_chrome_trace()),
    );
    match rdht_metrics::merge_chrome_traces(&parts).map(|merged| std::fs::write(trace_path, merged))
    {
        Some(Ok(())) => println!("chrome trace: {}", trace_path.display()),
        other => println!("chrome trace not written: {other:?}"),
    }

    let us = |ns: &[f64]| stats::median(ns) / 1e3;
    let ops = plain.ops();
    // Registry deltas cover every operation of the phase, in the timed
    // window or not.
    let inserts = plain
        .record
        .samples
        .iter()
        .filter(|s| s.kind == Kind::Insert)
        .count() as f64;
    let handoffs = plain.handoff_ms.len() as f64;
    report.layer("core.ums.gen_ts_us", us(&plain.times.gen_ts));
    report.layer("core.ums.put_replicas_us", us(&plain.times.put_replicas));
    report.layer("core.ums.last_ts_us", us(&plain.times.last_ts));
    report.layer("core.ums.get_replica_us", us(&plain.times.get_replica));
    report.layer(
        "core.ums.replicas_probed_per_retrieve",
        stats::mean(&plain.record.probes),
    );
    report.layer(
        "net.client.messages_per_op",
        stats::ratio(plain.messages as f64, ops),
    );
    report.layer("net.client.retries", plain.retries as f64);
    report.layer("net.peer.queue_wait_us", analysis.queue_wait_us);
    report.layer("net.peer.apply_us", analysis.apply_us);
    report.layer("net.peer.batch_wait_us", analysis.batch_wait_us);
    report.layer("net.peer.reply_us", analysis.reply_us);
    report.layer(
        "net.peer.service_us",
        registry.mean("net_request_service_ns") / 1e3,
    );
    report.layer(
        "net.peer.drain_batch_depth",
        registry.mean("net_drain_batch_depth"),
    );
    report.layer("net.transport_us", analysis.transport_us);
    report.layer("storage.fsync_us", analysis.fsync_us);
    report.layer(
        "storage.wal_syncs_per_insert",
        stats::ratio(registry.get("storage_wal_syncs_total"), inserts),
    );
    report.layer("storage.batch_ops", registry.mean("storage_batch_ops"));
    report.layer(
        "storage.wal_bytes_per_user_byte",
        stats::ratio(
            registry.get("storage_wal_bytes_total"),
            inserts * spec.mix.payload_len as f64,
        ),
    );
    report.layer(
        "storage.compactions",
        registry.get("storage_compactions_total"),
    );
    report.layer(
        "membership.handoff_p50_ms",
        stats::median(&plain.handoff_ms),
    );
    report.layer(
        "membership.export_ms",
        registry.mean("membership_handoff_export_ns") / 1e6,
    );
    report.layer(
        "membership.install_ms",
        registry.mean("membership_handoff_install_ns") / 1e6,
    );
    report.layer(
        "membership.commit_ms",
        registry.mean("membership_handoff_commit_ns") / 1e6,
    );
    report.layer(
        "membership.replicas_moved_per_handoff",
        stats::ratio(plain.replicas_moved, handoffs),
    );
    report.layer(
        "membership.counters_moved_per_handoff",
        stats::ratio(plain.counters_moved, handoffs),
    );
    report.layer(
        "membership.stall_ms_per_handoff",
        stats::ratio(registry.get("net_handoff_stall_ns_total") / 1e6, handoffs),
    );
    report.layer(
        "trace.overhead_insert_p50_pct",
        overhead(traced_e2e.insert_p50_us, untraced_e2e.insert_p50_us),
    );
    report.layer(
        "trace.overhead_retrieve_p50_pct",
        overhead(traced_e2e.retrieve_p50_us, untraced_e2e.retrieve_p50_us),
    );

    let mut record = bench.shutdown();
    record.extend(warm.record);
    record.extend(plain.record);
    record.extend(traced.record);
    report.check(&record);
    report
}
