//! Reproduces the crash/restart fault the history checker found while the
//! benchmark was sized: a journaled cluster keeps serving one client while
//! its peers are crashed and restarted in turn, and the checker counts the
//! reads that broke the currency rules.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin crash_repro -- \
//!     --seed 1 --seconds 10
//! ```
//!
//! Six peers, |Hr| = 4, a group-commit journal, one client running 80 %
//! retrieves and 20 % inserts over 256 preloaded keys, and a
//! `crash_peer` + `restart_peer` of a seeded random peer every ~100 ms.
//! The fault is intermittent: it prints the violations it saw, if any, and
//! always exits 0.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rdht_net::{Cluster, ClusterConfig, ClusterStorage};
use rdht_storage::{FsyncPolicy, StorageOptions};

use perfbench::gen::Rng;
use perfbench::history;
use perfbench::load::{self, Kind, Mix, Plan, Record, Writer};
use perfbench::timed::Timed;

const MIX: Mix = Mix {
    keys: 256,
    insert_share: 0.2,
    zipf: None,
    payload_len: 64,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut seed, mut seconds) = (1u64, 10.0f64);
    while let (Some(flag), Some(value)) = (args.next(), args.next()) {
        match flag.as_str() {
            "--seed" => seed = value.parse().expect("--seed takes an integer"),
            "--seconds" => seconds = value.parse().expect("--seconds takes a number"),
            _ => panic!("unknown argument {flag}"),
        }
    }
    perfbench::clock::start();
    let dir = Path::new(".bench_data").join(format!("crash-repro-{}", std::process::id()));
    let options = StorageOptions::with_fsync(FsyncPolicy::group_commit(64, Duration::ZERO));
    let mut cluster = Cluster::spawn_with(
        ClusterConfig::new(6, 4, seed).with_storage(ClusterStorage::with_options(&dir, options)),
    );
    let peers = cluster.peer_ids();
    let keys = load::keys(MIX.keys);
    let mut access = Timed::new(cluster.client());
    let mut writer = Writer { id: 0, next_seq: 0 };
    let mut record = Record::default();
    for key in 0..MIX.keys {
        load::execute(
            &mut access,
            &keys,
            (Kind::Insert, key),
            &mut writer,
            MIX.payload_len,
            &mut record,
        );
    }
    let stop = AtomicBool::new(false);
    let mut crashes = 0;
    let mut victims = Rng::stream(seed, 0xc7a5);
    let record = std::thread::scope(|scope| {
        let (stop, keys) = (&stop, &keys);
        let worker = scope.spawn(move || {
            let mut plan = Plan::new(&MIX, seed, 1);
            while !stop.load(Ordering::Relaxed) {
                load::execute(
                    &mut access,
                    keys,
                    plan.draw(),
                    &mut writer,
                    MIX.payload_len,
                    &mut record,
                );
            }
            record
        });
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            let victim = peers[victims.below(peers.len())];
            cluster.crash_peer(victim).expect("crash a live peer");
            cluster
                .restart_peer(victim)
                .expect("restart the crashed peer");
            crashes += 1;
        }
        stop.store(true, Ordering::Relaxed);
        worker.join().expect("client thread")
    });
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let violations = history::check(&record.history);
    let retrieves = record
        .history
        .ops
        .iter()
        .filter(|op| matches!(op.outcome, history::Outcome::Retrieve { .. }))
        .count();
    println!(
        "{crashes} crash/restart cycles, {} operations ({retrieves} retrieves), {} failed calls, {} violations",
        record.attempted,
        record.errors.len(),
        violations.len()
    );
    for (index, reason) in violations.iter().take(10) {
        println!("  op {index}: {reason}");
    }
    for error in record.errors.iter().take(5) {
        println!("  failed: {error}");
    }
}
