//! `sim_table1`: the paper's Table 1 simulation, then UMS operations timed
//! one by one through the simulator's own `UmsAccess` on the churned ring.

use std::time::{Duration, Instant};

use rdht_sim::{Algorithm, SimAccess, SimConfig, Simulation, SimulationReport};

use crate::cluster::DEPLOYMENT;
use crate::gen::Rng;
use crate::load::{self, Kind, Mix, Plan, Record, Writer};
use crate::report::Report;
use crate::stats;
use crate::timed::{CallTimes, Timed};

/// The UMS operations timed after each simulation: fresh keys (so the
/// history holds every write to them), one insert each, then the mix.
const MIX: Mix = Mix {
    keys: 256,
    insert_share: 0.5,
    zipf: None,
    payload_len: 64,
};
const TIMED_OPS: usize = 10_000;

struct Round {
    setup_s: Vec<f64>,
    run_s: f64,
    report: SimulationReport,
    indirect_initializations: u64,
    record: Record,
    times: CallTimes,
}

/// `Simulation::new` calls per round; the last one is run.
const SETUPS: usize = 5;

/// Round `index` of a run. The simulations are part of the deployment,
/// the same in every run (a simulation's seed fixes its whole ring, churn
/// and update history, and with it how long the run takes); `seed` draws
/// the timed operations and their origins.
fn round(seed: u64, index: u64) -> Round {
    let config = SimConfig::table1().with_seed(Rng::stream(DEPLOYMENT, 0x5100 + index).next_u64());
    let mut setups = Vec::new();
    let mut sim = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let built = Simulation::new(config.clone());
        setups.push(started.elapsed().as_secs_f64());
        drop(sim.replace(built));
    }
    let mut sim = sim.expect("at least one set-up");
    let started = Instant::now();
    let report = sim.run();
    let run_s = started.elapsed().as_secs_f64();
    let indirect_initializations = [Algorithm::UmsDirect, Algorithm::UmsIndirect]
        .into_iter()
        .filter_map(|algorithm| sim.total_kts_stats(algorithm))
        .map(|kts| kts.indirect_initializations)
        .sum();

    // Closed-loop UMS operations from random live peers of the churned ring.
    let origins: Vec<_> = sim
        .export_registries()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    let keys = load::keys(MIX.keys);
    let mut rng = Rng::stream(seed, 0x51a0 + index);
    let mut plan = Plan::new(&MIX, seed, 0x51b0 + index);
    let mut writer = Writer {
        id: index,
        next_seq: 0,
    };
    let mut record = Record::default();
    let mut times = CallTimes::default();
    let ops = (0..MIX.keys)
        .map(|key| (Kind::Insert, key))
        .chain(std::iter::repeat_with(|| plan.draw()).take(TIMED_OPS));
    for (n, op) in ops.enumerate() {
        let origin = origins[rng.below(origins.len())];
        let mut access = Timed::new(SimAccess::new(&mut sim, origin, Algorithm::UmsDirect));
        load::execute(
            &mut access,
            &keys,
            op,
            &mut writer,
            MIX.payload_len,
            &mut record,
        );
        if n < MIX.keys {
            // The preload is checked, not timed.
            record.samples.clear();
            record.probes.clear();
        } else {
            times.extend(access.times);
        }
    }
    Round {
        setup_s: setups,
        run_s,
        report,
        indirect_initializations,
        record,
        times,
    }
}

/// Checks a simulation against its own ground truth: every UMS query the
/// simulator certified current must have returned the latest payload, and
/// every UMS query must have produced a sample.
fn check_ground_truth(round: &Round, report: &mut Report) {
    let queries = round.report.stats.queries;
    for algorithm in [Algorithm::UmsDirect, Algorithm::UmsIndirect] {
        let samples: Vec<_> = round.report.samples_for(algorithm).collect();
        report.attempted += queries;
        report.failed += queries.saturating_sub(samples.len() as u64);
        for sample in samples {
            if sample.certified_current && !sample.returned_latest {
                println!(
                    "violation: {algorithm} query at t={:.1}s on key {} certified current but not the latest",
                    sample.time, sample.key_index
                );
                report.failed += 1;
            }
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        let round = round(seed, rounds.len() as u64);
        check_ground_truth(&round, &mut report);
        report.check(&round.record);
        rounds.push(round);
    }

    let column =
        |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let events: u64 = rounds
        .iter()
        .map(|r| {
            let s = &r.report.stats;
            s.leaves
                + s.failures
                + s.joins
                + s.updates
                + s.stabilize_rounds
                + s.inspection_rounds
                + s.queries
        })
        .sum();
    let run_s: f64 = rounds.iter().map(|r| r.run_s).sum();
    let samples: Vec<load::Sample> = rounds
        .iter()
        .flat_map(|r| r.record.samples.iter().copied())
        .collect();
    let mut figures = load::end_to_end(&samples, (0, u64::MAX));
    figures.ops_per_s = events as f64 / run_s;
    report.end_to_end(&figures);
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    report.metric("setup_s", stats::median(&setups), "s");

    if traced {
        let mut times = CallTimes::default();
        let mut probes = Vec::new();
        let (mut ums, mut all) = (Vec::new(), Vec::new());
        for r in &rounds {
            times.extend(r.times.clone());
            probes.extend(r.record.probes.iter().copied());
            ums.extend(r.report.samples_for(Algorithm::UmsDirect).cloned());
            all.extend(
                [Algorithm::UmsDirect, Algorithm::UmsIndirect]
                    .into_iter()
                    .flat_map(|a| r.report.samples_for(a).cloned()),
            );
        }
        let us = |ns: &[f64]| stats::median(ns) / 1e3;
        report.layer("core.ums.gen_ts_us", us(&times.gen_ts));
        report.layer("core.ums.put_replicas_us", us(&times.put_replicas));
        report.layer("core.ums.last_ts_us", us(&times.last_ts));
        report.layer("core.ums.get_replica_us", us(&times.get_replica));
        report.layer(
            "core.ums.replicas_probed_per_retrieve",
            stats::mean(&probes),
        );
        report.layer("sim.sim_s_per_s", column(&|r| r.report.duration / r.run_s));
        let response: Vec<f64> = ums.iter().map(|s| s.response_time * 1e3).collect();
        report.layer("sim.retrieve_p50_ms", stats::quantile(&response, 0.5));
        let messages: Vec<f64> = all.iter().map(|s| s.messages as f64).collect();
        report.layer("sim.messages_per_query", stats::mean(&messages));
        let probed: Vec<f64> = all.iter().map(|s| s.replicas_probed as f64).collect();
        report.layer("sim.replicas_probed_per_query", stats::mean(&probed));
        report.layer("sim.joins", column(&|r| r.report.stats.joins as f64));
        report.layer(
            "sim.stabilize_rounds",
            column(&|r| r.report.stats.stabilize_rounds as f64),
        );
        report.layer(
            "sim.kts_indirect_initializations",
            column(&|r| r.indirect_initializations as f64),
        );
    }
    report
}
