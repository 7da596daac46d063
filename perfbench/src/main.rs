//! The rdht benchmark: runs one named workload for a fixed time and prints
//! its figures, ending with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `read_mostly`, `write_durable_tcp`, `churn_handoff`,
//! `sim_table1` (see README.md). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the traced variant and prints the per-layer
//! metrics, the latency ledger and the tracing overhead.

use perfbench::{clock, cluster, cpu, sim};

use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("perfbench: {problem}");
            return ExitCode::from(2);
        }
    };
    match cpu::pin_to_one() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("running unpinned: the CPU affinity could not be set"),
    }
    clock::start();
    let steal_before = cpu::steal_ticks();
    let spec = match args.workload.as_str() {
        "read_mostly" => Some(cluster::read_mostly()),
        "write_durable_tcp" => Some(cluster::write_durable_tcp()),
        "churn_handoff" => Some(cluster::churn_handoff()),
        "sim_table1" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(".bench_out");
    if let Err(error) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {}: {error}", out.display());
        return ExitCode::FAILURE;
    }
    let report = match (&spec, args.trace) {
        (Some(spec), false) => cluster::run(spec, args.seed, args.seconds),
        (Some(spec), true) => {
            let path = out.join(format!("{}-seed{}.trace.json", spec.name, args.seed));
            cluster::run_traced(spec, args.seed, args.seconds, &path)
        }
        (None, traced) => sim::run(args.seed, args.seconds, traced),
    };
    // Journals live under .bench_data while a run needs them.
    let _ = std::fs::remove_dir(".bench_data");
    // The hypervisor's share of the run: a figure measured while it was
    // high shows the host more than the program (see README.md).
    if let (Some((steal0, total0)), Some((steal1, total1))) = (steal_before, cpu::steal_ticks()) {
        let share = 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        println!("cpu steal: {share:.1}% of the machine's CPU time during the run");
    }
    println!("{}", report.json(args.trace));
    ExitCode::SUCCESS
}
