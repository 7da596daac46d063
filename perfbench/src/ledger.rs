//! The traced run's attribution: reads the spans a traced phase left in
//! the trace sinks (the benchmark's own `bench.*` and `core.ums.*` spans,
//! the client's `client.call` / `client.attempt`, the peers'
//! `peer.queue_wait` / `peer.apply` / `peer.fsync` / `peer.reply` and the
//! engine's `storage.fsync`) and splits each operation's latency into
//! layers that add up to it.

use std::collections::HashMap;

use rdht_metrics::{TraceEvent, TracePhase};

use crate::stats;

/// Ledger rows, in the order a request meets them. Where several peer
/// phases' spans overlap, the interval is charged once, by [`priority`].
pub const PARTS: [&str; 8] = [
    "core.ums",
    "net.client",
    "net.transport",
    "net.peer.queue_wait",
    "net.peer.apply",
    "net.peer.batch_wait",
    "storage.fsync",
    "net.peer.reply",
];

/// Priority of the peer phases when their spans overlap (lower wins).
fn priority(part: usize) -> usize {
    match PARTS[part] {
        "storage.fsync" => 0,
        "net.peer.apply" => 1,
        "net.peer.reply" => 2,
        "net.peer.batch_wait" => 3,
        _ => 4,
    }
}

fn part(name: &str) -> usize {
    PARTS
        .iter()
        .position(|p| *p == name)
        .expect("a ledger part")
}

fn trace_ids(event: &TraceEvent) -> Vec<u64> {
    event
        .args
        .iter()
        .filter(|(key, _)| key == "trace_id")
        .flat_map(|(_, value)| value.split(','))
        .filter_map(|id| u64::from_str_radix(id, 16).ok())
        .collect()
}

fn arg<'a>(event: &'a TraceEvent, key: &str) -> Option<&'a str> {
    event
        .args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn complete(events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = events
        .into_iter()
        .filter(|e| e.phase == TracePhase::Complete)
        .collect();
    events.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
    events
}

/// One request on one peer: its apply ends, reply starts and covering
/// fsync intervals.
type PeerUnit = (Vec<u64>, Vec<u64>, Vec<(u64, u64)>);

/// Span-derived per-layer figures (medians, µs) and the per-kind ledgers.
#[derive(Default)]
pub struct Analysis {
    pub queue_wait_us: f64,
    pub apply_us: f64,
    pub batch_wait_us: f64,
    pub reply_us: f64,
    pub fsync_us: f64,
    pub transport_us: f64,
    /// `(kind, latencies, per-part values)` per operation kind.
    pub ledgers: Vec<(String, Vec<f64>, Vec<Vec<f64>>)>,
}

/// Analyses one traced phase: `peer_events` from the cluster's sink,
/// `client_events` one list per client sink with the offset (µs) that
/// maps its timestamps onto the peers' sink.
pub fn analyse(
    peer_events: Vec<TraceEvent>,
    client_events: Vec<(Vec<TraceEvent>, i64)>,
) -> Analysis {
    let peer_events = complete(peer_events);
    // Peer intervals per trace id, and the raw phase durations.
    let mut intervals: HashMap<u64, Vec<(usize, u64, u64)>> = HashMap::new();
    let (mut queue, mut apply, mut reply, mut fsync, mut batch) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // (tid, trace) -> apply ends, reply starts, fsync intervals.
    let mut units: HashMap<(u64, u64), PeerUnit> = HashMap::new();
    for event in &peer_events {
        let (lo, hi) = (event.ts_us, event.ts_us + event.dur_us);
        let name = match event.name.as_str() {
            "peer.queue_wait" => {
                queue.push(event.dur_us as f64);
                "net.peer.queue_wait"
            }
            "peer.apply" => {
                apply.push(event.dur_us as f64);
                "net.peer.apply"
            }
            "peer.reply" => {
                reply.push(event.dur_us as f64);
                "net.peer.reply"
            }
            "peer.fsync" => "storage.fsync",
            "storage.fsync" => {
                fsync.push(event.dur_us as f64);
                continue;
            }
            _ => continue,
        };
        for id in trace_ids(event) {
            intervals.entry(id).or_default().push((part(name), lo, hi));
            let unit = units.entry((event.tid, id)).or_default();
            match event.name.as_str() {
                "peer.apply" => unit.0.push(hi),
                "peer.reply" => unit.1.push(lo),
                "peer.fsync" => unit.2.push((lo, hi)),
                _ => {}
            }
        }
    }
    // Batch wait: from the end of an apply to the start of the reply that
    // follows it on the same peer, less the covering fsync.
    for ((_, id), (apply_ends, reply_starts, syncs)) in &units {
        for &end in apply_ends {
            let Some(&next) = reply_starts.iter().filter(|&&s| s + 1 >= end).min() else {
                continue;
            };
            let next = next.max(end);
            let synced: u64 = syncs
                .iter()
                .map(|&(lo, hi)| hi.min(next).saturating_sub(lo.max(end)))
                .sum();
            batch.push((next - end).saturating_sub(synced) as f64);
            if next > end {
                intervals
                    .entry(*id)
                    .or_default()
                    .push((part("net.peer.batch_wait"), end, next));
            }
        }
    }

    let mut transport = Vec::new();
    let mut ledgers: HashMap<String, (Vec<f64>, Vec<Vec<f64>>)> = HashMap::new();
    for (events, offset) in client_events {
        let events = complete(events);
        let shift = |t: u64| t.saturating_add_signed(offset);
        let attempts: HashMap<u64, u64> = events
            .iter()
            .filter(|e| e.name == "client.attempt")
            .flat_map(|e| trace_ids(e).into_iter().map(move |id| (id, e.dur_us)))
            .fold(HashMap::new(), |mut sum, (id, dur)| {
                *sum.entry(id).or_insert(0) += dur;
                sum
            });
        // Each client.call split into client-side, transport and peer parts.
        let calls: Vec<(u64, u64, Vec<f64>)> = events
            .iter()
            .filter(|e| e.name == "client.call" && arg(e, "kind").is_some())
            .map(|e| {
                let mut parts = vec![0.0; PARTS.len()];
                let id = trace_ids(e).first().copied().unwrap_or(0);
                let attempted = attempts.get(&id).copied().unwrap_or(0).min(e.dur_us);
                let window = (shift(e.ts_us), shift(e.ts_us + e.dur_us));
                let covered =
                    partition(intervals.get(&id).map(Vec::as_slice).unwrap_or(&[]), window);
                let peer: u64 = covered.iter().sum();
                for (p, us) in covered.into_iter().enumerate() {
                    parts[p] += us as f64;
                }
                let wire = attempted.saturating_sub(peer);
                transport.push(wire as f64);
                parts[part("net.transport")] += wire as f64;
                parts[part("net.client")] += e.dur_us.saturating_sub(attempted.max(peer)) as f64;
                (e.ts_us, e.ts_us + e.dur_us, parts)
            })
            .collect();
        let decorated: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name.starts_with("core.ums."))
            .collect();
        let ops: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name.starts_with("bench."))
            .collect();
        let (mut next_call, mut next_decorated) = (0, 0);
        for op in ops {
            let mut parts = vec![0.0; PARTS.len()];
            let mut inner = 0.0;
            // Spans of one client nest: a decorator call belongs to the
            // operation, and a client call to the decorator call, whose
            // interval holds its midpoint (robust to 1 µs rounding at
            // either end).
            let op_span = (op.ts_us, op.ts_us + op.dur_us);
            while next_decorated < decorated.len() {
                let call = decorated[next_decorated];
                let call_span = (call.ts_us, call.ts_us + call.dur_us);
                match place(call_span, op_span) {
                    Place::Before => {
                        next_decorated += 1;
                        continue;
                    }
                    Place::After => break,
                    Place::Inside => {}
                }
                let mut covered = 0.0;
                while next_call < calls.len() {
                    let (lo, hi, ref call_parts) = calls[next_call];
                    match place((lo, hi), call_span) {
                        Place::Before => {}
                        Place::After => break,
                        Place::Inside => {
                            for (p, value) in call_parts.iter().enumerate() {
                                parts[p] += value;
                            }
                            covered += (hi - lo) as f64;
                        }
                    }
                    next_call += 1;
                }
                parts[part("net.client")] += (call.dur_us as f64 - covered).max(0.0);
                inner += call.dur_us as f64;
                next_decorated += 1;
            }
            parts[part("core.ums")] += (op.dur_us as f64 - inner).max(0.0);
            let kind = op.name.trim_start_matches("bench.").to_string();
            let entry = ledgers.entry(kind).or_default();
            entry.0.push(op.dur_us as f64);
            entry.1.push(parts);
        }
    }
    let mut ledgers: Vec<(String, Vec<f64>, Vec<Vec<f64>>)> = ledgers
        .into_iter()
        .map(|(kind, (latency, parts))| (kind, latency, parts))
        .collect();
    ledgers.sort_by(|a, b| a.0.cmp(&b.0));
    Analysis {
        queue_wait_us: stats::median(&queue),
        apply_us: stats::median(&apply),
        batch_wait_us: stats::median(&batch),
        reply_us: stats::median(&reply),
        fsync_us: stats::median(&fsync),
        transport_us: stats::median(&transport),
        ledgers,
    }
}

enum Place {
    Before,
    Inside,
    After,
}

/// Where `child`'s midpoint lies relative to `parent` (`[lo, hi]` in µs).
fn place(child: (u64, u64), parent: (u64, u64)) -> Place {
    let mid2 = child.0 + child.1;
    if mid2 < 2 * parent.0 {
        Place::Before
    } else if mid2 > 2 * parent.1 {
        Place::After
    } else {
        Place::Inside
    }
}

/// Splits the union of `intervals`, clipped to `window`, among their
/// parts: every covered microsecond goes to the highest-priority part
/// covering it.
fn partition(intervals: &[(usize, u64, u64)], window: (u64, u64)) -> Vec<u64> {
    let mut per_part = vec![0; PARTS.len()];
    let intervals: Vec<(usize, u64, u64)> = intervals
        .iter()
        .map(|&(p, lo, hi)| (p, lo.max(window.0), hi.min(window.1)))
        .filter(|&(_, lo, hi)| lo < hi)
        .collect();
    let mut bounds: Vec<u64> = intervals.iter().flat_map(|&(_, lo, hi)| [lo, hi]).collect();
    bounds.sort_unstable();
    bounds.dedup();
    for pair in bounds.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let owner = intervals
            .iter()
            .filter(|&&(_, a, b)| a <= lo && hi <= b)
            .map(|&(p, _, _)| p)
            .min_by_key(|&p| priority(p));
        if let Some(p) = owner {
            per_part[p] += hi - lo;
        }
    }
    per_part
}

/// Renders the ledgers: per part the median and mean over operations; the
/// medians' remainder against the median latency is `unattributed` (the
/// means add up exactly, up to timestamp rounding).
pub fn render(analysis: &Analysis) -> String {
    let mut out = String::new();
    for (kind, latency, parts) in &analysis.ledgers {
        out.push_str(&format!(
            "ledger {kind}: {} operations, median {:.1} us, mean {:.1} us\n",
            latency.len(),
            stats::median(latency),
            stats::mean(latency)
        ));
        out.push_str(&format!(
            "  {:<22} {:>10} {:>10}\n",
            "layer", "median_us", "mean_us"
        ));
        let (mut median_sum, mut mean_sum) = (0.0, 0.0);
        for (p, name) in PARTS.iter().enumerate() {
            let column: Vec<f64> = parts.iter().map(|row| row[p]).collect();
            let (median, mean) = (stats::median(&column), stats::mean(&column));
            median_sum += median;
            mean_sum += mean;
            out.push_str(&format!("  {name:<22} {median:>10.1} {mean:>10.1}\n"));
        }
        out.push_str(&format!(
            "  {:<22} {:>10.1} {:>10.1}\n",
            "unattributed",
            stats::median(latency) - median_sum,
            stats::mean(latency) - mean_sum
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_phases_are_charged_once_by_priority() {
        let apply = part("net.peer.apply");
        let queue = part("net.peer.queue_wait");
        let fsync = part("storage.fsync");
        let split = partition(&[(queue, 0, 10), (apply, 5, 15), (fsync, 20, 40)], (0, 30));
        assert_eq!(split[queue], 5);
        assert_eq!(split[apply], 10);
        assert_eq!(split[fsync], 10);
        assert_eq!(split.iter().sum::<u64>(), 25);
    }
}
