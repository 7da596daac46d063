//! An operation history and a checker of the paper's currency rules that
//! works apart from the program: it sees only what each client asked,
//! when, and what came back.
//!
//! Rules, per key:
//!
//! 1. acknowledged stamps are unique, and an insert acknowledged before
//!    another began got the smaller stamp;
//! 2. a retrieve returns a stamp at least as high as every insert
//!    acknowledged before the retrieve began;
//! 3. a retrieve certified current returns the payload of the insert that
//!    got the returned stamp;
//! 4. a fault-free run never returns a degraded answer.

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What one completed operation returned.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// An acknowledged insert of the payload named `(writer, seq)`.
    Insert { writer: u64, seq: u64, stamp: u64 },
    /// A retrieve: the returned stamp, the decoded payload (`None` when no
    /// data came back or it did not decode), and the report's flags.
    Retrieve {
        stamp: u64,
        payload: Option<(u64, u64)>,
        has_data: bool,
        current: bool,
        degraded: bool,
    },
}

#[derive(Clone, Debug)]
pub struct Op {
    pub key: u32,
    /// Nanoseconds on the benchmark's clock (see [`crate::clock`]).
    pub start: u64,
    pub end: u64,
    pub outcome: Outcome,
}

/// Everything every client did, merged.
#[derive(Clone, Debug, Default)]
pub struct History {
    pub ops: Vec<Op>,
    /// `(writer, seq)` of inserts that returned an error: their stamp is
    /// unknown, so a read of their payload is not held against rule 3.
    pub failed_inserts: BTreeSet<(u64, u64)>,
}

impl History {
    pub fn extend(&mut self, other: History) {
        self.ops.extend(other.ops);
        self.failed_inserts.extend(other.failed_inserts);
    }
}

/// The ops that broke a rule (by index into [`History::ops`]), each with
/// the first reason found.
pub fn check(history: &History) -> BTreeMap<usize, String> {
    let mut violations = BTreeMap::new();
    let mut by_key: HashMap<u32, Vec<usize>> = HashMap::new();
    for (index, op) in history.ops.iter().enumerate() {
        by_key.entry(op.key).or_default().push(index);
    }
    for (key, indices) in by_key {
        check_key(history, key, &indices, &mut violations);
    }
    violations
}

fn check_key(
    history: &History,
    key: u32,
    indices: &[usize],
    violations: &mut BTreeMap<usize, String>,
) {
    let ops = &history.ops;
    // Acknowledged inserts of this key ordered by acknowledgement time,
    // with the running maximum stamp: `floor(t)` is the highest stamp
    // acknowledged strictly before `t`.
    let mut acked: Vec<(u64, u64)> = Vec::new();
    let mut writer_of: HashMap<u64, (u64, u64)> = HashMap::new();
    for &index in indices {
        if let Outcome::Insert { writer, seq, stamp } = ops[index].outcome {
            acked.push((ops[index].end, stamp));
            if writer_of.insert(stamp, (writer, seq)).is_some() {
                violations.entry(index).or_insert_with(|| {
                    format!("key {key}: stamp {stamp} acknowledged to two inserts")
                });
            }
        }
    }
    acked.sort_unstable();
    let mut running = Vec::with_capacity(acked.len());
    let mut max = 0;
    for &(_, stamp) in &acked {
        max = max.max(stamp);
        running.push(max);
    }
    let floor = |start: u64| -> u64 {
        let before = acked.partition_point(|&(end, _)| end < start);
        if before == 0 {
            0
        } else {
            running[before - 1]
        }
    };

    for &index in indices {
        let op = &ops[index];
        let required = floor(op.start);
        match op.outcome {
            Outcome::Insert { stamp, .. } => {
                if stamp <= required {
                    violations.entry(index).or_insert_with(|| {
                        format!(
                            "key {key}: insert got stamp {stamp} after {required} was acknowledged"
                        )
                    });
                }
            }
            Outcome::Retrieve {
                stamp,
                payload,
                has_data,
                current,
                degraded,
            } => {
                let reason = if degraded {
                    Some(format!("key {key}: degraded answer in a fault-free run"))
                } else if stamp < required {
                    Some(format!(
                        "key {key}: retrieve returned stamp {stamp} after {required} was acknowledged{}",
                        if current { " (certified current)" } else { "" }
                    ))
                } else if current {
                    match (writer_of.get(&stamp), payload) {
                        _ if !has_data => Some(format!(
                            "key {key}: certified current with no data"
                        )),
                        (Some(expected), Some(got)) if *expected == got => None,
                        (None, Some(got)) if history.failed_inserts.contains(&got) => None,
                        (expected, got) => Some(format!(
                            "key {key}: certified current stamp {stamp} returned payload {got:?}, written by {expected:?}"
                        )),
                    }
                } else {
                    None
                };
                if let Some(reason) = reason {
                    violations.entry(index).or_insert(reason);
                }
            }
        }
    }
}

/// A copy of `history` with one planted stale read: the first retrieve
/// that some earlier acknowledged insert obliges to a positive stamp
/// instead returns the stamp just below it. `None` when no retrieve is so
/// obliged.
pub fn plant_stale_read(history: &History) -> Option<History> {
    let mut floors: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for op in &history.ops {
        if let Outcome::Insert { stamp, .. } = op.outcome {
            floors.entry(op.key).or_default().push((op.end, stamp));
        }
    }
    let target = history.ops.iter().position(|op| {
        matches!(op.outcome, Outcome::Retrieve { .. })
            && floors
                .get(&op.key)
                .is_some_and(|acked| acked.iter().any(|&(end, s)| end < op.start && s > 0))
    })?;
    let required = floors[&history.ops[target].key]
        .iter()
        .filter(|&&(end, _)| end < history.ops[target].start)
        .map(|&(_, stamp)| stamp)
        .max()?;
    let mut planted = history.clone();
    if let Outcome::Retrieve { stamp, current, .. } = &mut planted.ops[target].outcome {
        *stamp = required - 1;
        *current = false;
    }
    Some(planted)
}

/// Runs the checker on a planted stale read: `Some(true)` when it is
/// flagged, `None` when the history has no retrieve to plant one in.
pub fn self_test(history: &History) -> Option<bool> {
    plant_stale_read(history).map(|planted| !check(&planted).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert(key: u32, start: u64, end: u64, seq: u64, stamp: u64) -> Op {
        Op {
            key,
            start,
            end,
            outcome: Outcome::Insert {
                writer: 1,
                seq,
                stamp,
            },
        }
    }

    fn retrieve(key: u32, start: u64, stamp: u64, seq: u64, current: bool) -> Op {
        Op {
            key,
            start,
            end: start + 5,
            outcome: Outcome::Retrieve {
                stamp,
                payload: Some((1, seq)),
                has_data: true,
                current,
                degraded: false,
            },
        }
    }

    #[test]
    fn a_clean_history_passes_and_a_planted_stale_read_fails() {
        let history = History {
            ops: vec![
                insert(0, 0, 10, 0, 1),
                insert(0, 20, 30, 1, 2),
                retrieve(0, 40, 2, 1, true),
                // Concurrent with the third insert: either stamp is fine.
                insert(0, 50, 60, 2, 3),
                retrieve(0, 55, 2, 1, false),
            ],
            failed_inserts: BTreeSet::new(),
        };
        assert!(check(&history).is_empty());
        assert_eq!(self_test(&history), Some(true));
    }

    #[test]
    fn wrong_payload_under_a_current_stamp_is_flagged() {
        let history = History {
            ops: vec![
                insert(0, 0, 10, 0, 1),
                insert(0, 20, 30, 1, 2),
                retrieve(0, 40, 2, 0, true),
            ],
            failed_inserts: BTreeSet::new(),
        };
        assert_eq!(check(&history).keys().copied().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn out_of_order_stamps_are_flagged() {
        let history = History {
            ops: vec![insert(0, 0, 10, 0, 2), insert(0, 20, 30, 1, 1)],
            failed_inserts: BTreeSet::new(),
        };
        assert_eq!(check(&history).len(), 1);
    }
}
