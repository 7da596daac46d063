//! Reads the program's own per-peer registries: every registry is rendered
//! to its Prometheus text exposition and parsed back, and each sample name
//! is summed over every label set and every peer.

use std::collections::BTreeMap;

use rdht_metrics::{encode, parse::parse, Registry};

/// Summed samples by name (histograms appear as `<name>_sum` and
/// `<name>_count`).
#[derive(Clone, Debug, Default)]
pub struct Totals(BTreeMap<String, f64>);

impl Totals {
    pub fn read<'a>(registries: impl IntoIterator<Item = &'a Registry>) -> Self {
        let mut totals = BTreeMap::new();
        for registry in registries {
            let exposition = parse(&encode(registry)).expect("a registry exposition parses");
            for sample in exposition.samples {
                *totals.entry(sample.name).or_insert(0.0) += sample.value;
            }
        }
        Totals(totals)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// What accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals(
            self.0
                .iter()
                .map(|(name, value)| (name.clone(), value - earlier.get(name)))
                .collect(),
        )
    }

    /// Mean observation of histogram `name`: its sum over its count.
    pub fn mean(&self, name: &str) -> f64 {
        crate::stats::ratio(
            self.get(&format!("{name}_sum")),
            self.get(&format!("{name}_count")),
        )
    }
}
