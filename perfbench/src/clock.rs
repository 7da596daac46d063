//! The benchmark's clock: nanoseconds since the process started measuring.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static BASE: OnceLock<Instant> = OnceLock::new();

/// Fixes the clock's zero; call once before any measurement.
pub fn start() {
    BASE.get_or_init(Instant::now);
}

/// `at` in nanoseconds on the benchmark clock.
pub fn ns(at: Instant) -> u64 {
    let base = *BASE.get_or_init(Instant::now);
    at.saturating_duration_since(base).as_nanos() as u64
}

/// Whole microseconds of a duration.
pub fn us(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}
