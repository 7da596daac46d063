//! Seeded input generation: a SplitMix64 stream, a Zipf sampler over a key
//! set, and self-describing payloads whose bytes name the insert that wrote
//! them. Inputs depend only on the `--seed` argument, never on the program.

/// SplitMix64 (Steele, Lea & Flood, 2014): tiny, seedable, good enough for
/// workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `lane` (a client, a phase) of `seed`.
    pub fn stream(seed: u64, lane: u64) -> Self {
        let mut mixer = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        Rng(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup. Rank 0 is the most
/// popular; callers map ranks to keys through a seeded permutation so the
/// hot keys land on different peers for different seeds.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Bytes of the payload that insert number `seq` of `writer` stores: a
/// 16-byte header naming the writer and sequence number, then filler
/// derived from both, so a torn or mixed-up payload does not decode.
pub fn payload(writer: u64, seq: u64, len: usize) -> Vec<u8> {
    assert!(len >= 16, "a payload carries a 16-byte header");
    let mut bytes = Vec::with_capacity(len);
    bytes.extend_from_slice(&writer.to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    let salt = writer.wrapping_mul(31).wrapping_add(seq);
    bytes.extend((16..len).map(|i| (salt.wrapping_add(i as u64) as u8) ^ 0x5a));
    bytes
}

/// The `(writer, seq)` a payload built by [`payload`] names, or `None` when
/// its bytes are not exactly such a payload.
pub fn decode(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < 16 {
        return None;
    }
    let writer = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    let seq = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    (payload(writer, seq, bytes.len()) == bytes).then_some((writer, seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_and_rejects_tampering() {
        let mut bytes = payload(7, 42, 64);
        assert_eq!(decode(&bytes), Some((7, 42)));
        bytes[40] ^= 1;
        assert_eq!(decode(&bytes), None);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Rng::stream(1, 0);
        let hits = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        assert!(hits > 2_500, "top 10 of 1000 ranks drew {hits} of 10000");
    }
}
