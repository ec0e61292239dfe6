//! The benchmark's own PRNG. Every input is a function of the `--seed`
//! argument through this generator, never through the workspace's vendored
//! `rand` stand-in, so a change to that crate cannot move the workloads.

/// SplitMix64 (Steele, Lea, Flood 2014): one `u64` of state, full period.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// An independent stream for a named part of a workload, so adding
    /// draws to one part does not shift the others.
    pub fn fork(seed: u64, stream: &str) -> SplitMix {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = SplitMix::new(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf(s) over ranks `0..n`: rank 0 is the most popular. Sampling is a
/// binary search over the precomputed cumulative weights.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let draw = |mut r: SplitMix| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(SplitMix::new(7)), draw(SplitMix::new(7)));
        assert_ne!(draw(SplitMix::new(7)), draw(SplitMix::new(8)));
        assert_ne!(
            draw(SplitMix::fork(7, "graph")),
            draw(SplitMix::fork(7, "script"))
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(50, 1.1);
        let mut rng = SplitMix::new(3);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[49]);
        assert!(counts[0] > 20_000 / 10);
    }
}
