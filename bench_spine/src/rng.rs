//! The benchmark's own seeded generator (SplitMix64) — every input is
//! a function of `--seed` and nothing else.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding draws to
    /// one part of the generator never shifts another.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` the generator uses.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1.0) over ranks `0..n`: rank k is drawn with weight
/// 1/(k+1). Sampled by binary search over the cumulative weights.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("Zipf over zero ranks");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(600);
        let mut rng = Rng::new(1);
        let mut counts = vec![0usize; 600];
        for _ in 0..60_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(600) ≈ 6.97, so rank 0 draws ≈ 14 % and rank 9 ≈ 1.4 %.
        assert!(counts[0] > 7_000 && counts[0] < 10_000, "{}", counts[0]);
        assert!(counts[9] > 600 && counts[9] < 1_100, "{}", counts[9]);
        assert!(counts.iter().filter(|&&c| c > 0).count() > 550);
    }
}
