//! Seeded request inputs: a small portable RNG, Poisson arrival
//! schedules, and the uniform and Zipf pair generators.
//!
//! Everything here is a pure function of its seed, so one `--seed`
//! always produces the same schedule and the same pairs.

use ssf_repro::dyngraph::NodeId;

/// SplitMix64: seedable, tiny, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// Due times (ns from the phase start) of a Poisson arrival process at
/// `rate` per second, up to `duration_ns`.
pub fn poisson_schedule(seed: u64, rate: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mean_ns = 1e9 / rate;
    let mut out =
        Vec::with_capacity((rate * duration_ns as f64 / 1e9) as usize);
    let mut t = 0.0f64;
    loop {
        // 1 − unit() lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.unit()).ln() * mean_ns;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// `size` distinct ids drawn from `0..n` (all of them when `n < size`),
/// in draw order: a partial Fisher–Yates shuffle.
pub fn hot_set(n: NodeId, size: usize, seed: u64) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = (0..n).collect();
    let mut rng = Rng::new(seed);
    let size = size.min(ids.len());
    for i in 0..size {
        let j = i + rng.below((ids.len() - i) as u32) as usize;
        ids.swap(i, j);
    }
    ids.truncate(size);
    ids
}

/// Where request endpoints come from.
#[derive(Debug, Clone)]
pub enum PairGen {
    /// Both endpoints uniform over `0..n`.
    Uniform {
        /// The generator's stream.
        rng: Rng,
        /// Node id space.
        n: NodeId,
    },
    /// Both endpoints Zipf-distributed over the ranks of a hot set:
    /// rank `r` (1-based) has weight `r^-s`.
    Zipf {
        /// The generator's stream.
        rng: Rng,
        /// Ids by rank.
        hot: Vec<NodeId>,
        /// Cumulative weights by rank.
        cdf: Vec<f64>,
    },
}

impl PairGen {
    /// Uniform pairs over `0..n` (`n ≥ 2`).
    pub fn uniform(seed: u64, n: NodeId) -> Self {
        assert!(n >= 2, "pairs need at least two nodes");
        PairGen::Uniform {
            rng: Rng::new(seed),
            n,
        }
    }

    /// Zipf(`s`) pairs over `hot` (at least two distinct ids).
    pub fn zipf(seed: u64, hot: Vec<NodeId>, s: f64) -> Self {
        assert!(hot.len() >= 2, "pairs need at least two hot ids");
        let mut total = 0.0;
        let cdf = (1..=hot.len())
            .map(|r| {
                total += (r as f64).powf(-s);
                total
            })
            .collect();
        PairGen::Zipf {
            rng: Rng::new(seed),
            hot,
            cdf,
        }
    }

    fn endpoint(&mut self) -> NodeId {
        match self {
            PairGen::Uniform { rng, n } => rng.below(*n),
            PairGen::Zipf { rng, hot, cdf } => {
                let total = cdf.last().copied().unwrap_or(0.0);
                let x = rng.unit() * total;
                let rank = cdf.partition_point(|&c| c <= x).min(hot.len() - 1);
                hot[rank]
            }
        }
    }

    /// The next pair; never `u == v`.
    pub fn next_pair(&mut self) -> (NodeId, NodeId) {
        let u = self.endpoint();
        loop {
            let v = self.endpoint();
            if v != u {
                return (u, v);
            }
        }
    }

    /// The next `count` pairs.
    pub fn take(&mut self, count: usize) -> Vec<(NodeId, NodeId)> {
        (0..count).map(|_| self.next_pair()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_never_self_pairs() {
        let hot = hot_set(500, 64, 3);
        for make in [
            &(|seed| PairGen::uniform(seed, 50)) as &dyn Fn(u64) -> PairGen,
            &|seed| PairGen::zipf(seed, hot.clone(), 1.1),
        ] {
            let a = make(11).take(5000);
            assert_eq!(a, make(11).take(5000), "same seed, same pairs");
            assert_ne!(a, make(12).take(5000), "seed must matter");
            assert!(a.iter().all(|&(u, v)| u != v));
        }
    }

    #[test]
    fn zipf_pairs_stay_in_the_hot_set_and_favour_low_ranks() {
        let hot = hot_set(1000, 100, 9);
        let pairs = PairGen::zipf(5, hot.clone(), 1.1).take(20_000);
        assert!(pairs
            .iter()
            .all(|(u, v)| hot.contains(u) && hot.contains(v)));
        let top = pairs.iter().filter(|&&(u, _)| u == hot[0]).count();
        let tenth = pairs.iter().filter(|&&(u, _)| u == hot[9]).count();
        assert!(top > 5 * tenth, "rank 1 drawn {top}×, rank 10 {tenth}×");
    }

    #[test]
    fn two_node_spaces_still_produce_pairs() {
        let pairs = PairGen::uniform(1, 2).take(100);
        assert!(pairs.iter().all(|&p| p == (0, 1) || p == (1, 0)));
        let pairs = PairGen::zipf(1, vec![4, 9], 1.1).take(100);
        assert!(pairs.iter().all(|&p| p == (4, 9) || p == (9, 4)));
    }

    #[test]
    fn hot_set_is_distinct_and_deterministic() {
        let a = hot_set(300, 256, 42);
        assert_eq!(a, hot_set(300, 256, 42));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 256);
        assert_eq!(hot_set(10, 256, 1).len(), 10);
    }

    #[test]
    fn poisson_schedule_hits_its_rate() {
        let s = poisson_schedule(3, 10_000.0, 2_000_000_000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!((19_000..21_000).contains(&s.len()), "{} arrivals", s.len());
        assert_eq!(s, poisson_schedule(3, 10_000.0, 2_000_000_000));
    }
}
