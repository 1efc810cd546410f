//! The benchmark's seeded generator (SplitMix64): every input a run
//! uses is drawn from it, so one `--seed` always gives one input set.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so independent
    /// parts of a workload (two clients, the kernel constants) never
    /// share draws.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Whole rounds over `n` items, each round a fresh seeded permutation:
/// every round holds each item exactly once, so the mix of operations is
/// the same however many rounds a run completes.
#[derive(Debug, Clone)]
pub struct Rounds {
    rng: Rng,
    order: Vec<usize>,
}

impl Rounds {
    /// Rounds over `0..n` drawn from `(seed, stream)`.
    #[must_use]
    pub fn new(seed: u64, stream: u64, n: usize) -> Rounds {
        Rounds {
            rng: Rng::new(seed, stream),
            order: (0..n).collect(),
        }
    }

    /// The next round's order.
    pub fn next_round(&mut self) -> &[usize] {
        self.rng.shuffle(&mut self.order);
        &self.order
    }
}
