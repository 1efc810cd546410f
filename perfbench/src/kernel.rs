//! The small kernel function serve-churn appends to each Table 2 module
//! text: a loop of `n` multiply-add-xor steps whose constants come from
//! the seed, so every fresh set of constants is a module text the
//! service has never seen (a cold load).

use crate::rng::Rng;

/// Entry name of the kernel inside the served module.
pub const ENTRY: &str = "bench_kernel";

/// The largest iteration count a kernel call is given.
pub const MAX_N: u64 = 16;

/// One kernel: `acc = c0; for i in 0..n { acc = (acc * c1 + a) ^ (i + c2) }`
/// over wrapping 64-bit integers, returning `acc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel {
    /// Initial accumulator.
    pub c0: i64,
    /// Multiplier.
    pub c1: i64,
    /// Offset xor-ed into each step.
    pub c2: i64,
}

impl Kernel {
    /// Draws the constants from `rng`; `tag` is folded into `c2` so that
    /// kernels with distinct tags are distinct texts whatever the draws.
    pub fn draw(rng: &mut Rng, tag: u32) -> Kernel {
        let mut positive = || (rng.next_u64() >> 2) as i64;
        let c0 = positive();
        let c1 = positive() | 1;
        let c2 = (positive() & !0xFFFF_FFFF) | i64::from(tag);
        Kernel { c0, c1, c2 }
    }

    /// The kernel as an LLVA function definition.
    #[must_use]
    pub fn text(&self) -> String {
        format!(
            "
long %{ENTRY}(long %a, long %n) {{
entry:
    br label %head
head:
    %i = phi long [ 0, %entry ], [ %i2, %body ]
    %acc = phi long [ {c0}, %entry ], [ %acc3, %body ]
    %c = setlt long %i, %n
    br bool %c, label %body, label %exit
body:
    %t = mul long %acc, {c1}
    %acc2 = add long %t, %a
    %k = add long %i, {c2}
    %acc3 = xor long %acc2, %k
    %i2 = add long %i, 1
    br label %head
exit:
    ret long %acc
}}
",
            c0 = self.c0,
            c1 = self.c1,
            c2 = self.c2
        )
    }

    /// The kernel's result for raw arguments `(a, n)`, computed in Rust.
    #[must_use]
    pub fn eval(&self, a: u64, n: u64) -> u64 {
        let (a, n) = (a as i64, n as i64);
        let mut acc = self.c0;
        let mut i = 0i64;
        while i < n {
            acc = acc.wrapping_mul(self.c1).wrapping_add(a) ^ i.wrapping_add(self.c2);
            i += 1;
        }
        acc as u64
    }

    /// Seeded call arguments: any `a`, and `n` in `1..=MAX_N`.
    pub fn args(rng: &mut Rng) -> [u64; 2] {
        [rng.next_u64(), 1 + rng.below(MAX_N)]
    }
}
