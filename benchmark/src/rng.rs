//! splitmix64: the benchmark's only source of randomness, so one `--seed`
//! always expands to the same inputs.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, lane)`: scripts, warm-up and
    /// payload salts must not share draws, or changing one shifts the rest.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
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

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2⁻⁴⁰ for every
    /// `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Fills `buf` with the byte pattern named by `salt`. Every byte the
/// benchmark writes comes from here, so any read can be checked against
/// `(salt, offset)` alone.
pub fn fill_pattern(buf: &mut [u8], salt: u64) {
    let mut r = Rng::new(salt);
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&r.next_u64().to_le_bytes());
    }
    let rest = chunks.into_remainder();
    let tail = r.next_u64().to_le_bytes();
    rest.copy_from_slice(&tail[..rest.len()]);
}

pub fn pattern(len: usize, salt: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_pattern(&mut v, salt);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::lane(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::lane(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::lane(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pattern_is_a_function_of_salt_and_handles_odd_lengths() {
        assert_eq!(pattern(1027, 5), pattern(1027, 5));
        assert_ne!(pattern(1027, 5), pattern(1027, 6));
        assert_eq!(pattern(1027, 5)[..1024], pattern(1024, 5)[..]);
    }
}
