//! The one checksum kernel: a four-lane word-wise sum.
//!
//! Four things are checked with it — a log record ([`crate::wal`]), the
//! log's control block, a wire frame's payload (`inversion::wire`) and a
//! self-identifying chunk's payload (`inversion::api`). One step is
//! `mix(h, w) = rotl15((h ^ w) · 16777619)` on `u32`s. The data is cut into
//! 16-byte blocks (the last one zero-padded), little-endian word `i` of each
//! block is mixed into lane `i`, and the four lanes are then mixed, in
//! order, into the data length.
//!
//! The lanes carry no dependency on one another, so the four multiplies of
//! a block overlap; byte-serial FNV-1a, which this replaced everywhere,
//! spent a full multiply latency on every byte.
//!
//! **Every single-byte substitution changes the result.** Changing one byte
//! changes exactly one word; that lane's state differs after the step that
//! takes the word in, every later step maps distinct states to distinct
//! states, so the lane ends different while the other three and the length
//! end the same; the final fold takes the lanes in through the same
//! bijective step, so its result differs too. [`seeded_checksum`] mixes
//! four words into the lanes before the data, so the same holds for a
//! substitution in one of them. Damage beyond that is caught with the usual
//! 2⁻³² odds; a wrong length is the caller's business.

/// Independent accumulators.
const LANES: usize = 4;
/// Data bytes per step: one little-endian `u32` for each lane.
const BLOCK: usize = 4 * LANES;
const PRIME: u32 = 16_777_619;
/// The lanes' starting states.
const START: [u32; LANES] = [0x811C_9DC5, 0x0100_0193, 0x9E37_79B9, 0x85EB_CA6B];

/// One mixing step. For a fixed `w` it is a bijection of `h`, and for a
/// fixed `h` a bijection of `w` (xor, multiplication by an odd constant and
/// rotation each are) — the property the guarantee above rests on.
#[inline(always)]
fn mix(h: u32, w: u32) -> u32 {
    (h ^ w).wrapping_mul(PRIME).rotate_left(15)
}

fn mix_block(lanes: &mut [u32; LANES], block: &[u8; BLOCK]) {
    let (words, _) = block.as_chunks::<4>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = mix(*lane, u32::from_le_bytes(*word));
    }
}

/// The checksum of `data` (see the module docs).
pub fn checksum(data: &[u8]) -> u32 {
    sum(START, data)
}

/// The checksum of `data` with `seed[i]` mixed into lane `i` first: a
/// caller's header words are covered without being copied in front of the
/// data. The final fold still takes `data.len()` alone.
pub fn seeded_checksum(seed: [u32; LANES], data: &[u8]) -> u32 {
    let mut lanes = START;
    for (lane, word) in lanes.iter_mut().zip(seed) {
        *lane = mix(*lane, word);
    }
    sum(lanes, data)
}

fn sum(lanes: [u32; LANES], data: &[u8]) -> u32 {
    let mut sum = Checksum { lanes, ..Checksum::new() };
    sum.update(data);
    sum.finish()
}

/// [`checksum`] over data that arrives in pieces: fed the pieces of `data`
/// in order, [`Checksum::finish`] returns `checksum(data)`. A wire reader
/// uses it to check a payload whose pieces land in different buffers.
pub struct Checksum {
    lanes: [u32; LANES],
    /// The start of a block not yet mixed in: `held` bytes of it.
    block: [u8; BLOCK],
    held: usize,
    len: usize,
}

impl Default for Checksum {
    fn default() -> Checksum {
        Checksum::new()
    }
}

impl Checksum {
    /// The checksum of no data so far.
    pub fn new() -> Checksum {
        Checksum {
            lanes: START,
            block: [0; BLOCK],
            held: 0,
            len: 0,
        }
    }

    /// Takes in the next piece of the data.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len();
        if self.held > 0 {
            let take = (BLOCK - self.held).min(data.len());
            self.block[self.held..self.held + take].copy_from_slice(&data[..take]);
            self.held += take;
            data = &data[take..];
            if self.held < BLOCK {
                return;
            }
            mix_block(&mut self.lanes, &self.block);
            self.held = 0;
        }
        let (blocks, tail) = data.as_chunks::<BLOCK>();
        let mut lanes = self.lanes;
        for block in blocks {
            mix_block(&mut lanes, block);
        }
        self.lanes = lanes;
        self.block[..tail.len()].copy_from_slice(tail);
        self.held = tail.len();
    }

    /// The checksum of everything taken in.
    pub fn finish(mut self) -> u32 {
        if self.held > 0 {
            // The last block is zero-padded.
            self.block[self.held..].fill(0);
            mix_block(&mut self.lanes, &self.block);
        }
        // Only the low 32 bits of the length take part.
        self.lanes.iter().fold(self.len as u32, |h, &lane| mix(h, lane))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_sum_as_the_whole() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0, 1, 15, 16, 17, 33, 200] {
            let whole = checksum(&data[..len]);
            for cut in 0..=len {
                for cut2 in cut..=len {
                    let mut sum = Checksum::new();
                    sum.update(&data[..cut]);
                    sum.update(&data[cut..cut2]);
                    sum.update(&data[cut2..len]);
                    assert_eq!(sum.finish(), whole, "len {len} cut at {cut}, {cut2}");
                }
            }
        }
    }
}
