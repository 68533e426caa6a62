//! Offline stand-in for `rand_chacha`. The ChaCha keystream itself is a
//! faithful implementation (quarter-round for quarter-round), seeded from
//! a 32-byte key with a zero nonce; it is deterministic per seed but not
//! guaranteed word-for-word identical to upstream `rand_chacha`'s stream
//! layout. Everything in this workspace only needs seeded determinism.
//!
//! [`ChaChaCore::set_word_pos`] seeks as upstream's does: the stream is
//! counter-addressed (word `w` is word `w mod 16` of block `w / 16`), so
//! a generator positioned at `w` reads exactly the words a fresh one
//! reads after drawing `w` of them. That is what lets independent ranges
//! of one seeded stream be drawn on different threads.

use rand::{RngCore, SeedableRng};

/// ChaCha block function with `R` double-rounds (so `ChaChaCore<4>` is
/// ChaCha8, `<6>` ChaCha12, `<10>` ChaCha20).
#[derive(Clone, Debug)]
pub struct ChaChaCore<const R: usize> {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    buf_pos: usize,
}

impl<const R: usize> ChaChaCore<R> {
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    fn new(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            *k = u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap());
        }
        Self {
            key,
            counter: 0,
            buf: [0; 16],
            buf_pos: 16,
        }
    }

    #[inline]
    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&Self::SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;
        let initial = state;
        for _ in 0..R {
            // Column round.
            Self::quarter_round(&mut state, 0, 4, 8, 12);
            Self::quarter_round(&mut state, 1, 5, 9, 13);
            Self::quarter_round(&mut state, 2, 6, 10, 14);
            Self::quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            Self::quarter_round(&mut state, 0, 5, 10, 15);
            Self::quarter_round(&mut state, 1, 6, 11, 12);
            Self::quarter_round(&mut state, 2, 7, 8, 13);
            Self::quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (s, init) in state.iter_mut().zip(initial) {
            *s = s.wrapping_add(init);
        }
        self.buf = state;
        self.buf_pos = 0;
        self.counter = self.counter.wrapping_add(1);
    }
}

impl<const R: usize> ChaChaCore<R> {
    /// Positions the stream at 32-bit word `word`, counted from the
    /// start of the stream, as upstream `rand_chacha` does: the block
    /// counter is 64 bits, so the upper bits of the 68-bit offset are
    /// ignored (the stream cycles).
    pub fn set_word_pos(&mut self, word: u128) {
        self.counter = (word >> 4) as u64;
        self.refill();
        self.buf_pos = (word & 15) as usize;
    }
}

impl<const R: usize> RngCore for ChaChaCore<R> {
    fn next_u32(&mut self) -> u32 {
        if self.buf_pos >= 16 {
            self.refill();
        }
        let w = self.buf[self.buf_pos];
        self.buf_pos += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl<const R: usize> SeedableRng for ChaChaCore<R> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(seed)
    }
}

/// ChaCha with 8 rounds (4 double-rounds).
pub type ChaCha8Rng = ChaChaCore<4>;
/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaCore<6>;
/// ChaCha with 20 rounds.
pub type ChaCha20Rng = ChaChaCore<10>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn chacha20_keystream_matches_rfc8439_block1() {
        // RFC 8439 §2.3.2 test vector: key 00 01 02 … 1f, counter 1,
        // nonce 0. Our nonce is fixed at zero and the counter starts at
        // 0, so block index 1 of our stream uses counter=1, nonce=0 —
        // comparable to the RFC vector only in construction, not bytes
        // (the RFC uses a non-zero nonce). Instead, check the first
        // block against a locally computed ChaCha20(key=0, nonce=0)
        // reference value published in multiple implementations:
        // 76 b8 e0 ad a0 f1 3d 90 …
        let mut rng = ChaCha20Rng::from_seed([0u8; 32]);
        let w0 = rng.next_u32();
        assert_eq!(w0.to_le_bytes(), [0x76, 0xb8, 0xe0, 0xad]);
    }

    #[test]
    fn set_word_pos_reads_the_tail_of_a_fresh_stream() {
        let fresh: Vec<u32> = {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            (0..80).map(|_| rng.next_u32()).collect()
        };
        for word in 0..=40 {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            rng.set_word_pos(word as u128);
            let tail: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
            assert_eq!(tail, fresh[word..word + 40], "word offset {word}");
        }
        // Seeking back is the same seek: nothing of the old position stays.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        rng.set_word_pos(37);
        rng.set_word_pos(3);
        assert_eq!(rng.next_u32(), fresh[3]);
    }

    #[test]
    fn set_word_pos_carries_across_the_32_bit_counter_boundary() {
        // Words 16·(2³²−1)+13 onward end the last block whose counter
        // fits 32 bits and run into block 2³², whose counter's high
        // word is 1: positioned reads must agree with block-aligned
        // ones on both sides, and block 2³² must not be block 0 again.
        let last = 16 * (u128::from(u32::MAX));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        rng.set_word_pos(last + 13);
        let across: Vec<u32> = (0..3 + 16).map(|_| rng.next_u32()).collect();
        let block = |word: u128| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            rng.set_word_pos(word);
            (0..16).map(|_| rng.next_u32()).collect::<Vec<u32>>()
        };
        assert_eq!(across[..3], block(last)[13..]);
        assert_eq!(across[3..], block(last + 16));
        assert_ne!(block(last + 16), block(0));
        assert_ne!(block(last + 16), block(16));
    }

    #[test]
    fn gen_range_works_through_traits() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            let v: f32 = rng.gen_range(0.3..1.0);
            assert!((0.3..1.0).contains(&v));
        }
    }
}
