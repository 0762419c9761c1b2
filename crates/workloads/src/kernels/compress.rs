//! Block compressor for the Pbzip2 reproduction: LZSS-style back-references
//! with a greedy hash-chain match finder, plus run-length fallback.
//!
//! Pbzip2's role in the evaluation is "CPU-heavy, block-local compression
//! with uneven per-block cost"; any self-contained compressor with those
//! properties preserves the behaviour. Blocks compress independently, so
//! the pipeline can fan out exactly as the paper's Figure 6 describes.

/// Token stream format: `0x00 len byte` literal runs, `0x01 len d_hi d_lo`
/// back-references (length 4..=130, distance 1..=65535).
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 130;
const WINDOW: usize = 65_535;

/// Buckets of the 16-bit hash of four bytes.
const BUCKETS: usize = 1 << 16;

/// The match finder's hash chains, kept by each thread from one call to
/// the next. An entry is a position tagged with the call's `base`
/// (`base + pos`); it is live only if it is `>= base`, so what earlier
/// calls left behind reads as an empty chain without being cleared.
struct MatchTable {
    /// Per bucket, the tagged position of the most recent insertion.
    head: Box<[u32; BUCKETS]>,
    /// Per position of this call, the tagged position inserted before it
    /// in its bucket. Never cleared: the chain walk reads only positions
    /// this call inserted, and wrote this slot when it did.
    prev: Vec<u32>,
    /// The next call's `base`: one past anything any call has stored.
    next_base: u32,
}

impl MatchTable {
    fn new() -> Self {
        MatchTable {
            head: vec![0; BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("BUCKETS entries"),
            prev: Vec::new(),
            next_base: 1,
        }
    }

    /// Claims the tags `base..base + len` for a call over `len` bytes and
    /// returns `base`. The claim is made before the call stores anything,
    /// so a call that unwinds leaves only entries its successor reads as
    /// stale. The table is cleared only when the tags would overflow.
    fn claim(&mut self, len: usize) -> u32 {
        let span = u32::try_from(len + 1)
            .ok()
            .filter(|&s| s < u32::MAX)
            .expect("a block is shorter than 4 GiB");
        if self.prev.len() < len {
            self.prev.resize(len, 0);
        }
        if self.next_base.checked_add(span).is_none() {
            self.head.fill(0);
            self.next_base = 1;
        }
        let base = self.next_base;
        self.next_base += span;
        base
    }
}

thread_local! {
    static TABLE: std::cell::RefCell<MatchTable> = std::cell::RefCell::new(MatchTable::new());
}

/// How many leading bytes `input[a..]` and `input[b..]` share, up to
/// `max`; compares eight bytes at a time.
fn match_len(input: &[u8], a: usize, b: usize, max: usize) -> usize {
    let (x, y) = (&input[a..a + max], &input[b..b + max]);
    let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("eight bytes"));
    let mut l = 0;
    for (p, q) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = word(p) ^ word(q);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + x[l..]
        .iter()
        .zip(&y[l..])
        .take_while(|(p, q)| p == q)
        .count()
}

/// Compresses one block. Deterministic: the output depends on `input`
/// alone. The hash chains live in a table each thread reuses (see
/// `MatchTable`), so once a thread has compressed a block at least this
/// long a call allocates only its output.
///
/// # Panics
/// If `input` is 4 GiB or longer.
///
/// # Examples
/// ```
/// use gprs_workloads::kernels::compress::{compress_block, decompress_block};
/// let data = b"abcabcabcabcabcabc-the-end".to_vec();
/// let packed = compress_block(&data);
/// assert!(packed.len() < data.len());
/// assert_eq!(decompress_block(&packed).unwrap(), data);
/// ```
pub fn compress_block(input: &[u8]) -> Vec<u8> {
    TABLE.with(|table| compress_with(&mut table.borrow_mut(), input))
}

fn compress_with(table: &mut MatchTable, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let base = table.claim(input.len());
    let MatchTable { head, prev, .. } = table;
    let hash = |w: &[u8]| -> usize {
        ((w[0] as usize) << 8 ^ (w[1] as usize) << 5 ^ (w[2] as usize) << 2 ^ w[3] as usize)
            & (BUCKETS - 1)
    };
    // The position a tagged entry names, if it was stored by this call.
    let live = |tag: u32| tag.checked_sub(base).map(|pos| pos as usize);

    let mut i = 0;
    let mut lit_start = 0;
    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut s = from;
        while s < to {
            let n = (to - s).min(255);
            out.push(0x00);
            out.push(n as u8);
            out.extend_from_slice(&input[s..s + n]);
            s += n;
        }
    };

    while i + MIN_MATCH <= input.len() {
        let h = hash(&input[i..i + 4]);
        // Find the best match along the chain (bounded probes). The first
        // longest match wins, so a candidate that differs at `best_len`
        // cannot win and one matching `max` bytes cannot be beaten.
        let max = (input.len() - i).min(MAX_MATCH);
        let mut best_len = 0;
        let mut best_dist = 0;
        let mut cand = live(head[h]);
        let mut probes = 0;
        while let Some(c) = cand {
            if probes == 16 || i - c > WINDOW || best_len == max {
                break;
            }
            if input[c + best_len] == input[i + best_len] {
                let l = match_len(input, c, i, max);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                }
            }
            cand = live(prev[c]);
            probes += 1;
        }

        if best_len >= MIN_MATCH {
            flush_literals(&mut out, lit_start, i, input);
            out.push(0x01);
            out.push((best_len - MIN_MATCH) as u8);
            out.push((best_dist >> 8) as u8);
            out.push((best_dist & 0xFF) as u8);
            // Insert the skipped positions into the chains.
            let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
            for j in i..end {
                let hj = hash(&input[j..j + 4]);
                prev[j] = head[hj];
                head[hj] = base + j as u32;
            }
            i += best_len;
            lit_start = i;
        } else {
            prev[i] = head[h];
            head[h] = base + i as u32;
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, input.len(), input);
    out
}

/// Errors from [`decompress_block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// Token stream ended mid-token.
    Truncated,
    /// A back-reference pointed before the output start.
    BadDistance,
    /// Unknown token tag.
    BadTag(u8),
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => f.write_str("token stream truncated"),
            DecompressError::BadDistance => f.write_str("back-reference before block start"),
            DecompressError::BadTag(t) => write!(f, "unknown token tag {t:#x}"),
        }
    }
}

impl std::error::Error for DecompressError {}

/// Decompresses one block produced by [`compress_block`].
///
/// # Errors
/// Returns a [`DecompressError`] on malformed input.
pub fn decompress_block(packed: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(packed.len() * 2);
    let mut i = 0;
    while i < packed.len() {
        match packed[i] {
            0x00 => {
                let n = *packed.get(i + 1).ok_or(DecompressError::Truncated)? as usize;
                let lits = packed
                    .get(i + 2..i + 2 + n)
                    .ok_or(DecompressError::Truncated)?;
                out.extend_from_slice(lits);
                i += 2 + n;
            }
            0x01 => {
                let rest = packed.get(i + 1..i + 4).ok_or(DecompressError::Truncated)?;
                let len = rest[0] as usize + MIN_MATCH;
                let dist = ((rest[1] as usize) << 8) | rest[2] as usize;
                if dist == 0 || dist > out.len() {
                    return Err(DecompressError::BadDistance);
                }
                let from = out.len() - dist;
                for k in 0..len {
                    let b = out[from + k];
                    out.push(b);
                }
                i += 4;
            }
            t => return Err(DecompressError::BadTag(t)),
        }
    }
    Ok(out)
}

/// The corpus's words, each zero-padded to [`WORD_SLOT`] bytes, with its
/// length. The order is the generator's pick order; the space is in the
/// table twice, so it is picked twice as often.
const WORDS: [([u8; WORD_SLOT], usize); 13] = [
    padded(b"exception"),
    padded(b"restart"),
    padded(b"precise"),
    padded(b"subthread"),
    padded(b"deterministic"),
    padded(b"order"),
    padded(b"rollback"),
    padded(b"checkpoint"),
    padded(b"barrier"),
    padded(b"pipeline"),
    padded(b" "),
    padded(b" "),
    padded(b"\n"),
];

/// Bytes one word is copied as: the longest word (13) and its noise byte
/// fit, and the copy is a single fixed-size move.
const WORD_SLOT: usize = 16;

const fn padded(word: &[u8]) -> ([u8; WORD_SLOT], usize) {
    let mut slot = [0; WORD_SLOT];
    let mut i = 0;
    while i < word.len() {
        slot[i] = word[i];
        i += 1;
    }
    (slot, word.len())
}

/// Generates a deterministic, compressible test corpus with block-to-block
/// variation (so per-block compression cost is uneven, as Pbzip2's is).
///
/// Allocates once, `bytes + 16`: each word is written as a whole
/// 16-byte slot (its padding is overwritten by what follows), so the
/// last one may run past `bytes` before the cut.
pub fn generate_corpus(bytes: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0; bytes + WORD_SLOT];
    let mut len = 0;
    let mut state = seed | 1;
    while len < bytes {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let (slot, word_len) = &WORDS[(state >> 33) as usize % WORDS.len()];
        out[len..len + WORD_SLOT].copy_from_slice(slot);
        len += word_len;
        // Occasionally inject incompressible noise.
        if state.is_multiple_of(23) {
            out[len] = (state >> 17) as u8;
            len += 1;
        }
    }
    out.truncate(bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The compressor as it was before the reused match table, word for
    /// word: the oracle the table and the word-wise compare must equal.
    fn reference_compress_block(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        // Hash chains: 16-bit rolling hash of 4 bytes -> most recent position.
        let mut head = vec![usize::MAX; 1 << 16];
        let mut prev = vec![usize::MAX; input.len()];
        let hash = |w: &[u8]| -> usize {
            ((w[0] as usize) << 8 ^ (w[1] as usize) << 5 ^ (w[2] as usize) << 2 ^ w[3] as usize)
                & 0xFFFF
        };

        let mut i = 0;
        let mut lit_start = 0;
        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
            let mut s = from;
            while s < to {
                let n = (to - s).min(255);
                out.push(0x00);
                out.push(n as u8);
                out.extend_from_slice(&input[s..s + n]);
                s += n;
            }
        };

        while i + MIN_MATCH <= input.len() {
            let h = hash(&input[i..i + 4]);
            // Find the best match along the chain (bounded probes).
            let mut best_len = 0;
            let mut best_dist = 0;
            let mut cand = head[h];
            let mut probes = 0;
            while cand != usize::MAX && probes < 16 {
                if i - cand <= WINDOW {
                    let max = (input.len() - i).min(MAX_MATCH);
                    let mut l = 0;
                    while l < max && input[cand + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                    }
                } else {
                    break;
                }
                cand = prev[cand];
                probes += 1;
            }

            if best_len >= MIN_MATCH {
                flush_literals(&mut out, lit_start, i, input);
                out.push(0x01);
                out.push((best_len - MIN_MATCH) as u8);
                out.push((best_dist >> 8) as u8);
                out.push((best_dist & 0xFF) as u8);
                // Insert the skipped positions into the chains.
                let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
                let mut j = i;
                while j < end {
                    let hj = hash(&input[j..j + 4]);
                    prev[j] = head[hj];
                    head[hj] = j;
                    j += 1;
                }
                i += best_len;
                lit_start = i;
            } else {
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
        }
        flush_literals(&mut out, lit_start, input.len(), input);
        out
    }

    proptest! {
        /// The reused table and the word-wise compare emit the tokens the
        /// oracle does. `narrow` shrinks the alphabet, from random bytes
        /// (matches only by chance) down to two symbols (a match at almost
        /// every position); past 65 535 bytes the chains reach beyond
        /// `WINDOW`. The cases run in turn on one thread, so each call also
        /// meets the stale entries of the one before.
        #[test]
        fn compress_equals_the_oracle(data in vec(any::<u8>(), 0..200_000), narrow in 0u32..8) {
            let data: Vec<u8> = data.iter().map(|b| b >> narrow).collect();
            prop_assert_eq!(compress_block(&data), reference_compress_block(&data));
        }
    }

    #[test]
    fn compress_equals_the_oracle_on_the_corpus_at_every_block_size() {
        let corpus = generate_corpus(400_000, 5);
        for block in [1 << 10, 2 << 10, 4 << 10, 20_000, 70_000, 200_000] {
            for (ix, chunk) in corpus.chunks(block).enumerate() {
                assert_eq!(
                    compress_block(chunk),
                    reference_compress_block(chunk),
                    "block {ix} of {block} bytes"
                );
            }
        }
    }

    /// Calls of mixed sizes, one after another on one thread, the same
    /// bytes twice in a row among them: whatever an earlier call stored,
    /// live-looking or not, must not be matched against.
    #[test]
    fn stale_entries_are_never_matched() {
        let corpus = generate_corpus(300_000, 11);
        for len in [
            200_000, 17, 4096, 4096, 70_000, 0, 1024, 65_536, 3, 65_536, 300_000, 5,
        ] {
            let data = &corpus[..len];
            assert_eq!(
                compress_block(data),
                reference_compress_block(data),
                "{len} bytes"
            );
        }
    }

    /// A table whose tags are about to overflow is cleared once and goes
    /// on matching the oracle.
    #[test]
    fn the_table_survives_its_tags_overflowing() {
        let corpus = generate_corpus(64 << 10, 3);
        let mut table = MatchTable::new();
        table.next_base = u32::MAX - 10_000;
        let mut cleared = false;
        for block in corpus.chunks(4 << 10) {
            let before = table.next_base;
            assert_eq!(
                compress_with(&mut table, block),
                reference_compress_block(block)
            );
            cleared |= table.next_base < before;
        }
        assert!(cleared, "the tags never wrapped");
    }

    #[test]
    fn round_trip_corpus() {
        for seed in [1u64, 7, 42] {
            let data = generate_corpus(20_000, seed);
            let packed = compress_block(&data);
            assert!(packed.len() < data.len(), "should compress text");
            assert_eq!(decompress_block(&packed).unwrap(), data);
        }
    }

    #[test]
    fn round_trip_edge_cases() {
        for data in [
            Vec::new(),
            vec![0u8; 1],
            vec![7u8; 1000],              // long run
            (0..=255u8).collect::<Vec<_>>(), // incompressible ramp
            b"abcd".to_vec(),
        ] {
            let packed = compress_block(&data);
            assert_eq!(decompress_block(&packed).unwrap(), data);
        }
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let data = vec![b'x'; 10_000];
        let packed = compress_block(&data);
        assert!(packed.len() < data.len() / 20);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert_eq!(decompress_block(&[0x01]), Err(DecompressError::Truncated));
        assert_eq!(
            decompress_block(&[0x01, 0, 0, 5]),
            Err(DecompressError::BadDistance)
        );
        assert_eq!(decompress_block(&[0x7F]), Err(DecompressError::BadTag(0x7F)));
        assert_eq!(decompress_block(&[0x00, 5, 1]), Err(DecompressError::Truncated));
    }

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(generate_corpus(5000, 9), generate_corpus(5000, 9));
        assert_ne!(generate_corpus(5000, 9), generate_corpus(5000, 10));
    }

    /// The generator as it was before the padded word slots, word for
    /// word: the oracle the slot-wise writer must equal.
    fn reference_generate_corpus(bytes: usize, seed: u64) -> Vec<u8> {
        let words: &[&[u8]] = &[
            b"exception", b"restart", b"precise", b"subthread", b"deterministic", b"order",
            b"rollback", b"checkpoint", b"barrier", b"pipeline", b" ", b" ", b"\n",
        ];
        let mut out = Vec::with_capacity(bytes);
        let mut state = seed | 1;
        while out.len() < bytes {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let pick = (state >> 33) as usize % words.len();
            out.extend_from_slice(words[pick]);
            // Occasionally inject incompressible noise.
            if state.is_multiple_of(23) {
                out.push((state >> 17) as u8);
            }
        }
        out.truncate(bytes);
        out
    }

    proptest! {
        /// Any length to 20 000 and any seed, 0 and `u64::MAX` among them
        /// (a quarter of the cases each): the bytes the oracle writes.
        #[test]
        fn corpus_equals_the_oracle(bytes in 0usize..20_001, seed in any::<u64>(), edge in 0u8..4) {
            let seed = match edge {
                0 => 0,
                1 => u64::MAX,
                _ => seed,
            };
            prop_assert_eq!(generate_corpus(bytes, seed), reference_generate_corpus(bytes, seed));
        }
    }

    /// Every length to 400, so every cut falls inside, at the end of and
    /// just past words, spaces and noise bytes.
    #[test]
    fn corpus_equals_the_oracle_at_every_short_length() {
        for seed in [0, 1, 2, 23, 0xDEAD_BEEF, u64::MAX - 1, u64::MAX] {
            for bytes in 0..=400 {
                assert_eq!(
                    generate_corpus(bytes, seed),
                    reference_generate_corpus(bytes, seed),
                    "{bytes} bytes, seed {seed}"
                );
            }
        }
    }

    /// The corpus a `pipeline` benchmark run compresses (2 MiB, seed 1),
    /// pinned by digest, and its buffer: one allocation of at most
    /// `bytes + 16`.
    #[test]
    fn the_pipeline_corpus_is_pinned() {
        let corpus = generate_corpus(2 << 20, 1);
        assert_eq!(corpus, reference_generate_corpus(2 << 20, 1));
        assert_eq!(gprs_core::persist::fnv1a(&corpus), 0x49ca_9e1c_3ad8_5fca);
        assert!(corpus.capacity() <= (2 << 20) + WORD_SLOT);
    }
}
