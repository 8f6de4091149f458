//! The output oracle: every response the server sends is checked against a
//! reference computed in-process from the same request body.
//!
//! A response the workload repeats is compared with its exact reference
//! bytes, piece by piece as they arrive. A response seen once, whose
//! reference is computed after the timed window, is folded into the
//! [`Fingerprint`] digest of its lines as it arrives and compared with the
//! reference's [`Digest`] later.

use std::sync::Arc;

use ecochip_serve::orchestrator::Fingerprint;

/// The [`Fingerprint`] of a body's `\n`-terminated lines, and its length in
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    digest: u64,
    len: usize,
}

impl Digest {
    /// The digest of `bytes`, a `\n`-terminated line stream.
    pub fn of(bytes: &[u8]) -> Self {
        let mut fingerprint = Fingerprint::new();
        let text = std::str::from_utf8(bytes).expect("reference streams are UTF-8 JSON");
        for line in text.split_terminator('\n') {
            fingerprint.update(line);
        }
        Digest {
            digest: fingerprint.digest(),
            len: bytes.len(),
        }
    }
}

/// FNV-1a over raw bytes. Folding a stream of `\n`-terminated lines byte by
/// byte gives exactly [`Fingerprint`]'s digest of those lines (it hashes
/// `line + '\n'`), without splitting the stream at line boundaries.
fn fnv_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        state = (state ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Incremental check of a body that arrives in pieces: against the exact
/// expected bytes when they are known, else folded into a digest to compare
/// once the reference is known ([`StreamCheck::matches_digest`]).
#[derive(Debug)]
pub struct StreamCheck {
    expected: Option<Arc<Vec<u8>>>,
    pos: usize,
    state: u64,
    ok: bool,
}

impl StreamCheck {
    pub fn new(expected: Option<Arc<Vec<u8>>>) -> Self {
        StreamCheck {
            expected,
            pos: 0,
            state: Fingerprint::new().digest(),
            ok: true,
        }
    }

    /// Check the next piece of the body.
    pub fn feed(&mut self, data: &[u8]) {
        match self.expected.as_deref() {
            Some(bytes) => self.ok &= bytes.get(self.pos..self.pos + data.len()) == Some(data),
            None => self.state = fnv_fold(self.state, data),
        }
        self.pos += data.len();
    }

    /// Whether the whole body matched the expected bytes (`false` without
    /// them).
    pub fn finish(&self) -> bool {
        self.expected
            .as_deref()
            .is_some_and(|bytes| self.ok && self.pos == bytes.len())
    }

    /// Whether the body fed so far, without expected bytes, has `digest`.
    pub fn matches_digest(&self, digest: &Digest) -> bool {
        self.expected.is_none()
            && Digest {
                digest: self.state,
                len: self.pos,
            } == *digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &[u8] = b"{\"label\":\"a\",\"x\":1.5}\n{\"label\":\"b\",\"x\":2.25}\n";

    /// Whether `body`, fed in two pieces split at `cut`, passes both checks.
    fn both(body: &[u8], cut: usize) -> (bool, bool) {
        let mut exact = StreamCheck::new(Some(Arc::new(STREAM.to_vec())));
        let mut later = StreamCheck::new(None);
        for check in [&mut exact, &mut later] {
            check.feed(&body[..cut]);
            check.feed(&body[cut..]);
        }
        (exact.finish(), later.matches_digest(&Digest::of(STREAM)))
    }

    #[test]
    fn byte_fold_equals_the_line_fingerprint() {
        let digest = Digest::of(STREAM);
        assert_eq!(fnv_fold(Fingerprint::new().digest(), STREAM), digest.digest);
    }

    #[test]
    fn both_checks_accept_the_reference_in_any_split() {
        for cut in 0..=STREAM.len() {
            assert_eq!(both(STREAM, cut), (true, true), "split at {cut}");
        }
    }

    #[test]
    fn a_flipped_byte_is_rejected() {
        for at in 0..STREAM.len() {
            let mut flipped = STREAM.to_vec();
            flipped[at] ^= 0x01;
            assert_eq!(both(&flipped, at), (false, false), "flip at {at}");
        }
        assert_eq!(both(&STREAM[..STREAM.len() - 1], 0), (false, false));
        let mut longer = STREAM.to_vec();
        longer.push(b'\n');
        assert_eq!(both(&longer, 0), (false, false), "extended");
    }

    #[test]
    fn each_check_answers_only_its_own_question() {
        let mut exact = StreamCheck::new(Some(Arc::new(STREAM.to_vec())));
        exact.feed(STREAM);
        assert!(!exact.matches_digest(&Digest::of(STREAM)));
        let mut later = StreamCheck::new(None);
        later.feed(STREAM);
        assert!(!later.finish());
    }
}
