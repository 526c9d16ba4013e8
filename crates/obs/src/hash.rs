//! 64-bit FNV-1a, the workspace's one hash for shard picks and result-cache
//! keys. It is fast on short keys and needs no state beyond one `u64`; it is
//! not keyed, so it must not pick buckets for keys an attacker chooses.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher fed bytes in sequence: feeding `a` then `b` gives
/// the hash of their concatenation, without building it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// Feeds `bytes`.
    pub fn write(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// The hash of every byte fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::default().write(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_hash_as_their_concatenation() {
        let whole = b"measure\0ecs=1\0task,m1\nt1,2\n";
        for cut in 0..=whole.len() {
            let (a, b) = whole.split_at(cut);
            assert_eq!(Fnv1a::default().write(a).write(b).finish(), fnv1a(whole));
        }
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
