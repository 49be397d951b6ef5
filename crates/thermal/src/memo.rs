//! Process-wide memo caches keyed by a streaming 128-bit content hash.
//!
//! Memo caches in this workspace (the shared propagator, the engine's
//! initial-temperature fixpoint) are keyed on the raw bit patterns of
//! every numeric input, so any difference — one conductance, one watt —
//! yields a different key. Keys never leave the process, so the hash
//! only has to be fast and well mixed: it absorbs whole 64-bit words
//! into two independent multiply–xorshift lanes, with no byte buffer.
//! Entries are immutable and shared by `Arc`, so a hit hands back
//! exactly what a fresh build of the same inputs would produce.

use std::sync::{Arc, Mutex};

/// Streaming 128-bit hash over 64-bit words.
///
/// # Examples
///
/// ```
/// use dtm_thermal::ContentHash;
///
/// let mut a = ContentHash::new();
/// a.f64s(&[1.0, 2.0]);
/// let mut b = ContentHash::new();
/// b.f64s(&[1.0, f64::from_bits(2.0f64.to_bits() + 1)]);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct ContentHash {
    a: u64,
    b: u64,
}

impl Default for ContentHash {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHash {
    /// A fresh hasher.
    pub fn new() -> Self {
        ContentHash {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    /// Absorbs one word. Each lane step is a bijection of the lane
    /// state, and the xorshift folds high bits back down so later
    /// multiplies spread them.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.a ^= self.a >> 29;
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.b ^= self.b >> 31;
    }

    /// Absorbs a length or index.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    /// Absorbs the raw bits of one float.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Absorbs a slice's length, then the raw bits of every element,
    /// so adjacent slices cannot trade elements without changing the key.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// The 128-bit key: both lanes through the SplitMix64 finalizer.
    pub fn finish(&self) -> u128 {
        fn fmix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        ((fmix(self.b) as u128) << 64) | fmix(self.a) as u128
    }
}

/// A bounded process-wide memo: at most `cap` entries, evicted
/// first-in first-out, usable as a `static`.
#[derive(Debug)]
pub struct SharedMemo<T> {
    cap: usize,
    entries: Mutex<Vec<(u128, Arc<T>)>>,
}

impl<T> SharedMemo<T> {
    /// An empty memo holding at most `cap` entries.
    pub const fn new(cap: usize) -> Self {
        SharedMemo {
            cap,
            entries: Mutex::new(Vec::new()),
        }
    }

    fn lookup(entries: &[(u128, Arc<T>)], key: u128) -> Option<Arc<T>> {
        entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| Arc::clone(v))
    }

    /// Returns the entry for `key`, running `build` on a miss and
    /// keeping its result. `build` runs outside the lock, so concurrent
    /// misses on different keys do not serialize; when two threads race
    /// on one key the first insert wins (both built the same value).
    /// Failures are not cached.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn get_or_try_insert<E>(
        &self,
        key: u128,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        if let Some(v) = Self::lookup(&self.entries.lock().expect("memo lock poisoned"), key) {
            return Ok(v);
        }
        let built = Arc::new(build()?);
        let mut entries = self.entries.lock().expect("memo lock poisoned");
        if let Some(v) = Self::lookup(&entries, key) {
            return Ok(v);
        }
        if entries.len() >= self.cap {
            entries.remove(0);
        }
        entries.push((key, Arc::clone(&built)));
        Ok(built)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().expect("memo lock poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_is_bounded_and_evicts_oldest_first() {
        let memo: SharedMemo<u32> = SharedMemo::new(3);
        let builds = std::cell::Cell::new(0);
        let get = |k: u128| {
            *memo
                .get_or_try_insert(k, || {
                    builds.set(builds.get() + 1);
                    Ok::<_, ()>(k as u32)
                })
                .unwrap()
        };
        for k in 0..5 {
            assert_eq!(get(k), k as u32);
        }
        assert_eq!(builds.get(), 5);
        assert_eq!(get(4), 4, "resident: hit");
        assert_eq!(builds.get(), 5);
        assert_eq!(get(0), 0, "evicted first: rebuilt");
        assert_eq!(builds.get(), 6);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let memo: SharedMemo<u32> = SharedMemo::new(4);
        assert!(memo.get_or_try_insert(7, || Err("boom")).is_err());
        assert_eq!(memo.len(), 0);
        assert_eq!(*memo.get_or_try_insert(7, || Ok::<_, ()>(1)).unwrap(), 1);
    }

    fn key(vs: &[f64]) -> u128 {
        let mut h = ContentHash::new();
        h.f64s(vs);
        h.finish()
    }

    #[test]
    fn any_single_bit_flip_changes_the_key() {
        let base: Vec<f64> = (0..64).map(|i| 0.1 * i as f64 + 3.0).collect();
        let k0 = key(&base);
        for i in [0, 1, 31, 63] {
            for bit in [0, 1, 31, 52, 62, 63] {
                let mut v = base.clone();
                v[i] = f64::from_bits(v[i].to_bits() ^ (1 << bit));
                assert_ne!(key(&v), k0, "element {i} bit {bit}");
            }
        }
    }

    #[test]
    fn order_and_length_matter() {
        assert_ne!(key(&[1.0, 2.0]), key(&[2.0, 1.0]));
        assert_ne!(key(&[0.0]), key(&[0.0, 0.0]));
        assert_ne!(key(&[0.0]), key(&[-0.0]));
        let mut split = ContentHash::new();
        split.f64s(&[1.0]);
        split.f64s(&[2.0, 3.0]);
        let mut joined = ContentHash::new();
        joined.f64s(&[1.0, 2.0]);
        joined.f64s(&[3.0]);
        assert_ne!(split.finish(), joined.finish());
    }
}
