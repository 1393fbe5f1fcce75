//! Threshold-based dynamic switching (Eq. 2–3).
//!
//! Given the approximate pre-activations `y'`, the switching map `m`
//! marks which neurons are **sensitive** (`m_i = 1`: must be recomputed by
//! the Executor) and which are **insensitive** (`m_i = 0`: keep the cheap
//! approximate value):
//!
//! * ReLU / GELU: `y'_i < θ  ⇒  m_i = 0` (deep negative pre-activations
//!   die in the one-sided tail anyway),
//! * sigmoid / tanh: `|y'_i| > θ  ⇒  m_i = 0` (saturation regions),
//! * magnitude (identity): `|y'_i| < θ  ⇒  m_i = 0` — the
//!   Precision-Gating-style rule for projections feeding scale-bounded
//!   mixers such as attention logits.
//!
//! The map is stored bit-packed in `u64` words — the same one-bit-per-
//! neuron artifact the hardware keeps in the GLB. Bit `i` lives in word
//! `i / 64` at position `i % 64`; serialized little-endian this is
//! exactly the byte layout of [`SwitchingMap::packed_bytes`] (bit `i` in
//! byte `i / 8` at position `i % 8`).

use duet_nn::Activation;
use duet_tensor::Tensor;

/// A switching decision rule: activation type + threshold θ.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SwitchingPolicy {
    /// The activation whose insensitive region the rule exploits.
    pub activation: Activation,
    /// Threshold θ (tuned offline; see [`crate::tuning`]).
    pub theta: f32,
}

impl SwitchingPolicy {
    /// ReLU policy: outputs with `y' < theta` are insensitive.
    pub fn relu(theta: f32) -> Self {
        Self {
            activation: Activation::Relu,
            theta,
        }
    }

    /// Sigmoid policy: outputs with `|y'| > theta` are insensitive.
    pub fn sigmoid(theta: f32) -> Self {
        Self {
            activation: Activation::Sigmoid,
            theta,
        }
    }

    /// Tanh policy: outputs with `|y'| > theta` are insensitive.
    pub fn tanh(theta: f32) -> Self {
        Self {
            activation: Activation::Tanh,
            theta,
        }
    }

    /// GELU policy: outputs with `y' < theta` are insensitive — the same
    /// one-sided band as ReLU (deep-negative pre-activations die in the
    /// GELU tail).
    pub fn gelu(theta: f32) -> Self {
        Self {
            activation: Activation::Gelu,
            theta,
        }
    }

    /// Magnitude policy for linear projections feeding scale-bounded
    /// mixers (attention Q/K/V/output GEMVs): outputs with
    /// `|y'| < theta` are insensitive — small entries barely move the
    /// scaled-dot-product softmax, so the cheap approximate value is
    /// kept. `theta <= 0` keeps everything sensitive (dense).
    pub fn magnitude(theta: f32) -> Self {
        Self {
            activation: Activation::Identity,
            theta,
        }
    }

    /// A policy that never switches (every output sensitive) — the
    /// single-module baseline.
    pub fn never_switch() -> Self {
        Self {
            activation: Activation::Identity,
            theta: 0.0,
        }
    }

    /// Whether a single approximate pre-activation is sensitive (must be
    /// recomputed exactly).
    pub fn is_sensitive(&self, y_approx: f32) -> bool {
        !self.activation.is_insensitive(y_approx, self.theta)
    }

    /// Generates the switching map for a vector of approximate
    /// pre-activations, one packed word (64 predicate results) at a time.
    pub fn map(&self, y_approx: &Tensor) -> SwitchingMap {
        let y = y_approx.data();
        let mut words = Vec::with_capacity(y.len().div_ceil(64));
        for chunk in y.chunks(64) {
            let mut word = 0u64;
            for (bit, &v) in chunk.iter().enumerate() {
                word |= (self.is_sensitive(v) as u64) << bit;
            }
            words.push(word);
        }
        SwitchingMap {
            words,
            len: y.len(),
        }
    }
}

/// A binary switching map: bit `i` set means neuron *i* needs the
/// Executor (the paper's `m_i = 1`).
///
/// Storage is bit-packed `u64` words. Invariant: bits at positions
/// `>= len` in the last word are always zero, so derived equality and
/// word-level popcounts are exact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SwitchingMap {
    words: Vec<u64>,
    len: usize,
}

/// Mask selecting the live bits of the last word of an `n`-bit map.
#[inline]
fn tail_mask(n: usize) -> u64 {
    match n % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

impl SwitchingMap {
    /// An empty map (zero neurons) — the seed for bit-wise builders.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a map from explicit flags.
    pub fn from_flags(sensitive: Vec<bool>) -> Self {
        sensitive.into_iter().collect()
    }

    /// An all-sensitive map of length `n` (dense execution).
    pub fn all_sensitive(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(n);
        }
        Self { words, len: n }
    }

    /// An all-insensitive map of length `n` (nothing to execute) — e.g.
    /// the identity for [`SwitchingMap::union_in_place`].
    pub fn all_insensitive(n: usize) -> Self {
        Self {
            words: vec![0u64; n.div_ceil(64)],
            len: n,
        }
    }

    /// Wraps packed words as an `n`-bit map (bit `i` in word `i / 64`),
    /// clearing any bits past `n`.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != n.div_ceil(64)`.
    pub(crate) fn from_words(mut words: Vec<u64>, n: usize) -> Self {
        assert_eq!(words.len(), n.div_ceil(64), "word count mismatch");
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(n);
        }
        Self { words, len: n }
    }

    /// Number of neurons covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words backing the map (bit `i` of the map is bit
    /// `i % 64` of word `i / 64`; tail bits past `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether neuron `i` is sensitive.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_sensitive(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "index {i} out of range for map of {}",
            self.len
        );
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends one neuron's flag.
    pub fn push(&mut self, sensitive: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        *self.words.last_mut().expect("word just ensured") |= (sensitive as u64) << bit;
        self.len += 1;
    }

    /// Appends another map's flags (bit-level concatenation; `other` need
    /// not be word-aligned).
    pub fn extend_from_map(&mut self, other: &SwitchingMap) {
        if self.len.is_multiple_of(64) {
            // word-aligned fast path: tail bits of `other` are already zero
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            self.words.truncate(self.len.div_ceil(64));
        } else {
            self.extend(other.iter());
        }
    }

    /// Iterator over the per-neuron flags.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.words[i / 64] >> (i % 64) & 1 == 1)
    }

    /// Count of sensitive neurons (Executor workload) — a popcount over
    /// the packed words.
    pub fn sensitive_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Count of sensitive neurons in `start..end` — e.g. one channel's
    /// workload within a channel-major CONV map.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn sensitive_count_in(&self, start: usize, end: usize) -> usize {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if start == end {
            return 0;
        }
        let (wa, wb) = (start / 64, (end - 1) / 64);
        let lo = u64::MAX << (start % 64);
        let hi = tail_mask(end);
        if wa == wb {
            return (self.words[wa] & lo & hi).count_ones() as usize;
        }
        let mut n = (self.words[wa] & lo).count_ones() as usize;
        for w in &self.words[wa + 1..wb] {
            n += w.count_ones() as usize;
        }
        n + (self.words[wb] & hi).count_ones() as usize
    }

    /// Per-word popcounts over the packed backing words (tail bits past
    /// `len` are invariantly zero, so the last count covers live bits
    /// only). This is the word-granular form of the Executor's workload
    /// accounting: summing it is [`SwitchingMap::sensitive_count`].
    pub fn popcount_words(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().map(|w| w.count_ones())
    }

    /// Iterator over `(word_index, word)` pairs, **skipping all-zero
    /// words** — the run-length skip of all-insensitive spans that makes
    /// sparse execution cost O(popcount) instead of O(bits). Bit `b` of a
    /// yielded word is neuron `word_index * 64 + b`.
    pub fn iter_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter_map(|(i, &w)| (w != 0).then_some((i, w)))
    }

    /// Calls `f` for every sensitive index in `start..end`, ascending —
    /// word-at-a-time (masked first/last word, zero words skipped,
    /// `trailing_zeros` extraction inside a word). This is the ranged
    /// companion of [`SwitchingMap::iter_words`] for consumers whose rows
    /// are not word-aligned (e.g. one channel of a channel-major CONV
    /// map).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn for_each_sensitive_in(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if start == end {
            return;
        }
        let (wa, wb) = (start / 64, (end - 1) / 64);
        let lo = u64::MAX << (start % 64);
        let hi = tail_mask(end);
        for wi in wa..=wb {
            let mut w = self.words[wi];
            if wi == wa {
                w &= lo;
            }
            if wi == wb {
                w &= hi;
            }
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Fraction of insensitive neurons — the computation-saving
    /// opportunity.
    pub fn insensitive_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        1.0 - self.sensitive_count() as f64 / self.len as f64
    }

    /// Iterator over sensitive indices, in ascending order.
    pub fn sensitive_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let next = rest & (rest - 1); // clear lowest set bit
                (next != 0).then_some(next)
            })
            .map(move |bits| wi * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Marks a neuron insensitive — the §III-C correction step: "if a
    /// predicted effectual neuron turns out to be ineffectual after ReLU,
    /// we will update the switching index of that neuron from 1 to 0".
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn correct_to_insensitive(&mut self, i: usize) {
        assert!(
            i < self.len,
            "index {i} out of range for map of {}",
            self.len
        );
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// ORs another map into this one — the touched-row union of a
    /// weight-stationary batch schedule.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn union_in_place(&mut self, other: &SwitchingMap) {
        assert_eq!(self.len, other.len, "union length mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Mixes accurate and approximate pre-activations per Eq. (2):
    /// `y = y ⊙ m + y' ⊙ (1 − m)`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn mix(&self, accurate: &Tensor, approximate: &Tensor) -> Tensor {
        assert_eq!(accurate.len(), self.len(), "accurate length mismatch");
        assert_eq!(approximate.len(), self.len(), "approximate length mismatch");
        let mut out = approximate.clone();
        let od = out.data_mut();
        let ad = accurate.data();
        for (wi, &w) in self.words.iter().enumerate() {
            let base = wi * 64;
            let span = 64.min(self.len - base);
            let full = if span == 64 {
                u64::MAX
            } else {
                (1u64 << span) - 1
            };
            if w == full {
                // fully sensitive word: copy the accurate chunk wholesale
                od[base..base + span].copy_from_slice(&ad[base..base + span]);
            } else if w != 0 {
                let mut bits = w;
                while bits != 0 {
                    let i = base + bits.trailing_zeros() as usize;
                    od[i] = ad[i];
                    bits &= bits - 1;
                }
            }
        }
        out
    }

    /// Packs the map into bits (one bit per neuron, little-endian within a
    /// byte) — the format stored in the GLB and the canonical on-disk
    /// codec of `duet-sim`'s trace blobs.
    pub fn packed_bytes(&self) -> Vec<u8> {
        self.words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(self.len.div_ceil(8))
            .collect()
    }

    /// Unpacks a map of known length from packed bits. Slack bits past
    /// `len` in the buffer are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short for `len`.
    pub fn from_packed(bytes: &[u8], len: usize) -> Self {
        assert!(bytes.len() * 8 >= len, "packed buffer too short");
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, &b) in bytes.iter().take(len.div_ceil(8)).enumerate() {
            words[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(len);
        }
        Self { words, len }
    }
}

impl FromIterator<bool> for SwitchingMap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut m = SwitchingMap::empty();
        m.extend(iter);
        m
    }
}

impl Extend<bool> for SwitchingMap {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for s in iter {
            self.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(m: &SwitchingMap) -> Vec<bool> {
        m.iter().collect()
    }

    #[test]
    fn relu_rule_matches_eq3() {
        let p = SwitchingPolicy::relu(0.0);
        let y = Tensor::from_vec(vec![-1.0, -0.01, 0.0, 0.5], &[4]);
        let m = p.map(&y);
        assert_eq!(flags_of(&m), &[false, false, true, true]);
    }

    #[test]
    fn sigmoid_rule_matches_eq3() {
        let p = SwitchingPolicy::sigmoid(3.0);
        let y = Tensor::from_vec(vec![-5.0, -1.0, 0.0, 2.9, 3.1], &[5]);
        let m = p.map(&y);
        assert_eq!(flags_of(&m), &[false, true, true, true, false]);
    }

    #[test]
    fn never_switch_keeps_everything_sensitive() {
        let p = SwitchingPolicy::never_switch();
        let y = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]);
        assert_eq!(p.map(&y).sensitive_count(), 3);
    }

    #[test]
    fn gelu_rule_is_one_sided_like_relu() {
        let p = SwitchingPolicy::gelu(0.0);
        let y = Tensor::from_vec(vec![-1.0, -0.01, 0.0, 0.5], &[4]);
        assert_eq!(flags_of(&p.map(&y)), &[false, false, true, true]);
        // θ = −∞ keeps everything sensitive (dense)
        let dense = SwitchingPolicy::gelu(f32::NEG_INFINITY);
        assert_eq!(dense.map(&y).sensitive_count(), 4);
    }

    #[test]
    fn magnitude_rule_gates_small_entries() {
        let p = SwitchingPolicy::magnitude(0.5);
        let y = Tensor::from_vec(vec![-1.0, -0.2, 0.0, 0.4, 0.6], &[5]);
        assert_eq!(flags_of(&p.map(&y)), &[true, false, false, false, true]);
        // θ = 0 and θ = −∞ are both all-sensitive — never_switch() is
        // literally magnitude(0.0)
        assert_eq!(
            SwitchingPolicy::magnitude(0.0),
            SwitchingPolicy::never_switch()
        );
        let dense = SwitchingPolicy::magnitude(f32::NEG_INFINITY);
        assert_eq!(dense.map(&y).sensitive_count(), 5);
    }

    #[test]
    fn mix_selects_by_flag() {
        let m = SwitchingMap::from_flags(vec![true, false, true]);
        let acc = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let app = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(m.mix(&acc, &app).data(), &[1.0, 20.0, 3.0]);
    }

    #[test]
    fn mix_handles_multi_word_maps() {
        // spans three words with a fully-sensitive middle word
        let n = 150;
        let flags: Vec<bool> = (0..n)
            .map(|i| (64..128).contains(&i) || i % 7 == 0)
            .collect();
        let m = SwitchingMap::from_flags(flags.clone());
        let acc = Tensor::from_fn(&[n], |i| i as f32);
        let app = Tensor::from_fn(&[n], |i| -(i as f32) - 1.0);
        let mixed = m.mix(&acc, &app);
        for (i, &f) in flags.iter().enumerate() {
            let want = if f { acc.data()[i] } else { app.data()[i] };
            assert_eq!(mixed.data()[i], want, "index {i}");
        }
    }

    #[test]
    fn counting_and_fraction() {
        let m = SwitchingMap::from_flags(vec![true, false, false, false]);
        assert_eq!(m.sensitive_count(), 1);
        assert!((m.insensitive_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(m.sensitive_indices().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn sensitive_indices_cross_word_boundaries() {
        let flags: Vec<bool> = (0..200).map(|i| i % 63 == 0).collect();
        let m = SwitchingMap::from_flags(flags.clone());
        let want: Vec<usize> = (0..200).filter(|i| i % 63 == 0).collect();
        assert_eq!(m.sensitive_indices().collect::<Vec<_>>(), want);
    }

    #[test]
    fn count_in_range_matches_filter() {
        let flags: Vec<bool> = (0..300).map(|i| i % 5 == 0 || i % 17 == 0).collect();
        let m = SwitchingMap::from_flags(flags.clone());
        for (start, end) in [
            (0, 0),
            (0, 300),
            (3, 64),
            (64, 128),
            (60, 70),
            (1, 299),
            (130, 131),
        ] {
            let want = flags[start..end].iter().filter(|&&s| s).count();
            assert_eq!(m.sensitive_count_in(start, end), want, "{start}..{end}");
        }
    }

    #[test]
    fn correction_step() {
        let mut m = SwitchingMap::from_flags(vec![true, true]);
        m.correct_to_insensitive(0);
        assert_eq!(flags_of(&m), &[false, true]);
    }

    #[test]
    fn union_is_bitwise_or() {
        let a: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let b: Vec<bool> = (0..100).map(|i| i % 4 == 0).collect();
        let mut u = SwitchingMap::from_flags(a.clone());
        u.union_in_place(&SwitchingMap::from_flags(b.clone()));
        for i in 0..100 {
            assert_eq!(u.is_sensitive(i), a[i] || b[i], "index {i}");
        }
    }

    #[test]
    fn extend_from_map_concatenates_unaligned() {
        let a: Vec<bool> = (0..70).map(|i| i % 2 == 0).collect();
        let b: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let mut m = SwitchingMap::from_flags(a.clone());
        m.extend_from_map(&SwitchingMap::from_flags(b.clone()));
        let mut want = a;
        want.extend(b);
        assert_eq!(flags_of(&m), want);
        // and the aligned fast path
        let mut m2 = SwitchingMap::from_flags(want[..64].to_vec());
        m2.extend_from_map(&SwitchingMap::from_flags(want[64..].to_vec()));
        assert_eq!(flags_of(&m2), want);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let flags: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        let m = SwitchingMap::from_flags(flags.clone());
        let packed = m.packed_bytes();
        assert_eq!(packed.len(), 3);
        let back = SwitchingMap::from_packed(&packed, 19);
        assert_eq!(back, m);
        assert_eq!(flags_of(&back), flags);
    }

    #[test]
    fn pack_roundtrip_non_byte_aligned_lengths() {
        for n in [1usize, 7, 9, 19, 63, 65, 127, 129, 200] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i % 11 == 0).collect();
            let m = SwitchingMap::from_flags(flags.clone());
            let packed = m.packed_bytes();
            assert_eq!(packed.len(), n.div_ceil(8), "len {n}");
            let back = SwitchingMap::from_packed(&packed, n);
            assert_eq!(back, m, "len {n}");
            assert_eq!(flags_of(&back), flags, "len {n}");
        }
    }

    #[test]
    fn pack_roundtrip_empty_map() {
        let m = SwitchingMap::empty();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        let packed = m.packed_bytes();
        assert!(packed.is_empty());
        let back = SwitchingMap::from_packed(&packed, 0);
        assert_eq!(back, m);
        assert_eq!(back.sensitive_count(), 0);
    }

    #[test]
    fn pack_roundtrip_all_sensitive_and_all_insensitive() {
        for n in [1usize, 8, 64, 65, 100] {
            let all = SwitchingMap::all_sensitive(n);
            assert_eq!(all.sensitive_count(), n);
            let back = SwitchingMap::from_packed(&all.packed_bytes(), n);
            assert_eq!(back, all, "all-sensitive len {n}");

            let none = SwitchingMap::all_insensitive(n);
            assert_eq!(none.sensitive_count(), 0);
            assert!(none.packed_bytes().iter().all(|&b| b == 0));
            let back = SwitchingMap::from_packed(&none.packed_bytes(), n);
            assert_eq!(back, none, "all-insensitive len {n}");
        }
    }

    #[test]
    fn packed_byte_layout_is_lsb_first() {
        // bit i sits in byte i/8 at position i%8 — the GLB layout the
        // trace codec has always written.
        let mut flags = vec![false; 16];
        flags[0] = true;
        flags[3] = true;
        flags[9] = true;
        let m = SwitchingMap::from_flags(flags);
        assert_eq!(m.packed_bytes(), vec![0b0000_1001, 0b0000_0010]);
    }

    #[test]
    fn from_packed_ignores_slack_bits() {
        // A 3-bit map from a byte with garbage in the high bits must not
        // resurrect them through equality or popcount.
        let m = SwitchingMap::from_packed(&[0b1111_1101], 3);
        assert_eq!(m.sensitive_count(), 2);
        assert_eq!(m, SwitchingMap::from_flags(vec![true, false, true]));
    }

    #[test]
    fn word_combinators_match_bit_iteration_at_tail_lengths() {
        // lengths chosen so len % 64 ∈ {0, 1, 63} plus small/multi-word
        for n in [64usize, 128, 192, 1, 65, 129, 63, 127, 191] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i % 13 == 5).collect();
            let m = SwitchingMap::from_flags(flags.clone());

            // popcount_words sums to sensitive_count and covers all words
            assert_eq!(m.popcount_words().count(), n.div_ceil(64), "len {n}");
            assert_eq!(
                m.popcount_words().map(|c| c as usize).sum::<usize>(),
                m.sensitive_count(),
                "len {n}"
            );

            // iter_words reconstructs exactly the sensitive index set
            let from_words: Vec<usize> = m
                .iter_words()
                .flat_map(|(wi, w)| {
                    (0..64).filter_map(move |b| (w >> b & 1 == 1).then_some(wi * 64 + b))
                })
                .collect();
            let want: Vec<usize> = (0..n).filter(|&i| flags[i]).collect();
            assert_eq!(from_words, want, "len {n}");
        }
    }

    #[test]
    fn iter_words_skips_zero_words() {
        // 3 words; middle word all-insensitive
        let flags: Vec<bool> = (0..192)
            .map(|i| !(64..128).contains(&i) && i % 5 == 0)
            .collect();
        let m = SwitchingMap::from_flags(flags);
        let indices: Vec<usize> = m.iter_words().map(|(wi, _)| wi).collect();
        assert_eq!(indices, vec![0, 2]);

        assert_eq!(SwitchingMap::all_insensitive(200).iter_words().count(), 0);
        assert_eq!(SwitchingMap::empty().iter_words().count(), 0);
        assert_eq!(SwitchingMap::empty().popcount_words().count(), 0);
    }

    #[test]
    fn for_each_sensitive_in_matches_filter() {
        let flags: Vec<bool> = (0..300).map(|i| i % 5 == 0 || i % 17 == 0).collect();
        let m = SwitchingMap::from_flags(flags.clone());
        for (start, end) in [
            (0, 0),
            (0, 300),
            (3, 64),
            (64, 128),
            (60, 70),
            (1, 299),
            (130, 131),
            (0, 1),
            (63, 65),
            (128, 191),
        ] {
            let mut got = Vec::new();
            m.for_each_sensitive_in(start, end, |i| got.push(i));
            let want: Vec<usize> = (start..end).filter(|&i| flags[i]).collect();
            assert_eq!(got, want, "{start}..{end}");
        }
    }

    #[test]
    fn tail_word_straggler_bits_survive_word_iteration() {
        // a single set bit at every boundary-adjacent position
        for n in [64usize, 65, 127, 191] {
            for hot in [0, 1, 62, 63, n - 1] {
                let mut m = SwitchingMap::all_insensitive(n);
                m.union_in_place(&{
                    let mut flags = vec![false; n];
                    flags[hot] = true;
                    SwitchingMap::from_flags(flags)
                });
                let got: Vec<(usize, u64)> = m.iter_words().collect();
                assert_eq!(got.len(), 1, "len {n} hot {hot}");
                assert_eq!(got[0].0, hot / 64, "len {n} hot {hot}");
                assert_eq!(got[0].1, 1u64 << (hot % 64), "len {n} hot {hot}");
                assert_eq!(m.popcount_words().sum::<u32>(), 1, "len {n} hot {hot}");
            }
        }
    }

    #[test]
    fn word_built_map_matches_flag_by_flag_oracle() {
        let theta = 0.75f32;
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            theta,
            -theta,
            f32::from_bits(theta.to_bits() + 1),
            f32::from_bits(theta.to_bits() - 1),
        ];
        let policies = [
            SwitchingPolicy::relu(theta),
            SwitchingPolicy::sigmoid(theta),
            SwitchingPolicy::tanh(theta),
            SwitchingPolicy::gelu(theta),
            SwitchingPolicy::magnitude(theta),
        ];
        for n in [0usize, 1, 63, 64, 65, 130] {
            let y = Tensor::from_fn(&[n], |i| match i % 13 {
                k if k < specials.len() => specials[k],
                k => (k as f32 - 10.0) * 0.5,
            });
            for p in &policies {
                let flags: Vec<bool> = y.data().iter().map(|&v| p.is_sensitive(v)).collect();
                let mut want = vec![0u64; n.div_ceil(64)];
                for (i, &f) in flags.iter().enumerate() {
                    if f {
                        want[i / 64] |= 1 << (i % 64);
                    }
                }
                let m = p.map(&y);
                assert_eq!(m.len(), n, "{p:?} len {n}");
                // exact words, so the tail bits past `n` are zero
                assert_eq!(m.words(), &want[..], "{p:?} len {n}");
                assert_eq!(flags_of(&m), flags, "{p:?} len {n}");
                // the push path builds the same words
                assert_eq!(SwitchingMap::from_flags(flags).words(), &want[..]);
            }
        }
    }

    #[test]
    fn higher_relu_theta_means_more_insensitive() {
        let y = Tensor::from_fn(&[100], |i| i as f32 / 50.0 - 1.0); // [-1, 1)
        let low = SwitchingPolicy::relu(-0.5).map(&y).insensitive_fraction();
        let high = SwitchingPolicy::relu(0.5).map(&y).insensitive_fraction();
        assert!(high > low);
    }

    #[test]
    fn lower_tanh_theta_means_more_insensitive() {
        let y = Tensor::from_fn(&[100], |i| i as f32 / 10.0 - 5.0); // [-5, 5)
        let tight = SwitchingPolicy::tanh(1.0).map(&y).insensitive_fraction();
        let loose = SwitchingPolicy::tanh(4.0).map(&y).insensitive_fraction();
        assert!(tight > loose);
    }
}
