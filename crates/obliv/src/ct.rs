//! Constant-time (branch-free) primitives.
//!
//! These are the reproduction's stand-in for the paper's AVX-512 masked-move
//! compare-and-set (§7): every operation here compiles to straight-line
//! arithmetic with no secret-dependent branches or secret-dependent memory
//! addresses. All higher-level oblivious algorithms are composed from these.

/// A secret boolean, represented as an all-zeros or all-ones `u64` mask.
///
/// Constructing a `Choice` from data is allowed (the *value* may be secret);
/// branching on one is not — use [`Cmov::cmov`] / [`ocmp_swap`] instead. The
/// inner mask is deliberately private so the only way to "open" a `Choice` is
/// [`Choice::declassify`], which makes intentional leaks searchable.
#[derive(Clone, Copy)]
pub struct Choice(u64);

impl Choice {
    /// The false choice.
    pub const FALSE: Choice = Choice(0);
    /// The true choice.
    pub const TRUE: Choice = Choice(u64::MAX);

    /// Builds a choice from a public `bool`.
    #[inline(always)]
    pub fn from_bool(b: bool) -> Choice {
        // (0u64.wrapping_sub(b as u64)) is 0x00..0 or 0xFF..F without branching.
        Choice(0u64.wrapping_sub(b as u64))
    }

    /// Builds a choice from the low bit of a (possibly secret) `u64`.
    #[inline(always)]
    pub fn from_lsb(x: u64) -> Choice {
        Choice(0u64.wrapping_sub(x & 1))
    }

    /// The choice as a secret 0/1 value, for branch-free accumulation
    /// (e.g. obliviously counting marked elements).
    #[inline(always)]
    pub fn as_bit(self) -> u64 {
        self.0 & 1
    }

    /// The full-width mask (0 or `u64::MAX`).
    #[inline(always)]
    pub fn mask(self) -> u64 {
        self.0
    }

    /// Logical AND, branch-free.
    #[inline(always)]
    pub fn and(self, other: Choice) -> Choice {
        Choice(self.0 & other.0)
    }

    /// Logical OR, branch-free.
    #[inline(always)]
    pub fn or(self, other: Choice) -> Choice {
        Choice(self.0 | other.0)
    }

    /// Logical XOR, branch-free.
    #[inline(always)]
    pub fn xor(self, other: Choice) -> Choice {
        Choice(self.0 ^ other.0)
    }

    /// Logical NOT, branch-free. Kept as an inherent method so it chains
    /// like the rest of the combinator family (`a.and(b.not())`); the
    /// `std::ops::Not` impl below provides the `!c` spelling too.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn not(self) -> Choice {
        Choice(!self.0)
    }

    /// Deliberately reveals the secret bit. Every call site is an explicit,
    /// auditable declassification (e.g. the *public* count of kept elements
    /// that oblivious compaction is allowed to reveal).
    #[inline(always)]
    pub fn declassify(self) -> bool {
        self.0 != 0
    }
}

impl std::ops::Not for Choice {
    type Output = Choice;

    #[inline(always)]
    fn not(self) -> Choice {
        Choice::not(self)
    }
}

impl std::fmt::Debug for Choice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Choice(<secret>)")
    }
}

/// Constant-time equality of two `u64`s.
#[inline(always)]
pub fn ct_eq_u64(a: u64, b: u64) -> Choice {
    let diff = a ^ b;
    // diff == 0  ⇔  (diff | diff.wrapping_neg()) has its top bit clear.
    let nonzero = (diff | diff.wrapping_neg()) >> 63;
    Choice(nonzero.wrapping_sub(1))
}

/// Constant-time `a < b` for `u64`s.
#[inline(always)]
pub fn ct_lt_u64(a: u64, b: u64) -> Choice {
    // Classic branch-free unsigned comparison (Hacker's Delight §2-12).
    let t = (!a & b) | ((!a | b) & a.wrapping_sub(b));
    Choice(0u64.wrapping_sub(t >> 63))
}

/// Constant-time `a <= b` for `u64`s.
#[inline(always)]
pub fn ct_le_u64(a: u64, b: u64) -> Choice {
    ct_lt_u64(b, a).not()
}

/// Constant-time equality of two equal-length (public-length) byte slices.
#[inline]
pub fn ct_bytes_eq(a: &[u8], b: &[u8]) -> Choice {
    assert_eq!(a.len(), b.len(), "lengths are public and must match");
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    ct_eq_u64(diff as u64, 0)
}

/// Constant-time select: returns `b` if `cond` else `a`.
#[inline(always)]
pub fn ct_select_u64(cond: Choice, a: u64, b: u64) -> u64 {
    a ^ (cond.mask() & (a ^ b))
}

/// Types supporting an oblivious conditional move.
///
/// `dst.cmov(src, cond)` copies `src` into `dst` iff `cond` is true, touching
/// the same memory either way. This is the paper's "oblivious compare-and-set"
/// target operation.
pub trait Cmov {
    /// Conditionally overwrites `self` with `src`.
    fn cmov(&mut self, src: &Self, cond: Choice);

    /// Conditionally swaps `self` and `other`. Implementations use the xor
    /// trick per word so the swap is a single pass with no temporaries.
    fn cswap(&mut self, other: &mut Self, cond: Choice);
}

/// Implements [`Cmov`] for a struct by delegating to each listed field.
/// Used by the wire types (`Request`, `StoredObject`, ...) across the
/// workspace.
#[macro_export]
macro_rules! impl_cmov_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ct::Cmov for $ty {
            fn cmov(&mut self, src: &Self, cond: $crate::ct::Choice) {
                $( $crate::ct::Cmov::cmov(&mut self.$field, &src.$field, cond); )+
            }
            fn cswap(&mut self, other: &mut Self, cond: $crate::ct::Choice) {
                $( $crate::ct::Cmov::cswap(&mut self.$field, &mut other.$field, cond); )+
            }
        }
    };
}

macro_rules! impl_cmov_uint {
    ($($t:ty),*) => {$(
        impl Cmov for $t {
            #[inline(always)]
            fn cmov(&mut self, src: &Self, cond: Choice) {
                let mask = cond.mask() as $t;
                *self ^= mask & (*self ^ *src);
            }

            #[inline(always)]
            fn cswap(&mut self, other: &mut Self, cond: Choice) {
                let mask = cond.mask() as $t;
                let diff = mask & (*self ^ *other);
                *self ^= diff;
                *other ^= diff;
            }
        }
    )*};
}

impl_cmov_uint!(u8, u16, u32, u64, usize);

impl Cmov for Choice {
    #[inline(always)]
    fn cmov(&mut self, src: &Self, cond: Choice) {
        self.0 ^= cond.mask() & (self.0 ^ src.0);
    }

    #[inline(always)]
    fn cswap(&mut self, other: &mut Self, cond: Choice) {
        let diff = cond.mask() & (self.0 ^ other.0);
        self.0 ^= diff;
        other.0 ^= diff;
    }
}

impl<T: Cmov, const N: usize> Cmov for [T; N] {
    #[inline(always)]
    fn cmov(&mut self, src: &Self, cond: Choice) {
        for (d, s) in self.iter_mut().zip(src.iter()) {
            d.cmov(s, cond);
        }
    }

    #[inline(always)]
    fn cswap(&mut self, other: &mut Self, cond: Choice) {
        for (a, b) in self.iter_mut().zip(other.iter_mut()) {
            a.cswap(b, cond);
        }
    }
}

/// Byte strings of *equal, public* length (object size is public in
/// Snoopy). Panics if the lengths differ, because differing lengths would
/// themselves be a leak the caller must rule out.
///
/// The masked move runs at word granularity — the scalar counterpart of the
/// paper's AVX-512 masked moves (§7).
impl Cmov for [u8] {
    fn cmov(&mut self, src: &Self, cond: Choice) {
        assert_eq!(self.len(), src.len(), "Cmov on byte strings requires equal (public) lengths");
        let mask = cond.mask();
        let mut d_words = self.chunks_exact_mut(8);
        let mut s_words = src.chunks_exact(8);
        for (d, s) in (&mut d_words).zip(&mut s_words) {
            let dw = u64::from_le_bytes((&*d).try_into().unwrap());
            let sw = u64::from_le_bytes(s.try_into().unwrap());
            d.copy_from_slice(&(dw ^ (mask & (dw ^ sw))).to_le_bytes());
        }
        let mask8 = mask as u8;
        for (d, s) in d_words.into_remainder().iter_mut().zip(s_words.remainder().iter()) {
            *d ^= mask8 & (*d ^ *s);
        }
    }

    fn cswap(&mut self, other: &mut Self, cond: Choice) {
        assert_eq!(
            self.len(),
            other.len(),
            "cswap on byte strings requires equal (public) lengths"
        );
        let mask = cond.mask();
        let mut a_words = self.chunks_exact_mut(8);
        let mut b_words = other.chunks_exact_mut(8);
        for (a, b) in (&mut a_words).zip(&mut b_words) {
            let aw = u64::from_le_bytes((&*a).try_into().unwrap());
            let bw = u64::from_le_bytes((&*b).try_into().unwrap());
            let diff = mask & (aw ^ bw);
            a.copy_from_slice(&(aw ^ diff).to_le_bytes());
            b.copy_from_slice(&(bw ^ diff).to_le_bytes());
        }
        let mask8 = mask as u8;
        for (a, b) in a_words.into_remainder().iter_mut().zip(b_words.into_remainder().iter_mut()) {
            let diff = mask8 & (*a ^ *b);
            *a ^= diff;
            *b ^= diff;
        }
    }
}

/// `Vec<u8>` payloads: the byte-string move over the whole vector.
impl Cmov for Vec<u8> {
    #[inline]
    fn cmov(&mut self, src: &Self, cond: Choice) {
        self.as_mut_slice().cmov(src, cond);
    }

    #[inline]
    fn cswap(&mut self, other: &mut Self, cond: Choice) {
        self.as_mut_slice().cswap(other, cond);
    }
}

/// Oblivious compare-and-set on two fields (the paper's `OCmpSet(b, x, y)`):
/// sets `x ← y` iff `b`. Also records a trace event when tracing is enabled.
#[inline]
pub fn ocmp_set<T: Cmov>(cond: Choice, x: &mut T, y: &T) {
    crate::trace::record(crate::trace::TraceEvent::CmpSet);
    x.cmov(y, cond);
}

/// Oblivious compare-and-swap (the paper's `OCmpSwap(b, x, y)`): swaps iff `b`.
#[inline]
pub fn ocmp_swap<T: Cmov>(cond: Choice, x: &mut T, y: &mut T) {
    crate::trace::record(crate::trace::TraceEvent::CmpSwap);
    x.cswap(y, cond);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_works() {
        assert!(ct_eq_u64(5, 5).declassify());
        assert!(!ct_eq_u64(5, 6).declassify());
        assert!(ct_eq_u64(0, 0).declassify());
        assert!(ct_eq_u64(u64::MAX, u64::MAX).declassify());
        assert!(!ct_eq_u64(u64::MAX, 0).declassify());
    }

    #[test]
    fn ct_lt_works_on_edges() {
        let cases = [
            (0u64, 0u64, false),
            (0, 1, true),
            (1, 0, false),
            (u64::MAX, 0, false),
            (0, u64::MAX, true),
            (u64::MAX - 1, u64::MAX, true),
            (u64::MAX, u64::MAX, false),
            (1 << 63, (1 << 63) - 1, false),
            ((1 << 63) - 1, 1 << 63, true),
        ];
        for (a, b, want) in cases {
            assert_eq!(ct_lt_u64(a, b).declassify(), want, "{a} < {b}");
            assert_eq!(ct_le_u64(a, b).declassify(), a <= b, "{a} <= {b}");
        }
    }

    #[test]
    fn select_works() {
        assert_eq!(ct_select_u64(Choice::TRUE, 1, 2), 2);
        assert_eq!(ct_select_u64(Choice::FALSE, 1, 2), 1);
    }

    #[test]
    fn cmov_swap_scalars() {
        let mut a = 10u64;
        let mut b = 20u64;
        ocmp_swap(Choice::FALSE, &mut a, &mut b);
        assert_eq!((a, b), (10, 20));
        ocmp_swap(Choice::TRUE, &mut a, &mut b);
        assert_eq!((a, b), (20, 10));
        ocmp_set(Choice::TRUE, &mut a, &b);
        assert_eq!(a, 10);
    }

    #[test]
    fn cmov_arrays_and_vecs() {
        let mut a = [1u32, 2, 3];
        let b = [7u32, 8, 9];
        a.cmov(&b, Choice::FALSE);
        assert_eq!(a, [1, 2, 3]);
        a.cmov(&b, Choice::TRUE);
        assert_eq!(a, [7, 8, 9]);

        let mut v = vec![0u8; 4];
        let mut w = vec![9u8; 4];
        v.cswap(&mut w, Choice::TRUE);
        assert_eq!(v, vec![9u8; 4]);
        assert_eq!(w, vec![0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "equal (public) lengths")]
    fn vec_cmov_length_mismatch_panics() {
        let mut v = vec![0u8; 4];
        let w = vec![9u8; 5];
        v.cmov(&w, Choice::TRUE);
    }

    #[test]
    fn choice_logic() {
        assert!(Choice::TRUE.and(Choice::TRUE).declassify());
        assert!(!Choice::TRUE.and(Choice::FALSE).declassify());
        assert!(Choice::TRUE.or(Choice::FALSE).declassify());
        assert!(!Choice::FALSE.or(Choice::FALSE).declassify());
        assert!(Choice::TRUE.xor(Choice::FALSE).declassify());
        assert!(!Choice::TRUE.xor(Choice::TRUE).declassify());
        assert!(Choice::FALSE.not().declassify());
        assert!(!Choice::from_bool(false).declassify());
        assert!(Choice::from_bool(true).declassify());
    }

    #[test]
    fn debug_does_not_reveal() {
        assert_eq!(format!("{:?}", Choice::TRUE), "Choice(<secret>)");
        assert_eq!(format!("{:?}", Choice::FALSE), "Choice(<secret>)");
    }
}
