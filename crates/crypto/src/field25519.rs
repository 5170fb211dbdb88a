//! Arithmetic in GF(2^255 − 19) with five 51-bit limbs.
#![allow(clippy::needless_range_loop)] // limb indexing mirrors the reference implementation

const MASK: u64 = (1 << 51) - 1;

/// An element of the field GF(2^255 − 19).
///
/// Internal limbs are kept loosely reduced (below ~2^52); [`Fe::to_bytes`]
/// performs the final freeze into canonical form.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Deserializes 32 little-endian bytes, ignoring the top bit. Values
    /// in `[p, 2^255)` are accepted unreduced; arithmetic treats them
    /// modulo p.
    pub const fn from_bytes(bytes: &[u8; 32]) -> Fe {
        Fe([
            load8(bytes, 0) & MASK,
            (load8(bytes, 6) >> 3) & MASK,
            (load8(bytes, 12) >> 6) & MASK,
            (load8(bytes, 19) >> 1) & MASK,
            (load8(bytes, 24) >> 12) & MASK,
        ])
    }

    /// Serializes to 32 little-endian bytes in canonical (frozen) form.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut t = self.reduce_limbs().0;
        // Freeze: determine whether t >= p and conditionally subtract p.
        let mut q = (t[0] + 19) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;
        t[0] += 19 * q;
        let mut carry = t[0] >> 51;
        t[0] &= MASK;
        for i in 1..5 {
            t[i] += carry;
            carry = t[i] >> 51;
            t[i] &= MASK;
        }
        // carry (the 2^255 bit) is discarded, completing reduction mod 2^255−19.
        let mut out = [0u8; 32];
        let words = [
            t[0] | (t[1] << 51),
            (t[1] >> 13) | (t[2] << 38),
            (t[2] >> 26) | (t[3] << 25),
            (t[3] >> 39) | (t[4] << 12),
        ];
        for (i, w) in words.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Field addition.
    pub fn add(&self, rhs: &Fe) -> Fe {
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + rhs.0[i];
        }
        Fe(out).reduce_limbs()
    }

    /// Field subtraction (adds 2p before subtracting to avoid underflow).
    pub fn sub(&self, rhs: &Fe) -> Fe {
        const TWO_P: [u64; 5] = [
            0x000f_ffff_ffff_ffda,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
        ];
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + TWO_P[i] - rhs.0[i];
        }
        Fe(out).reduce_limbs()
    }

    /// Field negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        let a = &self.0;
        let b = &rhs.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        let r0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let r1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let r2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let r3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Field squaring: [`Fe::mul`] with the symmetric cross terms
    /// folded, 15 limb products instead of 25.
    pub fn square(&self) -> Fe {
        let a = &self.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let (a0_2, a1_2, a2_2, a3_2) = (a[0] * 2, a[1] * 2, a[2] * 2, a[3] * 2);
        let (a3_19, a4_19) = (a[3] * 19, a[4] * 19);
        let r0 = m(a[0], a[0]) + m(a1_2, a4_19) + m(a2_2, a3_19);
        let r1 = m(a0_2, a[1]) + m(a2_2, a4_19) + m(a[3], a3_19);
        let r2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_2, a4_19);
        let r3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a[4], a4_19);
        let r4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Squares `k` times: `self^(2^k)`.
    fn pow2k(&self, k: u32) -> Fe {
        let mut out = *self;
        for _ in 0..k {
            out = out.square();
        }
        out
    }

    /// Multiplies by a small scalar constant.
    pub fn mul_small(&self, k: u32) -> Fe {
        let mut wide = [0u128; 5];
        for i in 0..5 {
            wide[i] = u128::from(self.0[i]) * u128::from(k);
        }
        Fe::carry_wide(wide)
    }

    /// Raises to the power encoded by `exp` (32 little-endian bytes,
    /// square-and-multiply from the most significant bit).
    pub fn pow(&self, exp: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        let mut started = false;
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                if started {
                    result = result.square();
                }
                if (exp[byte_idx] >> bit) & 1 == 1 {
                    result = if started { result.mul(self) } else { *self };
                    started = true;
                }
            }
        }
        if started {
            result
        } else {
            Fe::ONE
        }
    }

    /// Returns `(self^(2^250 − 1), self^11)`: the shared prefix of the
    /// addition chains for p − 2 and (p − 5)/8, 249 squarings and 10
    /// multiplications (the generic [`Fe::pow`] needs ~500 operations).
    fn pow22501(&self) -> (Fe, Fe) {
        let t0 = self.square(); // 2
        let t1 = t0.pow2k(2); // 8
        let t2 = self.mul(&t1); // 9
        let t3 = t0.mul(&t2); // 11
        let t4 = t3.square(); // 22
        let t5 = t2.mul(&t4); // 2^5 − 1
        let t7 = t5.pow2k(5).mul(&t5); // 2^10 − 1
        let t9 = t7.pow2k(10).mul(&t7); // 2^20 − 1
        let t11 = t9.pow2k(20).mul(&t9); // 2^40 − 1
        let t13 = t11.pow2k(10).mul(&t7); // 2^50 − 1
        let t15 = t13.pow2k(50).mul(&t13); // 2^100 − 1
        let t17 = t15.pow2k(100).mul(&t15); // 2^200 − 1
        let t19 = t17.pow2k(50).mul(&t13); // 2^250 − 1
        (t19, t3)
    }

    /// Multiplicative inverse (x^(p−2)); returns zero for zero.
    pub fn invert(&self) -> Fe {
        // p − 2 = 2^255 − 21 = (2^250 − 1)·2^5 + 11.
        let (t19, t3) = self.pow22501();
        t19.pow2k(5).mul(&t3)
    }

    /// Raises to (p − 5)/8 = 2^252 − 3, the exponent used by square-root
    /// extraction during point decompression.
    pub fn pow_p58(&self) -> Fe {
        // 2^252 − 3 = (2^250 − 1)·2^2 + 1.
        let (t19, _) = self.pow22501();
        t19.pow2k(2).mul(self)
    }

    /// Whether the canonical encoding is odd (the "sign" bit of x).
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Whether this element is zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Constant √−1 in the field, needed during decompression.
    pub fn sqrt_m1() -> Fe {
        SQRT_M1
    }

    fn carry_wide(mut r: [u128; 5]) -> Fe {
        // Two rounds of carry propagation bring every limb below 2^52.
        for _ in 0..2 {
            for i in 0..4 {
                let c = r[i] >> 51;
                r[i] &= u128::from(MASK);
                r[i + 1] += c;
            }
            let c = r[4] >> 51;
            r[4] &= u128::from(MASK);
            r[0] += c * 19;
        }
        Fe([r[0] as u64, r[1] as u64, r[2] as u64, r[3] as u64, r[4] as u64])
    }

    fn reduce_limbs(self) -> Fe {
        let mut r = self.0;
        let c = r[4] >> 51;
        r[4] &= MASK;
        r[0] += c * 19;
        for i in 0..4 {
            let c = r[i] >> 51;
            r[i] &= MASK;
            r[i + 1] += c;
        }
        let c = r[4] >> 51;
        r[4] &= MASK;
        r[0] += c * 19;
        Fe(r)
    }
}

/// √−1 = 2^((p−1)/4): canonical bytes from the Ed25519 reference.
const SQRT_M1: Fe = Fe::from_bytes(&[
    0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43, 0x2f,
    0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b,
]);

/// Loads 8 little-endian bytes starting at `off` (a `const` stand-in for
/// `u64::from_le_bytes` over a subslice).
const fn load8(bytes: &[u8; 32], off: usize) -> u64 {
    let mut word = 0u64;
    let mut i = 0;
    while i < 8 {
        word |= (bytes[off + i] as u64) << (8 * i);
        i += 1;
    }
    word
}

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe([n & MASK, n >> 51, 0, 0, 0])
    }

    #[test]
    fn add_sub_identities() {
        let a = fe(12345);
        assert_eq!(a.add(&Fe::ZERO), a);
        assert_eq!(a.sub(&a), Fe::ZERO);
        assert_eq!(a.neg().add(&a), Fe::ZERO);
    }

    #[test]
    fn mul_matches_small_products() {
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
        assert_eq!(fe(1 << 30).mul(&fe(1 << 30)), fe(1 << 60));
    }

    #[test]
    fn inverse() {
        let a = fe(987654321);
        assert_eq!(a.mul(&a.invert()), Fe::ONE);
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i.square(), Fe::ONE.neg());
    }

    #[test]
    fn bytes_round_trip() {
        let mut bytes = [0u8; 32];
        bytes[0] = 42;
        bytes[15] = 7;
        bytes[31] = 0x12;
        let a = Fe::from_bytes(&bytes);
        assert_eq!(a.to_bytes(), bytes);
    }

    #[test]
    fn freeze_reduces_p_to_zero() {
        // p itself must serialize as zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = Fe::from_bytes(&p_bytes); // from_bytes masks the top bit but p < 2^255
        assert_eq!(p.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn mul_small_matches_mul() {
        let a = fe(0xdeadbeef);
        assert_eq!(a.mul_small(121666), a.mul(&fe(121666)));
    }
}
