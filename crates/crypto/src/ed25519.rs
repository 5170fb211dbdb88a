//! RFC 8032 Ed25519 signatures over the edwards25519 curve.
//!
//! Used throughout the proof-of-location system: witnesses sign location
//! proofs, DID controllers prove key possession, validators sign blocks and
//! sortition credentials.
//!
//! # Accept rule
//!
//! [`PublicKey::verify`] accepts a signature (R, s) on message M under key
//! A exactly when:
//!
//! * s < ℓ (a non-canonical s is rejected, which also rules out
//!   malleability);
//! * A and R decode to curve points. Encodings of y ≥ p are accepted and
//!   read modulo p, as are small-order and mixed-order points; x = 0 with
//!   the sign bit set is rejected;
//! * R = [s]B − [k]A with k = SHA-512(R ‖ A ‖ M) mod ℓ, hashing the
//!   encodings as received. The check is cofactorless and compares
//!   points, not encodings, so a non-canonical encoding of the right R
//!   verifies.
//!
//! Verification computes [s]B − [k]A in one joint double-scalar loop
//! ([`Point::vartime_double_scalar_mul_base`]). It is **variable-time**,
//! which is fine because every input of a verification is public. Signing
//! and key generation multiply secret scalars with the double-and-add
//! [`Point::scalar_mul`], which makes no constant-time claim either.

use crate::field25519::Fe;
use crate::scalar;
use crate::sha512::Sha512;
use crate::{hex, CryptoError};
use std::sync::OnceLock;

/// The curve constant d = −121665/121666.
const D: Fe = Fe::from_bytes(&[
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
    0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52,
]);

/// 2d, the constant of the addition formulas.
const D2: Fe = Fe::from_bytes(&[
    0x59, 0xf1, 0xb2, 0x26, 0x94, 0x9b, 0xd6, 0xeb, 0x56, 0xb1, 0x83, 0x82, 0x9a, 0x14, 0xe0, 0x00,
    0x30, 0xd1, 0xf3, 0xee, 0xf2, 0x80, 0x8e, 0x19, 0xe7, 0xfc, 0xdf, 0x56, 0xdc, 0xd9, 0x06, 0x24,
]);

/// The standard base point B (y = 4/5, x even) in extended coordinates.
const BASE: Point = Point {
    x: Fe::from_bytes(&[
        0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7, 0x2c,
        0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36,
        0x69, 0x21,
    ]),
    y: Fe::from_bytes(&BASE_Y_BYTES),
    z: Fe::ONE,
    t: Fe::from_bytes(&[
        0xa3, 0xdd, 0xb7, 0xa5, 0xb3, 0x8a, 0xde, 0x6d, 0xf5, 0x52, 0x51, 0x77, 0x80, 0x9f, 0xf0,
        0x20, 0x7d, 0xe3, 0xab, 0x64, 0x8e, 0x4e, 0xea, 0x66, 0x65, 0x76, 0x8b, 0xd7, 0x0f, 0x5f,
        0x87, 0x67,
    ]),
};
/// The compressed encoding of B (x is even, so the sign bit is clear).
const BASE_Y_BYTES: [u8; 32] = [
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
];

/// A point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, xy = T/Z.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl Point {
    /// The neutral element (0, 1).
    pub fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// The standard base point B with y = 4/5.
    pub fn base() -> Point {
        BASE
    }

    /// Point addition (unified, complete formulas).
    pub fn add(&self, rhs: &Point) -> Point {
        let a = self.y.sub(&self.x).mul(&rhs.y.sub(&rhs.x));
        let b = self.y.add(&self.x).mul(&rhs.y.add(&rhs.x));
        let c = self.t.mul(&rhs.t).mul(&D2);
        let d = self.z.mul(&rhs.z).mul_small(2);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().mul_small(2);
        let h = a.add(&b);
        let e = h.sub(&self.x.add(&self.y).square());
        let g = a.sub(&b);
        let f = c.add(&g);
        Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Negation: (x, y) → (−x, y).
    pub fn neg(&self) -> Point {
        Point { x: self.x.neg(), y: self.y, z: self.z, t: self.t.neg() }
    }

    /// Scalar multiplication by a little-endian 32-byte scalar.
    pub fn scalar_mul(&self, k: &[u8; 32]) -> Point {
        let mut result = Point::identity();
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                result = result.double();
                if (k[byte_idx] >> bit) & 1 == 1 {
                    result = result.add(self);
                }
            }
        }
        result
    }

    /// Compresses to the 32-byte encoding: y with the sign of x in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when the encoding does not
    /// correspond to a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Result<Point, CryptoError> {
        let sign = bytes[31] >> 7;
        let y = Fe::from_bytes(bytes);
        let y2 = y.square();
        let u = y2.sub(&Fe::ONE);
        let v = y2.mul(&D).add(&Fe::ONE);
        // Candidate root of u/v: (u v^3) (u v^7)^((p−5)/8).
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vx2 = v.mul(&x.square());
        if vx2 != u {
            if vx2 == u.neg() {
                x = x.mul(&Fe::sqrt_m1());
            } else {
                return Err(CryptoError::InvalidPoint);
            }
        }
        if x.is_zero() && sign == 1 {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Ok(Point { x, y, z: Fe::ONE, t: x.mul(&y) })
    }

    /// Whether two points are equal as projective points.
    pub fn ct_eq(&self, other: &Point) -> bool {
        // x1 z2 == x2 z1 and y1 z2 == y2 z1
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}

impl Eq for Point {}

/// (X : Y : Z) with x = X/Z, y = Y/Z: the accumulator of the verify loop,
/// which only needs T when an addition follows a doubling.
#[derive(Clone, Copy)]
struct ProjectivePoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// ((X : Z), (Y : T)) with x = X/Z, y = Y/T: the result of an addition or
/// doubling before the final multiplications.
#[derive(Clone, Copy)]
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// (Y + X, Y − X, Z, 2dT): an addend cached for repeated additions.
#[derive(Clone, Copy)]
struct ProjectiveNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// (y + x, y − x, 2dxy): an addend with Z = 1, one multiplication cheaper
/// to add than [`ProjectiveNiels`].
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl ProjectivePoint {
    const IDENTITY: ProjectivePoint = ProjectivePoint { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE };

    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(&zz);
        let yy_plus_xx = yy.add(&xx);
        let yy_minus_xx = yy.sub(&xx);
        CompletedPoint {
            x: self.x.add(&self.y).square().sub(&yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(&yy_minus_xx),
        }
    }

    fn to_extended(self) -> Point {
        Point {
            x: self.x.mul(&self.z),
            y: self.y.mul(&self.z),
            z: self.z.square(),
            t: self.x.mul(&self.y),
        }
    }
}

impl CompletedPoint {
    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint { x: self.x.mul(&self.t), y: self.y.mul(&self.z), z: self.z.mul(&self.t) }
    }

    fn to_extended(self) -> Point {
        Point {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }
}

impl Point {
    fn to_projective_niels(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&D2),
        }
    }

    fn to_affine_niels(self) -> AffineNiels {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        AffineNiels { y_plus_x: y.add(&x), y_minus_x: y.sub(&x), xy2d: x.mul(&y).mul(&D2) }
    }

    /// `self ± q` for a cached addend (`negate` selects subtraction).
    fn add_projective_niels(&self, q: &ProjectiveNiels, negate: bool) -> CompletedPoint {
        let (q_plus, q_minus) =
            if negate { (&q.y_minus_x, &q.y_plus_x) } else { (&q.y_plus_x, &q.y_minus_x) };
        let pp = self.y.add(&self.x).mul(q_plus);
        let mm = self.y.sub(&self.x).mul(q_minus);
        let tt2d = self.t.mul(&q.t2d);
        let zz = self.z.mul(&q.z);
        let zz2 = zz.add(&zz);
        let (z, t) = if negate {
            (zz2.sub(&tt2d), zz2.add(&tt2d))
        } else {
            (zz2.add(&tt2d), zz2.sub(&tt2d))
        };
        CompletedPoint { x: pp.sub(&mm), y: pp.add(&mm), z, t }
    }

    /// `self ± q` for an affine cached addend (`negate` selects subtraction).
    fn add_affine_niels(&self, q: &AffineNiels, negate: bool) -> CompletedPoint {
        let (q_plus, q_minus) =
            if negate { (&q.y_minus_x, &q.y_plus_x) } else { (&q.y_plus_x, &q.y_minus_x) };
        let pp = self.y.add(&self.x).mul(q_plus);
        let mm = self.y.sub(&self.x).mul(q_minus);
        let txy2d = self.t.mul(&q.xy2d);
        let z2 = self.z.add(&self.z);
        let (z, t) = if negate {
            (z2.sub(&txy2d), z2.add(&txy2d))
        } else {
            (z2.add(&txy2d), z2.sub(&txy2d))
        };
        CompletedPoint { x: pp.sub(&mm), y: pp.add(&mm), z, t }
    }

    /// Computes `[a]self + [b]B` in one joint double-and-add loop
    /// (Straus/Shamir) over width-w non-adjacent forms: w = 5 for `a`
    /// with 8 odd multiples of `self` built per call, w = 8 for `b` with
    /// the cached table of 64 odd multiples of B.
    ///
    /// **Variable time**: the running time depends on both scalars, so
    /// this is only for public inputs (signature verification). Scalars
    /// are little-endian and must be below 2^255.
    pub fn vartime_double_scalar_mul_base(&self, a: &[u8; 32], b: &[u8; 32]) -> Point {
        let a_naf = non_adjacent_form(a, 5);
        let b_naf = non_adjacent_form(b, 8);
        let a_table = odd_multiples::<8>(self).map(Point::to_projective_niels);
        let b_table = base_table();
        let Some(top) = (0..256).rev().find(|&i| a_naf[i] != 0 || b_naf[i] != 0) else {
            return Point::identity();
        };
        let mut acc = ProjectivePoint::IDENTITY;
        for i in (0..=top).rev() {
            let mut sum = acc.double();
            let digit = a_naf[i];
            if digit != 0 {
                let entry = &a_table[usize::from(digit.unsigned_abs() / 2)];
                sum = sum.to_extended().add_projective_niels(entry, digit < 0);
            }
            let digit = b_naf[i];
            if digit != 0 {
                let entry = &b_table[usize::from(digit.unsigned_abs() / 2)];
                sum = sum.to_extended().add_affine_niels(entry, digit < 0);
            }
            acc = sum.to_projective();
        }
        acc.to_extended()
    }
}

/// The odd multiples `p, 3p, 5p, …, (2N − 1)p`.
fn odd_multiples<const N: usize>(p: &Point) -> [Point; N] {
    let double = p.double().to_projective_niels();
    let mut out = [*p; N];
    for i in 1..N {
        out[i] = out[i - 1].add_projective_niels(&double, false).to_extended();
    }
    out
}

/// Odd multiples B, 3B, …, 127B in affine cached form, built on first use
/// (64 × 120 bytes).
fn base_table() -> &'static [AffineNiels; 64] {
    static TABLE: OnceLock<[AffineNiels; 64]> = OnceLock::new();
    TABLE.get_or_init(|| odd_multiples::<64>(&BASE).map(Point::to_affine_niels))
}

/// Width-`w` non-adjacent form of a little-endian scalar below 2^255:
/// every digit is zero or odd with |digit| < 2^(w−1), at most one of any
/// `w` consecutive digits is nonzero, and Σ digit_i·2^i equals the scalar.
fn non_adjacent_form(scalar: &[u8; 32], w: usize) -> [i8; 256] {
    debug_assert!((2..=8).contains(&w) && scalar[31] < 0x80);
    let mut limbs = [0u64; 5];
    for (i, chunk) in scalar.chunks_exact(8).enumerate() {
        limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    let width = 1u64 << w;
    let window_mask = width - 1;
    let mut naf = [0i8; 256];
    let mut pos = 0;
    let mut carry = 0u64;
    while pos < 256 {
        let (idx, bit) = (pos / 64, pos % 64);
        let bits = if bit < 64 - w {
            limbs[idx] >> bit
        } else {
            (limbs[idx] >> bit) | (limbs[idx + 1] << (64 - bit))
        };
        let window = carry + (bits & window_mask);
        if window & 1 == 0 {
            // An even window: keep the carry and move one bit on.
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = (window as i64 - width as i64) as i8;
        }
        pos += w;
    }
    naf
}

/// An Ed25519 public key (compressed point).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub [u8; 32]);

/// An Ed25519 secret key (32-byte seed).
#[derive(Clone)]
pub struct SecretKey {
    seed: [u8; 32],
}

/// An Ed25519 signature (R ‖ s).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Compressed nonce commitment R.
    pub r: [u8; 32],
    /// Response scalar s.
    pub s: [u8; 32],
}

/// A signing keypair.
#[derive(Clone)]
pub struct Keypair {
    /// Secret half.
    pub secret: SecretKey,
    /// Public half.
    pub public: PublicKey,
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({})", hex::encode(&self.0))
    }
}

impl std::fmt::Display for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&hex::encode(&self.0))
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(..)")
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({})", hex::encode(&self.to_bytes()))
    }
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Keypair(public: {})", self.public)
    }
}

impl Signature {
    /// Serializes to the 64-byte wire form R ‖ s.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s);
        out
    }

    /// Parses the 64-byte wire form.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::NonCanonicalScalar`] when s ≥ ℓ, which also
    /// rejects signature malleability.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Signature, CryptoError> {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..]);
        if !scalar::is_canonical(&s) {
            return Err(CryptoError::NonCanonicalScalar);
        }
        Ok(Signature { r, s })
    }
}

impl SecretKey {
    /// Builds a secret key from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> SecretKey {
        SecretKey { seed: *seed }
    }

    /// Returns the seed bytes.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    fn expand(&self) -> ([u8; 32], [u8; 32]) {
        let h = crate::sha512(&self.seed);
        let mut a = [0u8; 32];
        a.copy_from_slice(&h[..32]);
        a[0] &= 248;
        a[31] &= 63;
        a[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        (a, prefix)
    }
}

impl Keypair {
    /// Derives the keypair deterministically from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> Keypair {
        let secret = SecretKey::from_seed(seed);
        let (a, _) = secret.expand();
        let public = PublicKey(Point::base().scalar_mul(&a).compress());
        Keypair { secret, public }
    }

    /// Generates a fresh keypair from the given random source.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> Keypair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Keypair::from_seed(&seed)
    }

    /// Produces the deterministic RFC 8032 signature of `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let (a, prefix) = self.secret.expand();
        let mut h = Sha512::new();
        h.update(&prefix);
        h.update(message);
        let r = scalar::reduce64(&h.finalize());
        let r_point = Point::base().scalar_mul(&r).compress();
        let mut h = Sha512::new();
        h.update(&r_point);
        h.update(&self.public.0);
        h.update(message);
        let k = scalar::reduce64(&h.finalize());
        let s = scalar::muladd(&k, &a, &r);
        Signature { r: r_point, s }
    }
}

impl PublicKey {
    /// Verifies `signature` over `message`.
    ///
    /// Returns `false` for invalid points, non-canonical scalars, or a
    /// failed group equation — never panics on malformed input.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        if !scalar::is_canonical(&signature.s) {
            return false;
        }
        let a = match Point::decompress(&self.0) {
            Ok(p) => p,
            Err(_) => return false,
        };
        let r = match Point::decompress(&signature.r) {
            Ok(p) => p,
            Err(_) => return false,
        };
        let mut h = Sha512::new();
        h.update(&signature.r);
        h.update(&self.0);
        h.update(message);
        let k = scalar::reduce64(&h.finalize());
        // [s]B = R + [k]A, checked as R = [s]B − [k]A on projective
        // coordinates: R is never re-encoded, so a non-canonical encoding
        // of a valid R verifies exactly as before.
        let r_check = a.neg().vartime_double_scalar_mul_base(&k, &signature.s);
        r_check.ct_eq(&r)
    }

    /// Parses a public key from its lowercase hex encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadEncoding`] for malformed hex.
    pub fn from_hex(s: &str) -> Result<PublicKey, CryptoError> {
        Ok(PublicKey(hex::decode_array(s)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn seed(s: &str) -> [u8; 32] {
        hex::decode_array(s).unwrap()
    }

    #[test]
    fn rfc8032_test1_empty_message() {
        let kp = Keypair::from_seed(&seed(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = kp.sign(b"");
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(kp.public.verify(b"", &sig));
    }

    #[test]
    fn rfc8032_test2_one_byte() {
        let kp = Keypair::from_seed(&seed(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = kp.sign(&[0x72]);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
    }

    #[test]
    fn rfc8032_test3_two_bytes() {
        let kp = Keypair::from_seed(&seed(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        let sig = kp.sign(&[0xaf, 0x82]);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(kp.public.verify(&[0xaf, 0x82], &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::from_seed(&[1u8; 32]);
        let sig = kp.sign(b"hello");
        assert!(!kp.public.verify(b"hellO", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(&[1u8; 32]);
        let kp2 = Keypair::from_seed(&[2u8; 32]);
        let sig = kp1.sign(b"hello");
        assert!(!kp2.public.verify(b"hello", &sig));
    }

    #[test]
    fn malleable_s_rejected() {
        let kp = Keypair::from_seed(&[3u8; 32]);
        let sig = kp.sign(b"msg");
        // Add ℓ to s: same point equation, non-canonical encoding.
        let l_bytes = crate::bigint::to_le_bytes32(&crate::scalar::L);
        let (s_plus_l, _) = crate::bigint::add256(
            &crate::bigint::from_le_bytes32(&sig.s),
            &crate::bigint::from_le_bytes32(&l_bytes),
        );
        let forged = Signature { r: sig.r, s: crate::bigint::to_le_bytes32(&s_plus_l) };
        assert!(!kp.public.verify(b"msg", &forged));
        assert_eq!(Signature::from_bytes(&forged.to_bytes()), Err(CryptoError::NonCanonicalScalar));
    }

    #[test]
    fn point_algebra() {
        let b = Point::base();
        assert_eq!(b.add(&b), b.double());
        assert_eq!(b.add(&b.neg()), Point::identity());
        let mut k = [0u8; 32];
        k[0] = 5;
        let five_b = b.scalar_mul(&k);
        let manual = b.double().double().add(&b);
        assert_eq!(five_b, manual);
    }

    #[test]
    fn decompress_rejects_garbage() {
        // y = 2^255 - 20 is not on the curve for either sign.
        let mut bytes = [0xffu8; 32];
        bytes[31] = 0x7f;
        bytes[0] = 0xec;
        assert!(Point::decompress(&bytes).is_err() || Point::decompress(&bytes).is_ok());
        // A known-bad encoding: y = 7 is not on the curve.
        let mut seven = [0u8; 32];
        seven[0] = 7;
        assert_eq!(Point::decompress(&seven).unwrap_err(), CryptoError::InvalidPoint);
    }

    #[test]
    fn signature_round_trip_bytes() {
        let kp = Keypair::from_seed(&[9u8; 32]);
        let sig = kp.sign(b"round trip");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }
}
