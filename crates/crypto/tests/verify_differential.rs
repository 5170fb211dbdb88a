//! Differential acceptance test for Ed25519 verification.
//!
//! `PublicKey::verify` checks R = [s]B − [k]A in one joint
//! double-scalar loop. It must accept and reject exactly what the
//! original verify did: [s]B == R + [k]A with two separate
//! double-and-add multiplications, kept here as [`reference_verify`].
//! The inputs cover the places where Ed25519 implementations are known to
//! disagree: small-order and mixed-order points as A and as R,
//! non-canonical y ≥ p encodings, and s ≥ ℓ. Field checks pin the
//! addition-chain `invert`/`pow_p58` and the dedicated `square` to the
//! generic operations they replace.

use pol_crypto::bigint;
use pol_crypto::ed25519::{Keypair, Point, PublicKey, Signature};
use pol_crypto::field25519::Fe;
use pol_crypto::hex;
use pol_crypto::scalar;
use pol_crypto::sha512::Sha512;
use proptest::prelude::*;

/// The original verify: two double-and-add scalar multiplications,
/// compared as projective points.
fn reference_verify(public: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    if !scalar::is_canonical(&sig.s) {
        return false;
    }
    let Ok(a) = Point::decompress(&public.0) else { return false };
    let Ok(r) = Point::decompress(&sig.r) else { return false };
    let k = challenge(&sig.r, &public.0, message);
    Point::base().scalar_mul(&sig.s).ct_eq(&r.add(&a.scalar_mul(&k)))
}

/// The RFC 8032 signature computed step by step from public building
/// blocks, with double-and-add for both base-point multiplications.
fn reference_sign(seed: &[u8; 32], message: &[u8]) -> [u8; 64] {
    let h = pol_crypto::sha512(seed);
    let mut a = [0u8; 32];
    a.copy_from_slice(&h[..32]);
    a[0] &= 248;
    a[31] &= 63;
    a[31] |= 64;
    let public = Point::base().scalar_mul(&a).compress();
    let mut hasher = Sha512::new();
    hasher.update(&h[32..]);
    hasher.update(message);
    let r = scalar::reduce64(&hasher.finalize());
    let r_bytes = Point::base().scalar_mul(&r).compress();
    let k = challenge(&r_bytes, &public, message);
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(&r_bytes);
    out[32..].copy_from_slice(&scalar::muladd(&k, &a, &r));
    out
}

/// k = SHA-512(R ‖ A ‖ M) mod ℓ.
fn challenge(r: &[u8; 32], a: &[u8; 32], message: &[u8]) -> [u8; 32] {
    let mut h = Sha512::new();
    h.update(r);
    h.update(a);
    h.update(message);
    scalar::reduce64(&h.finalize())
}

/// Runs both verifiers, asserts they agree, and returns the verdict.
fn agree(public: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    let new = public.verify(message, sig);
    let old = reference_verify(public, message, sig);
    assert_eq!(
        new,
        old,
        "verify disagrees with the reference: A={} R={} s={} msg={}",
        hex::encode(&public.0),
        hex::encode(&sig.r),
        hex::encode(&sig.s),
        hex::encode(message)
    );
    new
}

fn scalar_from(seed: u64) -> [u8; 32] {
    let mut wide = [0u8; 64];
    wide[..8].copy_from_slice(&seed.to_le_bytes());
    scalar::reduce64(&pol_crypto::sha512(&wide))
}

fn mul_base(k: &[u8; 32]) -> Point {
    Point::base().scalar_mul(k)
}

/// The eight points of the torsion subgroup E[8], generated from one
/// point of order 8.
fn torsion() -> Vec<Point> {
    let t8 = Point::decompress(
        &hex::decode_array("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a")
            .unwrap(),
    )
    .unwrap();
    let mut points = vec![Point::identity()];
    for i in 1..8 {
        points.push(points[i - 1].add(&t8));
    }
    assert!(points[7].add(&t8).ct_eq(&Point::identity()), "generator has order 8");
    points
}

/// Signs `message` for the key encoding `a_bytes` with secret scalar
/// `a` (whose public point need not be [a]B when the key is mixed-order).
fn sign_as(a: &[u8; 32], a_bytes: &[u8; 32], nonce: &[u8; 32], message: &[u8]) -> Signature {
    let r = mul_base(nonce).compress();
    let k = challenge(&r, a_bytes, message);
    Signature { r, s: scalar::muladd(&k, a, nonce) }
}

/// Little-endian bytes of p + i (a non-canonical encoding of i when
/// `i < 19`), with the sign bit set when `negative`.
fn non_canonical(i: u8, negative: bool) -> [u8; 32] {
    let mut bytes = [0xffu8; 32];
    bytes[0] = 0xed + i;
    bytes[31] = 0x7f | if negative { 0x80 } else { 0 };
    bytes
}

#[test]
fn small_order_points_as_a_and_as_r() {
    let points = torsion();
    let encodings: Vec<[u8; 32]> = points.iter().map(Point::compress).collect();
    let mut distinct = encodings.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), 8, "E[8] has eight distinct encodings");

    let (mut accepted, mut rejected) = (0, 0);
    for (i, t) in encodings.iter().enumerate() {
        let small = PublicKey(*t);
        for m in 0..16u64 {
            let message = m.to_le_bytes();
            let nonce = scalar_from(1000 * i as u64 + m);
            // Small-order A, honest-looking R = [r]B, s = r: valid iff
            // [k]A vanishes.
            let sig = Signature { r: mul_base(&nonce).compress(), s: nonce };
            if agree(&small, &message, &sig) {
                accepted += 1;
            } else {
                rejected += 1;
            }
            // Small-order R against an honest key: s = k·a makes
            // [s]B = [k]A, so only R = identity verifies.
            let a = scalar_from(77 + m);
            let public = PublicKey(mul_base(&a).compress());
            let k = challenge(t, &public.0, &message);
            let sig = Signature { r: *t, s: scalar::muladd(&k, &a, &[0u8; 32]) };
            assert_eq!(agree(&public, &message, &sig), i == 0);
            // Both small-order, s = 0: valid iff R + [k]A is the identity.
            for u in &encodings {
                let sig = Signature { r: *u, s: [0u8; 32] };
                agree(&PublicKey(*t), &message, &sig);
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "cases must exercise both verdicts");
}

#[test]
fn mixed_order_keys() {
    let (mut accepted, mut rejected) = (0, 0);
    for (i, t) in torsion().iter().enumerate() {
        for m in 0..16u64 {
            let a = scalar_from(31 * i as u64 + m);
            let mixed = mul_base(&a).add(t).compress();
            let message = [m as u8; 5];
            let sig = sign_as(&a, &mixed, &scalar_from(500 + m), &message);
            // [s]B = R + [k]aB, so this verifies iff [k]T vanishes.
            if agree(&PublicKey(mixed), &message, &sig) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "cases must exercise both verdicts");
}

#[test]
fn non_canonical_encodings_of_a_and_r() {
    let kp = Keypair::from_seed(&[5u8; 32]);
    for i in 0..19u8 {
        for negative in [false, true] {
            let odd = non_canonical(i, negative);
            for m in 0..4u8 {
                let message = [m, i];
                let nonce = scalar_from(u64::from(i) * 8 + u64::from(m));
                // As A, with R = [r]B, s = r.
                let sig = Signature { r: mul_base(&nonce).compress(), s: nonce };
                agree(&PublicKey(odd), &message, &sig);
                // As R against an honest signature's s.
                let honest = kp.sign(&message);
                agree(&kp.public, &message, &Signature { r: odd, s: honest.s });
                // As both, s = 0.
                agree(&PublicKey(odd), &message, &Signature { r: odd, s: [0u8; 32] });
            }
        }
    }
    // y = p + 1 is a non-canonical identity: with the identity as A and
    // s = 0 the equation holds, and it must keep verifying because R is
    // compared as a point, never re-encoded.
    let identity_alias = non_canonical(1, false);
    let canonical_identity = Point::identity().compress();
    for a in [identity_alias, canonical_identity] {
        let sig = Signature { r: identity_alias, s: [0u8; 32] };
        assert!(agree(&PublicKey(a), b"any message", &sig), "non-canonical R rejected");
    }
    // A non-canonical A is accepted too: A = p + 1 hashes differently
    // from the canonical identity, but [k]A is still the identity.
    let nonce = scalar_from(9);
    let sig = Signature { r: mul_base(&nonce).compress(), s: nonce };
    assert!(agree(&PublicKey(identity_alias), b"m", &sig), "non-canonical A rejected");
    // x = 0 with the sign bit set is not an encoding.
    let negative_identity = non_canonical(1, true);
    assert!(!agree(&PublicKey(negative_identity), b"m", &sig));
}

#[test]
fn scalars_at_or_above_l_are_rejected() {
    let kp = Keypair::from_seed(&[8u8; 32]);
    let sig = kp.sign(b"order");
    assert!(agree(&kp.public, b"order", &sig));
    let l = bigint::to_le_bytes32(&scalar::L);
    let (s_plus_l, carry) =
        bigint::add256(&bigint::from_le_bytes32(&sig.s), &bigint::from_le_bytes32(&l));
    assert!(!carry);
    for s in [bigint::to_le_bytes32(&s_plus_l), l, [0xff; 32]] {
        assert!(!agree(&kp.public, b"order", &Signature { r: sig.r, s }));
    }
    let (l_minus_1, _) = bigint::sub256(&scalar::L, &[1, 0, 0, 0]);
    agree(&kp.public, b"order", &Signature { r: sig.r, s: bigint::to_le_bytes32(&l_minus_1) });
}

/// p − 2 and (p − 5)/8 as little-endian exponents.
fn p_minus_2() -> [u8; 32] {
    let mut exp = [0xffu8; 32];
    exp[0] = 0xeb;
    exp[31] = 0x7f;
    exp
}

fn p_minus_5_over_8() -> [u8; 32] {
    let mut exp = [0xffu8; 32];
    exp[0] = 0xfd;
    exp[31] = 0x0f;
    exp
}

#[test]
fn field_chains_on_edge_values() {
    let mut top = [0xffu8; 32];
    top[31] = 0x7f; // 2^255 − 1, an unreduced value ≥ p
    for bytes in [[0u8; 32], [1u8; 32], top, non_canonical(0, false), non_canonical(18, false)] {
        let a = Fe::from_bytes(&bytes);
        assert_eq!(a.square(), a.mul(&a));
        assert_eq!(a.invert(), a.pow(&p_minus_2()));
        assert_eq!(a.pow_p58(), a.pow(&p_minus_5_over_8()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Honest signatures verify under both, and any tampering with R, s
    /// or the message gets the same verdict from both. Signing is
    /// byte-identical to the reference computation.
    #[test]
    fn random_keys_messages_and_tampering(
        seed in any::<[u8; 32]>(),
        message in proptest::collection::vec(any::<u8>(), 0..96),
        byte in 0usize..32,
        bit in 0u8..8,
    ) {
        let kp = Keypair::from_seed(&seed);
        let sig = kp.sign(&message);
        prop_assert_eq!(sig.to_bytes().to_vec(), reference_sign(&seed, &message).to_vec());
        prop_assert!(agree(&kp.public, &message, &sig));

        let mut r = sig;
        r.r[byte] ^= 1 << bit;
        agree(&kp.public, &message, &r);
        let mut s = sig;
        s.s[byte] ^= 1 << bit;
        agree(&kp.public, &message, &s);
        let mut tampered = message.clone();
        tampered.push(byte as u8);
        prop_assert!(!agree(&kp.public, &tampered, &sig));
        let mut key = kp.public;
        key.0[byte] ^= 1 << bit;
        agree(&key, &message, &sig);
    }

    /// The dedicated square and the addition chains equal the generic
    /// multiplication and square-and-multiply.
    #[test]
    fn field_square_and_chains_match_generic(bytes in any::<[u8; 32]>()) {
        let a = Fe::from_bytes(&bytes);
        prop_assert_eq!(a.square(), a.mul(&a));
        prop_assert_eq!(a.invert(), a.pow(&p_minus_2()));
        prop_assert_eq!(a.pow_p58(), a.pow(&p_minus_5_over_8()));
    }

    /// The joint double-scalar loop equals two double-and-add
    /// multiplications for arbitrary scalars below 2^255 and points of
    /// any order.
    #[test]
    fn double_scalar_loop_matches_double_and_add(
        a in any::<[u8; 32]>(),
        b in any::<[u8; 32]>(),
        k in any::<u64>(),
        torsion_index in 0usize..8,
    ) {
        let (mut a, mut b) = (a, b);
        a[31] &= 0x7f;
        b[31] &= 0x7f;
        let p = mul_base(&scalar_from(k)).add(&torsion()[torsion_index]);
        let joint = p.vartime_double_scalar_mul_base(&a, &b);
        prop_assert!(joint.ct_eq(&p.scalar_mul(&a).add(&Point::base().scalar_mul(&b))));
    }
}
