//! Additively homomorphic encryption, simulated: a behavioural stand-in
//! for Paillier.
//!
//! FedMF wraps item-embedding gradients in Paillier ciphertexts so the
//! server can aggregate without reading them. A real Paillier needs
//! arbitrary-precision arithmetic; what the paper's experiments actually
//! exercise is (a) an *exact* additively homomorphic aggregate (up to
//! fixed-point quantization — Paillier encodes reals the same way) and
//! (b) ciphertext expansion on the wire. This module provides both with a
//! shared-key masking scheme:
//!
//! `Enc_k(x, tag) = fp(x) + PRF_k(tag)  (mod 2¹²⁸)`
//!
//! Ciphertext sums decrypt with the summed masks of the contributing
//! tags, which all key holders (the clients) can recompute; the server
//! never holds `k`. The wire size is modelled explicitly as
//! [`HeContext::ciphertext_bytes`] per value, calibrated to 1024-bit
//! Paillier with 2-value packing (64 B/value ⇒ the ≈16× FCF expansion of
//! Table IV). **No security is claimed** — this is a behavioural stand-in.

/// Identifies one encryption so its mask can be reproduced by key holders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MaskTag {
    pub round: u32,
    pub client: u32,
    /// Flat index of the value inside the client's gradient matrix.
    pub index: u32,
}

/// A simulated additively homomorphic cipher with a shared client key.
#[derive(Clone, Copy, Debug)]
pub struct HeContext {
    key: u64,
    /// Fixed-point scale (Paillier-style real encoding).
    pub scale: f64,
    /// Modelled wire bytes per ciphertext value.
    pub ciphertext_bytes: usize,
}

impl HeContext {
    /// 2³² fixed-point steps ≈ 9 decimal digits of gradient precision.
    pub fn new(key: u64) -> Self {
        Self { key, scale: 4_294_967_296.0, ciphertext_bytes: 64 }
    }

    fn fixed_point(&self, x: f32) -> i128 {
        (x as f64 * self.scale).round() as i128
    }

    /// The PRF mask of one tag (SplitMix64 over the tag words).
    fn mask(&self, tag: MaskTag) -> i128 {
        let mut z = self
            .key
            .wrapping_add((tag.round as u64) << 40)
            .wrapping_add((tag.client as u64) << 8)
            .wrapping_add(tag.index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // spread masks over both signs so sums stay centered
        (z as i64) as i128
    }

    /// Encrypts one value under `tag`.
    pub fn encrypt(&self, x: f32, tag: MaskTag) -> i128 {
        self.fixed_point(x).wrapping_add(self.mask(tag))
    }

    /// Homomorphic addition is plain integer addition of ciphertexts.
    pub fn aggregate(ciphertexts: impl IntoIterator<Item = i128>) -> i128 {
        ciphertexts.into_iter().fold(0i128, i128::wrapping_add)
    }

    /// Decrypts an aggregate given every contributing tag.
    pub fn decrypt_sum(&self, ct_sum: i128, tags: impl IntoIterator<Item = MaskTag>) -> f32 {
        let mask_sum = tags.into_iter().fold(0i128, |acc, t| acc.wrapping_add(self.mask(t)));
        (ct_sum.wrapping_sub(mask_sum) as f64 / self.scale) as f32
    }

    /// Encrypts a gradient matrix (flat slice) for `(round, client)`.
    pub fn encrypt_slice(&self, values: &[f32], round: u32, client: u32) -> Vec<i128> {
        values
            .iter()
            .enumerate()
            .map(|(i, &x)| self.encrypt(x, MaskTag { round, client, index: i as u32 }))
            .collect()
    }

    /// Decrypts per-index aggregates contributed by `clients` in `round`.
    pub fn decrypt_aggregate(&self, sums: &[i128], round: u32, clients: &[u32]) -> Vec<f32> {
        sums.iter()
            .enumerate()
            .map(|(i, &ct)| {
                self.decrypt_sum(
                    ct,
                    clients.iter().map(|&c| MaskTag { round, client: c, index: i as u32 }),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_value() {
        let he = HeContext::new(42);
        let tag = MaskTag { round: 3, client: 7, index: 11 };
        let ct = he.encrypt(0.123456, tag);
        let back = he.decrypt_sum(ct, [tag]);
        assert!((back - 0.123456).abs() < 1e-6, "{back}");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let he = HeContext::new(42);
        let tag = MaskTag { round: 0, client: 0, index: 0 };
        let ct = he.encrypt(0.5, tag);
        // without the mask the fixed-point value is ~2^31; the ciphertext
        // must be dominated by the mask
        assert!(
            (ct - he.fixed_point(0.5)).unsigned_abs() > u64::MAX as u128 / 1_000_000,
            "mask too weak: {ct}"
        );
    }

    #[test]
    fn homomorphic_sum_matches_plain_sum() {
        let he = HeContext::new(9);
        let values = [0.25f32, -0.75, 0.125, 2.5];
        let tags: Vec<MaskTag> =
            (0..4).map(|c| MaskTag { round: 1, client: c, index: 0 }).collect();
        let cts: Vec<i128> = values.iter().zip(&tags).map(|(&v, &t)| he.encrypt(v, t)).collect();
        let agg = HeContext::aggregate(cts);
        let sum = he.decrypt_sum(agg, tags);
        let expected: f32 = values.iter().sum();
        assert!((sum - expected).abs() < 1e-5, "{sum} vs {expected}");
    }

    #[test]
    fn slice_roundtrip_across_clients() {
        let he = HeContext::new(77);
        let a = [0.1f32, -0.2, 0.3];
        let b = [1.0f32, 0.5, -0.25];
        let ct_a = he.encrypt_slice(&a, 5, 0);
        let ct_b = he.encrypt_slice(&b, 5, 1);
        let sums: Vec<i128> = ct_a.iter().zip(&ct_b).map(|(&x, &y)| x.wrapping_add(y)).collect();
        let dec = he.decrypt_aggregate(&sums, 5, &[0, 1]);
        for (d, (x, y)) in dec.iter().zip(a.iter().zip(&b)) {
            assert!((d - (x + y)).abs() < 1e-5);
        }
    }

    #[test]
    fn wrong_key_decrypts_garbage() {
        let he = HeContext::new(1);
        let eve = HeContext::new(2);
        let tag = MaskTag { round: 0, client: 0, index: 0 };
        let ct = he.encrypt(0.5, tag);
        let stolen = eve.decrypt_sum(ct, [tag]);
        assert!((stolen - 0.5).abs() > 1.0, "wrong key nearly decrypted: {stolen}");
    }

    #[test]
    fn ciphertext_expansion_matches_table4_ratio() {
        let he = HeContext::new(0);
        // 64 ciphertext bytes per 4 plaintext bytes = the 16× of Table IV
        assert_eq!(he.ciphertext_bytes / 4, 16);
    }
}
