//! Binary BCH codes with hard-decision algebraic decoding.
//!
//! This is the "multi-bit ECC circuitry" of the paper: a t-error-correcting
//! binary BCH code over GF(2^m), shortened to protect one 32-bit data word.
//! Encoding is systematic (division by the generator polynomial); decoding
//! computes syndromes, runs Berlekamp–Massey to obtain the error-locator
//! polynomial, and locates the erroneous bits by Chien search.
//!
//! ## Table-driven hot path
//!
//! The construction precomputes two families of tables, the same
//! decomposition hardware BCH units and software CRC libraries use:
//!
//! * **Encode**: `x^(r+i) mod g(x)` folded into per-data-byte remainder
//!   tables, so the parity of a 32-bit word is 4 table lookups XORed
//!   together instead of a 32×r LFSR bit loop
//!   ([`BchCode::encode_reference`] keeps the LFSR as the specification).
//! * **Syndromes**: per-stored-byte contribution tables for the t *odd*
//!   syndromes (the even ones follow for free from S_2j = S_j² in
//!   characteristic 2), so syndrome computation is `stored_bytes × t`
//!   table XORs instead of `popcount × 2t` discrete-log exponentiations.
//!
//! A **zero-syndrome fast exit** then skips Berlekamp–Massey and Chien
//! search entirely on clean reads — by far the common case at every fault
//! rate the paper studies.

use crate::bitbuf::BitBuf;
use crate::gf2m::{cyclotomic_coset, Gf2m};
use crate::scheme::{BuildSchemeError, Decoded, EccScheme};

/// Maximum supported correction strength for a 32-bit word.
///
/// t = 18 over GF(2^8) needs 32 + 144 = 176 stored bits, still comfortably
/// within [`crate::BitBuf`] capacity; Fig. 4 of the paper explores up to 18
/// correctable bits per word.
pub const MAX_WORD_T: usize = 18;

/// Strengths above this skip the syndrome tables (their size grows with
/// `stored_bytes × 256 × t`); every word-level configuration is far below.
const MAX_TABLE_T: usize = 32;

/// Remainder arithmetic over GF(2)[x] with polynomials packed into the
/// same word layout as [`BitBuf`] (bit i of the array = coefficient of
/// x^i). Degrees stay below `BITBUF_CAPACITY`.
type PolyWords = [u64; 4];

#[inline]
fn poly_test_bit(p: &PolyWords, i: usize) -> bool {
    (p[i / 64] >> (i % 64)) & 1 == 1
}

#[inline]
fn poly_set_bit(p: &mut PolyWords, i: usize) {
    p[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn poly_shl1(p: &mut PolyWords) {
    p[3] = (p[3] << 1) | (p[2] >> 63);
    p[2] = (p[2] << 1) | (p[1] >> 63);
    p[1] = (p[1] << 1) | (p[0] >> 63);
    p[0] <<= 1;
}

#[inline]
fn poly_xor(p: &mut PolyWords, q: &PolyWords) {
    p[0] ^= q[0];
    p[1] ^= q[1];
    p[2] ^= q[2];
    p[3] ^= q[3];
}

#[inline]
fn poly_clear_bit(p: &mut PolyWords, i: usize) {
    p[i / 64] &= !(1u64 << (i % 64));
}

/// A t-error-correcting binary BCH code shortened to `data_bits` payload bits.
///
/// # Examples
///
/// ```
/// use chunkpoint_ecc::{BchCode, EccScheme, Decoded};
///
/// let code = BchCode::for_word(3)?; // corrects any 3 bit flips
/// let mut stored = code.encode(0xA5A5_5A5A);
/// stored.flip(0);
/// stored.flip(17);
/// stored.flip(33);
/// assert_eq!(
///     code.decode(&stored),
///     Decoded::Corrected { data: 0xA5A5_5A5A, bits_corrected: 3 }
/// );
/// # Ok::<(), chunkpoint_ecc::BuildSchemeError>(())
/// ```
#[derive(Clone)]
pub struct BchCode {
    field: Gf2m,
    t: usize,
    /// Natural code length 2^m - 1.
    n: usize,
    /// Payload bits actually stored (the code is shortened from k to this).
    data_bits: usize,
    /// Generator polynomial over GF(2); index = degree, values 0/1.
    generator: Vec<u8>,
    /// Degree of the generator = number of check bits.
    r: usize,
    /// Cached display name, so `name()` never allocates.
    name: String,
    /// `enc_tables[byte_index * 256 + value]` = parity remainder of data
    /// byte `byte_index` holding `value` (only built for 32-bit payloads).
    enc_tables: Option<Vec<PolyWords>>,
    /// `synd_tables[(byte_pos * 256 + value) * t + j]` = contribution of
    /// stored byte `byte_pos` holding `value` to odd syndrome S_(2j+1).
    synd_tables: Option<Vec<u16>>,
}

impl std::fmt::Debug for BchCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BchCode")
            .field("t", &self.t)
            .field("m", &self.field.m())
            .field("n", &self.n)
            .field("data_bits", &self.data_bits)
            .field("r", &self.r)
            .field(
                "enc_tables",
                &self
                    .enc_tables
                    .as_ref()
                    .map(|t| format!("<{} entries>", t.len())),
            )
            .field(
                "synd_tables",
                &self
                    .synd_tables
                    .as_ref()
                    .map(|t| format!("<{} entries>", t.len())),
            )
            .finish_non_exhaustive()
    }
}

impl BchCode {
    /// Builds a BCH code over GF(2^m) correcting `t` errors with
    /// `data_bits` payload bits.
    ///
    /// # Errors
    ///
    /// Returns an error if the field degree is unsupported, if `t` is zero
    /// or too large for the field, or if the resulting dimension `k` cannot
    /// hold `data_bits` payload bits.
    pub fn new(m: u32, t: usize, data_bits: usize) -> Result<Self, BuildSchemeError> {
        if t == 0 {
            return Err(BuildSchemeError::new("bch requires t >= 1"));
        }
        let field = Gf2m::new(m).map_err(|e| BuildSchemeError::new(format!("bch field: {e}")))?;
        let n = field.order() as usize;
        if 2 * t >= n {
            return Err(BuildSchemeError::new(format!(
                "t = {t} too large for code length n = {n}"
            )));
        }
        let generator = compute_generator(&field, t)?;
        let r = generator.len() - 1;
        let k = n - r;
        if k < data_bits {
            return Err(BuildSchemeError::new(format!(
                "bch(m={m}, t={t}) has k = {k} < {data_bits} payload bits"
            )));
        }
        if r + data_bits > crate::bitbuf::BITBUF_CAPACITY {
            return Err(BuildSchemeError::new(format!(
                "stored word of {} bits exceeds buffer capacity",
                r + data_bits
            )));
        }
        let name = format!("BCH(t={t}, m={m})");
        let mut code = Self {
            field,
            t,
            n,
            data_bits,
            generator,
            r,
            name,
            enc_tables: None,
            synd_tables: None,
        };
        code.enc_tables = code.build_enc_tables();
        code.synd_tables = code.build_synd_tables();
        Ok(code)
    }

    /// Builds the most area-efficient code correcting `t` errors in one
    /// 32-bit word: the smallest field degree whose dimension fits 32
    /// payload bits.
    ///
    /// # Errors
    ///
    /// Returns an error when `t` is zero or above [`MAX_WORD_T`].
    pub fn for_word(t: usize) -> Result<Self, BuildSchemeError> {
        Self::new(BchGeometry::for_word(t)?.m, t, 32)
    }

    /// Correction strength t.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// Field degree m.
    #[must_use]
    pub fn m(&self) -> u32 {
        self.field.m()
    }

    /// Generator polynomial coefficients over GF(2) (index = degree).
    #[must_use]
    pub fn generator(&self) -> &[u8] {
        &self.generator
    }

    fn stored_len(&self) -> usize {
        self.r + self.data_bits
    }

    /// Per-data-byte encode remainder tables: entry `[i][b]` is
    /// `Σ_{k ∈ bits(b)} x^(r + 8i + k) mod g(x)`, so a 32-bit payload
    /// encodes with 4 lookups + XOR folds.
    fn build_enc_tables(&self) -> Option<Vec<PolyWords>> {
        if self.data_bits != 32 {
            // Narrow payloads only occur in generator unit tests; they keep
            // the bit-serial reference path.
            return None;
        }
        // bit_rem[i] = x^(r+i) mod g, built incrementally: multiplying by x
        // shifts, and a resulting x^r term folds back as g - x^r.
        let mut g_low: PolyWords = [0; 4]; // g(x) minus its leading term
        for (deg, &coeff) in self.generator.iter().enumerate().take(self.r) {
            if coeff == 1 {
                poly_set_bit(&mut g_low, deg);
            }
        }
        let mut bit_rem: Vec<PolyWords> = Vec::with_capacity(self.data_bits);
        let mut current: PolyWords = g_low; // x^r mod g
        bit_rem.push(current);
        for _ in 1..self.data_bits {
            poly_shl1(&mut current);
            if poly_test_bit(&current, self.r) {
                poly_clear_bit(&mut current, self.r);
                poly_xor(&mut current, &g_low);
            }
            bit_rem.push(current);
        }
        let mut tables = vec![[0u64; 4]; 4 * 256];
        for byte_index in 0..4usize {
            for value in 1usize..256 {
                let lower = value & (value - 1);
                let bit = value.trailing_zeros() as usize;
                let mut entry = tables[byte_index * 256 + lower];
                poly_xor(&mut entry, &bit_rem[byte_index * 8 + bit]);
                tables[byte_index * 256 + value] = entry;
            }
        }
        Some(tables)
    }

    /// Per-stored-byte odd-syndrome contribution tables.
    fn build_synd_tables(&self) -> Option<Vec<u16>> {
        if self.t > MAX_TABLE_T {
            return None;
        }
        let t = self.t;
        let bytes = self.stored_len().div_ceil(8);
        let mut tables = vec![0u16; bytes * 256 * t];
        for byte_pos in 0..bytes {
            for value in 1usize..256 {
                let lower = value & (value - 1);
                let bit = value.trailing_zeros() as usize;
                let pos = byte_pos * 8 + bit;
                let base = (byte_pos * 256 + value) * t;
                let lower_base = (byte_pos * 256 + lower) * t;
                for j in 0..t {
                    let contrib = if pos < self.stored_len() {
                        self.field.alpha_pow(pos as u64 * (2 * j as u64 + 1))
                    } else {
                        0
                    };
                    tables[base + j] = tables[lower_base + j] ^ contrib;
                }
            }
        }
        Some(tables)
    }

    /// Computes the 2t syndromes of a stored word; `None` means all-zero
    /// (the clean-read fast exit: no Berlekamp–Massey, no Chien search).
    ///
    /// Table path: fold the per-byte contributions of the t odd syndromes,
    /// then square up the even ones (S_2j = S_j² over GF(2^m)).
    fn syndromes(&self, stored: &BitBuf) -> Option<Vec<u16>> {
        let mut odd = [0u16; MAX_TABLE_T];
        match self.odd_syndromes(stored, &mut odd) {
            None => return self.syndromes_reference(stored),
            Some(false) => return None,
            Some(true) => {}
        }
        let mut synd = vec![0u16; 2 * self.t];
        self.expand_syndromes(&odd, &mut synd);
        Some(synd)
    }

    /// Table-driven odd-syndrome fold into a caller-provided buffer.
    /// Returns `None` when no tables are built (fall back to the
    /// reference), otherwise whether any odd syndrome is nonzero. All odd
    /// syndromes vanishing means the whole vector is zero — every even
    /// syndrome is a square of some odd one (S_(2^a·o) = S_o^(2^a)).
    #[inline]
    fn odd_syndromes(&self, stored: &BitBuf, odd: &mut [u16; MAX_TABLE_T]) -> Option<bool> {
        let tables = self.synd_tables.as_deref()?;
        let t = self.t;
        for (byte_pos, value) in stored.bytes().enumerate() {
            if value == 0 {
                continue;
            }
            let base = (byte_pos * 256 + value as usize) * t;
            let row = &tables[base..base + t];
            for (acc, &contrib) in odd[..t].iter_mut().zip(row) {
                *acc ^= contrib;
            }
        }
        let mut nonzero = 0u16;
        for &s in &odd[..t] {
            nonzero |= s;
        }
        Some(nonzero != 0)
    }

    /// Expands the t odd syndromes into the full 2t vector by Frobenius
    /// squaring (S_2k = S_k² over GF(2^m)).
    fn expand_syndromes(&self, odd: &[u16; MAX_TABLE_T], synd: &mut [u16]) {
        let t = self.t;
        for j in 0..t {
            synd[2 * j] = odd[j];
        }
        for k in 1..=t {
            let s = synd[k - 1];
            synd[2 * k - 1] = self.field.mul(s, s);
        }
    }

    /// Bit-serial reference syndrome computation (walks every set stored
    /// bit and exponentiates per syndrome), kept as the specification the
    /// table path is differentially tested and benchmarked against.
    #[doc(hidden)]
    pub fn syndromes_reference(&self, stored: &BitBuf) -> Option<Vec<u16>> {
        let mut synd = vec![0u16; 2 * self.t];
        let mut any = false;
        for pos in stored.iter_ones() {
            for (j, s) in synd.iter_mut().enumerate() {
                *s ^= self.field.alpha_pow(pos as u64 * (j as u64 + 1));
            }
        }
        for &s in &synd {
            if s != 0 {
                any = true;
                break;
            }
        }
        if any {
            Some(synd)
        } else {
            None
        }
    }

    /// Whether the stored word is a codeword (zero syndrome) — the
    /// clean-read fast-exit predicate, exposed for tests and benches.
    #[must_use]
    pub fn is_codeword(&self, stored: &BitBuf) -> bool {
        self.syndromes(stored).is_none()
    }

    /// Berlekamp–Massey: returns the error-locator polynomial σ(x)
    /// (index = degree) or `None` when the syndrome sequence is
    /// inconsistent with ≤ t errors.
    fn berlekamp_massey(&self, synd: &[u16]) -> Option<Vec<u16>> {
        let f = &self.field;
        let mut sigma = vec![0u16; self.t + 2];
        let mut prev = vec![0u16; self.t + 2];
        sigma[0] = 1;
        prev[0] = 1;
        let mut l = 0usize;
        let mut shift = 1usize;
        let mut b = 1u16;
        for step in 0..2 * self.t {
            // Discrepancy d = S[step] + Σ σ_i · S[step-i].
            let mut d = synd[step];
            for i in 1..=l.min(step) {
                d ^= f.mul(sigma[i], synd[step - i]);
            }
            if d == 0 {
                shift += 1;
            } else if 2 * l <= step {
                let saved = sigma.clone();
                let scale = f.div(d, b);
                for i in 0..sigma.len().saturating_sub(shift) {
                    let delta = f.mul(scale, prev[i]);
                    if i + shift < sigma.len() {
                        sigma[i + shift] ^= delta;
                    } else if delta != 0 {
                        return None; // locator degree overflow
                    }
                }
                l = step + 1 - l;
                prev = saved;
                b = d;
                shift = 1;
            } else {
                let scale = f.div(d, b);
                for i in 0..sigma.len().saturating_sub(shift) {
                    let delta = f.mul(scale, prev[i]);
                    if i + shift < sigma.len() {
                        sigma[i + shift] ^= delta;
                    } else if delta != 0 {
                        return None;
                    }
                }
                shift += 1;
            }
        }
        let degree = sigma.iter().rposition(|&c| c != 0)?;
        if degree != l || l > self.t {
            return None;
        }
        sigma.truncate(degree + 1);
        Some(sigma)
    }

    /// Chien search: returns erroneous bit positions (must all lie in the
    /// stored, non-shortened region) or `None` on failure.
    fn chien_search(&self, sigma: &[u16]) -> Option<Vec<usize>> {
        let f = &self.field;
        let degree = sigma.len() - 1;
        let mut roots = Vec::with_capacity(degree);
        for pos in 0..self.n {
            // σ(α^{-pos}) == 0 ⇔ error at position `pos`.
            let x = f.alpha_pow((self.n - pos % self.n) as u64 % f.order() as u64);
            if f.eval_poly(sigma, x) == 0 {
                if pos >= self.stored_len() {
                    // Error "located" in the shortened (virtual zero) region:
                    // impossible for a real channel error, so the pattern
                    // exceeded the code's capability.
                    return None;
                }
                roots.push(pos);
                if roots.len() == degree {
                    break;
                }
            }
        }
        if roots.len() == degree {
            Some(roots)
        } else {
            None
        }
    }

    /// Bit-serial reference encoder: the 32×r LFSR division a minimal
    /// hardware encoder implements, kept as the specification the table
    /// path is differentially tested and benchmarked against.
    #[must_use]
    pub fn encode_reference(&self, data: u32) -> BitBuf {
        let mut stored = BitBuf::new(self.stored_len());
        stored.insert_u32(self.r, data);
        // Systematic encoding: parity = (x^r · m(x)) mod g(x).
        let mut rem = vec![0u8; self.r];
        for bit in (0..self.data_bits).rev() {
            let feedback = u8::from((data >> bit) & 1 == 1) ^ rem[self.r - 1];
            for i in (1..self.r).rev() {
                rem[i] = rem[i - 1] ^ (feedback & self.generator[i]);
            }
            rem[0] = feedback & self.generator[0];
        }
        for (i, &bit) in rem.iter().enumerate() {
            if bit == 1 {
                stored.set(i, true);
            }
        }
        stored
    }

    /// Reference decoder driven by [`Self::syndromes_reference`]; same
    /// Berlekamp–Massey and Chien machinery, bit-serial syndrome path.
    #[must_use]
    pub fn decode_reference(&self, stored: &BitBuf) -> Decoded {
        assert_eq!(
            stored.len(),
            self.stored_len(),
            "stored word length mismatch for {}",
            self.name
        );
        let Some(synd) = self.syndromes_reference(stored) else {
            return Decoded::Clean {
                data: stored.extract_u32(self.r),
            };
        };
        self.decode_with_syndromes(stored, &synd)
    }

    /// Allocation-free correction tail for word-level strengths
    /// (`t <= MAX_TABLE_T`): Berlekamp–Massey over stack arrays, then a
    /// log-domain *incremental* Chien search restricted to the stored
    /// region (positions in the shortened tail cannot carry channel
    /// errors, and missing roots there surface as a count mismatch
    /// exactly as in the full scan).
    fn decode_fast_tail(&self, stored: &BitBuf, synd: &[u16], odd: &[u16; MAX_TABLE_T]) -> Decoded {
        const CAP: usize = MAX_TABLE_T + 2;
        let f = &self.field;
        let slen = self.t + 2;
        let mut sigma = [0u16; CAP];
        let mut prev = [0u16; CAP];
        let mut saved = [0u16; CAP];
        sigma[0] = 1;
        prev[0] = 1;
        let mut l = 0usize;
        let mut shift = 1usize;
        let mut b = 1u16;
        // Live coefficient counts: σ and the previous iterate start as the
        // constant 1, and only the occupied prefixes are scaled/copied.
        let mut sigma_len = 1usize;
        let mut prev_len = 1usize;
        for step in 0..2 * self.t {
            // Binary-code shortcut: syndromes of *any* binary vector
            // satisfy S_2j = S_j² (Frobenius), which makes the
            // discrepancy at every even-syndrome step provably zero
            // (Berlekamp's simplification) — half the iterations reduce
            // to a shift.
            if step % 2 == 1 {
                debug_assert_eq!(
                    {
                        let mut d = synd[step];
                        for i in 1..=l.min(step) {
                            d ^= f.mul(sigma[i], synd[step - i]);
                        }
                        d
                    },
                    0,
                    "nonzero even-step discrepancy in binary BM"
                );
                shift += 1;
                continue;
            }
            let lim = l.min(step);
            let mut d = synd[step];
            // d ^= Σ σ_i · S[step−i], bounds-check-free via zipped slices.
            for (&s_i, &syn) in sigma[1..=lim]
                .iter()
                .zip(synd[step - lim..step].iter().rev())
            {
                d ^= f.mul(s_i, syn);
            }
            if d == 0 {
                shift += 1;
                continue;
            }
            let scale_log = f.log(f.div(d, b));
            let promote = 2 * l <= step;
            let sigma_len_before = sigma_len;
            if promote {
                saved[..sigma_len_before].copy_from_slice(&sigma[..sigma_len_before]);
            }
            // σ(x) ^= scale · x^shift · prev(x), clipped to the σ buffer
            // exactly as the reference loop clips it.
            let span = prev_len.min(slen.saturating_sub(shift));
            for i in 0..span {
                sigma[i + shift] ^= f.mul_log(prev[i], scale_log);
            }
            sigma_len = sigma_len.max((span + shift).min(slen));
            if promote {
                l = step + 1 - l;
                prev[..sigma_len_before].copy_from_slice(&saved[..sigma_len_before]);
                prev_len = sigma_len_before;
                b = d;
                shift = 1;
            } else {
                shift += 1;
            }
        }
        let Some(degree) = sigma[..slen].iter().rposition(|&c| c != 0) else {
            return Decoded::DetectedUncorrectable;
        };
        if degree != l || l > self.t {
            return Decoded::DetectedUncorrectable;
        }
        // Chien search with root deflation. Positions are scanned in
        // ascending order evaluating the *remaining* locator in the log
        // domain (term i advances by α^{-i} per position); every root
        // found divides the locator down by synthetic division, so the
        // tail of the scan evaluates fewer terms — and once a single
        // linear factor remains, its root follows in closed form with no
        // scan at all (the whole search for the dominant 1-flip case).
        debug_assert_eq!(sigma[0], 1, "BM must keep sigma normalized");
        #[inline]
        fn reduce(x: u32, order: u32) -> u32 {
            if x >= order {
                x - order
            } else {
                x
            }
        }
        let order = f.order();
        let stored_len = self.stored_len();
        let mut c = [0u16; CAP];
        c[..=degree].copy_from_slice(&sigma[..=degree]);
        let mut deg = degree;
        let mut roots = [0usize; MAX_TABLE_T];
        let mut found = 0usize;
        let mut next_pos = 0usize;
        let mut logs = [0u32; CAP];
        let mut steps = [0u32; CAP];
        while deg > 1 {
            // Log-domain terms of the current locator, phased to start
            // the scan at `next_pos`. The phase −i·next_pos mod order is
            // accumulated incrementally — no multiply, no division
            // (next_pos < stored_len <= order keeps each increment small).
            let mut terms = 0usize;
            let mut i_times_pos = 0u32;
            for (k, &coeff) in c[1..=deg].iter().enumerate() {
                i_times_pos = reduce(i_times_pos + next_pos as u32, order);
                if coeff != 0 {
                    let step = order - (k as u32 + 1);
                    let phase = reduce(order - i_times_pos, order);
                    logs[terms] = reduce(u32::from(f.log(coeff)) + phase, order);
                    steps[terms] = step;
                    terms += 1;
                }
            }
            let seed = c[0]; // constant term, never zero (σ(0) = σ_0 = 1)
            debug_assert_ne!(seed, 0);
            let mut root: Option<usize> = None;
            let mut pos = next_pos;
            'scan: while pos < stored_len {
                let block = (stored_len - pos).min(4);
                let mut acc = [seed; 4];
                for k in 0..terms {
                    let step = steps[k];
                    let mut l = logs[k];
                    for a in &mut acc {
                        *a ^= f.exp_raw(l as usize);
                        l = reduce(l + step, order);
                    }
                    logs[k] = l;
                }
                for (j, &a) in acc[..block].iter().enumerate() {
                    if a == 0 {
                        root = Some(pos + j);
                        break 'scan;
                    }
                }
                pos += block;
            }
            let Some(p) = root else {
                // Fewer than `degree` roots in the stored region: the
                // pattern exceeded the code's capability.
                return Decoded::DetectedUncorrectable;
            };
            roots[found] = p;
            found += 1;
            // Deflate: c(x) / (x − α^{-p}) by synthetic division
            // (p < stored_len <= order, so the negation needs no modulo).
            let r_log = reduce(order - p as u32, order) as u16;
            let mut carry = c[deg];
            for i in (1..deg).rev() {
                let next = c[i] ^ f.mul_log(carry, r_log);
                c[i] = carry;
                carry = next;
            }
            debug_assert_eq!(
                c[0] ^ f.mul_log(carry, r_log),
                0,
                "nonzero remainder deflating a located root"
            );
            c[0] = carry;
            c[deg] = 0;
            deg -= 1;
            next_pos = p + 1;
        }
        if deg == 1 {
            // Last linear factor c_0 + c_1·x: root x = c_0/c_1 = α^{-p}.
            debug_assert_ne!(c[0], 0);
            if c[1] == 0 {
                return Decoded::DetectedUncorrectable;
            }
            let p = reduce(
                u32::from(f.log(c[1])) + order - u32::from(f.log(c[0])),
                order,
            ) as usize;
            // The root must lie in the unscanned stored region; anything
            // else (shortened tail, or a position already ruled out —
            // e.g. a repeated root) exceeds the code's capability.
            if p < next_pos || p >= stored_len {
                return Decoded::DetectedUncorrectable;
            }
            roots[found] = p;
            found += 1;
        }
        if found != degree {
            return Decoded::DetectedUncorrectable;
        }
        // Re-check: a pattern beyond t errors can produce a bogus locator
        // whose roots do not reproduce the received syndromes (hardware
        // decoders do the same post-correction check). Here it is the
        // XOR of the located bits' table rows against the original odd
        // syndromes — `found × t` lookups, no second pass over the word.
        let tables = self
            .synd_tables
            .as_deref()
            .expect("fast tail only runs with tables");
        let t = self.t;
        let mut delta = [0u16; MAX_TABLE_T];
        for &pos in &roots[..found] {
            let base = ((pos / 8) * 256 + (1 << (pos % 8))) * t;
            let row = &tables[base..base + t];
            for (acc, &contrib) in delta[..t].iter_mut().zip(row) {
                *acc ^= contrib;
            }
        }
        if delta[..t] != odd[..t] {
            return Decoded::DetectedUncorrectable;
        }
        let mut fixed = *stored;
        for &pos in &roots[..found] {
            fixed.flip(pos);
        }
        Decoded::Corrected {
            data: fixed.extract_u32(self.r),
            bits_corrected: found as u32,
        }
    }

    /// Reference correction tail: Berlekamp–Massey, Chien search,
    /// in-place correction, and the post-correction syndrome re-check,
    /// all on the bit-serial reference paths.
    fn decode_with_syndromes(&self, stored: &BitBuf, synd: &[u16]) -> Decoded {
        let Some(sigma) = self.berlekamp_massey(synd) else {
            return Decoded::DetectedUncorrectable;
        };
        let Some(positions) = self.chien_search(&sigma) else {
            return Decoded::DetectedUncorrectable;
        };
        let mut fixed = *stored;
        for &pos in &positions {
            fixed.flip(pos);
        }
        // Re-check: a pattern beyond t errors can produce a bogus locator;
        // hardware decoders do the same post-correction syndrome check.
        if self.syndromes_reference(&fixed).is_some() {
            return Decoded::DetectedUncorrectable;
        }
        Decoded::Corrected {
            data: fixed.extract_u32(self.r),
            bits_corrected: positions.len() as u32,
        }
    }
}

impl EccScheme for BchCode {
    fn name(&self) -> &str {
        &self.name
    }

    fn check_bits(&self) -> usize {
        self.r
    }

    fn correctable_bits(&self) -> usize {
        self.t
    }

    fn detectable_bits(&self) -> usize {
        // Designed distance 2t + 1: while correcting up to t errors the
        // code is only *guaranteed* to flag patterns of up to t further
        // bits (correct-c/detect-d requires c + d < d_min).
        self.t
    }

    fn encode(&self, data: u32) -> BitBuf {
        let Some(tables) = &self.enc_tables else {
            return self.encode_reference(data);
        };
        debug_assert_eq!(self.data_bits, 32);
        let mut rem: PolyWords = [0; 4];
        for (byte_index, value) in data.to_le_bytes().into_iter().enumerate() {
            poly_xor(&mut rem, &tables[byte_index * 256 + value as usize]);
        }
        let mut stored = BitBuf::new(self.stored_len());
        *stored.as_words_mut() = rem;
        stored.or_u32_at(data, self.r);
        stored
    }

    fn decode(&self, stored: &BitBuf) -> Decoded {
        assert_eq!(
            stored.len(),
            self.stored_len(),
            "stored word length mismatch for {}",
            self.name
        );
        // Zero-syndrome fast exit: clean reads never reach the algebraic
        // machinery below. The whole fast path is heap-free — syndromes
        // live in stack arrays.
        let mut odd = [0u16; MAX_TABLE_T];
        match self.odd_syndromes(stored, &mut odd) {
            Some(false) => Decoded::Clean {
                data: stored.extract_u32(self.r),
            },
            Some(true) => {
                let mut synd = [0u16; 2 * MAX_TABLE_T];
                self.expand_syndromes(&odd, &mut synd[..2 * self.t]);
                self.decode_fast_tail(stored, &synd[..2 * self.t], &odd)
            }
            None => {
                // No tables (t beyond the table bound): reference path.
                let Some(synd) = self.syndromes_reference(stored) else {
                    return Decoded::Clean {
                        data: stored.extract_u32(self.r),
                    };
                };
                self.decode_with_syndromes(stored, &synd)
            }
        }
    }

    fn encode_block(&self, data: &[u32], out: &mut [BitBuf]) {
        assert_eq!(
            data.len(),
            out.len(),
            "encode_block length mismatch for {}",
            self.name
        );
        // Specialized batch path: `self.encode` resolves statically inside
        // this impl, so the whole block costs one virtual dispatch and the
        // remainder tables stay hot across it.
        for (&word, slot) in data.iter().zip(out.iter_mut()) {
            *slot = self.encode(word);
        }
    }
}

/// The shape of a word-level BCH code: its field degree and check-bit
/// count, which is all a cost model needs of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BchGeometry {
    /// Field degree m of GF(2^m).
    pub(crate) m: u32,
    /// Check bits r per word: the degree of the generator polynomial.
    pub(crate) check_bits: usize,
}

impl BchGeometry {
    /// The geometry of [`BchCode::for_word`]`(t)` without building the
    /// code: r is the total size of the distinct cyclotomic cosets of
    /// 1, 3, …, 2t−1 (the degrees of the generator's minimal-polynomial
    /// factors), so no field, generator or codec table is constructed.
    /// Memoised per strength.
    ///
    /// # Errors
    ///
    /// Returns an error when `t` is zero or above [`MAX_WORD_T`].
    pub(crate) fn for_word(t: usize) -> Result<Self, BuildSchemeError> {
        static WORD: std::sync::OnceLock<[Option<BchGeometry>; MAX_WORD_T]> =
            std::sync::OnceLock::new();
        if t == 0 || t > MAX_WORD_T {
            return Err(BuildSchemeError::new(format!(
                "word-level bch supports 1 <= t <= {MAX_WORD_T}, got {t}"
            )));
        }
        let memo = WORD.get_or_init(|| std::array::from_fn(|i| Self::smallest_field(i + 1)));
        memo[t - 1].ok_or_else(|| {
            BuildSchemeError::new(format!(
                "no field in 6..=10 supports t = {t} with 32 payload bits"
            ))
        })
    }

    /// The first degree in 6..=10 that [`BchCode::new`] accepts for `t`
    /// errors over 32 payload bits, with the same checks.
    fn smallest_field(t: usize) -> Option<Self> {
        (6..=10u32).find_map(|m| {
            let n = (1u32 << m) - 1;
            if 2 * t >= n as usize {
                return None;
            }
            // Same coset walk as `compute_generator`, summing degrees.
            let mut covered: Vec<u32> = Vec::new();
            let mut check_bits = 0;
            for i in (1..2 * t as u32).step_by(2) {
                let coset = cyclotomic_coset(i, n);
                let rep = *coset.iter().min().expect("nonempty coset");
                if !covered.contains(&rep) {
                    covered.push(rep);
                    check_bits += coset.len();
                }
            }
            (n as usize - check_bits >= 32 && check_bits + 32 <= crate::bitbuf::BITBUF_CAPACITY)
                .then_some(Self { m, check_bits })
        })
    }
}

/// Builds the generator polynomial: lcm of the minimal polynomials of
/// α, α^3, …, α^(2t-1).
fn compute_generator(field: &Gf2m, t: usize) -> Result<Vec<u8>, BuildSchemeError> {
    let mut covered: Vec<u32> = Vec::new();
    // Generator over GF(2), kept as 0/1 coefficients; index = degree.
    let mut gen: Vec<u8> = vec![1];
    for i in (1..=2 * t - 1).step_by(2) {
        let coset = field.cyclotomic_coset(i as u32);
        let rep = *coset.iter().min().expect("nonempty coset");
        if covered.contains(&rep) {
            continue;
        }
        covered.push(rep);
        // Minimal polynomial of α^i: Π_{j ∈ coset} (x − α^j), computed in
        // GF(2^m)[x]; its coefficients always land in GF(2).
        let mut min_poly: Vec<u16> = vec![1];
        for &j in &coset {
            let root = field.alpha_pow(u64::from(j));
            let mut next = vec![0u16; min_poly.len() + 1];
            for (deg, &c) in min_poly.iter().enumerate() {
                next[deg + 1] ^= c; // · x
                next[deg] ^= field.mul(c, root); // · root
            }
            min_poly = next;
        }
        for &c in &min_poly {
            if c > 1 {
                return Err(BuildSchemeError::new(
                    "minimal polynomial coefficient outside GF(2); field tables corrupt",
                ));
            }
        }
        // gen ← gen · min_poly over GF(2).
        let mut product = vec![0u8; gen.len() + min_poly.len() - 1];
        for (a_deg, &a) in gen.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (b_deg, &b) in min_poly.iter().enumerate() {
                product[a_deg + b_deg] ^= b as u8;
            }
        }
        gen = product;
    }
    Ok(gen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical BCH(15, 7, t=2) generator is x^8+x^7+x^6+x^4+1.
    #[test]
    fn known_generator_15_7() {
        let code = BchCode::new(4, 2, 7).unwrap();
        assert_eq!(code.check_bits(), 8);
        assert_eq!(code.generator(), &[1, 0, 0, 0, 1, 0, 1, 1, 1]);
    }

    /// BCH(15, 5, t=3) generator is x^10+x^8+x^5+x^4+x^2+x+1.
    #[test]
    fn known_generator_15_5() {
        let code = BchCode::new(4, 3, 5).unwrap();
        assert_eq!(code.check_bits(), 10);
        assert_eq!(code.generator(), &[1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn for_word_picks_small_fields() {
        // t = 1..5 fit in GF(2^6); check bits never exceed m·t and some
        // cyclotomic cosets are smaller than m, so <= is the right bound.
        for t in 1..=5 {
            let code = BchCode::for_word(t).unwrap();
            assert_eq!(code.m(), 6, "t={t}");
            assert!(code.check_bits() <= 6 * t, "t={t}");
            assert!(code.check_bits() >= 6, "t={t}");
        }
        // t = 6 does not fit in GF(2^6) (k would drop below 32).
        let code = BchCode::for_word(6).unwrap();
        assert_eq!(code.m(), 7);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(BchCode::new(4, 0, 5).is_err());
        assert!(BchCode::new(4, 8, 5).is_err()); // 2t >= n
        assert!(BchCode::new(6, 6, 32).is_err()); // k too small
        assert!(BchCode::for_word(0).is_err());
        assert!(BchCode::for_word(MAX_WORD_T + 1).is_err());
    }

    #[test]
    fn word_geometry_matches_the_built_code() {
        for t in 1..=MAX_WORD_T {
            let geometry = BchGeometry::for_word(t).unwrap();
            let code = BchCode::for_word(t).unwrap();
            assert_eq!(
                (geometry.m, geometry.check_bits),
                (code.m(), code.check_bits()),
                "t={t}"
            );
            // The smallest field any full construction accepts.
            let searched = (6..=10u32)
                .find_map(|m| BchCode::new(m, t, 32).ok())
                .unwrap();
            assert_eq!(
                (geometry.m, geometry.check_bits),
                (searched.m(), searched.check_bits()),
                "t={t}"
            );
        }
        for t in [0, MAX_WORD_T + 1] {
            assert!(BchGeometry::for_word(t).is_err(), "t={t}");
            assert!(BchCode::for_word(t).is_err(), "t={t}");
        }
    }

    #[test]
    fn clean_roundtrip_all_strengths() {
        for t in 1..=MAX_WORD_T {
            let code = BchCode::for_word(t).unwrap();
            for data in [0u32, u32::MAX, 0xDEAD_BEEF, 0x0F0F_0F0F] {
                let stored = code.encode(data);
                assert_eq!(
                    code.decode(&stored),
                    Decoded::Clean { data },
                    "t={t} data={data:#x}"
                );
            }
        }
    }

    #[test]
    fn table_encode_matches_lfsr_reference() {
        for t in 1..=MAX_WORD_T {
            let code = BchCode::for_word(t).unwrap();
            for step in 0..200u32 {
                let data = step.wrapping_mul(2_654_435_761) ^ (step << 13);
                assert_eq!(
                    code.encode(data),
                    code.encode_reference(data),
                    "t={t} data={data:#x}"
                );
            }
        }
    }

    #[test]
    fn table_syndromes_match_reference() {
        for t in [1usize, 2, 4, 8, 18] {
            let code = BchCode::for_word(t).unwrap();
            let clean = code.encode(0x9E37_79B9);
            // Clean word: both paths agree on the zero-syndrome fast exit.
            assert_eq!(code.syndromes(&clean), None, "t={t}");
            assert_eq!(code.syndromes_reference(&clean), None, "t={t}");
            assert!(code.is_codeword(&clean), "t={t}");
            // Corrupted words: identical full syndrome vectors.
            let len = clean.len();
            for flips in 1..=(t + 2) {
                let mut bad = clean;
                for e in 0..flips {
                    bad.flip((e * len / flips + 3 * e) % len);
                }
                assert_eq!(
                    code.syndromes(&bad),
                    code.syndromes_reference(&bad),
                    "t={t} flips={flips}"
                );
                assert!(!code.is_codeword(&bad), "t={t} flips={flips}");
            }
        }
    }

    #[test]
    fn zero_syndrome_fast_exit_skips_correction() {
        // Every valid codeword must decode via the fast exit as Clean —
        // including codewords reached by correcting, which exercises the
        // post-correction re-check path too.
        let code = BchCode::for_word(4).unwrap();
        for data in [0u32, 1, u32::MAX, 0xCAFE_F00D] {
            let stored = code.encode(data);
            assert!(code.is_codeword(&stored));
            assert_eq!(code.decode(&stored), Decoded::Clean { data });
            let mut bad = stored;
            bad.flip(7);
            bad.flip(40);
            match code.decode(&bad) {
                Decoded::Corrected {
                    data: d,
                    bits_corrected: 2,
                } => {
                    assert_eq!(d, data);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn corrects_exactly_t_errors() {
        for t in [1usize, 2, 4, 8, 12, 18] {
            let code = BchCode::for_word(t).unwrap();
            let data = 0x1357_9BDF;
            let mut stored = code.encode(data);
            // Flip t spread-out bits (data and check region both covered).
            let len = stored.len();
            for e in 0..t {
                stored.flip((e * len / t + e) % len);
            }
            match code.decode(&stored) {
                Decoded::Corrected {
                    data: d,
                    bits_corrected,
                } => {
                    assert_eq!(d, data, "t={t}");
                    assert_eq!(bits_corrected as usize, t, "t={t}");
                }
                other => panic!("t={t}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn beyond_t_errors_decode_consistently() {
        // Patterns of more than t errors are outside the code's guarantee:
        // the decoder may flag them or land on a *different valid codeword*,
        // but it must never claim the read was clean, never report more
        // than t corrections, and any correction it does report must yield
        // a self-consistent codeword.
        for t in [1usize, 2, 3, 4] {
            let code = BchCode::for_word(t).unwrap();
            let data = 0xFEED_C0DE;
            let mut stored = code.encode(data);
            for e in 0..=t {
                stored.flip(e);
            }
            match code.decode(&stored) {
                Decoded::Clean { .. } => {
                    panic!("t={t}: {} errors decoded as clean", t + 1)
                }
                Decoded::Corrected {
                    data: d,
                    bits_corrected,
                } => {
                    assert!(bits_corrected as usize <= t, "t={t}");
                    // The decoder's output must be a valid codeword.
                    let reencoded = code.encode(d);
                    assert_eq!(code.decode(&reencoded), Decoded::Clean { data: d });
                }
                Decoded::DetectedUncorrectable => {}
            }
        }
    }

    #[test]
    fn two_errors_on_t1_code_never_return_original() {
        // A distance-3 code cannot correct 2 errors; whatever the decoder
        // does it must not reconstruct the original word (that would imply
        // distance >= 5).
        let code = BchCode::for_word(1).unwrap();
        let data = 0xFEED_C0DE;
        let clean = code.encode(data);
        for i in 0..8 {
            for j in (i + 1)..8 {
                let mut bad = clean;
                bad.flip(i);
                bad.flip(j);
                if let Decoded::Clean { data: d } | Decoded::Corrected { data: d, .. } =
                    code.decode(&bad)
                {
                    assert_ne!(d, data, "flips {i},{j} silently healed");
                }
            }
        }
    }

    #[test]
    fn errors_in_check_bits_are_corrected() {
        let code = BchCode::for_word(2).unwrap();
        let data = 0xABCD_EF01;
        let mut stored = code.encode(data);
        stored.flip(0);
        stored.flip(code.check_bits() - 1);
        assert_eq!(
            code.decode(&stored),
            Decoded::Corrected {
                data,
                bits_corrected: 2
            }
        );
    }

    #[test]
    fn block_encode_matches_per_word() {
        let code = BchCode::for_word(8).unwrap();
        let words: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut block = vec![BitBuf::default(); words.len()];
        code.encode_block(&words, &mut block);
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(block[i], code.encode(w), "word {i}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn decode_wrong_length_panics() {
        let code = BchCode::for_word(1).unwrap();
        let bogus = BitBuf::new(10);
        let _ = code.decode(&bogus);
    }
}
