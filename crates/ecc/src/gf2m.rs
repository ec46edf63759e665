//! Arithmetic in the binary extension fields GF(2^m), 3 ≤ m ≤ 14.
//!
//! The field is represented with exp/log tables built from a fixed primitive
//! polynomial per degree, which keeps multiply/divide/inverse O(1) — the same
//! structure a hardware BCH decoder's Galois-field units implement with
//! combinational logic.

/// Primitive polynomials (bit i = coefficient of x^i) for m = 3..=14.
const PRIMITIVE_POLYS: [(u32, u32); 12] = [
    (3, 0b1011),
    (4, 0b1_0011),
    (5, 0b10_0101),
    (6, 0b100_0011),
    (7, 0b1000_1001),
    (8, 0b1_0001_1101),
    (9, 0b10_0001_0001),
    (10, 0b100_0000_1001),
    (11, 0b1000_0000_0101),
    (12, 0b1_0000_0101_0011),
    (13, 0b10_0000_0001_1011),
    (14, 0b100_0100_0100_0011),
];

/// Error returned when requesting an unsupported field degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildFieldError {
    requested_m: u32,
}

impl std::fmt::Display for BuildFieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "field degree m = {} is outside the supported range 3..=14",
            self.requested_m
        )
    }
}

impl std::error::Error for BuildFieldError {}

/// The finite field GF(2^m) with log/antilog tables.
///
/// # Examples
///
/// ```
/// use chunkpoint_ecc::Gf2m;
///
/// let field = Gf2m::new(4)?;
/// let a = 0b0110;
/// let b = field.inv(a);
/// assert_eq!(field.mul(a, b), 1);
/// # Ok::<(), chunkpoint_ecc::BuildFieldError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf2m {
    m: u32,
    /// Number of nonzero elements: 2^m - 1.
    order: u32,
    /// exp[i] = α^i, doubled to avoid a modulo in `mul`.
    exp: Vec<u16>,
    /// log[x] = i such that α^i = x (log[0] unused).
    log: Vec<u16>,
    poly: u32,
}

impl Gf2m {
    /// Builds GF(2^m) for `3 <= m <= 14`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildFieldError`] when `m` is outside `3..=14`.
    pub fn new(m: u32) -> Result<Self, BuildFieldError> {
        let &(_, poly) = PRIMITIVE_POLYS
            .iter()
            .find(|&&(deg, _)| deg == m)
            .ok_or(BuildFieldError { requested_m: m })?;
        let order = (1u32 << m) - 1;
        let size = 1usize << m;
        let mut exp = vec![0u16; 2 * order as usize];
        let mut log = vec![0u16; size];
        let mut x = 1u32;
        for i in 0..order {
            exp[i as usize] = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        for i in order..(2 * order) {
            exp[i as usize] = exp[(i - order) as usize];
        }
        Ok(Self {
            m,
            order,
            exp,
            log,
            poly,
        })
    }

    /// Field degree m.
    #[must_use]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Multiplicative group order 2^m - 1.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.order
    }

    /// The primitive polynomial used to construct the field.
    #[must_use]
    pub fn primitive_poly(&self) -> u32 {
        self.poly
    }

    /// α^i for any non-negative exponent.
    #[must_use]
    pub fn alpha_pow(&self, i: u64) -> u16 {
        self.exp[(i % u64::from(self.order)) as usize]
    }

    /// Discrete logarithm of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0` (zero has no logarithm).
    #[must_use]
    pub fn log(&self, x: u16) -> u16 {
        assert!(x != 0, "log of zero in GF(2^{})", self.m);
        self.log[x as usize]
    }

    /// Raw antilog-table lookup: α^i for `0 <= i < 2·order` without the
    /// modular reduction of [`Gf2m::alpha_pow`] — the Chien-search hot
    /// path keeps its exponents reduced itself.
    #[doc(hidden)]
    #[inline]
    #[must_use]
    pub fn exp_raw(&self, i: usize) -> u16 {
        self.exp[i]
    }

    /// Field multiplication.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            return 0;
        }
        self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
    }

    /// Multiplication by a fixed nonzero element given as its logarithm —
    /// saves one log lookup and one zero test in loops that scale a whole
    /// polynomial (the Berlekamp–Massey update).
    #[doc(hidden)]
    #[inline]
    #[must_use]
    pub fn mul_log(&self, a: u16, log_b: u16) -> u16 {
        if a == 0 {
            return 0;
        }
        self.exp[self.log[a as usize] as usize + log_b as usize]
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[must_use]
    pub fn div(&self, a: u16, b: u16) -> u16 {
        assert!(b != 0, "division by zero in GF(2^{})", self.m);
        if a == 0 {
            return 0;
        }
        let diff = i32::from(self.log[a as usize]) - i32::from(self.log[b as usize]);
        let idx = diff.rem_euclid(self.order as i32) as usize;
        self.exp[idx]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0`.
    #[must_use]
    pub fn inv(&self, x: u16) -> u16 {
        assert!(x != 0, "inverse of zero in GF(2^{})", self.m);
        let l = self.log[x as usize];
        if l == 0 {
            1
        } else {
            self.exp[(self.order - u32::from(l)) as usize]
        }
    }

    /// `x` raised to an arbitrary power, with 0^0 = 1.
    #[must_use]
    pub fn pow(&self, x: u16, e: u64) -> u16 {
        if x == 0 {
            return u16::from(e == 0);
        }
        let l = u64::from(self.log[x as usize]);
        self.exp[((l * (e % u64::from(self.order))) % u64::from(self.order)) as usize]
    }

    /// Evaluates a polynomial with coefficients `coeffs[i]` of x^i at `x`
    /// (Horner's rule).
    #[must_use]
    pub fn eval_poly(&self, coeffs: &[u16], x: u16) -> u16 {
        let mut acc = 0u16;
        for &c in coeffs.iter().rev() {
            acc = self.mul(acc, x) ^ c;
        }
        acc
    }

    /// The cyclotomic coset of `i` modulo 2^m - 1: `{i, 2i, 4i, ...}`.
    #[must_use]
    pub fn cyclotomic_coset(&self, i: u32) -> Vec<u32> {
        cyclotomic_coset(i, self.order)
    }
}

/// The cyclotomic coset of `i` modulo `order`, which needs no field
/// tables.
pub(crate) fn cyclotomic_coset(i: u32, order: u32) -> Vec<u32> {
    let mut coset = vec![i % order];
    let mut next = (2 * i) % order;
    while next != coset[0] {
        coset.push(next);
        next = (2 * next) % order;
    }
    coset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_degrees() {
        assert!(Gf2m::new(2).is_err());
        assert!(Gf2m::new(15).is_err());
        let err = Gf2m::new(1).unwrap_err();
        assert!(err.to_string().contains("m = 1"));
    }

    #[test]
    fn builds_all_supported_degrees() {
        for m in 3..=14 {
            let field = Gf2m::new(m).expect("supported degree");
            assert_eq!(field.order(), (1 << m) - 1);
        }
    }

    #[test]
    fn exp_log_are_inverse_maps() {
        let field = Gf2m::new(8).unwrap();
        for i in 0..field.order() {
            let x = field.alpha_pow(u64::from(i));
            assert_eq!(u32::from(field.log(x)), i);
        }
    }

    #[test]
    fn multiplication_matches_schoolbook() {
        // Carry-less multiply then reduce by the primitive polynomial.
        let field = Gf2m::new(6).unwrap();
        let poly = field.primitive_poly();
        let m = field.m();
        let slow_mul = |a: u32, b: u32| -> u16 {
            let mut acc = 0u32;
            for bit in 0..m {
                if (b >> bit) & 1 == 1 {
                    acc ^= a << bit;
                }
            }
            for bit in (m..2 * m).rev() {
                if (acc >> bit) & 1 == 1 {
                    acc ^= poly << (bit - m);
                }
            }
            acc as u16
        };
        for a in 0..64u32 {
            for b in 0..64u32 {
                assert_eq!(field.mul(a as u16, b as u16), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn inverse_and_division() {
        let field = Gf2m::new(10).unwrap();
        for x in 1..=field.order() as u16 {
            let inv = field.inv(x);
            assert_eq!(field.mul(x, inv), 1, "x={x}");
            assert_eq!(field.div(x, x), 1);
        }
        assert_eq!(field.div(0, 5), 0);
    }

    #[test]
    fn pow_edge_cases() {
        let field = Gf2m::new(5).unwrap();
        assert_eq!(field.pow(0, 0), 1);
        assert_eq!(field.pow(0, 3), 0);
        assert_eq!(field.pow(7, 0), 1);
        assert_eq!(field.pow(7, 1), 7);
        // x^(order) == x^0 == 1 for nonzero x.
        assert_eq!(field.pow(9, u64::from(field.order())), 1);
    }

    #[test]
    fn eval_poly_matches_manual() {
        let field = Gf2m::new(4).unwrap();
        // p(x) = 3 + 5x + x^2
        let coeffs = [3u16, 5, 1];
        for x in 0..16u16 {
            let expected = 3 ^ field.mul(5, x) ^ field.mul(x, x);
            assert_eq!(field.eval_poly(&coeffs, x), expected);
        }
    }

    #[test]
    fn cyclotomic_cosets_are_closed_under_doubling() {
        let field = Gf2m::new(6).unwrap();
        for i in 1..10 {
            let coset = field.cyclotomic_coset(i);
            for &c in &coset {
                assert!(coset.contains(&((2 * c) % field.order())));
            }
            // All elements share the same minimal coset representative set.
            assert!(coset.len() as u32 <= field.m());
        }
    }

    #[test]
    #[should_panic(expected = "log of zero")]
    fn log_zero_panics() {
        let field = Gf2m::new(3).unwrap();
        let _ = field.log(0);
    }
}
