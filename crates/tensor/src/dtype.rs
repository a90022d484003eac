//! Element dtypes and scalar bf16 conversion primitives.
//!
//! The repo's precision policy is tiered (see the tensor README's
//! "Precision tiers" section): **storage** may be f32 or bf16,
//! **accumulation** is always f32 (GEMM micro-kernels, reductions,
//! collective sums), and the collectives **wire** format is chosen per
//! communicator (`CommPrecision` in `dchag-collectives`). bf16 keeps
//! f32's 8-bit exponent and truncates the mantissa to 7 bits, so the
//! decode direction is exact (a 16-bit left shift) and only the encode
//! direction rounds.
//!
//! The scalar encode here is the *reference rounding* every SIMD convert
//! sweep in [`crate::simd`] is tested against bit-for-bit: IEEE
//! round-to-nearest-even on the dropped 16 mantissa bits, with NaNs
//! quieted (payload bit 6 forced) so a signalling NaN can't round into
//! infinity.

/// Element type of a tensor's backing buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DType {
    /// 32-bit IEEE float: the compute/accumulate type.
    F32,
    /// bfloat16: f32's exponent range at half the bytes; storage/wire only.
    Bf16,
}

impl DType {
    /// Bytes per element.
    #[inline]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::Bf16 => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::Bf16 => "bf16",
        }
    }
}

/// Encode one f32 as bf16 with round-to-nearest-even.
///
/// `bits + 0x7FFF + lsb` implements RNE on the dropped low half: ties
/// (`0x8000` exactly) round toward the value whose kept LSB is already 0.
/// NaN payloads are preserved (truncated) with the quiet bit forced, and
/// the rounding increment is skipped so a NaN can never carry into the
/// exponent and come back as ±inf.
#[inline]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7FFF + ((bits >> 16) & 1);
    ((bits + round) >> 16) as u16
}

/// Decode bf16 to f32 — exact (bf16 values are a subset of f32).
#[inline]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// `f32 → bf16 → f32` in one step: the value an f32 takes after a trip
/// through bf16 storage or the bf16 wire.
#[inline]
pub fn bf16_round_trip(x: f32) -> f32 {
    bf16_to_f32(f32_to_bf16(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representable_values_round_trip_exactly() {
        // Any f32 whose low 16 mantissa bits are zero is exactly
        // representable in bf16 and must survive the round trip bit-for-bit.
        for &x in &[
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            -3.140625,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x0001_0000), // smallest positive with clean low half
            f32::MAX_EXP as f32,
        ] {
            let rt = bf16_round_trip(x);
            assert_eq!(rt.to_bits(), x.to_bits(), "{x} -> {rt}");
        }
        // Exhaustive: every bf16 bit pattern that decodes to a non-NaN f32
        // encodes back to itself.
        for b in 0..=u16::MAX {
            let x = bf16_to_f32(b);
            if x.is_nan() {
                assert!(bf16_to_f32(f32_to_bf16(x)).is_nan());
            } else {
                assert_eq!(f32_to_bf16(x), b, "pattern {b:#06x}");
            }
        }
    }

    #[test]
    fn rounds_to_nearest_even() {
        // 1.0 + ulp/2 exactly (tie): kept LSB is 0 → rounds down to 1.0.
        let tie_down = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_round_trip(tie_down), 1.0);
        // next bf16 up from 1.0 is 1.0078125; a tie at its midpoint rounds
        // UP because the kept LSB is 1 (to the even neighbor).
        let tie_up = f32::from_bits(0x3F81_8000);
        assert_eq!(bf16_round_trip(tie_up), bf16_to_f32(0x3F82));
        // just above a tie rounds up, just below rounds down.
        assert_eq!(bf16_round_trip(f32::from_bits(0x3F80_8001)), bf16_to_f32(0x3F81));
        assert_eq!(bf16_round_trip(f32::from_bits(0x3F80_7FFF)), 1.0);
    }

    #[test]
    fn nan_stays_nan_and_large_values_round_to_inf() {
        assert!(bf16_round_trip(f32::NAN).is_nan());
        // A NaN with payload only in the low mantissa half must not
        // truncate to an infinity pattern.
        let sneaky = f32::from_bits(0x7F80_0001);
        assert!(sneaky.is_nan());
        assert!(bf16_round_trip(sneaky).is_nan());
        // f32::MAX is above bf16's max finite value; RNE sends it to inf.
        assert_eq!(bf16_round_trip(f32::MAX), f32::INFINITY);
        assert_eq!(bf16_round_trip(f32::MIN), f32::NEG_INFINITY);
    }

    #[test]
    fn relative_error_bounded_by_mantissa_width() {
        // 7 mantissa bits → relative error ≤ 2^-8 for normal values.
        let mut x = 1.1f32;
        for _ in 0..64 {
            let rt = bf16_round_trip(x);
            assert!(((rt - x) / x).abs() <= 1.0 / 256.0, "{x} -> {rt}");
            x *= -1.7;
        }
    }
}
