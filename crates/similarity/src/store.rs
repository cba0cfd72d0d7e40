//! [`RowVals`]: a borrowed value row at either storage width.
//!
//! A heap `SimMassIndex` row holds `&[f64]`; an index read from a
//! compact artifact holds `&[f32]`. The compact contract is documented
//! on [`ValueKind::F32`](crate::ValueKind::F32): widening an f32 to f64
//! is exact, so every consumer that accumulates in f64 behaves
//! bit-identically to serving pre-rounded f64 values.

/// A borrowed CSR value row at either storage width.
///
/// Consumers that need f64 semantics call [`get`](RowVals::get) (the
/// f32 arm widens exactly) or iterate; the enum keeps the widening
/// visible at the call site instead of hiding a copy.
#[derive(Clone, Copy, Debug)]
pub enum RowVals<'a> {
    /// Full-precision values.
    F64(&'a [f64]),
    /// Compact values; widen with `f64::from`, which is exact.
    F32(&'a [f32]),
}

impl<'a> RowVals<'a> {
    /// Number of values in the row.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            RowVals::F64(v) => v.len(),
            RowVals::F32(v) => v.len(),
        }
    }

    /// Whether the row is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i` widened to f64 (exact for both arms).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            RowVals::F64(v) => v[i],
            RowVals::F32(v) => f64::from(v[i]),
        }
    }
}
