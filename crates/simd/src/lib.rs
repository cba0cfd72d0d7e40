//! # socialrec-simd — one portable body, compiled twice
//!
//! A hot loop is written once, as plain Rust. [`multiversion!`]
//! compiles such a body twice: once for the baseline target and once
//! under `#[target_feature(enable = "avx2")]`, where LLVM vectorizes the
//! same loop to 256-bit registers. Each call runs the build that
//! matches [`active()`]. The one multiversioned kernel is the serving
//! fold behind `socialrec_serve::kernel`'s `utilities_block_aligned` and
//! `utilities_block_tiled`; a loop gets a second build only when a
//! measurement shows it winning.
//!
//! # Dispatch
//!
//! Two tiers: [`Isa::Scalar`] (the baseline-target build, always
//! available) and [`Isa::Avx2`] (the `avx2` build, available when
//! `is_x86_feature_detected!("avx2")` holds). The best available tier
//! is picked once, cached in an atomic, and read by every call. The
//! `SOCIALREC_SIMD` environment variable (`auto`, `avx2`, `scalar`)
//! overrides the choice — a request above the detected capability
//! clamps down with a warning — and [`force`] switches the active tier
//! in-process for benchmarks and tests.
//!
//! # Floating-point contract: both builds give the same bits
//!
//! Rust never contracts a multiply and an add into a fused
//! multiply-add, and only `avx2` is enabled, never `fma`. So both
//! builds perform the same IEEE operations in the same order as the
//! source, and give the same bits by language rule. (Rust leaves the
//! sign and payload of a NaN result unspecified, so NaN results agree
//! as NaN, not bit for bit.) The kernel's tests compare it with a
//! one-cluster-per-pass reference; CI runs the test suite once per
//! tier (`SOCIALREC_SIMD` unset, then `scalar`).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable controlling the dispatched tier:
/// `auto` (default), `avx2`, or `scalar`.
pub const ENV_VAR: &str = "SOCIALREC_SIMD";

/// An instruction-set tier. Ordered by capability: `Scalar < Avx2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Isa {
    /// The baseline-target build; always available.
    Scalar = 1,
    /// The `#[target_feature(enable = "avx2")]` build.
    Avx2 = 2,
}

impl Isa {
    /// Lower-case tier name as used by `SOCIALREC_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }

    /// Parse a `SOCIALREC_SIMD` tier name (not `auto`).
    pub fn parse(s: &str) -> Option<Isa> {
        match s {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            _ => None,
        }
    }

    /// Whether this tier can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Avx2 => avx2_available(),
        }
    }

    /// This tier if available, else [`Isa::Scalar`].
    pub fn clamped(self) -> Isa {
        if self.is_available() {
            self
        } else {
            Isa::Scalar
        }
    }

    fn from_u8(v: u8) -> Option<Isa> {
        match v {
            1 => Some(Isa::Scalar),
            2 => Some(Isa::Avx2),
            _ => None,
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// Best tier the current CPU supports, ignoring any override.
pub fn detected() -> Isa {
    Isa::Avx2.clamped()
}

/// The `SOCIALREC_SIMD` override currently in the environment, if any
/// (`auto` and unset both return `None`; unrecognized values return
/// `None` and are warned about at dispatch time).
pub fn requested() -> Option<Isa> {
    match std::env::var(ENV_VAR) {
        Ok(v) => Isa::parse(v.trim().to_ascii_lowercase().as_str()),
        Err(_) => None,
    }
}

/// `0` means "not yet resolved"; otherwise the `Isa` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn resolve_from_env() -> Isa {
    let det = detected();
    let raw = match std::env::var(ENV_VAR) {
        Ok(v) => v,
        Err(_) => return det,
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => det,
        s => match Isa::parse(s) {
            Some(isa) if isa <= det => isa,
            Some(_) => {
                eprintln!(
                    "socialrec-simd: {ENV_VAR}={s} is not available on this CPU; \
                     falling back to {}",
                    det.name()
                );
                det
            }
            None => {
                eprintln!(
                    "socialrec-simd: unrecognized {ENV_VAR}={raw:?} \
                     (expected auto|avx2|scalar); using auto ({})",
                    det.name()
                );
                det
            }
        },
    }
}

/// The tier multiversioned functions run. Resolved once from detection
/// plus the `SOCIALREC_SIMD` override, then cached; [`force`] replaces
/// it.
pub fn active() -> Isa {
    match Isa::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(isa) => isa,
        None => {
            let isa = resolve_from_env();
            ACTIVE.store(isa as u8, Ordering::Relaxed);
            isa
        }
    }
}

/// Force the active tier in-process (clamped to what the CPU supports;
/// returns the tier actually installed). Safe to call at any time:
/// both builds give the same bits, so switching mid-run changes speed,
/// never results. Used by benchmarks to time the baseline build and by
/// tests to pin a tier.
pub fn force(isa: Isa) -> Isa {
    let clamped = isa.clamped();
    ACTIVE.store(clamped as u8, Ordering::Relaxed);
    clamped
}

/// Define a function whose body is compiled twice — for the baseline
/// target and under `#[target_feature(enable = "avx2")]` — and whose
/// every call runs the build [`active()`] names.
///
/// The body is an `#[inline(always)]` inner function, so each build
/// inlines it whole and LLVM vectorizes it for that build's registers.
/// Arguments are plain `name: Type` pairs; lifetimes must be elided.
///
/// ```
/// socialrec_simd::multiversion! {
///     /// `Σ xs[i]`, in index order.
///     pub fn sum(xs: &[f64]) -> f64 {
///         xs.iter().fold(0.0, |acc, &x| acc + x)
///     }
/// }
/// assert_eq!(sum(&[1.0, 2.0, 3.5]), 6.5);
/// ```
#[macro_export]
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn portable($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn with_avx2($($arg: $ty),*) $(-> $ret)? {
                portable($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if $crate::active() == $crate::Isa::Avx2 {
                // SAFETY: `active()` returns `Avx2` only when
                // `is_x86_feature_detected!("avx2")` held on this CPU
                // (`detected`, `force` and the override all clamp).
                return unsafe { with_avx2($($arg),*) };
            }
            portable($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_order_and_names() {
        assert!(Isa::Scalar < Isa::Avx2);
        for isa in [Isa::Scalar, Isa::Avx2] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
            assert_eq!(Isa::from_u8(isa as u8), Some(isa));
        }
        assert_eq!(Isa::parse("auto"), None);
        assert_eq!(Isa::parse("sse2"), None);
        assert_eq!(Isa::parse("neon"), None);
    }

    #[test]
    fn scalar_always_available_and_clamp_is_monotone() {
        assert!(Isa::Scalar.is_available());
        for isa in [Isa::Scalar, Isa::Avx2] {
            let c = isa.clamped();
            assert!(c.is_available());
            assert!(c <= isa);
        }
        assert!(detected().is_available());
    }

    #[test]
    fn force_clamps_and_sticks() {
        let prev = active();
        let got = force(Isa::Scalar);
        assert_eq!(got, Isa::Scalar);
        assert_eq!(active(), Isa::Scalar);
        let best = force(Isa::Avx2);
        assert_eq!(best, Isa::Avx2.clamped());
        assert_eq!(active(), best);
        force(prev);
    }
}
