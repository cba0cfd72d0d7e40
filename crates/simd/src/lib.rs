//! # socialrec-simd — runtime-dispatched SIMD kernels
//!
//! Three measured hot loops of the workspace — the serving axpy tile,
//! Louvain's community-label gather, and the top-N reject scan — reduce
//! to three tiny kernels. This crate owns them, with one implementation
//! per ISA tier and a process-wide dispatch decision made once:
//!
//! * [`axpy`] — `dst[i] += a * src[i]` (the batch utility kernel);
//! * [`gather_u32`] — `out[k] = table[idx[k]]` (Louvain label gather);
//! * [`scan_ge`] — first index whose value is `>=` a threshold
//!   (top-N reject path).
//!
//! # Dispatch
//!
//! Three tiers, ordered by capability: [`Isa::Scalar`] (portable,
//! always available), [`Isa::Sse2`] (x86_64 baseline), and
//! [`Isa::Avx2`] (requires `avx2` **and** `fma` via
//! `is_x86_feature_detected!` — FMA is part of the tier definition
//! even though no kernel emits a fused multiply-add, see below). The
//! best available tier is picked once, cached in an atomic, and used
//! by every dispatched entry point. The `SOCIALREC_SIMD` environment
//! variable (`auto`, `avx2`, `sse2`, `scalar`) overrides the choice —
//! requests above the detected capability clamp down with a warning —
//! and [`force`] switches the active tier in-process for benchmarks
//! and tests.
//!
//! # Floating-point contract: every kernel is bit-exact
//!
//! None of these kernels relaxes the scalar result:
//!
//! * `axpy` is elementwise: lane `i` computes exactly
//!   `dst[i] + a * src[i]` with one rounding per operation, the same
//!   as scalar. The AVX2 tier deliberately emits `mul` + `add`, **not**
//!   `fmadd` — a fused multiply-add rounds once instead of twice and
//!   would change the bits.
//! * `gather_u32` and `scan_ge` are integer / comparison kernels;
//!   there is nothing to round. (`scan_ge` uses ordered-quiet compares,
//!   so `NaN >= t` is `false` exactly as in scalar Rust.)
//!
//! Every kernel keeps a `*_reference` scalar implementation and a
//! `*_on(isa, ...)` entry point so equivalence is testable across all
//! available tiers inside one process; `SOCIALREC_SIMD` covers the
//! cross-process matrix (`crates/serve/tests/simd_matrix.rs`).

#![warn(missing_docs)]

mod axpy;
mod gather;
mod scan;

pub use axpy::{axpy, axpy_on, axpy_reference};
pub use gather::{gather_u32, gather_u32_on, gather_u32_reference};
pub use scan::{scan_ge, scan_ge_on, scan_ge_reference};

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable controlling the dispatched tier:
/// `auto` (default), `avx2`, `sse2`, or `scalar`.
pub const ENV_VAR: &str = "SOCIALREC_SIMD";

/// An instruction-set tier. Ordered by capability:
/// `Scalar < Sse2 < Avx2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Isa {
    /// Portable scalar Rust; always available.
    Scalar = 1,
    /// 128-bit SSE2 — the x86_64 baseline, so always available there.
    Sse2 = 2,
    /// 256-bit AVX2. The tier requires both `avx2` and `fma` to be
    /// detected (machines with AVX2 but no FMA predate every target we
    /// care about), although the kernels themselves avoid fused
    /// multiply-adds to stay bit-identical to scalar.
    Avx2 = 3,
}

impl Isa {
    /// All tiers, ascending by capability.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Sse2, Isa::Avx2];

    /// Lower-case tier name as used by `SOCIALREC_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }

    /// Parse a `SOCIALREC_SIMD` tier name (not `auto`).
    pub fn parse(s: &str) -> Option<Isa> {
        match s {
            "scalar" => Some(Isa::Scalar),
            "sse2" => Some(Isa::Sse2),
            "avx2" => Some(Isa::Avx2),
            _ => None,
        }
    }

    /// Whether this tier can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Sse2 => cfg!(target_arch = "x86_64"),
            Isa::Avx2 => avx2_available(),
        }
    }

    /// This tier if available, else the best available tier below it.
    pub fn clamped(self) -> Isa {
        if self.is_available() {
            self
        } else if self > Isa::Sse2 && Isa::Sse2.is_available() {
            Isa::Sse2
        } else {
            Isa::Scalar
        }
    }

    fn from_u8(v: u8) -> Option<Isa> {
        match v {
            1 => Some(Isa::Scalar),
            2 => Some(Isa::Sse2),
            3 => Some(Isa::Avx2),
            _ => None,
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
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
            Some(isa) => {
                let clamped = isa.clamped();
                eprintln!(
                    "socialrec-simd: {ENV_VAR}={s} is not available on this CPU; \
                     falling back to {}",
                    clamped.name()
                );
                clamped
            }
            None => {
                eprintln!(
                    "socialrec-simd: unrecognized {ENV_VAR}={raw:?} \
                     (expected auto|avx2|sse2|scalar); using auto ({})",
                    det.name()
                );
                det
            }
        },
    }
}

/// The tier dispatched entry points use. Resolved once from detection
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
/// every kernel is bit-exact across tiers, so switching mid-run changes
/// speed, never results. Used by benchmarks to measure scalar-forced
/// baselines and by tests to pin a tier.
pub fn force(isa: Isa) -> Isa {
    let clamped = isa.clamped();
    ACTIVE.store(clamped as u8, Ordering::Relaxed);
    clamped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_order_and_names() {
        assert!(Isa::Scalar < Isa::Sse2 && Isa::Sse2 < Isa::Avx2);
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
            assert_eq!(Isa::from_u8(isa as u8), Some(isa));
        }
        assert_eq!(Isa::parse("auto"), None);
        assert_eq!(Isa::parse("neon"), None);
    }

    #[test]
    fn scalar_always_available_and_clamp_is_monotone() {
        assert!(Isa::Scalar.is_available());
        for isa in Isa::ALL {
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
