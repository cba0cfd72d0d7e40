//! Compact, type-safe node identifiers.
//!
//! Users and items are indexed densely from zero with `u32`s. Newtypes
//! prevent the classic bug of indexing an item array with a user id.

use std::fmt;

/// Identifier of a user node in the social / preference graphs.
///
/// Dense: valid ids are `0..num_users`. `repr(transparent)` guarantees
/// the layout of a bare `u32`, so zero-copy readers may reinterpret a
/// `&[u32]` loaded from an on-disk artifact as a `&[UserId]`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct UserId(pub u32);

/// Identifier of an item node in the preference graph.
///
/// Dense: valid ids are `0..num_items`. `repr(transparent)` for the
/// same zero-copy reason as [`UserId`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct ItemId(pub u32);

impl UserId {
    /// The id as a `usize`, for indexing.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ItemId {
    /// The id as a `usize`, for indexing.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for UserId {
    #[inline]
    fn from(v: u32) -> Self {
        UserId(v)
    }
}

impl From<u32> for ItemId {
    #[inline]
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

impl fmt::Debug for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_id_roundtrip() {
        let u: UserId = 42u32.into();
        assert_eq!(u.index(), 42);
        assert_eq!(format!("{u}"), "42");
        assert_eq!(format!("{u:?}"), "u42");
    }

    #[test]
    fn item_id_roundtrip() {
        let i: ItemId = 7u32.into();
        assert_eq!(i.index(), 7);
        assert_eq!(format!("{i}"), "7");
        assert_eq!(format!("{i:?}"), "i7");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(UserId(1) < UserId(2));
        assert!(ItemId(0) < ItemId(10));
    }
}
