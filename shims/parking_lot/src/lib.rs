//! Offline stand-in for `parking_lot` backed by `std::sync`.
//!
//! Exposes the one piece of the `parking_lot` API the repository uses: an
//! `RwLock` whose `read()`/`write()` need no `unwrap`. Internally delegates
//! to the std primitive, recovering from poisoning the way `parking_lot`
//! never poisons in the first place.

use std::sync::PoisonError;

/// A reader-writer lock whose acquisitions never fail.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-read guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Exclusive-write guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::<i32>::default();
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }
}
