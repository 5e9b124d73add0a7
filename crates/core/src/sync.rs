//! Locks whose nesting order the compiler checks.
//!
//! Every lock in the workspace is an [`OrderedMutex`] or an
//! [`OrderedRwLock`] at a *level* `L`. Taking it needs a
//! `&mut LockToken<M>` for a level `M: Before<L>`, and returns the guard
//! plus a `LockToken<L>`. Both borrow the caller's token, so while the
//! guard lives the caller can only take locks that come after `L`. An
//! inversion, a re-acquisition or a helper that locks out of order is a
//! type or borrow error, not a deadlock found in production. Poison is
//! recovered inside: every guarded value here is replaced whole, so a
//! panic elsewhere cannot leave it half-written. (The design is Fuchsia
//! netstack3's `lock_order` crate.)
//!
//! The order, outermost first:
//!
//! 1. `Durability` — `dust-bench`'s serve lock over the snapshot store,
//!    held across a mutation, its WAL append and the automatic checkpoint.
//!    It is declared in `dust-bench` and ordered before the session locks
//!    by the crate graph: this crate cannot name it, and every
//!    [`LakeSession`](crate::LakeSession) method mints its own root token,
//!    so no session lock is ever held when the store lock is taken.
//! 2. [`SessionMutate`] — serializes a session's mutations.
//! 3. [`SessionState`] — a session's published snapshot and history ring.
//!
//! Root tokens ([`LockToken::root`]) are minted only at public entry
//! points — `LakeSession`'s `&self` methods and serve's request handlers.
//! Private helpers take the caller's `&mut LockToken<_>`, so their locks
//! are checked against what the caller holds. A closure the caller hands
//! in is outside the types: [`LakeSession::mutate`](crate::LakeSession::mutate)
//! runs its log step under `SessionMutate`, so that step must not call
//! back into the session (its doc says so).
//!
//! In order, the two session locks nest:
//!
//! ```
//! # use dust_core::sync::*;
//! # let mutate = OrderedMutex::<SessionMutate, ()>::new(());
//! # let state = OrderedRwLock::<SessionState, u64>::new(0);
//! let mut root = LockToken::root();
//! let (_mutating, mut token) = mutate.lock(&mut root);
//! let (_state, _) = state.write(&mut token);
//! ```
//!
//! Inverted, they do not compile:
//!
//! ```compile_fail,E0277
//! # use dust_core::sync::*;
//! # let mutate = OrderedMutex::<SessionMutate, ()>::new(());
//! # let state = OrderedRwLock::<SessionState, u64>::new(0);
//! let mut root = LockToken::root();
//! let (_state, mut token) = state.write(&mut root);
//! let (_mutating, _) = mutate.lock(&mut token);
//! ```
//!
//! Nor does a re-acquisition, which would deadlock:
//!
//! ```compile_fail,E0277
//! # use dust_core::sync::*;
//! # let mutate = OrderedMutex::<SessionMutate, ()>::new(());
//! # let state = OrderedRwLock::<SessionState, u64>::new(0);
//! let mut root = LockToken::root();
//! let (_mutating, mut token) = mutate.lock(&mut root);
//! let (_again, _) = mutate.lock(&mut token);
//! ```
//!
//! The order holds across functions. A helper that takes the caller's
//! token can lock what comes after it:
//!
//! ```
//! # use dust_core::sync::*;
//! fn publish(token: &mut LockToken<'_, SessionMutate>, state: &OrderedRwLock<SessionState, u64>) {
//!     *state.write(token).0 += 1;
//! }
//! ```
//!
//! but not what comes before it:
//!
//! ```compile_fail,E0277
//! # use dust_core::sync::*;
//! fn publish(token: &mut LockToken<'_, SessionState>, mutate: &OrderedMutex<SessionMutate, u64>) {
//!     *mutate.lock(token).0 += 1;
//! }
//! ```
//!
//! A token is lent to its guard: while the guard lives, the next lock
//! must be taken with the token the guard came with.
//!
//! ```compile_fail,E0499
//! # use dust_core::sync::*;
//! # let mutate = OrderedMutex::<SessionMutate, ()>::new(());
//! # let state = OrderedRwLock::<SessionState, u64>::new(0);
//! let mut root = LockToken::root();
//! let (_mutating, _token) = mutate.lock(&mut root);
//! let (_state, _) = state.write(&mut root);
//! ```

// The one home of std's locks: clippy's `disallowed-types` bans them
// everywhere else.
#![allow(clippy::disallowed_types)]

use std::fmt;
use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// `Self` may be held while level `L` is taken.
pub trait Before<L> {}

/// The level of a caller that holds no ordered lock.
#[derive(Debug)]
pub enum Unlocked {}

/// Level 2: a session's mutation lock.
#[derive(Debug)]
pub enum SessionMutate {}

/// Level 3: a session's published snapshot and history ring.
#[derive(Debug)]
pub enum SessionState {}

impl Before<SessionMutate> for Unlocked {}
impl Before<SessionState> for Unlocked {}
impl Before<SessionState> for SessionMutate {}

/// Proof that the holder may take a lock ordered after `L`. It borrows
/// the token it was derived from for `'a`, as the guard it came with does.
pub struct LockToken<'a, L> {
    _borrow: PhantomData<&'a mut ()>,
    _level: PhantomData<fn() -> L>,
}

impl LockToken<'static, Unlocked> {
    /// The token of a caller that holds no ordered lock. Mint it only at a
    /// public entry point, never in a helper a lock holder may call.
    pub fn root() -> Self {
        token()
    }
}

fn token<'a, L>() -> LockToken<'a, L> {
    LockToken {
        _borrow: PhantomData,
        _level: PhantomData,
    }
}

/// A mutex at level `L` of the lock order.
pub struct OrderedMutex<L, T> {
    inner: Mutex<T>,
    _level: PhantomData<fn() -> L>,
}

impl<L, T> OrderedMutex<L, T> {
    /// An unlocked mutex holding `value`.
    pub fn new(value: T) -> Self {
        OrderedMutex {
            inner: Mutex::new(value),
            _level: PhantomData,
        }
    }

    /// Lock, with a token of a level ordered before `L`.
    pub fn lock<'a, M: Before<L>>(
        &'a self,
        _held: &'a mut LockToken<'_, M>,
    ) -> (MutexGuard<'a, T>, LockToken<'a, L>) {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (guard, token())
    }
}

impl<L, T: fmt::Debug> fmt::Debug for OrderedMutex<L, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A reader-writer lock at level `L` of the lock order.
pub struct OrderedRwLock<L, T> {
    inner: RwLock<T>,
    _level: PhantomData<fn() -> L>,
}

impl<L, T> OrderedRwLock<L, T> {
    /// An unlocked lock holding `value`.
    pub fn new(value: T) -> Self {
        OrderedRwLock {
            inner: RwLock::new(value),
            _level: PhantomData,
        }
    }

    /// Lock shared, with a token of a level ordered before `L`.
    pub fn read<'a, M: Before<L>>(
        &'a self,
        _held: &'a mut LockToken<'_, M>,
    ) -> (RwLockReadGuard<'a, T>, LockToken<'a, L>) {
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        (guard, token())
    }

    /// Lock exclusive, with a token of a level ordered before `L`.
    pub fn write<'a, M: Before<L>>(
        &'a self,
        _held: &'a mut LockToken<'_, M>,
    ) -> (RwLockWriteGuard<'a, T>, LockToken<'a, L>) {
        let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        (guard, token())
    }

    /// The value, through exclusive access to the lock itself (no token:
    /// nobody else can hold it).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<L, T: fmt::Debug> fmt::Debug for OrderedRwLock<L, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}
