//! [`PoolBox`] — an owning smart pointer whose memory comes from the
//! [`MemoryManager`].
//!
//! This is the Rust analogue of BioDynaMo overriding `operator new/delete`
//! for agents: values are placed in pool memory of a chosen NUMA domain,
//! and dropping the box returns the memory through the segment back-pointer
//! without needing a reference to the manager.
//!
//! `PoolBox` supports unsizing to trait objects via [`PoolBox::unsize`], so
//! the engine stores agents as `PoolBox<dyn Agent>`. Behaviors, which the
//! paper's allocator serves as objects of their own (Section 4.3), here
//! ride inside their agent's pool element; only a behavior larger than
//! 24 bytes or aligned above 8 keeps a `PoolBox` of its own, held in the
//! agent (`bdm_core::BehaviorBox`).

use std::alloc::Layout;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use crate::manager::MemoryManager;

/// Owning pointer to a pool-allocated value.
pub struct PoolBox<T: ?Sized> {
    ptr: NonNull<T>,
    /// True if the memory came from a pool allocator (vs. the system
    /// allocator fallback). Needed so the drop path mirrors the allocation
    /// path even for `MemoryManager::system_only` managers.
    from_pool: bool,
}

impl<T> PoolBox<T> {
    /// Moves `value` into pool memory of `domain`.
    ///
    /// The `MemoryManager` must outlive every `PoolBox` allocated from it;
    /// the engine guarantees this by dropping the resource manager (and all
    /// agents) before the memory manager.
    pub fn new_in(value: T, mm: &MemoryManager, domain: usize) -> PoolBox<T> {
        let layout = Layout::new::<T>();
        if layout.size() == 0 {
            // ZSTs need no memory; keep the value's semantics by forgetting it
            // after a logical move (no destructor state is lost for ZSTs with
            // Drop, which we run via drop_in_place on a dangling-but-valid
            // pointer at drop time).
            let ptr = NonNull::<T>::dangling();
            std::mem::forget(value);
            return PoolBox {
                ptr,
                from_pool: false,
            };
        }
        let (raw, from_pool) = mm.alloc(layout, domain);
        let raw = raw as *mut T;
        // SAFETY: `raw` is valid for writes of `layout` and properly aligned.
        unsafe { raw.write(value) };
        PoolBox {
            ptr: NonNull::new(raw).expect("allocation returned null"),
            from_pool,
        }
    }

    /// Unsizes the box, e.g. `PoolBox<Cell>` → `PoolBox<dyn Agent>`.
    ///
    /// `cast` must be a plain unsizing cast like `|p| p as *mut dyn Agent`.
    /// The address is checked at runtime, so a closure returning a different
    /// pointer panics instead of corrupting the allocator.
    pub fn unsize<U: ?Sized>(self, cast: impl FnOnce(*mut T) -> *mut U) -> PoolBox<U> {
        let from_pool = self.from_pool;
        let raw = self.into_raw();
        let fat = cast(raw);
        assert_eq!(
            fat as *mut u8 as usize, raw as usize,
            "unsize cast must preserve the address"
        );
        PoolBox {
            // SAFETY: same allocation, same address, added metadata only.
            ptr: unsafe { NonNull::new_unchecked(fat) },
            from_pool,
        }
    }
}

impl<T: ?Sized> PoolBox<T> {
    /// Consumes the box, returning the raw pointer. The caller becomes
    /// responsible for the value and its memory (pair with
    /// [`PoolBox::from_raw_parts`]).
    pub fn into_raw(self) -> *mut T {
        let p = self.ptr.as_ptr();
        std::mem::forget(self);
        p
    }

    /// Whether the memory came from the pool (vs. the system allocator).
    pub fn is_pool_backed(&self) -> bool {
        self.from_pool
    }

    /// Rebuilds a box from [`PoolBox::into_raw`] output.
    ///
    /// # Safety
    /// `ptr` must come from `into_raw` of a `PoolBox` with the same
    /// `from_pool` flag, and must not be rebuilt twice.
    pub unsafe fn from_raw_parts(ptr: *mut T, from_pool: bool) -> PoolBox<T> {
        PoolBox {
            ptr: NonNull::new_unchecked(ptr),
            from_pool,
        }
    }

    /// Borrows the raw pointer without transferring ownership.
    pub fn as_ptr(&self) -> *mut T {
        self.ptr.as_ptr()
    }
}

impl<T: ?Sized> Deref for PoolBox<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the box owns a valid, initialized value.
        unsafe { self.ptr.as_ref() }
    }
}

impl<T: ?Sized> DerefMut for PoolBox<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive access through &mut self.
        unsafe { self.ptr.as_mut() }
    }
}

impl<T: ?Sized> Drop for PoolBox<T> {
    fn drop(&mut self) {
        // SAFETY: we own the value; compute the concrete layout before
        // destroying it, then release the memory the same way it was
        // obtained.
        unsafe {
            let layout = Layout::for_value(self.ptr.as_ref());
            std::ptr::drop_in_place(self.ptr.as_ptr());
            if layout.size() > 0 {
                MemoryManager::dealloc(self.ptr.as_ptr() as *mut u8, layout, self.from_pool);
            }
        }
    }
}

// SAFETY: PoolBox owns its value exclusively, like Box.
unsafe impl<T: ?Sized + Send> Send for PoolBox<T> {}
// SAFETY: shared access only hands out `&T`, like Box.
unsafe impl<T: ?Sized + Sync> Sync for PoolBox<T> {}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for PoolBox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool_allocator::PoolConfig;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn mm() -> MemoryManager {
        MemoryManager::new(2, 2, PoolConfig::default())
    }

    #[test]
    fn stores_and_reads_value() {
        let mm = mm();
        let mut b = PoolBox::new_in([1.0f64, 2.0, 3.0], &mm, 0);
        assert_eq!(b[1], 2.0);
        b[2] = 9.0;
        assert_eq!(*b, [1.0, 2.0, 9.0]);
        drop(b);
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    fn runs_destructor_exactly_once() {
        static DROPS: AtomicU32 = AtomicU32::new(0);
        struct D(#[allow(dead_code)] u64);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mm = mm();
        DROPS.store(0, Ordering::Relaxed);
        let b = PoolBox::new_in(D(7), &mm, 1);
        drop(b);
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unsize_to_trait_object() {
        trait Speak {
            fn speak(&self) -> u32;
        }
        struct A(u32);
        impl Speak for A {
            fn speak(&self) -> u32 {
                self.0 * 2
            }
        }
        let mm = mm();
        let concrete = PoolBox::new_in(A(21), &mm, 0);
        let dynamic: PoolBox<dyn Speak> = concrete.unsize(|p| p as *mut dyn Speak);
        assert_eq!(dynamic.speak(), 42);
        assert!(dynamic.is_pool_backed());
        drop(dynamic);
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    fn dyn_drop_uses_concrete_layout() {
        trait T0 {}
        struct Big(#[allow(dead_code)] [u64; 32]);
        impl T0 for Big {}
        let mm = mm();
        let b: PoolBox<dyn T0> = PoolBox::new_in(Big([7; 32]), &mm, 0).unsize(|p| p as *mut dyn T0);
        let stats_before = mm.stats();
        assert_eq!(stats_before.pool_allocations, 1);
        drop(b);
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    fn system_only_manager_roundtrip() {
        let mm = MemoryManager::system_only(1, 1);
        let b = PoolBox::new_in(vec![1, 2, 3], &mm, 0);
        assert!(!b.is_pool_backed());
        assert_eq!(b.len(), 3);
        drop(b);
        assert_eq!(mm.stats().pool_allocations, 0);
    }

    #[test]
    fn into_raw_from_raw_roundtrip() {
        let mm = mm();
        let b = PoolBox::new_in(5u64, &mm, 0);
        let pool = b.is_pool_backed();
        let raw = b.into_raw();
        // SAFETY: raw/pool come from into_raw of a live box.
        let b2 = unsafe { PoolBox::from_raw_parts(raw, pool) };
        assert_eq!(*b2, 5);
        drop(b2);
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    fn zst_box() {
        let mm = mm();
        let b = PoolBox::new_in((), &mm, 0);
        assert_eq!(*b, ());
        drop(b);
        assert_eq!(mm.outstanding(), 0);
        assert_eq!(mm.stats().pool_allocations, 0);
    }

    #[test]
    fn send_across_threads() {
        let mm = std::sync::Arc::new(mm());
        let b = PoolBox::new_in(123u64, &mm, 0);
        let h = std::thread::spawn(move || {
            assert_eq!(*b, 123);
            drop(b);
        });
        h.join().unwrap();
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "preserve the address")]
    fn bogus_unsize_cast_panics() {
        let mm = mm();
        let b = PoolBox::new_in(1u64, &mm, 0);
        static OTHER: u64 = 0;
        let _ = b.unsize(|_p| &OTHER as *const u64 as *mut u64 as *mut dyn std::fmt::Debug);
    }
}
