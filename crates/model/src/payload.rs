//! A thin, atomically reference-counted slice: the storage behind
//! [`Entry`](crate::attrs::Entry).
//!
//! `Arc<Vec<T>>` costs two allocations per value (the vector's buffer and
//! the `Arc` around it) and `Arc<[T]>` is a fat pointer that would grow an
//! `Entry` from 16 bytes to 24. A [`Payload`] is one heap block holding the
//! reference count, the length and the elements, behind one 8-byte pointer.
//!
//! Reference counting follows `Arc`: a `Relaxed` increment that aborts
//! before the count can overflow, a `Release` decrement, and an `Acquire`
//! fence before the last owner drops the elements. A block is never
//! resized: a change builds a new one, unless its only owner mutates it in
//! place through [`Payload::get_mut`].
//!
//! This is the only module of the library that uses `unsafe`.

use std::alloc::{self, Layout};
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::slice;
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// The front of every block; the elements follow at [`Payload::OFFSET`].
#[repr(C)]
struct Header {
    /// Handles to this block.
    count: AtomicUsize,
    /// Elements in this block, all initialised.
    len: usize,
}

/// A shared, immutable-while-shared `[T]` in one allocation.
pub(crate) struct Payload<T> {
    header: NonNull<Header>,
    /// The block owns its `T`s: dropping the last handle drops them.
    _owns: PhantomData<T>,
}

// SAFETY: a `Payload` hands out `&T` to every holder and moves `T`s between
// threads when the last holder drops them, as `Arc<[T]>` does; hence the
// same bounds, and the count is atomic.
unsafe impl<T: Send + Sync> Send for Payload<T> {}
// SAFETY: as for `Send`: `&Payload<T>` only reads the `T`s and clones the
// handle, which touches nothing but the atomic count.
unsafe impl<T: Send + Sync> Sync for Payload<T> {}

impl<T> Payload<T> {
    /// Where the elements start: the header rounded up to `T`'s alignment.
    const OFFSET: usize = {
        let align = align_of::<T>();
        size_of::<Header>().div_ceil(align) * align
    };

    /// The layout of a block of `len` elements.
    fn layout(len: usize) -> Layout {
        let elems = Layout::array::<T>(len).expect("payload length overflows the address space");
        let (layout, offset) = Layout::new::<Header>()
            .extend(elems)
            .expect("payload length overflows the address space");
        debug_assert_eq!(offset, Self::OFFSET);
        layout
    }

    /// The block's header.
    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: `header` points at a live block for as long as this
        // handle exists (the handle holds one count), and the header is
        // only ever written through its atomic field once shared.
        unsafe { self.header.as_ref() }
    }

    /// The first element's address in `header`'s block.
    #[inline]
    fn elems(header: NonNull<Header>) -> *mut T {
        // SAFETY: every block is at least `OFFSET` bytes long (`layout`
        // extends the header by the element array at that offset), so the
        // result stays inside the allocation or one past its end.
        unsafe { header.as_ptr().cast::<u8>().add(Self::OFFSET).cast::<T>() }
    }

    /// A block of exactly `len` elements taken from `items`.
    ///
    /// # Panics
    ///
    /// If `items` yields fewer or more than `len` elements, or panics
    /// itself; either way the elements written so far are dropped and the
    /// block is freed.
    pub(crate) fn from_exact(len: usize, items: impl IntoIterator<Item = T>) -> Self {
        let mut block = Building::new(len);
        for item in items {
            block.push(item);
        }
        block.finish()
    }

    /// Whether `a` and `b` are handles to the same block.
    #[inline]
    pub(crate) fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.header == b.header
    }

    /// The elements for writing, if this is the block's only handle.
    pub(crate) fn get_mut(&mut self) -> Option<&mut [T]> {
        // `Acquire` pairs with the `Release` decrement of every handle
        // dropped before, so their reads of the elements happen before the
        // writes this enables.
        if self.header().count.load(Ordering::Acquire) != 1 {
            return None;
        }
        let len = self.header().len;
        // SAFETY: the count is one and this handle holds it, so no other
        // handle exists and none can appear while `&mut self` is borrowed;
        // the `len` elements at `elems` are initialised.
        Some(unsafe { slice::from_raw_parts_mut(Self::elems(self.header), len) })
    }
}

impl<T: Clone> Payload<T> {
    /// A block holding clones of `before`, then `middle` if given, then
    /// clones of `after`. Plain slice loops, no iterator adaptor: this is
    /// every write's copy.
    pub(crate) fn splice(before: &[T], middle: Option<T>, after: &[T]) -> Self {
        let len = before.len() + usize::from(middle.is_some()) + after.len();
        let mut block = Building::new(len);
        for item in before {
            block.push(item.clone());
        }
        if let Some(item) = middle {
            block.push(item);
        }
        for item in after {
            block.push(item.clone());
        }
        block.finish()
    }
}

impl<T> Default for Payload<T> {
    fn default() -> Self {
        Building::new(0).finish()
    }
}

impl<T> Deref for Payload<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the block's `len` elements at `elems` are initialised and
        // aligned (the block is aligned for `T`, `OFFSET` is a multiple of
        // its alignment), and nothing mutates them while this shared
        // borrow lives: `get_mut` needs `&mut` of the only handle.
        unsafe { slice::from_raw_parts(Self::elems(self.header), self.header().len) }
    }
}

impl<T> Clone for Payload<T> {
    #[inline]
    fn clone(&self) -> Self {
        // `Relaxed` suffices, as in `Arc`: a new handle comes from an
        // existing one, which already orders every access before it.
        let old = self.header().count.fetch_add(1, Ordering::Relaxed);
        // Leaked clones could otherwise wrap the count and free a block in
        // use; `isize::MAX` handles cannot exist in memory, so abort.
        if old > isize::MAX as usize {
            std::process::abort();
        }
        Payload {
            header: self.header,
            _owns: PhantomData,
        }
    }
}

impl<T> Drop for Payload<T> {
    #[inline]
    fn drop(&mut self) {
        if self.header().count.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Pairs with every other handle's `Release` decrement: their uses
        // of the elements happen before the drop below.
        atomic::fence(Ordering::Acquire);
        self.drop_slow();
    }
}

impl<T> Payload<T> {
    /// Drop the elements and free the block: the last handle's work, kept
    /// out of line so that every other drop is a decrement.
    #[inline(never)]
    fn drop_slow(&mut self) {
        let len = self.header().len;
        // SAFETY: this was the last handle, so nothing else can reach the
        // block; its `len` elements are initialised and dropped exactly
        // once here, and it was allocated with `layout(len)`.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(Self::elems(self.header), len));
            alloc::dealloc(self.header.as_ptr().cast(), Self::layout(len));
        }
    }
}

/// A block under construction: owns the elements written so far, and on
/// unwind drops them and frees the block.
struct Building<T> {
    header: NonNull<Header>,
    len: usize,
    written: usize,
    _owns: PhantomData<T>,
}

impl<T> Building<T> {
    /// A fresh block for `len` elements, none written.
    fn new(len: usize) -> Self {
        let layout = Payload::<T>::layout(len);
        // SAFETY: `layout` has a non-zero size: it holds at least a header.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(header) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: the block is fresh, large enough and aligned for a
        // header at its start.
        unsafe {
            header.as_ptr().write(Header {
                count: AtomicUsize::new(1),
                len,
            });
        }
        Building {
            header,
            len,
            written: 0,
            _owns: PhantomData,
        }
    }

    /// Write the next element.
    #[inline]
    fn push(&mut self, item: T) {
        assert!(
            self.written < self.len,
            "more elements than the payload's length"
        );
        // SAFETY: slot `written` is inside the block (`written < len`),
        // aligned, and not yet initialised.
        unsafe {
            Payload::<T>::elems(self.header)
                .add(self.written)
                .write(item)
        };
        self.written += 1;
    }

    /// The finished payload.
    fn finish(self) -> Payload<T> {
        assert_eq!(
            self.written, self.len,
            "fewer elements than the payload's length"
        );
        let header = self.header;
        std::mem::forget(self);
        Payload {
            header,
            _owns: PhantomData,
        }
    }
}

impl<T> Drop for Building<T> {
    fn drop(&mut self) {
        // SAFETY: the block is not shared yet; exactly the first `written`
        // elements are initialised, and it was allocated with
        // `layout(len)`.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                Payload::<T>::elems(self.header),
                self.written,
            ));
            alloc::dealloc(self.header.as_ptr().cast(), Payload::<T>::layout(self.len));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};
    use std::rc::Rc;

    /// An element that counts its drops in a shared tally. `Rc` keeps the
    /// tally per test, so the tests run in parallel; `T: Send + Sync` only
    /// bounds the `Send`/`Sync` impls, which these tests do not use.
    #[derive(Debug, Clone, PartialEq)]
    struct Counted {
        id: u32,
        drops: Rc<Cell<usize>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
        }
    }

    fn items(n: u32, drops: &Rc<Cell<usize>>) -> Vec<Counted> {
        (0..n)
            .map(|id| Counted {
                id,
                drops: Rc::clone(drops),
            })
            .collect()
    }

    fn ids(p: &Payload<Counted>) -> Vec<u32> {
        p.iter().map(|c| c.id).collect()
    }

    #[test]
    fn the_layout_puts_the_elements_after_the_header() {
        assert_eq!(Payload::<u8>::OFFSET, 16);
        assert_eq!(Payload::<(u16, u64)>::OFFSET, 16);
        #[repr(align(32))]
        struct Wide(#[allow(dead_code)] u8);
        assert_eq!(Payload::<Wide>::OFFSET, 32);
        assert_eq!(Payload::<Wide>::layout(2).align(), 32);
        let p = Payload::from_exact(3, [Wide(1), Wide(2), Wide(3)]);
        assert_eq!(p.as_ptr() as usize % 32, 0);
        assert_eq!(size_of::<Payload<Counted>>(), 8);
        assert_eq!(size_of::<Option<Payload<Counted>>>(), 8);
    }

    #[test]
    fn every_element_drops_once_with_its_last_handle() {
        let drops = Rc::new(Cell::new(0));
        let a = Payload::from_exact(4, items(4, &drops));
        assert_eq!(drops.get(), 0, "moving in drops nothing");
        let b = a.clone();
        let c = b.clone();
        assert!(Payload::ptr_eq(&a, &c));
        drop(b);
        drop(a);
        assert_eq!(drops.get(), 0, "a handle is still alive");
        assert_eq!(ids(&c), [0, 1, 2, 3]);
        drop(c);
        assert_eq!(drops.get(), 4);
    }

    #[test]
    fn every_drop_order_drops_each_element_once() {
        // All six orders in which three handles can go.
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let drops = Rc::new(Cell::new(0));
            let first = Payload::from_exact(3, items(3, &drops));
            let mut handles = [Some(first.clone()), Some(first.clone()), Some(first)];
            for (k, i) in order.into_iter().enumerate() {
                handles[i] = None;
                let expect = if k == 2 { 3 } else { 0 };
                assert_eq!(drops.get(), expect, "order {order:?}, step {k}");
            }
        }
    }

    #[test]
    fn only_the_only_handle_writes_in_place() {
        let drops = Rc::new(Cell::new(0));
        let mut a = Payload::from_exact(2, items(2, &drops));
        let b = a.clone();
        assert!(a.get_mut().is_none(), "shared");
        drop(b);
        let slot = &mut a.get_mut().expect("unique")[1];
        *slot = Counted {
            id: 9,
            drops: Rc::clone(&drops),
        };
        assert_eq!(drops.get(), 1, "the replaced element");
        assert_eq!(ids(&a), [0, 9]);
        drop(a);
        assert_eq!(drops.get(), 3);
    }

    #[test]
    fn a_rebuild_clones_around_the_change_and_leaves_the_source() {
        let drops = Rc::new(Cell::new(0));
        let source = Payload::from_exact(4, items(4, &drops));
        let extra = Counted {
            id: 7,
            drops: Rc::clone(&drops),
        };
        let inserted = Payload::splice(&source[..2], Some(extra), &source[2..]);
        let removed = Payload::splice(&source[..1], None, &source[2..]);
        let empty = Payload::<Counted>::splice(&[], None, &[]);
        assert_eq!(ids(&inserted), [0, 1, 7, 2, 3]);
        assert_eq!(ids(&removed), [0, 2, 3]);
        assert!(empty.is_empty());
        assert_eq!(ids(&source), [0, 1, 2, 3]);
        assert!(!Payload::ptr_eq(&source, &inserted));
        assert_eq!(drops.get(), 0);
        drop(source);
        assert_eq!(drops.get(), 4);
        drop(inserted);
        assert_eq!(drops.get(), 9);
        drop((removed, empty));
        assert_eq!(drops.get(), 12);
    }

    #[test]
    fn a_panic_mid_construction_drops_what_was_written() {
        let drops = Rc::new(Cell::new(0));
        let source = items(5, &drops);
        let feed = source
            .clone()
            .into_iter()
            .inspect(|c| assert!(c.id < 3, "element {} refused", c.id));
        let out = panic::catch_unwind(AssertUnwindSafe(|| Payload::from_exact(5, feed)));
        assert!(out.is_err());
        // The three written, the one that panicked and the one the iterator
        // still held; the originals are untouched.
        assert_eq!(drops.get(), 5);
        drop(source);
        assert_eq!(drops.get(), 10);
    }

    #[test]
    fn a_wrong_length_panics_and_drops_what_was_written() {
        let drops = Rc::new(Cell::new(0));
        let short = panic::catch_unwind(AssertUnwindSafe(|| {
            Payload::from_exact(3, items(2, &drops))
        }));
        assert!(short.is_err());
        assert_eq!(drops.get(), 2);
        let long = panic::catch_unwind(AssertUnwindSafe(|| {
            Payload::from_exact(2, items(3, &drops))
        }));
        assert!(long.is_err());
        assert_eq!(drops.get(), 5);
    }

    #[test]
    fn a_panicking_clone_mid_rebuild_drops_what_was_written() {
        #[derive(Debug)]
        struct Fragile {
            refuse: bool,
            drops: Rc<Cell<usize>>,
        }
        impl Clone for Fragile {
            fn clone(&self) -> Self {
                assert!(!self.refuse, "refused");
                Fragile {
                    refuse: false,
                    drops: Rc::clone(&self.drops),
                }
            }
        }
        impl Drop for Fragile {
            fn drop(&mut self) {
                self.drops.set(self.drops.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        let fragile = |refuse| Fragile {
            refuse,
            drops: Rc::clone(&drops),
        };
        let source = [fragile(false), fragile(false), fragile(true)];
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            Payload::splice(&source[..1], Some(fragile(false)), &source[1..])
        }));
        assert!(out.is_err());
        assert_eq!(drops.get(), 3, "two clones and the middle");
        drop(source);
        assert_eq!(drops.get(), 6);
    }
}
