//! Thin, atomically reference-counted slices: the storage behind
//! [`Entry`](crate::attrs::Entry) and behind the strings, octets and lists
//! in its values.
//!
//! `Arc<Vec<T>>` costs two allocations per value (the vector's buffer and
//! the `Arc` around it), and `Arc<[T]>` or `Arc<str>` is a fat pointer: it
//! would grow an `Entry` from 16 bytes to 24, and an
//! [`AttrValue`](crate::attrs::AttrValue) from 16 to 24. A [`Payload`] is
//! one heap block holding the reference count, the block's [`Shape`] and
//! the elements, behind one 8-byte pointer. The shape says how many
//! elements follow: a plain length (a 16-byte header, as `Arc`'s two counts
//! take), or a [`Masked`] shape, a presence mask with one element per set
//! bit, a mask of the attributes held at their default, which take no
//! element, and a handle to the block those elements override, if any (a
//! 24-byte header: an entry's version block, whose values follow in
//! attribute order).
//!
//! [`Text`], [`Octets`] and [`TextList`] are the attribute values' thin
//! handles: a payload of UTF-8 bytes, of raw octets, and of texts. They
//! compare, print and convert as `Arc<str>`, `Arc<[u8]>` and
//! `Arc<[Arc<str>]>` do. [`Text::leak`] gives up a text's handle for good
//! and returns a [`StaticText`], an 8-byte `Copy` handle whose block is
//! never freed: it lends the bytes as `&'static str` and makes new `Text`
//! handles on them for one count each. The identity interner keeps its
//! strings so, and a profile's identity attributes share them.
//!
//! Reference counting follows `Arc`: a `Relaxed` increment that aborts
//! before the count can overflow, a `Release` decrement, and an `Acquire`
//! fence before the last owner drops the elements and then the shape. A
//! block is never resized: a change builds a new one, unless its only
//! owner mutates its elements in place through [`Payload::get_mut`], which
//! never reaches the block a [`Masked`] shape holds.
//!
//! This is the only module of the library that uses `unsafe`.

use std::alloc::{self, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::slice;
use std::str;
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// What a block's header records beside its count: how many elements
/// follow. The header owns it: the last handle drops it after the
/// elements.
pub(crate) trait Shape {
    /// The number of elements in a block of this shape.
    fn len(&self) -> usize;
}

/// A plain length.
impl Shape for usize {
    #[inline]
    fn len(&self) -> usize {
        *self
    }
}

/// A presence mask, one element per set bit in bit order, and a mask of the
/// attributes the block holds at their default: present, but stored
/// nowhere in the block, so they take no element. Both are over the block
/// whose elements these override, if any: the block holds a handle to it,
/// so it lives as long as the block does. Once a block is built its shape
/// is only lent shared ([`Payload::shape`]), so the mask that sizes it
/// cannot change under it.
pub(crate) struct Masked<T> {
    pub(crate) present: u32,
    /// Fills what would be padding between `present` and `base`.
    pub(crate) defaults: u32,
    pub(crate) base: Option<Payload<T, Masked<T>>>,
}

impl<T> Shape for Masked<T> {
    #[inline]
    fn len(&self) -> usize {
        self.present.count_ones() as usize
    }
}

impl<T> Default for Masked<T> {
    fn default() -> Self {
        Masked {
            present: 0,
            defaults: 0,
            base: None,
        }
    }
}

/// The front of every block; the elements follow at [`Payload::OFFSET`].
#[repr(C)]
struct Header<S> {
    /// Handles to this block.
    count: AtomicUsize,
    /// Sizes the block: `shape.len()` elements follow, all initialised.
    shape: S,
}

// A length fits the 16 bytes an `Arc`'s counts take; the two masks and the
// base take one word more.
const _: () = assert!(size_of::<Header<usize>>() == 16);
const _: () = assert!(size_of::<Header<Masked<u64>>>() == 24);

/// A shared, immutable-while-shared `[T]` in one allocation, sized by `S`.
pub(crate) struct Payload<T, S: Shape = usize> {
    header: NonNull<Header<S>>,
    /// The block owns its `T`s: dropping the last handle drops them.
    _owns: PhantomData<T>,
}

// SAFETY: a `Payload` hands out `&T` to every holder and moves `T`s between
// threads when the last holder drops them, as `Arc<[T]>` does; hence the
// same bounds, and the count is atomic. The shape is only read once the
// block is shared, and dropped by the last holder as the elements are, so
// it needs the same bounds.
unsafe impl<T: Send + Sync, S: Shape + Send + Sync> Send for Payload<T, S> {}
// SAFETY: as for `Send`: `&Payload<T, S>` only reads the `T`s and the shape
// and clones the handle, which touches nothing but the atomic count (a
// shape's own handles included).
unsafe impl<T: Send + Sync, S: Shape + Send + Sync> Sync for Payload<T, S> {}

impl<T, S: Shape> Payload<T, S> {
    /// Where the elements start: the header rounded up to `T`'s alignment.
    const OFFSET: usize = {
        let align = align_of::<T>();
        size_of::<Header<S>>().div_ceil(align) * align
    };

    /// The layout of a block of `len` elements.
    fn layout(len: usize) -> Layout {
        let elems = Layout::array::<T>(len).expect("payload length overflows the address space");
        let (layout, offset) = Layout::new::<Header<S>>()
            .extend(elems)
            .expect("payload length overflows the address space");
        debug_assert_eq!(offset, Self::OFFSET);
        layout
    }

    /// The block's header.
    #[inline]
    fn header(&self) -> &Header<S> {
        // SAFETY: `header` points at a live block for as long as this
        // handle exists (the handle holds one count), and the header is
        // only ever written through its atomic field once shared.
        unsafe { self.header.as_ref() }
    }

    /// The first element's address in `header`'s block.
    #[inline]
    fn elems(header: NonNull<Header<S>>) -> *mut T {
        // SAFETY: every block is at least `OFFSET` bytes long (`layout`
        // extends the header by the element array at that offset), so the
        // result stays inside the allocation or one past its end.
        unsafe { header.as_ptr().cast::<u8>().add(Self::OFFSET).cast::<T>() }
    }

    /// A block of `shape` holding exactly `shape.len()` elements taken from
    /// `items`.
    ///
    /// # Panics
    ///
    /// If `items` yields fewer or more than `shape.len()` elements, or
    /// panics itself; either way the elements written so far are dropped
    /// and the block is freed.
    pub(crate) fn from_exact(shape: S, items: impl IntoIterator<Item = T>) -> Self {
        let mut block = Building::new(shape);
        for item in items {
            block.push(item);
        }
        block.finish()
    }

    /// What sizes this block.
    #[inline]
    pub(crate) fn shape(&self) -> &S {
        &self.header().shape
    }

    /// Whether `a` and `b` are handles to the same block.
    #[inline]
    pub(crate) fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.header == b.header
    }

    /// The elements for writing, if this is the block's only handle. The
    /// shape, and any block it holds, stays read-only.
    pub(crate) fn get_mut(&mut self) -> Option<&mut [T]> {
        // `Acquire` pairs with the `Release` decrement of every handle
        // dropped before, so their reads of the elements happen before the
        // writes this enables.
        if self.header().count.load(Ordering::Acquire) != 1 {
            return None;
        }
        let len = self.shape().len();
        // SAFETY: the count is one and this handle holds it, so no other
        // handle exists and none can appear while `&mut self` is borrowed;
        // the `len` elements at `elems` are initialised.
        Some(unsafe { slice::from_raw_parts_mut(Self::elems(self.header), len) })
    }
}

impl<T: Clone, S: Shape> Payload<T, S> {
    /// A block of `shape` holding clones of `before`, then `middle`, then
    /// clones of `after`. Plain slice loops, no iterator adaptor: this is
    /// every write's copy.
    ///
    /// # Panics
    ///
    /// If the parts do not add up to `shape.len()` elements.
    pub(crate) fn splice(shape: S, before: &[T], middle: T, after: &[T]) -> Self {
        let mut block = Building::new(shape);
        for item in before {
            block.push(item.clone());
        }
        block.push(middle);
        for item in after {
            block.push(item.clone());
        }
        block.finish()
    }
}

impl<T: Copy> Payload<T> {
    /// A block holding a copy of `items`, made with one `memcpy`.
    pub(crate) fn from_slice(items: &[T]) -> Self {
        let mut block = Building::new(items.len());
        // SAFETY: the block has room for `items.len()` elements at
        // `elems`, none written yet, and a fresh allocation cannot overlap
        // `items`. `T: Copy`, so the copies need no drop of their own if
        // this panicked (it cannot) and the originals stay valid.
        unsafe {
            ptr::copy_nonoverlapping(items.as_ptr(), Self::elems(block.header), items.len());
        }
        block.written = items.len();
        block.finish()
    }
}

impl<T, S: Shape + Default> Default for Payload<T, S> {
    fn default() -> Self {
        Building::new(S::default()).finish()
    }
}

impl<T, S: Shape> Deref for Payload<T, S> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the block's `shape.len()` elements at `elems` are
        // initialised and aligned (the block is aligned for `T`, `OFFSET`
        // is a multiple of its alignment), and nothing mutates them while
        // this shared borrow lives: `get_mut` needs `&mut` of the only
        // handle.
        unsafe { slice::from_raw_parts(Self::elems(self.header), self.shape().len()) }
    }
}

impl<T, S: Shape> Clone for Payload<T, S> {
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

impl<T, S: Shape> Drop for Payload<T, S> {
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

impl<T, S: Shape> Payload<T, S> {
    /// Drop the elements and the shape and free the block: the last
    /// handle's work, kept out of line so that every other drop is a
    /// decrement.
    #[inline(never)]
    fn drop_slow(&mut self) {
        let len = self.shape().len();
        // SAFETY: this was the last handle, so nothing else can reach the
        // block; its `len` elements and its shape are initialised and
        // dropped exactly once here, and it was allocated with
        // `layout(len)`.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(Self::elems(self.header), len));
            ptr::drop_in_place(&raw mut (*self.header.as_ptr()).shape);
            alloc::dealloc(self.header.as_ptr().cast(), Self::layout(len));
        }
    }
}

/// A block under construction: owns the shape and the elements written so
/// far, and on unwind drops them and frees the block.
struct Building<T, S: Shape> {
    header: NonNull<Header<S>>,
    len: usize,
    written: usize,
    _owns: PhantomData<T>,
}

impl<T, S: Shape> Building<T, S> {
    /// A fresh block of `shape`, no element written.
    fn new(shape: S) -> Self {
        let len = shape.len();
        let layout = Payload::<T, S>::layout(len);
        // SAFETY: `layout` has a non-zero size: it holds at least a header.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(header) = NonNull::new(raw.cast::<Header<S>>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: the block is fresh, large enough and aligned for a
        // header at its start.
        unsafe {
            header.as_ptr().write(Header {
                count: AtomicUsize::new(1),
                shape,
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
            Payload::<T, S>::elems(self.header)
                .add(self.written)
                .write(item)
        };
        self.written += 1;
    }

    /// The finished payload.
    fn finish(self) -> Payload<T, S> {
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

impl<T, S: Shape> Drop for Building<T, S> {
    fn drop(&mut self) {
        // SAFETY: the block is not shared yet; its shape and exactly the
        // first `written` elements are initialised, and it was allocated
        // with `layout(len)`.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                Payload::<T, S>::elems(self.header),
                self.written,
            ));
            ptr::drop_in_place(&raw mut (*self.header.as_ptr()).shape);
            alloc::dealloc(
                self.header.as_ptr().cast(),
                Payload::<T, S>::layout(self.len),
            );
        }
    }
}

/// A shared, immutable UTF-8 string behind one 8-byte pointer: a thin
/// `Arc<str>`.
#[derive(Clone)]
pub struct Text(Payload<u8>);

/// Shared, immutable octets behind one 8-byte pointer: a thin `Arc<[u8]>`.
#[derive(Clone)]
pub struct Octets(Payload<u8>);

/// A shared, immutable list of [`Text`]s behind one 8-byte pointer: a thin
/// `Arc<[Arc<str>]>` whose elements are themselves thin.
#[derive(Clone)]
pub struct TextList(Payload<Text>);

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        // SAFETY: a `Text` is only ever built from a `str`'s bytes
        // (`From<&str>`), and nothing writes to them after: no `Text`
        // method calls `get_mut`.
        unsafe { str::from_utf8_unchecked(&self.0) }
    }
}

impl Deref for Octets {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl Deref for TextList {
    type Target = [Text];

    #[inline]
    fn deref(&self) -> &[Text] {
        &self.0
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(Payload::from_slice(s.as_bytes()))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text::from(s.as_str())
    }
}

impl From<&[u8]> for Octets {
    fn from(bytes: &[u8]) -> Self {
        Octets(Payload::from_slice(bytes))
    }
}

impl From<Vec<u8>> for Octets {
    fn from(bytes: Vec<u8>) -> Self {
        Octets::from(bytes.as_slice())
    }
}

impl<const N: usize> From<[u8; N]> for Octets {
    fn from(bytes: [u8; N]) -> Self {
        Octets::from(bytes.as_slice())
    }
}

/// Builds the block straight from an iterator whose `size_hint` is exact.
/// Only one of unknown length is collected first, as `Arc<[T]>` does, then
/// moved into one block. An iterator that lies about its length panics in
/// `Payload::from_exact`, never leaves an element unwritten.
impl<S: Into<Text>> FromIterator<S> for TextList {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let iter = iter.into_iter().map(Into::into);
        match iter.size_hint() {
            (lo, Some(hi)) if lo == hi => TextList(Payload::from_exact(lo, iter)),
            _ => {
                let items: Vec<Text> = iter.collect();
                TextList(Payload::from_exact(items.len(), items))
            }
        }
    }
}

/// A [`Text`] whose block is never freed: an 8-byte `Copy` handle that
/// holds the one count [`Text::leak`] gave up, so it lends its bytes for
/// `'static` and hands out new [`Text`] handles on them without copying.
/// The identity interner's arena.
#[derive(Clone, Copy)]
pub(crate) struct StaticText(NonNull<Header<usize>>);

// SAFETY: a `StaticText` only reads its block's bytes, which nothing writes
// after the block is built (no `Text` calls `get_mut`), and touches its
// count atomically in `text`; a `Text` is `Send + Sync` for the same reasons.
unsafe impl Send for StaticText {}
// SAFETY: as for `Send`.
unsafe impl Sync for StaticText {}

impl Text {
    /// Give up this handle's count for good: the block outlives every other
    /// handle and is never freed.
    pub(crate) fn leak(self) -> StaticText {
        let text = ManuallyDrop::new(self);
        StaticText(text.0.header)
    }
}

impl StaticText {
    /// The text, for the life of the process.
    pub(crate) fn as_str(self) -> &'static str {
        // SAFETY: the count `Text::leak` kept is never given back, so the
        // block lives as long as the process; its bytes came from a `str`
        // and nothing writes to them (see `Text::deref`).
        unsafe {
            let len = self.0.as_ref().shape;
            str::from_utf8_unchecked(slice::from_raw_parts(Payload::<u8>::elems(self.0), len))
        }
    }

    /// A new handle on the same bytes: one count, no allocation.
    pub(crate) fn text(self) -> Text {
        (*self.handle()).clone()
    }

    /// The handle [`Text::leak`] gave up, never dropped: cloning it is the
    /// only count taken.
    fn handle(self) -> ManuallyDrop<Text> {
        ManuallyDrop::new(Text(Payload {
            header: self.0,
            _owns: PhantomData,
        }))
    }
}

/// Equality and `Debug` are those of what the handle derefs to.
macro_rules! like_target {
    ($($handle:ty),*) => {$(
        impl PartialEq for $handle {
            fn eq(&self, other: &Self) -> bool {
                **self == **other
            }
        }

        impl Eq for $handle {}

        impl fmt::Debug for $handle {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&**self, f)
            }
        }
    )*};
}

like_target!(Text, Octets, TextList);

#[cfg(test)]
impl Text {
    /// The handles on this text's block, this one included.
    pub(crate) fn handles(&self) -> usize {
        self.0.header().count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
impl StaticText {
    /// Take back the count [`Text::leak`] kept, so that a test frees the
    /// block it leaked.
    ///
    /// # Safety
    ///
    /// Neither this handle nor a copy of it, nor any `&'static str` it lent,
    /// may be used after.
    unsafe fn reclaim(self) -> Text {
        ManuallyDrop::into_inner(self.handle())
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

    fn ids<S: Shape>(p: &Payload<Counted, S>) -> Vec<u32> {
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
        let p = Payload::from_exact(3usize, [Wide(1), Wide(2), Wide(3)]);
        assert_eq!(p.as_ptr() as usize % 32, 0);
        assert_eq!(size_of::<Payload<Counted>>(), 8);
        assert_eq!(size_of::<Option<Payload<Counted>>>(), 8);
        // An entry's block: 24 bytes of header, then 16 per stored value,
        // so a provisioned profile, which stores 4 values beside its 9
        // defaults (6 for an IMS subscriber), asks for 88 bytes (120), and
        // a one-value delta for 40.
        type Entryish = Payload<(u64, u64), Masked<(u64, u64)>>;
        assert_eq!(Entryish::OFFSET, 24);
        assert_eq!(Entryish::layout(4).size(), 88);
        assert_eq!(Entryish::layout(6).size(), 120);
        assert_eq!(Entryish::layout(1).size(), 40);
        assert_eq!(size_of::<Text>(), 8);
        assert_eq!(size_of::<Option<TextList>>(), 8);
    }

    #[test]
    fn every_element_drops_once_with_its_last_handle() {
        let drops = Rc::new(Cell::new(0));
        let a = Payload::from_exact(4usize, items(4, &drops));
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
            let first = Payload::from_exact(3usize, items(3, &drops));
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
        let mut a = Payload::from_exact(2usize, items(2, &drops));
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
        let source = Payload::from_exact(4usize, items(4, &drops));
        let extra = Counted {
            id: 7,
            drops: Rc::clone(&drops),
        };
        let replacement = Counted {
            id: 8,
            drops: Rc::clone(&drops),
        };
        let inserted = Payload::splice(5usize, &source[..2], extra, &source[2..]);
        let replaced = Payload::splice(4usize, &source[..1], replacement, &source[2..]);
        assert_eq!(ids(&inserted), [0, 1, 7, 2, 3]);
        assert_eq!(ids(&replaced), [0, 8, 2, 3]);
        assert_eq!(ids(&source), [0, 1, 2, 3]);
        assert!(!Payload::ptr_eq(&source, &inserted));
        assert_eq!(drops.get(), 0);
        drop(source);
        assert_eq!(drops.get(), 4);
        drop(inserted);
        assert_eq!(drops.get(), 9);
        drop(replaced);
        assert_eq!(drops.get(), 13);
    }

    #[test]
    fn a_panic_mid_construction_drops_what_was_written() {
        let drops = Rc::new(Cell::new(0));
        let source = items(5, &drops);
        let feed = source
            .clone()
            .into_iter()
            .inspect(|c| assert!(c.id < 3, "element {} refused", c.id));
        let out = panic::catch_unwind(AssertUnwindSafe(|| Payload::from_exact(5usize, feed)));
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
            Payload::from_exact(3usize, items(2, &drops))
        }));
        assert!(short.is_err());
        assert_eq!(drops.get(), 2);
        let long = panic::catch_unwind(AssertUnwindSafe(|| {
            Payload::from_exact(2usize, items(3, &drops))
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
            Payload::splice(4usize, &source[..1], fragile(false), &source[1..])
        }));
        assert!(out.is_err());
        assert_eq!(drops.get(), 3, "two clones and the middle");
        drop(source);
        assert_eq!(drops.get(), 6);
    }

    fn masked(present: u32, base: Option<&Payload<Counted, Masked<Counted>>>) -> Masked<Counted> {
        Masked {
            present,
            defaults: 0,
            base: base.cloned(),
        }
    }

    #[test]
    fn a_mask_shaped_block_holds_one_element_per_set_bit() {
        let drops = Rc::new(Cell::new(0));
        let block = Payload::from_exact(masked(0b1_0110, None), items(3, &drops));
        assert_eq!(block.shape().present, 0b1_0110);
        assert_eq!(ids(&block), [0, 1, 2]);
        // Insert the element of bit 3: one before it, two after.
        let extra = Counted {
            id: 7,
            drops: Rc::clone(&drops),
        };
        let wider = Payload::splice(masked(0b1_1110, None), &block[..2], extra, &block[2..]);
        assert_eq!(ids(&wider), [0, 1, 7, 2]);
        let refused = Counted {
            id: 8,
            drops: Rc::clone(&drops),
        };
        let wrong = panic::catch_unwind(AssertUnwindSafe(|| {
            Payload::splice(masked(0b11, None), &block[..], refused, &[])
        }));
        assert!(wrong.is_err(), "four elements for a two-bit mask");
        assert_eq!(
            drops.get(),
            4,
            "the three clones the refused block took and its middle"
        );
        drop((block, wider));
        assert_eq!(drops.get(), 4 + 3 + 4);
        let empty = Payload::<Counted, Masked<Counted>>::default();
        assert!(empty.is_empty());
        assert!(empty.shape().base.is_none());
    }

    #[test]
    fn a_block_over_a_base_keeps_it_alive_and_drops_it_last() {
        let drops = Rc::new(Cell::new(0));
        let base = Payload::from_exact(masked(0b111, None), items(3, &drops));
        let top = Payload::from_exact(masked(0b10, Some(&base)), items(1, &drops));
        assert_eq!(base.header().count.load(Ordering::Relaxed), 2);
        assert!(Payload::ptr_eq(top.shape().base.as_ref().unwrap(), &base));
        drop(base);
        assert_eq!(drops.get(), 0, "the top block holds the base");
        let shared = top.clone();
        drop(top);
        assert_eq!(drops.get(), 0);
        assert_eq!(ids(shared.shape().base.as_ref().unwrap()), [0, 1, 2]);
        drop(shared);
        assert_eq!(drops.get(), 4, "the top's element, then the base's three");

        // Writing in place through the only handle of the top block leaves
        // the base, which another handle shares, alone.
        let base = Payload::from_exact(masked(0b11, None), items(2, &drops));
        let mut top = Payload::from_exact(masked(0b1, Some(&base)), items(1, &drops));
        top.get_mut().expect("unique")[0].id = 9;
        assert_eq!(ids(&top), [9]);
        assert_eq!(ids(&base), [0, 1]);
        drop((base, top));
        assert_eq!(drops.get(), 4 + 3);

        // A block abandoned mid-construction drops its base handle too.
        let base = Payload::from_exact(masked(0b1, None), items(1, &drops));
        let short = panic::catch_unwind(AssertUnwindSafe(|| {
            Payload::from_exact(masked(0b11, Some(&base)), items(1, &drops))
        }));
        assert!(short.is_err());
        assert_eq!(base.header().count.load(Ordering::Relaxed), 1);
        drop(base);
        assert_eq!(drops.get(), 7 + 1 + 1);
    }

    #[test]
    fn a_text_is_a_thin_shared_str() {
        let a = Text::from("214010000000001");
        let b = a.clone();
        assert_eq!(a.handles(), 2);
        assert!(Payload::ptr_eq(&a.0, &b.0), "clone copies no byte");
        assert_eq!(&*b, "214010000000001");
        assert_eq!(b, Text::from(String::from("214010000000001")));
        assert_ne!(b, Text::from("21401"));
        assert_eq!(format!("{b:?}"), r#""214010000000001""#);
        drop(b);
        assert_eq!(a.handles(), 1);
        let empty = Text::from("");
        assert!(empty.is_empty());
        assert_eq!(format!("{empty:?}"), format!("{:?}", ""));
        let multibyte = Text::from("één ✓");
        assert_eq!(multibyte.chars().count(), 5);
    }

    #[test]
    fn octets_compare_and_print_as_a_byte_slice() {
        let ki = Octets::from([0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(&*ki, &[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(ki, Octets::from(vec![0xde, 0xad, 0xbe, 0xef]));
        assert_eq!(ki, Octets::from(&[0xde, 0xad, 0xbe, 0xef][..]));
        assert_ne!(ki, Octets::from([0xde, 0xad]));
        assert_eq!(format!("{ki:?}"), "[222, 173, 190, 239]");
        assert!(Octets::from(Vec::new()).is_empty());
    }

    #[test]
    fn a_text_list_holds_one_handle_per_element_and_drops_each_once() {
        let impu = Text::from("sip:+34600123456@ims.example");
        let list: TextList = [impu.clone(), impu.clone(), impu.clone()]
            .into_iter()
            .collect();
        assert_eq!(impu.handles(), 4, "three in the list, no copy of the bytes");
        let shared = list.clone();
        drop(list);
        assert_eq!(impu.handles(), 4, "the list is still alive");
        assert!(shared.iter().all(|t| Payload::ptr_eq(&t.0, &impu.0)));
        drop(shared);
        assert_eq!(impu.handles(), 1, "each element dropped once");

        let built: TextList = ["a", "b"].into_iter().collect();
        let owned: TextList = vec!["a".to_owned(), "b".to_owned()].into_iter().collect();
        assert_eq!(built, owned);
        assert_eq!(format!("{built:?}"), r#"["a", "b"]"#);
        assert!(TextList::from_iter(Vec::<Text>::new()).is_empty());
    }

    #[test]
    fn a_panic_while_collecting_a_text_list_drops_the_texts_taken() {
        let impu = Text::from("sip:alice@ims.example");
        let feed = (0..4).map(|k| {
            assert!(k < 3, "element {k} refused");
            impu.clone()
        });
        let out = panic::catch_unwind(AssertUnwindSafe(|| feed.collect::<TextList>()));
        assert!(out.is_err());
        assert_eq!(impu.handles(), 1);
    }

    #[test]
    fn a_text_list_from_an_iterator_that_lies_about_its_length_panics() {
        /// Yields `yields` texts but claims exactly `claims`.
        struct Lying {
            text: Text,
            yields: usize,
            claims: usize,
        }
        impl Iterator for Lying {
            type Item = Text;
            fn next(&mut self) -> Option<Text> {
                self.yields = self.yields.checked_sub(1)?;
                Some(self.text.clone())
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                (self.claims, Some(self.claims))
            }
        }
        let impu = Text::from("sip:carol@ims.example");
        for (yields, claims) in [(2, 3), (3, 2)] {
            let lying = Lying {
                text: impu.clone(),
                yields,
                claims,
            };
            let out = panic::catch_unwind(AssertUnwindSafe(|| lying.collect::<TextList>()));
            assert!(out.is_err(), "{yields} texts claimed as {claims}");
            assert_eq!(impu.handles(), 1, "every text taken is dropped");
        }
        let honest = Lying {
            text: impu.clone(),
            yields: 2,
            claims: 2,
        };
        assert_eq!(honest.collect::<TextList>().len(), 2);
        assert_eq!(impu.handles(), 1);
    }

    #[test]
    fn a_leaked_texts_handles_never_free_its_block() {
        let leaked = Text::from("sip:dave@ims.example").leak();
        let bytes = leaked.as_str();
        let first = leaked.text();
        assert_eq!(first.handles(), 2, "the leaked count and this one");
        let copies: Vec<Text> = (0..3).map(|_| first.clone()).collect();
        let again = leaked.text();
        assert_eq!(again.handles(), 6);
        assert_eq!(first.as_ptr(), bytes.as_ptr(), "a handle copies no byte");
        drop(copies);
        drop(first);
        drop(again);
        let last = leaked.text();
        assert_eq!(last.handles(), 2, "only the leaked count is left");
        drop(last);
        assert_eq!(bytes, "sip:dave@ims.example");
        assert_eq!(leaked.as_str().as_ptr(), bytes.as_ptr());
        // SAFETY: `leaked` and `bytes` are not used after this.
        drop(unsafe { leaked.reclaim() });
    }

    #[test]
    fn handles_move_between_threads_and_the_last_one_frees() {
        let impu = Text::from("sip:bob@ims.example");
        let list: TextList = std::iter::repeat_n(impu.clone(), 8).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let list = list.clone();
                s.spawn(move || {
                    let held: Vec<TextList> = (0..500).map(|_| list.clone()).collect();
                    assert!(held.iter().all(|l| l.len() == 8));
                });
            }
            drop(list);
        });
        assert_eq!(impu.handles(), 1);
    }
}
