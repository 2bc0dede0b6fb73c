//! Behaviors — functions attached to individual agents (paper Section 2:
//! "Behaviors are functions that can be assigned and removed from an agent
//! and give users fine-grained control over the actions of an agent").
//!
//! The paper's allocator serves "the most frequently allocated objects in a
//! simulation: agents and behaviors" (Section 4.3). Here a behavior of up to
//! 24 bytes, aligned to at most 8, instead rides inside its agent's pool
//! element: a [`BehaviorBox`] is a type-erasing shim pointer plus three
//! words that hold the behavior itself, and the agent's `BehaviorList`
//! keeps two such boxes inline. A division or a checkpoint restore then
//! makes one pool allocation per agent, a sort moves each agent with its
//! behaviors as one run of bytes, and the agent's behaviors share its cache
//! lines. A larger or over-aligned behavior keeps a pool element
//! of its own: the box holds a [`PoolBox`] to it behind a delegating
//! wrapper, in pool memory of the domain it was created for. This is a
//! stated deviation from Section 4.3 (ARCHITECTURE.md, "Behaviours live
//! inside the agent").

use std::cell::UnsafeCell;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ops::{Deref, DerefMut};

use bdm_alloc::{MemoryManager, PoolBox};

use crate::agent::Agent;
use crate::context::AgentContext;

/// What should happen to the behavior after it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BehaviorControl {
    /// Keep the behavior attached (the default).
    #[default]
    Keep,
    /// Detach and drop the behavior after this run.
    RemoveSelf,
}

/// A behavior attached to an agent.
pub trait Behavior: Send + Sync {
    /// Executes the behavior for `agent`. `ctx` provides neighbor queries,
    /// random numbers, agent creation/removal, and substance access.
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl;

    /// Clones the behavior for an agent in pool memory of `domain` (used by
    /// agent sorting and by division when the behavior is copy-to-new).
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox;

    /// Whether the behavior is copied onto daughter agents created by
    /// division (BioDynaMo's "copy to new" flag).
    fn copy_to_new(&self) -> bool {
        true
    }

    /// Diagnostic name.
    fn name(&self) -> &'static str {
        "behavior"
    }

    /// Stable type tag identifying this behavior type in a checkpoint. The
    /// default `""` marks the type as **not checkpointable**: serializing an
    /// agent carrying it fails with a typed error instead of silently
    /// dropping the behavior. Tags are wire format — once published they
    /// must never change meaning.
    fn checkpoint_tag(&self) -> &'static str {
        ""
    }

    /// Serializes the behavior's state. The registered reader for
    /// [`Behavior::checkpoint_tag`] must consume exactly these bytes.
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        let _ = out;
    }
}

/// The three words a behavior is held in. The cell lets a behavior with
/// interior mutability change itself through `&self`.
type Words = UnsafeCell<MaybeUninit<[u64; 3]>>;

/// Turns the address of a box's words into a pointer to the behavior held
/// there, with the vtable of its concrete type.
type Shim = fn(*mut u8) -> *mut dyn Behavior;

fn shim<B: Behavior + 'static>(words: *mut u8) -> *mut dyn Behavior {
    words.cast::<B>()
}

/// Whether a `T` fits the three words of a box.
const fn fits<T>() -> bool {
    size_of::<T>() <= size_of::<Words>() && align_of::<T>() <= align_of::<Words>()
}

/// Moves `value` into a box's words.
///
/// # Panics
/// If `T` does not [`fits`].
fn pack<T>(value: T) -> Words {
    assert!(fits::<T>(), "a value packed into a box must fit its words");
    let mut words = MaybeUninit::<[u64; 3]>::uninit();
    // SAFETY: `fits` checked that the words are large and aligned enough
    // for a `T` (exercised by `behavior::tests::inline_and_spilled_sizes`).
    unsafe { words.as_mut_ptr().cast::<T>().write(value) };
    UnsafeCell::new(words)
}

/// Owning, type-erased behavior, held inline in 32 bytes.
///
/// A behavior that fits three words sits in the box itself; a larger or
/// over-aligned one sits in pool memory behind a [`PoolBox`] held in the
/// words. `Send` and `Sync` follow from `Behavior: Send + Sync`: only
/// behaviors are ever written into the words.
#[repr(C)]
pub struct BehaviorBox {
    shim: Shim,
    words: Words,
}

// SAFETY: `shim` is a plain `fn` pointer. `words` hold a `Behavior`, which
// is `Sync`, and the cell hands out nothing but that behavior's own `&self`
// access (`BehaviorBox::deref`). `Send` is derived: both fields are `Send`.
unsafe impl Sync for BehaviorBox {}

impl BehaviorBox {
    /// Holds `b` in the box's words. `B` must fit them.
    fn inline<B: Behavior + 'static>(b: B) -> BehaviorBox {
        BehaviorBox {
            shim: shim::<B>,
            words: pack(b),
        }
    }

    fn as_dyn(&self) -> *mut dyn Behavior {
        (self.shim)(self.words.get().cast())
    }
}

impl Deref for BehaviorBox {
    type Target = dyn Behavior;
    #[inline]
    fn deref(&self) -> &Self::Target {
        // SAFETY: `shim` was stored together with the behavior written into
        // `words` (`BehaviorBox::inline`), so it restores that type's
        // pointer; the box owns the value for its whole life. Every test
        // that runs or checkpoints a behavior goes through here.
        unsafe { &*self.as_dyn() }
    }
}

impl DerefMut for BehaviorBox {
    #[inline]
    fn deref_mut(&mut self) -> &mut Self::Target {
        // SAFETY: as in `deref`, with exclusive access through `&mut self`.
        unsafe { &mut *self.as_dyn() }
    }
}

impl Drop for BehaviorBox {
    fn drop(&mut self) {
        // SAFETY: the box owns the behavior in its words, and a box is
        // dropped once; a box moved into a list is never dropped as a box
        // (`Slot::from_box`). Exactly-once is checked by
        // `behavior_box::each_behavior_drops_exactly_once`.
        unsafe { std::ptr::drop_in_place(self.as_dyn()) }
    }
}

/// A behavior that does not fit a box's words, in its own pool element.
/// Every [`Behavior`] method is forwarded, so the wrapper is invisible.
struct Pooled<B>(PoolBox<B>);

impl<B: Behavior> Behavior for Pooled<B> {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        self.0.run(agent, ctx)
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        self.0.clone_behavior(mm, domain)
    }
    fn copy_to_new(&self) -> bool {
        self.0.copy_to_new()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn checkpoint_tag(&self) -> &'static str {
        self.0.checkpoint_tag()
    }
    fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
        self.0.checkpoint_write(out)
    }
}

/// One-line implementation helper for [`Behavior::clone_behavior`].
pub fn clone_behavior_box<B: Behavior + Clone + 'static>(
    b: &B,
    mm: &MemoryManager,
    domain: usize,
) -> BehaviorBox {
    new_behavior_box(b.clone(), mm, domain)
}

/// Type-erases a concrete behavior: inline if it fits 24 bytes aligned to
/// at most 8, otherwise in pool memory of `domain`.
pub fn new_behavior_box<B: Behavior + 'static>(
    b: B,
    mm: &MemoryManager,
    domain: usize,
) -> BehaviorBox {
    if fits::<B>() {
        BehaviorBox::inline(b)
    } else {
        BehaviorBox::inline(Pooled(PoolBox::new_in(b, mm, domain)))
    }
}

/// One of a [`BehaviorList`]'s two slots: a [`BehaviorBox`] whose shim may
/// be absent. The layouts agree field by field (`Option<fn>` is a nullable
/// `fn`), so occupied slots can be viewed as boxes.
#[repr(C)]
struct Slot {
    shim: Option<Shim>,
    words: Words,
}

const _: () = assert!(size_of::<Slot>() == size_of::<BehaviorBox>());
const _: () = assert!(align_of::<Slot>() == align_of::<BehaviorBox>());

/// The shim of a spilled list's second slot, whose words hold the
/// `Vec<BehaviorBox>`. It only marks the state and is never called.
fn spilled_marker(_: *mut u8) -> *mut dyn Behavior {
    unreachable!("a spilled behavior list's second slot holds its Vec")
}

// SAFETY: as for `BehaviorBox`: `shim` is an optional `fn` pointer, and
// `words` hold a `Behavior` or, in a spilled list, a `Vec<BehaviorBox>`,
// both `Sync` and reached from `&self` only through `BehaviorList::as_slice`.
unsafe impl Sync for Slot {}

impl Slot {
    fn empty() -> Slot {
        Slot {
            shim: None,
            words: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    fn from_box(b: BehaviorBox) -> Slot {
        let b = ManuallyDrop::new(b);
        Slot {
            shim: Some(b.shim),
            // SAFETY: `b` is never dropped, so the behavior in its words
            // moves into the slot and keeps one owner (exercised by
            // `behavior_box::each_behavior_drops_exactly_once`).
            words: UnsafeCell::new(unsafe { b.words.get().read() }),
        }
    }

    fn spilled(v: Vec<BehaviorBox>) -> Slot {
        Slot {
            shim: Some(spilled_marker),
            words: pack(v),
        }
    }
}

/// Parts of a [`BehaviorList`] by value: what the list's operations are
/// written over.
enum Parts {
    Zero,
    One(BehaviorBox),
    Two(BehaviorBox, BehaviorBox),
    Many(Vec<BehaviorBox>),
}

/// An agent's behaviors, held inside the agent for up to two and spilled to
/// a `Vec` from the third on. Every model attaches at most two, so the
/// common case costs neither a heap allocation nor a pool element of its
/// own. A spilled list that shrinks back to two returns inline.
///
/// The state is encoded in the two slots' shims:
/// `(None, None)` is empty, `(Some, None)` one behavior, `(Some, Some)`
/// two, and `(None, Some)` spilled, with the `Vec` in the second slot's
/// words. A spilled list holds at least three behaviors.
pub(crate) struct BehaviorList {
    slots: [Slot; 2],
}

// A field added here moves every agent type up a pool size class.
const _: () = assert!(size_of::<BehaviorList>() == 64);

impl Default for BehaviorList {
    fn default() -> BehaviorList {
        BehaviorList {
            slots: [Slot::empty(), Slot::empty()],
        }
    }
}

impl BehaviorList {
    /// The number of inline behaviors, or `None` if the list is spilled.
    pub(crate) fn inline_len(&self) -> Option<usize> {
        match (self.slots[0].shim.is_some(), self.slots[1].shim.is_some()) {
            (false, true) => None,
            (first, second) => Some(first as usize + second as usize),
        }
    }

    fn spilled_vec(&self) -> *mut Vec<BehaviorBox> {
        self.slots[1].words.get().cast()
    }

    /// The behaviors in order.
    pub(crate) fn as_slice(&self) -> &[BehaviorBox] {
        match self.inline_len() {
            // SAFETY: the first `n` slots are occupied, and an occupied slot
            // has a box's layout (`Slot`); exercised by
            // `behavior_list_spill_state_survives_push_remove_append`.
            Some(n) => unsafe { std::slice::from_raw_parts(self.slots.as_ptr().cast(), n) },
            // SAFETY: a spilled list's second slot holds its `Vec`
            // (`Slot::spilled`); exercised by the same test.
            None => unsafe { &*self.spilled_vec() },
        }
    }

    /// The behaviors in order, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [BehaviorBox] {
        match self.inline_len() {
            // SAFETY: as in `as_slice`, with exclusive access.
            Some(n) => unsafe { std::slice::from_raw_parts_mut(self.slots.as_mut_ptr().cast(), n) },
            // SAFETY: as in `as_slice`, with exclusive access.
            None => unsafe { &mut *self.spilled_vec() },
        }
    }

    /// Number of behaviors.
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn into_parts(self) -> Parts {
        let list = ManuallyDrop::new(self);
        let [first, second] = &list.slots;
        // SAFETY: each occupied slot is read once and `list` is never
        // dropped, so every behavior (or the spilled `Vec`) moves into the
        // parts with one owner; exercised by
        // `behavior_list_spill_state_survives_push_remove_append`.
        unsafe {
            let take = |slot: &Slot, shim| BehaviorBox {
                shim,
                words: UnsafeCell::new(slot.words.get().read()),
            };
            match (first.shim, second.shim) {
                (None, None) => Parts::Zero,
                (Some(a), None) => Parts::One(take(first, a)),
                (Some(a), Some(b)) => Parts::Two(take(first, a), take(second, b)),
                (None, Some(_)) => Parts::Many(list.spilled_vec().read()),
            }
        }
    }

    fn from_parts(parts: Parts) -> BehaviorList {
        let slots = match parts {
            Parts::Zero => [Slot::empty(), Slot::empty()],
            Parts::One(a) => [Slot::from_box(a), Slot::empty()],
            Parts::Two(a, b) => [Slot::from_box(a), Slot::from_box(b)],
            Parts::Many(v) => [Slot::empty(), Slot::spilled(v)],
        };
        BehaviorList { slots }
    }

    /// Appends `new`; the third behavior spills the list to a `Vec`.
    pub(crate) fn push(&mut self, new: BehaviorBox) {
        let parts = match std::mem::take(self).into_parts() {
            Parts::Zero => Parts::One(new),
            Parts::One(a) => Parts::Two(a, new),
            Parts::Two(a, b) => Parts::Many(vec![a, b, new]),
            Parts::Many(mut v) => {
                v.push(new);
                Parts::Many(v)
            }
        };
        *self = BehaviorList::from_parts(parts);
    }

    /// Removes and returns the behavior at `i`; the last one takes its
    /// place (`Vec::swap_remove`). A spilled list left with two or fewer
    /// returns inline.
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub(crate) fn swap_remove(&mut self, i: usize) -> BehaviorBox {
        let len = self.len();
        assert!(i < len, "behavior index {i} out of bounds (len {len})");
        let (removed, rest) = match (std::mem::take(self).into_parts(), i) {
            (Parts::One(a), _) => (a, Parts::Zero),
            (Parts::Two(a, b), 0) => (a, Parts::One(b)),
            (Parts::Two(a, b), _) => (b, Parts::One(a)),
            (Parts::Many(mut v), _) => {
                let removed = v.swap_remove(i);
                let rest = match v.len() {
                    3.. => Parts::Many(v),
                    _ => {
                        let mut list = BehaviorList::default();
                        v.into_iter().for_each(|b| list.push(b));
                        list.into_parts()
                    }
                };
                (removed, rest)
            }
            (Parts::Zero, _) => unreachable!("an empty list has no index in bounds"),
        };
        *self = BehaviorList::from_parts(rest);
        removed
    }

    /// Appends every behavior of `other`, in order.
    pub(crate) fn append(&mut self, other: BehaviorList) {
        match other.into_parts() {
            Parts::Zero => {}
            Parts::One(a) => self.push(a),
            Parts::Two(a, b) => {
                self.push(a);
                self.push(b);
            }
            Parts::Many(v) => v.into_iter().for_each(|b| self.push(b)),
        }
    }
}

impl Drop for BehaviorList {
    fn drop(&mut self) {
        drop(std::mem::take(self).into_parts());
    }
}

impl FromIterator<BehaviorBox> for BehaviorList {
    fn from_iter<I: IntoIterator<Item = BehaviorBox>>(iter: I) -> BehaviorList {
        let mut list = BehaviorList::default();
        iter.into_iter().for_each(|b| list.push(b));
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::tests::{ids, Tagged};
    use bdm_alloc::PoolConfig;

    fn mm() -> MemoryManager {
        MemoryManager::new(1, 1, PoolConfig::default())
    }

    /// A behavior of `N` words that writes its first word as its id.
    #[derive(Clone)]
    struct Fill<const N: usize>([u64; N]);

    /// A one-word behavior aligned above the box's words.
    #[derive(Clone)]
    #[repr(align(16))]
    struct Aligned16(u64);

    #[derive(Clone)]
    struct Zst;

    macro_rules! idle_behavior {
        ($ty:ty, $tag:literal, |$b:ident| $id:expr) => {
            impl Behavior for $ty {
                fn run(&mut self, _: &mut dyn Agent, _: &mut AgentContext<'_>) -> BehaviorControl {
                    BehaviorControl::Keep
                }
                fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
                    clone_behavior_box(self, mm, domain)
                }
                fn checkpoint_tag(&self) -> &'static str {
                    $tag
                }
                fn checkpoint_write(&self, out: &mut bdm_util::ByteWriter) {
                    let $b = self;
                    out.put_u8($id);
                }
            }
        };
    }
    idle_behavior!(Fill<3>, "test.Fill3", |b| b.0[0] as u8);
    idle_behavior!(Fill<4>, "test.Fill4", |b| b.0[0] as u8);
    idle_behavior!(Aligned16, "test.Aligned16", |b| b.0 as u8);
    idle_behavior!(Zst, "test.Zst", |_b| 0);

    #[test]
    fn inline_and_spilled_sizes() {
        assert_eq!(size_of::<BehaviorBox>(), 32);
        let mm = mm();
        let allocations = || mm.stats().pool_allocations;
        // What each box holds in its words, and the pool allocations so far.
        let b24 = new_behavior_box(Fill([24, 0, 0]), &mm, 0);
        assert_eq!((std::mem::size_of_val(&*b24), allocations()), (24, 0));
        let b32 = new_behavior_box(Fill([32, 0, 0, 0]), &mm, 0);
        assert_eq!((std::mem::size_of_val(&*b32), allocations()), (16, 1));
        let a16 = new_behavior_box(Aligned16(16), &mm, 0);
        assert_eq!((std::mem::size_of_val(&*a16), allocations()), (16, 2));
        let zst = new_behavior_box(Zst, &mm, 0);
        assert_eq!((std::mem::size_of_val(&*zst), allocations()), (0, 2));

        // The pool wrapper is invisible: tags and state come from the
        // behavior, and a clone spills again.
        let boxes = [b24, b32, a16, zst];
        let tags: Vec<_> = boxes.iter().map(|b| b.checkpoint_tag()).collect();
        assert_eq!(
            tags,
            ["test.Fill3", "test.Fill4", "test.Aligned16", "test.Zst"]
        );
        assert_eq!(ids(&boxes), [24, 32, 16, 0]);
        let clones: Vec<_> = boxes.iter().map(|b| b.clone_behavior(&mm, 0)).collect();
        assert_eq!((ids(&clones), allocations()), (vec![24, 32, 16, 0], 4));
        drop((boxes, clones));
        assert_eq!(mm.outstanding(), 0);
    }

    #[test]
    fn behavior_list_spill_state_survives_push_remove_append() {
        let mm = mm();
        let tagged = |id| new_behavior_box(Tagged::keep(id), &mm, 0);
        // One behavior in its own pool element rides along.
        let mut list: BehaviorList = [tagged(1), new_behavior_box(Fill([2, 0, 0, 0]), &mm, 0)]
            .into_iter()
            .chain([tagged(3)])
            .collect();
        assert_eq!(
            (list.inline_len(), ids(list.as_slice())),
            (None, vec![1, 2, 3])
        );
        list.push(tagged(4));
        assert_eq!(
            (list.inline_len(), ids(list.as_slice())),
            (None, vec![1, 2, 3, 4])
        );
        assert_eq!(ids(&[list.swap_remove(0)]), [1]);
        assert_eq!(
            (list.inline_len(), ids(list.as_slice())),
            (None, vec![4, 2, 3])
        );
        list.append([tagged(5), tagged(6)].into_iter().collect());
        assert_eq!(ids(list.as_slice()), [4, 2, 3, 5, 6]);
        list.as_mut_slice().swap(0, 4);
        assert_eq!(ids(list.as_slice()), [6, 2, 3, 5, 4]);
        // Appending a spilled list to a spilled list, then removing back
        // down to two, which returns inline.
        list.append((7..=9).map(tagged).collect());
        assert_eq!(list.len(), 8);
        while list.len() > 2 {
            list.swap_remove(2);
        }
        assert_eq!(
            (list.inline_len(), ids(list.as_slice())),
            (Some(2), vec![6, 2])
        );
        // The spilled element survived every move; appending an empty list
        // keeps two inline, a third spills again.
        list.append(BehaviorList::default());
        assert_eq!(list.inline_len(), Some(2));
        list.append([tagged(10)].into_iter().collect());
        assert_eq!(
            (list.inline_len(), ids(list.as_slice())),
            (None, vec![6, 2, 10])
        );
        assert_eq!(mm.outstanding(), 1);
        drop(list);
        assert_eq!(mm.outstanding(), 0, "every behavior dropped exactly once");
    }
}
