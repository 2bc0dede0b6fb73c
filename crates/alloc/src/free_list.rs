//! Free lists with constant-time bulk transfer.
//!
//! The paper's allocator minimizes thread synchronization by keeping
//! thread-private free lists and migrating large batches of nodes to/from a
//! central list in constant time, using auxiliary "skip lists" that remember
//! every k-th node (Section 4.3). We realize the same asymptotics with an
//! equivalent structure: nodes are grouped into **chunks** — singly-linked
//! lists of at most `CHUNK_SIZE` nodes with a known head and count. Moving a
//! chunk between a thread-private list and the central list moves one
//! pointer, never traversing nodes, which is precisely the constant-time bulk
//! addition/removal the skip lists provide.

/// Number of free elements grouped into one transferable chunk
/// (the "k" of the paper's skip list).
pub const CHUNK_SIZE: usize = 64;

/// A node written into the first bytes of a free memory element. Free-list
/// nodes live inside free elements and "do not require extra space" (paper).
#[repr(C)]
pub struct FreeNode {
    pub next: *mut FreeNode,
}

/// A singly-linked list of free nodes with known length.
pub struct Chunk {
    head: *mut FreeNode,
    count: usize,
}

// SAFETY: a Chunk owns its nodes exclusively; the raw pointers are only
// dereferenced by the list holding the chunk, behind a lock.
unsafe impl Send for Chunk {}

impl Chunk {
    /// Creates an empty chunk.
    pub const fn new() -> Chunk {
        Chunk {
            head: std::ptr::null_mut(),
            count: 0,
        }
    }

    /// Number of nodes in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the chunk holds no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Pushes the element at `ptr` onto the chunk.
    ///
    /// # Safety
    /// `ptr` must point to a free memory element of at least
    /// `size_of::<FreeNode>()` bytes, exclusively owned by the caller.
    #[inline]
    pub unsafe fn push(&mut self, ptr: *mut u8) {
        let node = ptr as *mut FreeNode;
        (*node).next = self.head;
        self.head = node;
        self.count += 1;
    }

    /// Pops one element, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<*mut u8> {
        if self.head.is_null() {
            return None;
        }
        // SAFETY: non-null head was pushed by `push` and is exclusively ours.
        unsafe {
            let node = self.head;
            self.head = (*node).next;
            self.count -= 1;
            Some(node as *mut u8)
        }
    }
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk::new()
    }
}

/// A free list: one open (partially filled) chunk plus a stack of full
/// chunks. Every thread-private slot of a `NumaPoolAllocator` holds one,
/// and so does its central part; bulk operations move whole chunks.
#[derive(Default)]
pub struct FreeList {
    open: Chunk,
    /// Only full chunks: [`FreeList::len`] counts them as [`CHUNK_SIZE`]
    /// nodes each.
    full: Vec<Chunk>,
}

impl FreeList {
    /// Creates an empty list.
    pub const fn new() -> FreeList {
        FreeList {
            open: Chunk::new(),
            full: Vec::new(),
        }
    }

    /// Total number of free nodes held.
    pub fn len(&self) -> usize {
        self.open.len() + self.full.len() * CHUNK_SIZE
    }

    /// True if no free nodes are held.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty() && self.full.is_empty()
    }

    /// Number of full chunks currently held.
    pub fn full_chunks(&self) -> usize {
        self.full.len()
    }

    /// Pushes one free element; a chunk that fills up joins the full ones.
    ///
    /// # Safety
    /// Same as [`Chunk::push`].
    #[inline]
    pub unsafe fn push(&mut self, ptr: *mut u8) {
        self.open.push(ptr);
        if self.open.len() == CHUNK_SIZE {
            self.full.push(std::mem::take(&mut self.open));
        }
    }

    /// Pops one free element. When the open chunk ran dry it is replaced by
    /// a full chunk, or by `refill()` — a chunk from elsewhere or fresh
    /// memory, full or not — when none is held.
    #[inline]
    pub fn pop_or_else(&mut self, refill: impl FnOnce() -> Chunk) -> *mut u8 {
        if self.open.is_empty() {
            self.open = self.full.pop().unwrap_or_else(refill);
        }
        self.open.pop().expect("refill produced an empty chunk")
    }

    /// Accepts full chunks in O(chunks); empty ones are dropped.
    pub fn push_chunks(&mut self, chunks: Vec<Chunk>) {
        for chunk in chunks {
            if !chunk.is_empty() {
                debug_assert_eq!(chunk.len(), CHUNK_SIZE, "partial chunk filed as full");
                self.full.push(chunk);
            }
        }
    }

    /// Detaches up to `max_chunks` full chunks (for migration to the central
    /// list). O(number of chunks moved).
    pub fn take_full_chunks(&mut self, max_chunks: usize) -> Vec<Chunk> {
        let keep = self.full.len().saturating_sub(max_chunks);
        self.full.split_off(keep)
    }

    /// Pops a whole chunk if available, else whatever partial content exists.
    pub fn pop_chunk(&mut self) -> Option<Chunk> {
        if let Some(c) = self.full.pop() {
            return Some(c);
        }
        if !self.open.is_empty() {
            return Some(std::mem::take(&mut self.open));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backing store for list nodes in tests. `Box` keeps node addresses
    /// stable while the outer vec moves.
    #[allow(clippy::vec_box)]
    fn arena(n: usize) -> Vec<Box<[u8; 16]>> {
        (0..n).map(|_| Box::new([0u8; 16])).collect()
    }

    /// A list holding every element of `store`.
    fn listed(store: &mut [Box<[u8; 16]>]) -> FreeList {
        let mut l = FreeList::new();
        for b in store.iter_mut() {
            // SAFETY: each arena element is 16 bytes, unused by anything
            // else and pushed once.
            unsafe { l.push(b.as_mut_ptr()) };
        }
        l
    }

    fn no_refill() -> Chunk {
        unreachable!("the list still holds nodes")
    }

    #[test]
    fn chunk_push_pop_lifo() {
        let mut store = arena(3);
        let mut c = Chunk::new();
        let ptrs: Vec<*mut u8> = store.iter_mut().map(|b| b.as_mut_ptr()).collect();
        // SAFETY: three distinct 16-byte arena elements, pushed once each.
        unsafe {
            c.push(ptrs[0]);
            c.push(ptrs[1]);
            c.push(ptrs[2]);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.pop(), Some(ptrs[2]));
        assert_eq!(c.pop(), Some(ptrs[1]));
        assert_eq!(c.pop(), Some(ptrs[0]));
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn local_list_chunks_fill_and_drain() {
        let n = CHUNK_SIZE * 2 + 10;
        let mut store = arena(n);
        let mut l = listed(&mut store);
        assert_eq!(l.len(), n);
        assert_eq!(l.full_chunks(), 2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            assert!(seen.insert(l.pop_or_else(no_refill)), "no duplicates");
        }
        assert!(l.is_empty());
    }

    #[test]
    fn migration_moves_full_chunks_only() {
        let n = CHUNK_SIZE * 3 + 5;
        let mut store = arena(n);
        let mut l = listed(&mut store);
        let moved = l.take_full_chunks(2);
        assert_eq!(moved.len(), 2);
        assert!(moved.iter().all(|c| c.len() == CHUNK_SIZE));
        assert_eq!(l.len(), CHUNK_SIZE + 5);

        let mut central = FreeList::new();
        central.push_chunks(moved);
        assert_eq!(central.len(), 2 * CHUNK_SIZE);
        let back = central.pop_chunk().unwrap();
        assert_eq!(back.len(), CHUNK_SIZE);
        l.push_chunks(vec![back]);
        assert_eq!(l.len(), 2 * CHUNK_SIZE + 5);
    }

    #[test]
    fn central_partial_pop() {
        let mut store = arena(3);
        let mut central = listed(&mut store);
        let c = central.pop_chunk().unwrap();
        assert_eq!(c.len(), 3);
        assert!(central.pop_chunk().is_none());
    }

    #[test]
    fn central_pop_keeps_full_chunks_full() {
        let n = CHUNK_SIZE * 2 + 3;
        let mut store = arena(n + CHUNK_SIZE);
        let (listed_part, fresh) = store.split_at_mut(n);
        let mut central = listed(listed_part);
        for popped in 1..=n {
            central.pop_or_else(no_refill);
            assert_eq!(central.len(), n - popped);
            assert!(central.full.iter().all(|c| c.len() == CHUNK_SIZE));
        }
        // Dry: the refill closure supplies the next open chunk.
        let mut carved = Chunk::new();
        for b in fresh.iter_mut() {
            // SAFETY: the arena elements after `n` are in no list yet.
            unsafe { carved.push(b.as_mut_ptr()) };
        }
        central.pop_or_else(|| carved);
        assert_eq!(central.len(), CHUNK_SIZE - 1);
        assert!(central.full.is_empty());
    }

    #[test]
    fn empty_chunk_pushes_are_noops() {
        let mut l = FreeList::new();
        l.push_chunks(vec![Chunk::new(), Chunk::new()]);
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        assert!(l.pop_chunk().is_none());
    }
}
