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

/// A thread-private free list: one open (partially filled) chunk plus a stack
/// of full chunks. All bulk operations move whole chunks.
pub struct LocalFreeList {
    open: Chunk,
    full: Vec<Chunk>,
}

impl LocalFreeList {
    /// Creates an empty list.
    pub const fn new() -> LocalFreeList {
        LocalFreeList {
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

    /// Pushes one free element; see [`Chunk::push`] for the safety contract.
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

    /// Pops one free element, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<*mut u8> {
        if let Some(p) = self.open.pop() {
            return Some(p);
        }
        if let Some(chunk) = self.full.pop() {
            self.open = chunk;
            return self.open.pop();
        }
        None
    }

    /// Accepts a whole chunk in O(1).
    pub fn push_chunk(&mut self, chunk: Chunk) {
        if chunk.is_empty() {
            return;
        }
        if chunk.len() == CHUNK_SIZE {
            self.full.push(chunk);
        } else if self.open.is_empty() {
            self.open = chunk;
        } else {
            // Rare path: splice a partial chunk node by node.
            let mut c = chunk;
            while let Some(p) = c.pop() {
                // SAFETY: the node came from a valid chunk we now own.
                unsafe { self.push(p) };
            }
        }
    }

    /// Detaches up to `max_chunks` full chunks (for migration to the central
    /// list). O(number of chunks moved).
    pub fn take_full_chunks(&mut self, max_chunks: usize) -> Vec<Chunk> {
        let keep = self.full.len().saturating_sub(max_chunks);
        self.full.split_off(keep)
    }

    /// Number of full chunks currently held.
    pub fn full_chunks(&self) -> usize {
        self.full.len()
    }
}

impl Default for LocalFreeList {
    fn default() -> Self {
        LocalFreeList::new()
    }
}

/// The central free list shared by all threads of one `NumaPoolAllocator`
/// (always accessed under the allocator's lock).
pub struct CentralFreeList {
    open: Chunk,
    full: Vec<Chunk>,
}

impl CentralFreeList {
    /// Creates an empty central list.
    pub const fn new() -> CentralFreeList {
        CentralFreeList {
            open: Chunk::new(),
            full: Vec::new(),
        }
    }

    /// Total number of free nodes held.
    pub fn len(&self) -> usize {
        self.open.len() + self.full.len() * CHUNK_SIZE
    }

    /// Whether the list holds no free nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes one free element (deallocation from a foreign thread).
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

    /// Pops one free element (allocation by a thread without a private
    /// list). When the open chunk ran dry it is replaced by a full chunk,
    /// or by `carve()` — fresh memory — when none is held; the pop that
    /// follows keeps the open chunk below [`CHUNK_SIZE`].
    #[inline]
    pub fn pop_or_else(&mut self, carve: impl FnOnce() -> Chunk) -> *mut u8 {
        if self.open.is_empty() {
            self.open = self.full.pop().unwrap_or_else(carve);
        }
        self.open.pop().expect("carve produced an empty chunk")
    }

    /// Accepts full chunks in O(chunks); empty ones are dropped. `full`
    /// holds only full chunks — [`CentralFreeList::len`] and the O(1)
    /// [`LocalFreeList::push_chunk`] refill rely on it.
    pub fn push_chunks(&mut self, chunks: Vec<Chunk>) {
        for chunk in chunks {
            if !chunk.is_empty() {
                debug_assert_eq!(chunk.len(), CHUNK_SIZE, "partial chunk filed as full");
                self.full.push(chunk);
            }
        }
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

impl Default for CentralFreeList {
    fn default() -> Self {
        CentralFreeList::new()
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

    #[test]
    fn chunk_push_pop_lifo() {
        let mut store = arena(3);
        let mut c = Chunk::new();
        let ptrs: Vec<*mut u8> = store.iter_mut().map(|b| b.as_mut_ptr()).collect();
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
        let mut l = LocalFreeList::new();
        for b in store.iter_mut() {
            unsafe { l.push(b.as_mut_ptr()) };
        }
        assert_eq!(l.len(), n);
        assert_eq!(l.full_chunks(), 2);
        let mut popped = 0;
        while l.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, n);
        assert!(l.is_empty());
    }

    #[test]
    fn migration_moves_full_chunks_only() {
        let n = CHUNK_SIZE * 3 + 5;
        let mut store = arena(n);
        let mut l = LocalFreeList::new();
        for b in store.iter_mut() {
            unsafe { l.push(b.as_mut_ptr()) };
        }
        let moved = l.take_full_chunks(2);
        assert_eq!(moved.len(), 2);
        assert!(moved.iter().all(|c| c.len() == CHUNK_SIZE));
        assert_eq!(l.len(), CHUNK_SIZE + 5);

        let mut central = CentralFreeList::new();
        central.push_chunks(moved);
        assert_eq!(central.len(), 2 * CHUNK_SIZE);
        let back = central.pop_chunk().unwrap();
        assert_eq!(back.len(), CHUNK_SIZE);
        l.push_chunk(back);
        assert_eq!(l.len(), 2 * CHUNK_SIZE + 5);
    }

    #[test]
    fn central_partial_pop() {
        let mut store = arena(3);
        let mut central = CentralFreeList::new();
        for b in store.iter_mut() {
            unsafe { central.push(b.as_mut_ptr()) };
        }
        let c = central.pop_chunk().unwrap();
        assert_eq!(c.len(), 3);
        assert!(central.pop_chunk().is_none());
    }

    #[test]
    fn central_pop_keeps_full_chunks_full() {
        let n = CHUNK_SIZE * 2 + 3;
        let mut store = arena(n + CHUNK_SIZE);
        let (listed, fresh) = store.split_at_mut(n);
        let mut central = CentralFreeList::new();
        for b in listed.iter_mut() {
            unsafe { central.push(b.as_mut_ptr()) };
        }
        let no_carve = || -> Chunk { unreachable!("the list still holds nodes") };
        for popped in 1..=n {
            central.pop_or_else(no_carve);
            assert_eq!(central.len(), n - popped);
            assert!(central.full.iter().all(|c| c.len() == CHUNK_SIZE));
        }
        // Dry: the carve closure supplies the next open chunk.
        let mut carved = Chunk::new();
        for b in fresh.iter_mut() {
            unsafe { carved.push(b.as_mut_ptr()) };
        }
        central.pop_or_else(|| carved);
        assert_eq!(central.len(), CHUNK_SIZE - 1);
        assert!(central.full.is_empty());
    }

    #[test]
    fn push_partial_chunk_into_nonempty_local() {
        let mut store = arena(10);
        let ptrs: Vec<*mut u8> = store.iter_mut().map(|b| b.as_mut_ptr()).collect();
        let mut l = LocalFreeList::new();
        unsafe { l.push(ptrs[0]) };
        let mut partial = Chunk::new();
        for p in &ptrs[1..5] {
            unsafe { partial.push(*p) };
        }
        l.push_chunk(partial);
        assert_eq!(l.len(), 5);
        let mut seen = std::collections::HashSet::new();
        while let Some(p) = l.pop() {
            assert!(seen.insert(p), "no duplicates");
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn empty_chunk_pushes_are_noops() {
        let mut l = LocalFreeList::new();
        l.push_chunk(Chunk::new());
        assert!(l.is_empty());
        let mut central = CentralFreeList::new();
        central.push_chunks(vec![Chunk::new(), Chunk::new()]);
        assert_eq!(central.len(), 0);
    }
}
