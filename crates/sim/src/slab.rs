//! A slab of FIFO lists: the storage behind the event queue's wheel
//! buckets and the load queues' entries and waiter lists.
//!
//! Values live in the slots of one `Vec`. A freed slot joins a free list
//! and is reused before the `Vec` grows, so a slab's memory follows its
//! peak live count, and steady-state inserts and removals allocate
//! nothing. Slots are indexed by `usize`, so no length is ever narrowed;
//! [`NIL`] ends every list.

/// The end of a list (and of the free list). No `Vec` can hold
/// `usize::MAX` slots, so it never names a real slot.
const NIL: usize = usize::MAX;

/// A FIFO list threaded through a [`Slab`]: pops unlink `head`, appends
/// link after `tail`. The list owns no memory; its values live in the slab.
#[derive(Debug, Clone, Copy)]
pub(crate) struct List {
    head: usize,
    tail: usize,
}

impl List {
    /// A list with no values.
    pub(crate) const EMPTY: List = List { head: NIL, tail: NIL };

    /// Returns `true` if the list holds no values.
    pub(crate) fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// One slot: a live value, or `None` once freed. `next` links the slot's
/// list, or the free list once freed.
#[derive(Debug, Clone)]
struct Slot<T> {
    value: Option<T>,
    next: usize,
}

/// Values in reusable slots, addressed by index or reached through
/// [`List`]s.
#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// First freed slot, or [`NIL`].
    free: usize,
}

impl<T> Slab<T> {
    /// An empty slab; it allocates on the first insert.
    pub(crate) const fn new() -> Self {
        Slab { slots: Vec::new(), free: NIL }
    }

    /// Stores `value` in a freed slot, or in a new one when none is free,
    /// and returns the slot's index.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        let slot = Slot { value: Some(value), next: NIL };
        match self.slots.get_mut(self.free) {
            Some(free) => {
                let ix = self.free;
                self.free = free.next;
                *free = slot;
                ix
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    /// Takes the value out of slot `ix` and frees the slot. `None` if `ix`
    /// holds no value.
    pub(crate) fn remove(&mut self, ix: usize) -> Option<T> {
        let slot = self.slots.get_mut(ix)?;
        let value = slot.value.take()?;
        slot.next = self.free;
        self.free = ix;
        Some(value)
    }

    /// The value in slot `ix`, if it holds one.
    pub(crate) fn get(&self, ix: usize) -> Option<&T> {
        self.slots.get(ix)?.value.as_ref()
    }

    /// The value in slot `ix`, mutably, if it holds one.
    pub(crate) fn get_mut(&mut self, ix: usize) -> Option<&mut T> {
        self.slots.get_mut(ix)?.value.as_mut()
    }

    /// Appends `value` to the end of `list`.
    pub(crate) fn push_back(&mut self, list: &mut List, value: T) {
        let ix = self.insert(value);
        match self.slots.get_mut(list.tail) {
            Some(tail) => tail.next = ix,
            None => list.head = ix,
        }
        list.tail = ix;
    }

    /// Unlinks the first value of `list` and frees its slot. `None` when
    /// the list is empty.
    pub(crate) fn pop_front(&mut self, list: &mut List) -> Option<T> {
        let ix = list.head;
        list.head = self.slots.get(ix)?.next;
        if list.head == NIL {
            list.tail = NIL;
        }
        self.remove(ix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_sharing_a_slab_stay_fifo() {
        let mut slab = Slab::new();
        let (mut a, mut b) = (List::EMPTY, List::EMPTY);
        for i in 0..4 {
            slab.push_back(&mut a, i);
            slab.push_back(&mut b, 10 + i);
        }
        assert_eq!(slab.pop_front(&mut a), Some(0));
        slab.push_back(&mut a, 4);
        let drained: Vec<_> = std::iter::from_fn(|| slab.pop_front(&mut a)).collect();
        assert_eq!(drained, [1, 2, 3, 4]);
        assert!(a.is_empty());
        let drained: Vec<_> = std::iter::from_fn(|| slab.pop_front(&mut b)).collect();
        assert_eq!(drained, [10, 11, 12, 13]);
    }

    #[test]
    fn freed_slots_are_reused_before_the_slab_grows() {
        let mut slab = Slab::new();
        let first = slab.insert("a");
        let second = slab.insert("b");
        assert_eq!(slab.remove(first), Some("a"));
        assert_eq!(slab.remove(first), None, "a freed slot is not freed twice");
        assert_eq!(slab.insert("c"), first);
        assert_eq!(slab.slots.len(), 2);
        assert_eq!(slab.get(second), Some(&"b"));
        assert_eq!(slab.get(NIL), None);
    }
}
