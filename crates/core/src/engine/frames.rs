//! The engine's resident task frames: one slab, indexed by task key.
//!
//! Frames live in chunks that are allocated once and never reallocate, so
//! growing the slab never copies the frames it already holds. The first
//! chunk holds [`FIRST_CHUNK`] frames; each later chunk is as large as all
//! earlier ones together, capped at [`MAX_CHUNK`]. An engine that hosts a
//! task or two pays for four frames, and a busy one grows in 64-frame
//! steps.
//!
//! A finished frame is not freed. [`Frames::remove`] hands it out by value
//! and leaves a placeholder that owns no heap memory in its slot;
//! [`Frames::recycle`] puts the cleared frame back, and the next
//! [`Frames::insert`] revives it through [`Task::reset_from_packet`], so
//! its maps and buffers keep their capacity across task generations. A
//! frame takes its packet by value: the argument list and the ancestor
//! buffer move in, never copied. The
//! slab keeps its high-water frame count, which the resident peak has
//! already paid for. Retired frames are revived last in, first out.
//!
//! Every walk goes through the index map. It sees the same keys, hasher
//! and insert/remove sequence as a plain `FxHashMap<TaskKey, Task>` would,
//! so it iterates in that map's order: recovery's orphan sweep, checkpoint
//! scan and replica scan visit tasks in that order.

use crate::ids::TaskKey;
use crate::packet::TaskPacket;
use crate::task::Task;
use splice_applicative::FxHashMap;

/// Frames in the first chunk.
const FIRST_CHUNK: usize = 4;
/// Largest chunk, in frames.
const MAX_CHUNK: usize = 64;

/// Where a frame lives: its chunk and its offset inside that chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    chunk: u32,
    offset: u32,
}

/// The resident task frames of one engine, with a map-shaped API.
#[derive(Default)]
pub(super) struct Frames {
    /// Resident tasks by key.
    index: FxHashMap<TaskKey, Slot>,
    /// The frames. No chunk grows past the capacity it was created with.
    chunks: Vec<Vec<Task>>,
    /// Slots holding a cleared frame, ready to be revived.
    retired: Vec<Slot>,
    /// Slots whose frame was removed and not yet recycled.
    vacated: Vec<Slot>,
}

impl Frames {
    fn frame(&self, slot: Slot) -> &Task {
        &self.chunks[slot.chunk as usize][slot.offset as usize]
    }

    fn frame_mut(&mut self, slot: Slot) -> &mut Task {
        &mut self.chunks[slot.chunk as usize][slot.offset as usize]
    }

    /// Number of resident tasks.
    pub(super) fn len(&self) -> usize {
        self.index.len()
    }

    pub(super) fn contains_key(&self, key: &TaskKey) -> bool {
        self.index.contains_key(key)
    }

    pub(super) fn get(&self, key: &TaskKey) -> Option<&Task> {
        self.index.get(key).map(|slot| self.frame(*slot))
    }

    pub(super) fn get_mut(&mut self, key: &TaskKey) -> Option<&mut Task> {
        let slot = *self.index.get(key)?;
        Some(self.frame_mut(slot))
    }

    /// The resident tasks, in index order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (&TaskKey, &Task)> + '_ {
        self.index
            .iter()
            .map(|(key, slot)| (key, self.frame(*slot)))
    }

    /// Calls `f` on every resident task, in index order.
    pub(super) fn for_each_mut(&mut self, mut f: impl FnMut(TaskKey, &mut Task)) {
        let Frames { index, chunks, .. } = self;
        for (key, slot) in index.iter() {
            f(*key, &mut chunks[slot.chunk as usize][slot.offset as usize]);
        }
    }

    /// Makes `key` resident as the task `p` describes, reviving the most
    /// recently retired frame when there is one. The frame takes `p`.
    pub(super) fn insert(&mut self, key: TaskKey, p: TaskPacket) {
        debug_assert!(!self.index.contains_key(&key), "task key reused");
        let slot = match self.retired.pop() {
            Some(slot) => {
                self.frame_mut(slot).reset_from_packet(key, p);
                slot
            }
            None => self.append(Task::from_packet(key, p)),
        };
        self.index.insert(key, slot);
    }

    /// Takes `key`'s frame out of the slab. Hand it back through
    /// [`Frames::recycle`] once it is spent.
    pub(super) fn remove(&mut self, key: &TaskKey) -> Option<Task> {
        let slot = self.index.remove(key)?;
        self.vacated.push(slot);
        Some(std::mem::replace(self.frame_mut(slot), Task::vacant()))
    }

    /// Clears a spent frame and keeps it for the next [`Frames::insert`].
    pub(super) fn recycle(&mut self, mut task: Task) {
        task.clear_for_reuse();
        let slot = self.vacated.pop().expect("recycle follows remove");
        *self.frame_mut(slot) = task;
        self.retired.push(slot);
    }

    /// Places `task` after the last frame, opening a chunk when the last
    /// one is full.
    fn append(&mut self, task: Task) -> Slot {
        if self.chunks.last().is_none_or(|c| c.len() == c.capacity()) {
            let held: usize = self.chunks.iter().map(Vec::capacity).sum();
            self.chunks
                .push(Vec::with_capacity(held.clamp(FIRST_CHUNK, MAX_CHUNK)));
        }
        let chunk = self.chunks.len() - 1;
        let frames = &mut self.chunks[chunk];
        frames.push(task);
        Slot {
            chunk: chunk as u32,
            offset: (frames.len() - 1) as u32,
        }
    }

    /// Frames held, resident or not.
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.chunks.iter().map(Vec::capacity).sum()
    }

    /// Cleared frames waiting to be revived.
    #[cfg(test)]
    pub(super) fn retired_len(&self) -> usize {
        self.retired.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TaskLink;
    use crate::stamp::LevelStamp;
    use splice_applicative::wave::Demand;
    use splice_applicative::{FnId, Value};

    fn packet(digit: u32) -> TaskPacket {
        TaskPacket {
            stamp: LevelStamp::root().child(digit),
            demand: Demand::new(FnId(0), vec![Value::Int(digit as i64)]),
            parent: TaskLink::super_root(),
            ancestors: vec![TaskLink::super_root()],
            incarnation: 0,
            hops: 0,
            replica: None,
            under_replica: false,
        }
    }

    fn capacities(frames: &Frames) -> Vec<usize> {
        frames.chunks.iter().map(Vec::capacity).collect()
    }

    #[test]
    fn a_retired_frame_is_revived_in_its_slot() {
        let mut frames = Frames::default();
        frames.insert(TaskKey(0), packet(1));
        frames.insert(TaskKey(1), packet(2));
        let slot = frames.index[&TaskKey(0)];
        let mut task = frames.remove(&TaskKey(0)).expect("resident");
        assert_eq!(task.key, TaskKey(0));
        assert!(frames.get(&TaskKey(0)).is_none());
        task.children.reserve(8);
        frames.recycle(task);
        assert_eq!(frames.retired_len(), 1);

        let p = packet(3);
        let (args, ancestors) = (p.demand.args.clone(), p.ancestors.as_ptr());
        frames.insert(TaskKey(2), p);
        assert_eq!(frames.index[&TaskKey(2)], slot);
        assert_eq!(frames.chunks.len(), 1);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames.retired_len(), 0);
        let revived = frames.get(&TaskKey(2)).expect("resident");
        assert_eq!(revived.key, TaskKey(2));
        assert_eq!(revived.stamp, LevelStamp::root().child(3));
        assert!(revived.children.capacity() >= 8, "kept its children table");
        assert!(
            std::ptr::eq(revived.eval.args(), &*args),
            "took the packet's argument list"
        );
        assert_eq!(
            revived.ancestors.as_ptr(),
            ancestors,
            "took the packet's ancestor buffer"
        );
    }

    #[test]
    fn chunks_grow_to_the_cap_and_never_reallocate() {
        let mut frames = Frames::default();
        let mut seen: Vec<usize> = Vec::new();
        for k in 0..(4 + 4 + 8 + 16 + 32 + 64 + 64) {
            frames.insert(TaskKey(k), packet(1));
            let now = capacities(&frames);
            assert_eq!(now[..seen.len()], seen[..], "a chunk was resized");
            seen = now;
        }
        assert_eq!(seen, [4, 4, 8, 16, 32, 64, 64]);
        assert_eq!(frames.capacity(), frames.len());
    }

    #[test]
    fn walks_follow_a_plain_map_of_the_same_keys() {
        let mut frames = Frames::default();
        let mut model: FxHashMap<TaskKey, ()> = FxHashMap::default();
        let mut next = 0u64;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..5_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let resident: Vec<TaskKey> = model.keys().copied().collect();
            if resident.is_empty() || rng % 5 < 3 {
                frames.insert(TaskKey(next), packet(1));
                model.insert(TaskKey(next), ());
                next += 1;
            } else {
                let key = resident[(rng >> 8) as usize % resident.len()];
                let task = frames.remove(&key).expect("resident");
                frames.recycle(task);
                model.remove(&key);
            }
            let walked: Vec<TaskKey> = frames.iter().map(|(k, _)| *k).collect();
            assert_eq!(walked, model.keys().copied().collect::<Vec<_>>());
        }
        let mut walked = Vec::new();
        frames.for_each_mut(|key, task| {
            assert_eq!(task.key, key);
            walked.push(key);
        });
        assert_eq!(walked, model.keys().copied().collect::<Vec<_>>());
    }
}
