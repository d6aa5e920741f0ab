//! Copying a component into the storage a resident engine already holds.
//!
//! A worker that forks one donor into the same engine point after point
//! (see [`crate::Engine::fork_into`]) holds, in every slot, a component of
//! the type the donor holds there, with its queues, maps and rings grown
//! to fit. [`Component::fork_onto`] is the seam that lets such a fork
//! copy each component *into* that storage instead of dropping it and
//! re-making it through [`Component::fork`]:
//!
//! - [`clone_onto`] is the one body of every override: downcast the
//!   target to `Self` and `clone_from`, or make a fresh box when the slot
//!   holds another type.
//! - [`clone_in_place!`](crate::clone_in_place) writes the `Clone` those
//!   overrides need. `#[derive(Clone)]`'s `clone_from` is
//!   `*self = src.clone()`, which re-makes every field; the macro's copies
//!   field by field, so each `Vec`, `VecDeque`, `String` and ring keeps
//!   its allocation. Both of its methods destructure the source
//!   exhaustively, so a field added later and left out of the list is a
//!   compile error, as it is under the derive.
//! - [`btree_map_from`] is the field copy for a `BTreeMap`, whose own
//!   `clone_from` re-makes every node.

use std::collections::BTreeMap;

use crate::engine::Component;

/// The body of every [`Component::fork_onto`] override: overwrites `dst`
/// with a copy of `src`, in place when `dst` already holds a `C` (its
/// `clone_from`, written by [`clone_in_place!`](crate::clone_in_place)),
/// in a fresh box when it holds anything else.
pub fn clone_onto<M: 'static, C: Component<M> + Clone>(src: &C, dst: &mut Box<dyn Component<M>>) {
    match (**dst).as_any_mut().downcast_mut::<C>() {
        Some(same) => same.clone_from(src),
        None => *dst = Box::new(src.clone()),
    }
}

/// Overwrites `dst` with `src`. When both hold the same keys in the same
/// order — a resident fork's maps, almost always — each value is copied
/// with `clone_from` where it is and no node is re-made; otherwise the
/// map is cloned whole.
pub fn btree_map_from<K: Ord + Clone, V: Clone>(dst: &mut BTreeMap<K, V>, src: &BTreeMap<K, V>) {
    if dst.len() == src.len() && dst.keys().eq(src.keys()) {
        for (to, from) in dst.values_mut().zip(src.values()) {
            to.clone_from(from);
        }
    } else {
        dst.clone_from(src);
    }
}

/// Implements `Clone` for a struct from the list of its fields, with a
/// `clone_from` that copies field by field into the storage `self`
/// already holds.
///
/// Name every field, with its `#[cfg(...)]` if it has one. A field may
/// name the function that copies it, `field => path`, called as
/// `path(&mut self.field, &src.field)` ([`btree_map_from`] for a map);
/// the others copy with their own `clone_from`. Both methods destructure
/// the source without `..`, so a field missing from the list fails to
/// compile.
///
/// ```
/// use std::collections::BTreeMap;
///
/// struct Port {
///     queue: Vec<u32>,
///     counts: BTreeMap<u16, u64>,
///     name: String,
/// }
///
/// netfi_sim::clone_in_place!(Port {
///     queue,
///     counts => netfi_sim::clone::btree_map_from,
///     name,
/// });
///
/// let src = Port { queue: vec![1, 2], counts: BTreeMap::from([(7, 1)]), name: "p0".into() };
/// let mut dst = Port { queue: Vec::with_capacity(64), counts: BTreeMap::new(), name: String::new() };
/// dst.clone_from(&src);
/// assert_eq!(dst.queue, [1, 2]);
/// assert!(dst.queue.capacity() >= 64);
/// assert_eq!(dst.counts[&7], 1);
/// ```
#[macro_export]
macro_rules! clone_in_place {
    (@field $dst:expr, $src:ident) => {
        ::core::clone::Clone::clone_from(&mut $dst, $src)
    };
    (@field $dst:expr, $src:ident, $with:path) => {
        $with(&mut $dst, $src)
    };
    ($ty:ident { $($(#[$attr:meta])* $field:ident $(=> $with:path)?),* $(,)? }) => {
        impl ::core::clone::Clone for $ty {
            fn clone(&self) -> Self {
                let $ty { $($(#[$attr])* $field),* } = self;
                $ty { $($(#[$attr])* $field: ::core::clone::Clone::clone($field)),* }
            }

            fn clone_from(&mut self, src: &Self) {
                let $ty { $($(#[$attr])* $field),* } = src;
                $($(#[$attr])* $crate::clone_in_place!(@field self.$field, $field $(, $with)?);)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Context;
    use std::any::Any;

    /// Gated fields as `Switch` and `EgressPort` have them: one compiled
    /// in, one compiled out, each named with its `#[cfg]`.
    #[derive(Debug, PartialEq)]
    struct Held {
        log: Vec<u64>,
        last: Option<Vec<u8>>,
        counts: BTreeMap<u16, Vec<u8>>,
        #[cfg(test)]
        tag: u8,
        #[cfg(any())]
        never: u8,
    }

    clone_in_place!(Held {
        log,
        last,
        counts => btree_map_from,
        #[cfg(test)]
        tag,
        #[cfg(any())]
        never,
    });

    fn held(log: &[u64], last: Option<&[u8]>, counts: &[(u16, &[u8])]) -> Held {
        Held {
            log: log.to_vec(),
            last: last.map(<[u8]>::to_vec),
            counts: counts.iter().map(|&(k, v)| (k, v.to_vec())).collect(),
            tag: log.len() as u8,
        }
    }

    #[test]
    fn clone_is_a_copy_of_every_field() {
        let src = held(&[1, 2, 3], Some(b"ab"), &[(9, b"x")]);
        assert_eq!(src.clone(), src);
    }

    #[test]
    fn clone_from_a_shorter_vec_drops_the_tail_and_keeps_the_storage() {
        let mut dst = held(&[5; 100], None, &[]);
        let storage = dst.log.as_ptr();
        let src = held(&[1, 2], None, &[]);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.log.as_ptr(), storage, "the vector was re-made");
        let longer = held(&[7; 3], None, &[]);
        dst.clone_from(&longer);
        assert_eq!(dst, longer);
    }

    #[test]
    fn clone_from_none_empties_an_option_that_held_something() {
        let mut dst = held(&[], Some(b"left behind"), &[]);
        let src = held(&[], None, &[]);
        dst.clone_from(&src);
        assert_eq!(dst.last, None);
        // And back: `None` to `Some`, then `Some` to a shorter `Some`.
        dst.clone_from(&held(&[], Some(b"xyz"), &[]));
        assert_eq!(dst.last.as_deref(), Some(&b"xyz"[..]));
        dst.clone_from(&held(&[], Some(b"q"), &[]));
        assert_eq!(dst.last.as_deref(), Some(&b"q"[..]));
    }

    #[test]
    fn a_map_with_the_same_keys_is_copied_value_by_value() {
        let mut dst = held(&[], None, &[(1, b"old"), (2, b"old")]);
        let value = dst.counts[&2].as_ptr();
        let src = held(&[], None, &[(1, b"a"), (2, b"b")]);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.counts[&2].as_ptr(), value, "the value was re-made");
        // Other keys, more keys and fewer keys are copied whole.
        for counts in [
            &[(1, &b"a"[..]), (3, b"c")][..],
            &[(1, b"a"), (2, b"b"), (3, b"c")],
            &[],
        ] {
            let src = held(&[], None, counts);
            dst.clone_from(&src);
            assert_eq!(dst, src);
        }
    }

    struct Tally {
        log: Vec<u32>,
    }

    clone_in_place!(Tally { log });

    impl Component<u32> for Tally {
        fn on_event(&mut self, _ctx: &mut Context<'_, u32>, payload: u32) {
            self.log.push(payload);
        }
        fn fork(&self) -> Box<dyn Component<u32>> {
            Box::new(self.clone())
        }
        fn fork_onto(&self, dst: &mut Box<dyn Component<u32>>) {
            clone_onto(self, dst)
        }
    }

    #[derive(Clone)]
    struct Other;

    impl Component<u32> for Other {
        fn on_event(&mut self, _ctx: &mut Context<'_, u32>, _payload: u32) {}
        fn fork(&self) -> Box<dyn Component<u32>> {
            Box::new(self.clone())
        }
    }

    fn tally(c: &dyn Component<u32>) -> Option<&Vec<u32>> {
        c.as_any().downcast_ref::<Tally>().map(|t| &t.log)
    }

    #[test]
    fn clone_onto_copies_into_a_box_of_the_same_type() {
        let mut dst: Box<dyn Component<u32>> = Box::new(Tally { log: vec![9; 32] });
        let (boxed, log) = (
            dst.as_any() as *const dyn Any,
            tally(dst.as_ref()).map(|v| v.as_ptr()),
        );
        Tally { log: vec![1, 2] }.fork_onto(&mut dst);
        assert_eq!(tally(dst.as_ref()), Some(&vec![1, 2]));
        assert!(
            std::ptr::addr_eq(dst.as_any(), boxed),
            "the box was re-made"
        );
        assert_eq!(
            tally(dst.as_ref()).map(|v| v.as_ptr()),
            log,
            "the log was re-made"
        );
    }

    #[test]
    fn clone_onto_replaces_a_box_of_another_type() {
        let mut dst: Box<dyn Component<u32>> = Box::new(Other);
        Tally { log: vec![4] }.fork_onto(&mut dst);
        assert_eq!(tally(dst.as_ref()), Some(&vec![4]));
        // The provided default re-makes the component whatever `dst` held.
        Other.fork_onto(&mut dst);
        assert!(tally(dst.as_ref()).is_none());
    }
}
