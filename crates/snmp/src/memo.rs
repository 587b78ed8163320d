//! What a repeated Get works out once: the few request shapes a thread
//! has met lately.
//!
//! A monitor sends each device the same `GetRequest` every period, and
//! only the request-id changes. The binding list a manager encodes for a
//! list of names, and the names an agent decodes from a list's bytes, are
//! pure functions of that list, so each side keeps the last few results
//! in a [`Shapes`] of its own. Both are per thread, as the agent's answer
//! buffer is ([`crate::agent::with_answer_buffer`]): a process that holds
//! a thousand in-process managers and agents keeps one memo of each kind,
//! not a thousand.

use std::collections::VecDeque;

/// How many shapes a memo holds. A monitor's polls come in a handful of
/// shapes — one per interface count among its devices — and a poll of a
/// shape the memo no longer holds is worked out the long way, as before.
pub(crate) const SHAPES: usize = 4;

/// A memo of at most [`SHAPES`] entries, each a key and what it worked
/// out to. A new shape takes a free entry at once; once none is free,
/// every [`SHAPES`]th new shape replaces the oldest one recorded. So
/// where more shapes come round than the memo holds, the ones it keeps
/// go on hitting, and the others pay for a recording on one miss in
/// [`SHAPES`], not on every one. A replaced entry's buffers are handed to
/// the shape that replaces it, so once a thread has met its shapes,
/// recording one allocates nothing more.
pub(crate) struct Shapes<K, V> {
    /// Oldest first.
    entries: VecDeque<(K, V)>,
    /// New shapes passed over since the memo last recorded one.
    passed_over: usize,
}

impl<K: Default, V: Default> Shapes<K, V> {
    /// An empty memo; it allocates on its first record.
    pub(crate) const fn new() -> Self {
        Shapes {
            entries: VecDeque::new(),
            passed_over: 0,
        }
    }

    /// What the first entry whose key `is` accepts worked out to.
    pub(crate) fn find(&self, is: impl Fn(&K) -> bool) -> Option<&V> {
        self.entries.iter().find(|(key, _)| is(key)).map(|(_, v)| v)
    }

    /// Records a new shape, unless the memo is full and passes it over:
    /// `fill` overwrites a key and its value — the oldest entry's, once
    /// the memo is full, so it must clear them first. An entry `fill`
    /// fails to write is dropped, never kept.
    pub(crate) fn record<E>(&mut self, fill: impl FnOnce(&mut K, &mut V) -> Result<(), E>) {
        let (mut key, mut value) = if self.entries.len() < SHAPES {
            self.entries.reserve_exact(SHAPES - self.entries.len());
            Default::default()
        } else if self.passed_over + 1 < SHAPES {
            self.passed_over += 1;
            return;
        } else {
            self.passed_over = 0;
            self.entries.pop_front().expect("the memo is full")
        };
        if fill(&mut key, &mut value).is_ok() {
            self.entries.push_back((key, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: u32) -> impl FnOnce(&mut u32, &mut Vec<u32>) -> Result<(), ()> {
        move |key, value| {
            *key = n;
            value.clear();
            value.push(n * 10);
            Ok(())
        }
    }

    #[test]
    fn a_full_memo_replaces_its_oldest_entry_with_every_shapes_th_new_shape() {
        let mut memo = Shapes::<u32, Vec<u32>>::new();
        for n in 0..SHAPES as u32 {
            memo.record(fill(n));
        }
        for round in 0..2 {
            for n in 1..SHAPES as u32 {
                memo.record(fill(100 + n));
                assert_eq!(memo.find(|&k| k == 100 + n), None, "passed over");
            }
            memo.record(fill(99 + round));
            assert_eq!(memo.find(|&k| k == round), None, "the oldest went");
            assert_eq!(
                memo.find(|&k| k == round + 1),
                Some(&vec![10 * (round + 1)])
            );
            assert_eq!(
                memo.find(|&k| k == 99 + round),
                Some(&vec![990 + 10 * round])
            );
            assert_eq!(memo.entries.len(), SHAPES);
        }
    }

    #[test]
    fn an_entry_that_fails_to_fill_is_not_kept() {
        let mut memo = Shapes::<u32, Vec<u32>>::new();
        memo.record(fill(1));
        memo.record(|key: &mut u32, _: &mut Vec<u32>| {
            *key = 2;
            Err(())
        });
        assert_eq!(memo.find(|&k| k == 2), None);
        assert_eq!(memo.find(|&k| k == 1), Some(&vec![10]));
    }
}
