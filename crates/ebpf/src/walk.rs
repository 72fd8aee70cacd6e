//! The forward walk both abstract interpreters ([`crate::verifier`] and
//! [`crate::opt`]) run over a program.
//!
//! Verified programs only jump forward, so the control-flow graph is a
//! DAG and program order is a topological order: one pass in pc order
//! sees every predecessor of an instruction before the instruction
//! itself. The walk therefore carries the fall-through state in place
//! and stores a state only where control arrives by a jump, joining the
//! states that arrive at the same target — the kernel verifier keeps
//! explored states only at prune points (jump targets) for the same
//! reason. [`Pending`] holds those states.

/// Abstract states filed at forward jump targets the walk has not
/// reached yet, sorted by target with the nearest last, so reaching a
/// target is a pop. Only targets of jumps already walked are present,
/// which keeps the list as short as the jumps in flight.
pub(crate) struct Pending<S> {
    slots: Vec<(usize, S)>,
}

impl<S> Default for Pending<S> {
    fn default() -> Self {
        Pending { slots: Vec::new() }
    }
}

impl<S> Pending<S> {
    /// Files `state` at `target`, joining it into a state already there
    /// with `join(existing, state)`.
    pub(crate) fn file(&mut self, target: usize, state: S, join: impl FnOnce(&mut S, &S)) {
        match self.slots.binary_search_by(|(t, _)| target.cmp(t)) {
            Ok(i) => join(&mut self.slots[i].1, &state),
            Err(i) => self.slots.insert(i, (target, state)),
        }
    }

    /// Takes the state filed at `pc`. The walk calls this at every pc in
    /// order, so a filed target is never skipped.
    pub(crate) fn take(&mut self, pc: usize) -> Option<S> {
        match self.slots.last() {
            Some((t, _)) if *t == pc => self.slots.pop().map(|(_, s)| s),
            _ => {
                debug_assert!(self.slots.last().is_none_or(|(t, _)| *t > pc));
                None
            }
        }
    }

    /// Drops every filed state, keeping the allocation for the next walk.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_pop_in_pc_order_and_joins_merge() {
        let mut p: Pending<Vec<u32>> = Pending::default();
        p.file(9, vec![1], |a, b| a.extend(b));
        p.file(4, vec![2], |a, b| a.extend(b));
        p.file(9, vec![3], |a, b| a.extend(b));
        p.file(6, vec![4], |a, b| a.extend(b));
        let walked: Vec<_> = (0..12).filter_map(|pc| Some((pc, p.take(pc)?))).collect();
        assert_eq!(walked, [(4, vec![2]), (6, vec![4]), (9, vec![1, 3])]);
        p.file(3, vec![5], |_, _| {});
        p.clear();
        assert!(p.take(3).is_none());
    }
}
