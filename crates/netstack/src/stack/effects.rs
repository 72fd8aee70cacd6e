//! [`Effects`]: what became of one received frame, without a heap
//! allocation for the usual single effect.
use super::Effect;
use std::fmt;
use std::ops::Deref;

/// The effects of one received frame, in order. Nearly every frame has
/// exactly one (forwarded, delivered or dropped), so the first is held
/// inline and a `Vec` is allocated only for the second. Reads as a slice
/// of [`Effect`]s.
///
/// # Example
///
/// ```
/// use linuxfp_netstack::stack::{DropReason, Effect, Effects};
///
/// let mut effects = Effects::default();
/// effects.push(Effect::Drop { reason: DropReason::NoRoute });
/// assert_eq!(effects.len(), 1);
/// assert!(matches!(effects[..], [Effect::Drop { .. }]));
/// ```
#[derive(Clone, Default)]
pub struct Effects(EffectsRepr);

#[derive(Clone, Default)]
enum EffectsRepr {
    #[default]
    None,
    One(Effect),
    /// Two or more.
    Many(Vec<Effect>),
}

impl Effects {
    /// The effects, in order.
    pub fn as_slice(&self) -> &[Effect] {
        match &self.0 {
            EffectsRepr::None => &[],
            EffectsRepr::One(effect) => std::slice::from_ref(effect),
            EffectsRepr::Many(effects) => effects,
        }
    }

    /// Appends an effect.
    pub fn push(&mut self, effect: Effect) {
        self.0 = match std::mem::take(&mut self.0) {
            EffectsRepr::None => EffectsRepr::One(effect),
            EffectsRepr::One(first) => EffectsRepr::Many(vec![first, effect]),
            EffectsRepr::Many(mut effects) => {
                effects.push(effect);
                EffectsRepr::Many(effects)
            }
        };
    }
}

impl Deref for Effects {
    type Target = [Effect];

    fn deref(&self) -> &[Effect] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Effects {
    type Item = &'a Effect;
    type IntoIter = std::slice::Iter<'a, Effect>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The effects by value, in order: what a caller keeps (a transmitted
/// frame put on the wire) it moves out instead of cloning.
impl IntoIterator for Effects {
    type Item = Effect;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Effect>, std::vec::IntoIter<Effect>>;

    fn into_iter(self) -> Self::IntoIter {
        let (first, rest) = match self.0 {
            EffectsRepr::None => (None, Vec::new()),
            EffectsRepr::One(effect) => (Some(effect), Vec::new()),
            EffectsRepr::Many(effects) => (None, effects),
        };
        first.into_iter().chain(rest)
    }
}

impl fmt::Debug for Effects {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for Effects {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Effects {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::IfIndex;
    use crate::stack::DropReason;
    use linuxfp_packet::PacketBuf;
    use linuxfp_sim::SimRng;

    /// One of three effects: few enough that equal sequences are common.
    fn effect(rng: &mut SimRng) -> Effect {
        match rng.uniform_u64(3) {
            0 => Effect::Drop {
                reason: DropReason::NoRoute,
            },
            1 => Effect::Transmit {
                dev: IfIndex(1),
                frame: PacketBuf::from_vec(vec![1, 2]),
            },
            _ => Effect::Deliver {
                dev: IfIndex(2),
                frame: PacketBuf::from_vec(vec![3]),
            },
        }
    }

    #[test]
    fn effects_read_back_like_the_vec_they_replace() {
        let mut rng = SimRng::seed(7);
        let mut seen: Vec<(Effects, Vec<Effect>)> = Vec::new();
        // How many equal pairs had 0, 1, and 2 or more effects.
        let mut equal_by_len = [0u32; 3];
        for _ in 0..400 {
            let (mut effects, mut oracle) = (Effects::default(), Vec::new());
            for _ in 0..rng.uniform_u64(6) {
                let e = effect(&mut rng);
                effects.push(e.clone());
                oracle.push(e);
                assert_eq!(effects.as_slice(), oracle.as_slice());
            }
            assert_eq!(&effects[..], &oracle[..]);
            assert_eq!(effects.len(), oracle.len());
            assert!(effects.iter().eq(&oracle));
            assert!((&effects).into_iter().eq(&oracle));
            assert!(effects.clone().into_iter().eq(oracle.iter().cloned()));
            assert_eq!(format!("{effects:?}"), format!("{oracle:?}"));
            let copy = effects.clone();
            assert_eq!(copy.as_slice(), oracle.as_slice());
            assert_eq!(copy, effects);
            for (other, other_oracle) in &seen {
                let equal = effects == *other;
                assert_eq!(equal, oracle == *other_oracle);
                if equal {
                    equal_by_len[oracle.len().min(2)] += 1;
                }
            }
            seen.push((effects, oracle));
        }
        assert!(equal_by_len.iter().all(|&n| n > 0), "{equal_by_len:?}");
    }
}
