//! Frequency-skewed signature bit allocation (paper §4.2).
//!
//! A vertex signature is a 64-bit integer partitioned into per-label bit
//! groups. Frequent labels (H, C) get wide groups so their neighborhood
//! counts rarely saturate; rare labels (Si, B) get narrow ones. The
//! allocation is computed from label frequency weights.

use serde::{Deserialize, Serialize};
use sigmo_graph::Label;

/// Bit layout of one label's group within the 64-bit signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitGroup {
    /// Bit offset of the group's least-significant bit.
    pub shift: u8,
    /// Width in bits (≥ 1).
    pub bits: u8,
}

impl BitGroup {
    /// Largest count representable; counts saturate here.
    #[inline]
    pub fn max_count(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    /// Mask covering the group in place.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.max_count() << self.shift
    }
}

/// Signature layout: one [`BitGroup`] per label, packed into 64 bits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelSchema {
    groups: Vec<BitGroup>,
}

impl LabelSchema {
    /// Total signature width available.
    pub const TOTAL_BITS: u32 = 64;

    /// Builds a schema from per-label frequency weights.
    ///
    /// Every label gets a minimum of `min_bits`; the remaining bits are
    /// distributed one at a time to the label with the largest
    /// `weight / 2^bits` ratio — i.e. to whichever group is most likely to
    /// saturate next. Panics if `num_labels × min_bits > 64` or
    /// `num_labels == 0`.
    pub fn from_weights(weights: &[f64], min_bits: u8) -> Self {
        let n = weights.len();
        assert!(n > 0, "schema needs at least one label");
        assert!(
            n * min_bits as usize <= Self::TOTAL_BITS as usize,
            "{n} labels at {min_bits} bits minimum exceed 64 bits"
        );
        let mut bits = vec![min_bits; n];
        let mut remaining = Self::TOTAL_BITS as usize - n * min_bits as usize;
        while remaining > 0 {
            // Give the next bit to the group with the highest saturation
            // pressure. Cap any group at 16 bits; counts beyond 65535 never
            // matter for molecules of < 250 atoms.
            let (best, _) = bits
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b < 16)
                .map(|(i, &b)| (i, weights[i] / f64::from(1u32 << b)))
                .fold(
                    (usize::MAX, f64::MIN),
                    |acc, x| {
                        if x.1 > acc.1 {
                            x
                        } else {
                            acc
                        }
                    },
                );
            if best == usize::MAX {
                break; // all groups capped
            }
            bits[best] += 1;
            remaining -= 1;
        }
        let mut groups = Vec::with_capacity(n);
        let mut shift = 0u8;
        for &b in &bits {
            groups.push(BitGroup { shift, bits: b });
            shift += b;
        }
        Self { groups }
    }

    /// A uniform schema: every label gets `⌊64 / num_labels⌋` bits. Used by
    /// the signature-masking ablation.
    pub fn uniform(num_labels: usize) -> Self {
        assert!((1..=64).contains(&num_labels));
        let bits = (Self::TOTAL_BITS as usize / num_labels).min(16) as u8;
        let groups = (0..num_labels)
            .map(|i| BitGroup {
                shift: (i * bits as usize) as u8,
                bits,
            })
            .collect();
        Self { groups }
    }

    /// Rebuilds a schema from explicit bit groups — the deserialization
    /// path for persisted layouts (`sigmo-index` files store the groups
    /// verbatim). Returns `None` unless every group is non-empty, fits
    /// in 64 bits, and overlaps no other group, so untrusted bytes can
    /// never produce a schema whose masked arithmetic misbehaves.
    pub fn from_groups(groups: Vec<BitGroup>) -> Option<Self> {
        if groups.is_empty() {
            return None;
        }
        let mut used = 0u64;
        for g in &groups {
            if g.bits == 0 || g.bits > 16 || g.shift as u32 + g.bits as u32 > Self::TOTAL_BITS {
                return None;
            }
            if used & g.mask() != 0 {
                return None;
            }
            used |= g.mask();
        }
        Some(Self { groups })
    }

    /// The schema for the organic-element universe of `sigmo-mol`
    /// (12 labels, frequency-skewed).
    pub fn organic() -> Self {
        // Weights mirror sigmo_mol::elements::label_frequency_weights();
        // duplicated here so sigmo-core does not depend on sigmo-mol.
        const W: [f64; 12] = [
            0.46, 0.36, 0.07, 0.08, 0.012, 0.008, 0.006, 0.002, 0.001, 0.0006, 0.0002, 0.0002,
        ];
        Self::from_weights(&W, 2)
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.groups.len()
    }

    /// The bit group of `label`. Panics on out-of-range labels.
    #[inline]
    pub fn group(&self, label: Label) -> BitGroup {
        self.groups[label as usize]
    }

    /// All groups in label order.
    pub fn groups(&self) -> &[BitGroup] {
        &self.groups
    }

    /// Total bits in use (≤ 64).
    pub fn bits_used(&self) -> u32 {
        self.groups.iter().map(|g| g.bits as u32).sum()
    }

    /// The top (most significant) bit of every group whose index bit is
    /// set in `group_mask`; `top_bits(u64::MAX)` covers every group. These
    /// masks drive the branch-free domination test
    /// [`Signature::dominates_tops`](crate::Signature::dominates_tops).
    pub fn top_bits(&self, group_mask: u64) -> u64 {
        self.groups
            .iter()
            .enumerate()
            .filter(|&(i, g)| g.bits > 0 && group_mask >> i & 1 != 0)
            .fold(0, |acc, (_, g)| acc | 1 << (g.shift + g.bits - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn organic_schema_fits_64_bits() {
        let s = LabelSchema::organic();
        assert_eq!(s.num_labels(), 12);
        assert!(s.bits_used() <= 64);
    }

    #[test]
    fn groups_do_not_overlap() {
        let s = LabelSchema::organic();
        let mut seen = 0u64;
        for g in s.groups() {
            assert_eq!(seen & g.mask(), 0, "overlapping groups");
            seen |= g.mask();
        }
    }

    #[test]
    fn frequent_labels_get_more_bits() {
        let s = LabelSchema::organic();
        // H (0) and C (1) are most frequent; Si (11) least.
        assert!(s.group(0).bits >= s.group(2).bits);
        assert!(s.group(1).bits >= s.group(3).bits);
        assert!(s.group(0).bits > s.group(11).bits);
        assert!(s.group(11).bits >= 2);
    }

    #[test]
    fn uniform_schema_is_even() {
        let s = LabelSchema::uniform(8);
        assert!(s.groups().iter().all(|g| g.bits == 8));
        assert_eq!(s.bits_used(), 64);
    }

    #[test]
    fn max_count_and_mask() {
        let g = BitGroup { shift: 4, bits: 3 };
        assert_eq!(g.max_count(), 7);
        assert_eq!(g.mask(), 0b111_0000);
    }

    #[test]
    #[should_panic(expected = "exceed 64 bits")]
    fn too_many_labels_panics() {
        LabelSchema::from_weights(&[1.0; 40], 2);
    }

    #[test]
    fn top_bits_select_each_groups_msb() {
        let s = LabelSchema::from_groups(vec![
            BitGroup { shift: 0, bits: 1 },
            BitGroup { shift: 3, bits: 4 },
            BitGroup {
                shift: 48,
                bits: 16,
            },
        ])
        .unwrap();
        assert_eq!(s.top_bits(0b010), 1 << 6);
        assert_eq!(s.top_bits(u64::MAX), 1 | 1 << 6 | 1 << 63);
        assert_eq!(s.top_bits(0), 0);
    }

    #[test]
    fn from_weights_uses_all_64_bits_when_possible() {
        let s = LabelSchema::from_weights(&[0.5, 0.3, 0.2], 2);
        assert_eq!(s.bits_used(), 3 * 16, "three labels all cap at 16 bits");
    }
}
