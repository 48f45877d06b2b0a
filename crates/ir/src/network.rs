//! Whole-network containers: an ordered list of convolution workloads.

use crate::layer::ConvSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordered sequence of convolution layers forming one benchmark network.
///
/// Only MAC-dominated layers are carried: element-wise ops, pooling and
/// normalization contribute a negligible share of both latency and energy
/// on MAC-array accelerators and are omitted, matching how the paper's
/// MAESTRO benchmarks describe networks.
///
/// ```
/// use naas_ir::{ConvSpec, Network};
/// let mut net = Network::new("tiny");
/// net.push(ConvSpec::conv2d("c1", 3, 8, (8, 8), (3, 3), 1, 1)?);
/// assert_eq!(net.layers().len(), 1);
/// assert_eq!(net.total_macs(), 8 * 3 * 8 * 8 * 9);
/// # Ok::<(), naas_ir::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    layers: Vec<ConvSpec>,
}

impl Network {
    /// Creates an empty network with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[ConvSpec] {
        &self.layers
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: ConvSpec) {
        self.layers.push(layer);
    }

    /// Total multiply-accumulate operations over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(ConvSpec::macs).sum()
    }

    /// Total weight parameters over all layers.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(ConvSpec::weight_elems).sum()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> std::slice::Iter<'_, ConvSpec> {
        self.layers.iter()
    }
}

impl<'a> IntoIterator for &'a Network {
    type Item = &'a ConvSpec;
    type IntoIter = std::slice::Iter<'a, ConvSpec>;
    fn into_iter(self) -> Self::IntoIter {
        self.layers.iter()
    }
}

impl Extend<ConvSpec> for Network {
    fn extend<T: IntoIterator<Item = ConvSpec>>(&mut self, iter: T) {
        self.layers.extend(iter);
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} layers, {:.1} GMACs, {:.1} M params",
            self.name,
            self.layers.len(),
            self.total_macs() as f64 / 1e9,
            self.total_weights() as f64 / 1e6
        )?;
        for l in &self.layers {
            writeln!(f, "  {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ConvSpec;

    fn tiny() -> Network {
        let mut n = Network::new("t");
        n.push(ConvSpec::conv2d("a", 3, 8, (8, 8), (3, 3), 1, 1).unwrap());
        n.push(ConvSpec::conv2d("b", 8, 16, (8, 8), (3, 3), 2, 1).unwrap());
        n
    }

    #[test]
    fn totals_are_sums() {
        let n = tiny();
        let macs: u64 = n.iter().map(|l| l.macs()).sum();
        assert_eq!(n.total_macs(), macs);
        assert_eq!(n.len(), 2);
        assert!(!n.is_empty());
    }

    #[test]
    fn extend_and_iterate() {
        let mut n = Network::new("x");
        n.extend(tiny().layers().to_vec());
        assert_eq!(n.len(), 2);
        let names: Vec<&str> = (&n).into_iter().map(|l| l.name()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn display_header_mentions_name() {
        let s = tiny().to_string();
        assert!(s.starts_with("t: 2 layers"));
    }
}
