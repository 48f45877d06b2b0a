//! The mapping description: per-level loop orders and tilings.

use crate::tiling::{ceil_div, child_extents};
use naas_accel::{Accelerator, Connectivity};
use naas_ir::{dims::is_permutation, ConvSpec, Dim, DimVec, DIMS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One array level of a mapping: the temporal loop order over child tiles
/// and the trip count of each dimension at this level.
///
/// After the temporal loops of level `l`, array dimension `l` spatially
/// splits its parallel dimension across `sizes[l]` clusters (the spatial
/// split itself is part of the accelerator's [`Connectivity`], not of the
/// mapping — changing connectivity invalidates mappings, which is exactly
/// the coupling the paper highlights).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelSpec {
    /// Temporal loop order, outermost first.
    pub order: [Dim; 6],
    /// Temporal trip counts (≥ 1) for each dimension at this level.
    pub trips: DimVec<u64>,
}

impl LevelSpec {
    /// A level that executes everything in a single tile, canonical order.
    pub fn unit() -> Self {
        LevelSpec {
            order: DIMS,
            trips: DimVec::splat(1),
        }
    }
}

/// Error validating a [`Mapping`] against an accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// The mapping has a different number of array levels than the design.
    WrongLevelCount {
        /// Levels required by the accelerator (its array rank).
        expected: usize,
        /// Levels present in the mapping.
        got: usize,
    },
    /// A loop order is not a permutation of all six dimensions.
    NotAPermutation {
        /// Offending level (`levels.len()` denotes the PE level).
        level: usize,
    },
    /// A trip count of zero.
    ZeroTrips {
        /// Offending level.
        level: usize,
        /// Offending dimension.
        dim: Dim,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::WrongLevelCount { expected, got } => {
                write!(f, "mapping has {got} array levels, design needs {expected}")
            }
            MappingError::NotAPermutation { level } => {
                write!(f, "loop order at level {level} is not a permutation")
            }
            MappingError::ZeroTrips { level, dim } => {
                write!(f, "zero trip count for {dim} at level {level}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// A complete compiler mapping for one layer on one accelerator: one
/// [`LevelSpec`] per array dimension (outermost first) plus the PE-level
/// loop order (paper Fig. 2, "Mapping Encoding Vector").
///
/// ```
/// use naas_mapping::{LevelSpec, Mapping};
/// use naas_ir::{DimVec, DIMS};
///
/// let m = Mapping::new(vec![LevelSpec::unit(), LevelSpec::unit()], DIMS);
/// assert_eq!(m.levels().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    levels: Vec<LevelSpec>,
    pe_order: [Dim; 6],
}

impl Mapping {
    /// Creates a mapping from explicit levels; structural checks are
    /// deferred to [`Mapping::validate`] so that optimizers can construct
    /// candidates freely.
    pub fn new(levels: Vec<LevelSpec>, pe_order: [Dim; 6]) -> Self {
        Mapping { levels, pe_order }
    }

    /// The array levels, outermost first.
    pub fn levels(&self) -> &[LevelSpec] {
        &self.levels
    }

    /// Element-wise loop order inside each PE.
    pub fn pe_order(&self) -> &[Dim; 6] {
        &self.pe_order
    }

    /// Clears the array levels in place, keeping their allocation — the
    /// first step of rebuilding this mapping for a new candidate
    /// (`LevelSpec` is plain data, so a cleared+refilled level vector
    /// never reallocates once it has reached its high-water length).
    pub fn clear_levels(&mut self) {
        self.levels.clear();
    }

    /// Appends one array level (outermost first).
    pub fn push_level(&mut self, level: LevelSpec) {
        self.levels.push(level);
    }

    /// Replaces the PE-level loop order.
    pub fn set_pe_order(&mut self, order: [Dim; 6]) {
        self.pe_order = order;
    }

    /// Structural validation against an accelerator design.
    ///
    /// # Errors
    ///
    /// Returns the first [`MappingError`] found: level-count mismatch,
    /// non-permutation order, or zero trip count. (Capacity validation is
    /// the cost model's job — it depends on data widths.)
    pub fn validate(&self, accel: &Accelerator) -> Result<(), MappingError> {
        let expected = accel.connectivity().ndim();
        if self.levels.len() != expected {
            return Err(MappingError::WrongLevelCount {
                expected,
                got: self.levels.len(),
            });
        }
        self.validate_loops()
    }

    /// The design-independent part of [`Mapping::validate`]: every loop
    /// order is a permutation and no trip count is zero.
    ///
    /// # Errors
    ///
    /// The first non-permutation order or zero trip count, outermost
    /// level first and the PE level last.
    pub fn validate_loops(&self) -> Result<(), MappingError> {
        for (i, level) in self.levels.iter().enumerate() {
            if !is_permutation(&level.order) {
                return Err(MappingError::NotAPermutation { level: i });
            }
            for (dim, trips) in level.trips.iter() {
                if trips == 0 {
                    return Err(MappingError::ZeroTrips { level: i, dim });
                }
            }
        }
        if !is_permutation(&self.pe_order) {
            return Err(MappingError::NotAPermutation {
                level: self.levels.len(),
            });
        }
        Ok(())
    }

    /// The tile extents processed by **one temporal iteration** at each
    /// array level, outermost first (`result[0]` is the L2-resident tile).
    ///
    /// The walk alternates temporal tiling and spatial splitting:
    /// `tile_l = ceil(tile_{l-1,post-spatial} / trips_l)`, then the
    /// parallel dimension of array axis `l` is divided by its cluster
    /// count.
    pub fn tiles_per_level(&self, layer: &ConvSpec, conn: &Connectivity) -> Vec<DimVec<u64>> {
        let mut out = Vec::with_capacity(self.levels.len());
        let mut rem = layer.extents();
        for (level, spec) in self.levels.iter().enumerate() {
            rem = child_extents(&rem, &spec.trips);
            out.push(rem);
            if level < conn.ndim() {
                let p = conn.parallel_dims()[level];
                let s = conn.sizes()[level];
                rem[p] = ceil_div(rem[p], s);
            }
        }
        out
    }

    /// The L2-resident tile extents — `tiles_per_level()[0]`, computed
    /// directly from the level-0 trips without walking (or allocating)
    /// the whole hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the mapping has no levels (callers validate first).
    pub fn l2_tile(&self, layer: &ConvSpec) -> DimVec<u64> {
        child_extents(&layer.extents(), &self.levels[0].trips)
    }

    /// The per-PE (L1-resident) tile extents after all temporal tilings
    /// and spatial splits.
    pub fn pe_tile(&self, layer: &ConvSpec, conn: &Connectivity) -> DimVec<u64> {
        self.l2_and_pe_tiles(layer, conn).1
    }

    /// [`Mapping::l2_tile`] and [`Mapping::pe_tile`] from one walk of the
    /// hierarchy — the evaluation hot path needs both per candidate.
    pub fn l2_and_pe_tiles(
        &self,
        layer: &ConvSpec,
        conn: &Connectivity,
    ) -> (DimVec<u64>, DimVec<u64>) {
        let mut rem = layer.extents();
        let mut l2_tile = rem;
        for (level, spec) in self.levels.iter().enumerate() {
            rem = child_extents(&rem, &spec.trips);
            if level == 0 {
                l2_tile = rem;
            }
            if level < conn.ndim() {
                let p = conn.parallel_dims()[level];
                let s = conn.sizes()[level];
                rem[p] = ceil_div(rem[p], s);
            }
        }
        (l2_tile, rem)
    }

    /// Builds a capacity-aware heuristic mapping: outer loops keep weights
    /// resident (`C`,`K` outermost), and trip counts grow on the largest
    /// dimensions until the L2 tile is ≈¼ of L2 and the PE tile is ≈¼ of
    /// L1 (leaving room for double buffering; element size ≈ 1 byte,
    /// refined by the cost model's real capacity check).
    ///
    /// This is the default mapping given to baseline designs when no
    /// mapping search is run, and the seed for mapping search.
    pub fn balanced(layer: &ConvSpec, accel: &Accelerator) -> Mapping {
        let conn = accel.connectivity();
        let ndim = conn.ndim();
        let mut levels = vec![LevelSpec::unit(); ndim];
        levels[0].order = [Dim::C, Dim::K, Dim::Y, Dim::X, Dim::R, Dim::S];

        let mut mapping = Mapping::new(levels, DIMS);

        // Grow level-0 trips until the L2-resident tile fits.
        let l2_budget = (accel.sizing().l2_bytes() / 4).max(1);
        Self::grow_until(&mut mapping, layer, l2_budget);
        // Grow innermost-level trips until the PE tile fits L1.
        let l1_budget = (accel.sizing().l1_bytes() / 4).max(1);
        Self::grow_until_pe(&mut mapping, layer, conn, l1_budget);
        mapping
    }

    /// Rough tile footprint in elements (1-byte model): weights + input
    /// halo + partial sums.
    pub fn tile_footprint_elems(layer: &ConvSpec, tile: &DimVec<u64>) -> u64 {
        let w = tile[Dim::K] * tile[Dim::C] * tile[Dim::R] * tile[Dim::S];
        let iy = layer.input_halo(tile[Dim::Y], tile[Dim::R]);
        let ix = layer.input_halo(tile[Dim::X], tile[Dim::S]);
        let i = tile[Dim::C] * iy * ix;
        let o = tile[Dim::K] * tile[Dim::Y] * tile[Dim::X];
        w + i + o
    }

    /// Picks the dimension whose trip count to double: the largest of the
    /// channel/spatial dims, falling back to the kernel dims (`R`,`S`)
    /// once those are exhausted (large kernels on tiny L1s need it).
    fn grow_candidate(tile: &DimVec<u64>) -> Option<Dim> {
        let primary = [Dim::K, Dim::C, Dim::Y, Dim::X]
            .into_iter()
            .max_by_key(|&d| tile[d])
            .expect("nonempty candidate set");
        if tile[primary] > 1 {
            return Some(primary);
        }
        let kernel = [Dim::R, Dim::S]
            .into_iter()
            .max_by_key(|&d| tile[d])
            .expect("nonempty candidate set");
        (tile[kernel] > 1).then_some(kernel)
    }

    /// Grows level-0 trips until the L2-resident tile fits the budget.
    fn grow_until(mapping: &mut Mapping, layer: &ConvSpec, budget_elems: u64) {
        for _ in 0..64 {
            let tile = mapping.l2_tile(layer);
            if Self::tile_footprint_elems(layer, &tile) <= budget_elems {
                return;
            }
            match Self::grow_candidate(&tile) {
                Some(grow) => mapping.levels[0].trips[grow] *= 2,
                None => return, // nothing left to split
            }
        }
    }

    fn grow_until_pe(
        mapping: &mut Mapping,
        layer: &ConvSpec,
        conn: &Connectivity,
        budget_elems: u64,
    ) {
        let last = mapping.levels.len() - 1;
        for _ in 0..64 {
            let tile = mapping.pe_tile(layer, conn);
            if Self::tile_footprint_elems(layer, &tile) <= budget_elems {
                return;
            }
            match Self::grow_candidate(&tile) {
                Some(grow) => mapping.levels[last].trips[grow] *= 2,
                None => return,
            }
        }
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, level) in self.levels.iter().enumerate() {
            write!(f, "L{i} order [")?;
            for (j, d) in level.order.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", d.paper_name())?;
            }
            write!(f, "] trips [")?;
            for (j, (_, t)) in level.trips.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "PE order [")?;
        for (j, d) in self.pe_order.iter().enumerate() {
            if j > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", d.paper_name())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_accel::baselines;
    use naas_ir::models;

    fn layer() -> ConvSpec {
        ConvSpec::conv2d("c", 64, 128, (56, 56), (3, 3), 1, 1).unwrap()
    }

    #[test]
    fn unit_mapping_pe_tile_divides_by_array() {
        let accel = baselines::nvdla_256(); // 16x16 C,K parallel
        let m = Mapping::new(vec![LevelSpec::unit(), LevelSpec::unit()], DIMS);
        let tile = m.pe_tile(&layer(), accel.connectivity());
        assert_eq!(tile[Dim::C], 4); // 64 / 16
        assert_eq!(tile[Dim::K], 8); // 128 / 16
        assert_eq!(tile[Dim::Y], 56);
    }

    #[test]
    fn temporal_trips_shrink_tiles() {
        let accel = baselines::nvdla_256();
        let mut l0 = LevelSpec::unit();
        l0.trips[Dim::Y] = 8;
        let m = Mapping::new(vec![l0, LevelSpec::unit()], DIMS);
        let tiles = m.tiles_per_level(&layer(), accel.connectivity());
        assert_eq!(tiles[0][Dim::Y], 7);
        let pe = m.pe_tile(&layer(), accel.connectivity());
        assert_eq!(pe[Dim::Y], 7);
    }

    #[test]
    fn validate_rejects_wrong_level_count() {
        let accel = baselines::nvdla_256();
        let m = Mapping::new(vec![LevelSpec::unit()], DIMS);
        assert!(matches!(
            m.validate(&accel),
            Err(MappingError::WrongLevelCount {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn validate_rejects_bad_order_and_zero_trips() {
        let accel = baselines::nvdla_256();
        let mut bad_order = LevelSpec::unit();
        bad_order.order[0] = bad_order.order[1];
        let m = Mapping::new(vec![bad_order, LevelSpec::unit()], DIMS);
        assert!(matches!(
            m.validate(&accel),
            Err(MappingError::NotAPermutation { level: 0 })
        ));

        let mut zero = LevelSpec::unit();
        zero.trips[Dim::K] = 0;
        let m = Mapping::new(vec![LevelSpec::unit(), zero], DIMS);
        assert!(matches!(
            m.validate(&accel),
            Err(MappingError::ZeroTrips {
                level: 1,
                dim: Dim::K
            })
        ));
    }

    #[test]
    fn balanced_mapping_is_valid_for_all_baselines() {
        let net = models::mobilenet_v2(224);
        for accel in baselines::all() {
            for l in net.layers().iter().take(8) {
                let m = Mapping::balanced(l, &accel);
                m.validate(&accel).expect("balanced mapping validates");
                assert!(m.pe_tile(l, accel.connectivity()).is_positive());
            }
        }
    }

    #[test]
    fn balanced_mapping_respects_rough_budgets() {
        let accel = baselines::eyeriss();
        let l = layer();
        let m = Mapping::balanced(&l, &accel);
        let tiles = m.tiles_per_level(&l, accel.connectivity());
        let l2_elems = Mapping::tile_footprint_elems(&l, &tiles[0]);
        assert!(l2_elems <= accel.sizing().l2_bytes());
    }

    #[test]
    fn display_lists_all_levels() {
        let m = Mapping::new(vec![LevelSpec::unit(), LevelSpec::unit()], DIMS);
        let s = m.to_string();
        assert!(s.contains("L0 order"));
        assert!(s.contains("L1 order"));
        assert!(s.contains("PE order"));
    }
}
