//! The top-level cost model: latency, energy and EDP per layer/network.

use crate::capacity::{self, CapacityViolation};
use crate::energy::EnergyTable;
use crate::scratch::EvalScratch;
use crate::traffic::{self, TrafficBreakdown};
use crate::widths::DataWidths;
use naas_accel::Accelerator;
use naas_ir::{ConvSpec, Network};
use naas_mapping::{Mapping, MappingError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error evaluating a `(layer, accelerator, mapping)` triple.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// The mapping is structurally invalid for the design.
    Mapping(MappingError),
    /// A working set does not fit its scratch pad.
    Capacity(CapacityViolation),
    /// A network evaluation was given the wrong number of mappings.
    LayerCountMismatch {
        /// Layers in the network.
        expected: usize,
        /// Mappings supplied.
        got: usize,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::Mapping(e) => write!(f, "invalid mapping: {e}"),
            CostError::Capacity(v) => write!(f, "capacity exceeded: {v}"),
            CostError::LayerCountMismatch { expected, got } => {
                write!(
                    f,
                    "network has {expected} layers but {got} mappings were supplied"
                )
            }
        }
    }
}

impl std::error::Error for CostError {}

impl From<MappingError> for CostError {
    fn from(e: MappingError) -> Self {
        CostError::Mapping(e)
    }
}

impl From<CapacityViolation> for CostError {
    fn from(v: CapacityViolation) -> Self {
        CostError::Capacity(v)
    }
}

/// Energy decomposition by hardware component, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Multiply-accumulate datapath energy.
    pub mac_pj: f64,
    /// PE-private scratch-pad accesses.
    pub l1_pj: f64,
    /// NoC deliveries (multicast copies and reduction hops included).
    pub noc_pj: f64,
    /// Shared scratch-pad accesses (both ports: array side and DRAM side).
    pub l2_pj: f64,
    /// Off-chip DRAM accesses — usually the dominant term the mapping
    /// search fights to shrink.
    pub dram_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.mac_pj + self.l1_pj + self.noc_pj + self.l2_pj + self.dram_pj
    }
}

/// Cost estimate for one layer under one mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Useful multiply-accumulates (exact, from the layer shape).
    pub macs: u64,
    /// Serial MAC issues per PE × temporal trips — the compute roofline.
    pub compute_cycles: u64,
    /// DRAM-traffic roofline in cycles.
    pub dram_cycles: f64,
    /// NoC-traffic roofline in cycles.
    pub noc_cycles: f64,
    /// Final latency: max of the rooflines plus pipeline fill.
    pub cycles: u64,
    /// Compute-array utilization = macs / (compute_cycles × #PEs) ∈ (0,1].
    pub utilization: f64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Energy decomposed by hardware component.
    pub energy_breakdown: EnergyBreakdown,
    /// Per-tensor, per-level traffic detail.
    pub traffic: TrafficBreakdown,
}

impl LayerCost {
    /// Energy-delay product in `cycles · nJ` — the reward the NAAS
    /// optimizers minimize and the unit of the paper's Table III.
    pub fn edp(&self) -> f64 {
        self.cycles as f64 * self.energy_pj / 1000.0
    }

    /// Checks that energy and EDP are finite and positive — what a report
    /// read from a file or received over the wire must satisfy before a
    /// geometric-mean reward aggregates it. Every report this model
    /// produces does.
    ///
    /// # Errors
    ///
    /// Names the first offending quantity and its value.
    pub fn check_energy(&self) -> Result<(), String> {
        if !(self.energy_pj.is_finite() && self.energy_pj > 0.0) {
            return Err(format!(
                "energy_pj must be finite and positive, got {}",
                self.energy_pj
            ));
        }
        let edp = self.edp();
        if !(edp.is_finite() && edp > 0.0) {
            return Err(format!("EDP must be finite and positive, got {edp}"));
        }
        Ok(())
    }
}

/// Aggregate cost of a whole network (sum over layers; each layer may use
/// its own mapping, per §II-B: "we optimize the mapping for each layer
/// independently").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkCost {
    /// Per-layer costs in network order.
    pub layers: Vec<LayerCost>,
}

impl NetworkCost {
    /// Total latency in cycles.
    pub fn cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_pj).sum()
    }

    /// Total energy in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.energy_pj() / 1000.0
    }

    /// Whole-network energy-delay product in `cycles · nJ`.
    pub fn edp(&self) -> f64 {
        self.cycles() as f64 * self.energy_nj()
    }
}

/// The analytical cost model (MAESTRO-class substitute; see DESIGN.md §4).
///
/// Construct once and reuse — evaluation is allocation-light and takes
/// microseconds per layer, which is what lets NAAS afford millions of
/// samples per search (Table IV).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    energy: EnergyTable,
    widths: DataWidths,
    /// Fixed pipeline-fill overhead added to every layer's latency.
    pipeline_fill: u64,
}

impl CostModel {
    /// Cost model with default energy table (Eyeriss ladder) and widths
    /// (8-bit inference).
    pub fn new() -> Self {
        CostModel {
            energy: EnergyTable::default(),
            widths: DataWidths::default(),
            pipeline_fill: 32,
        }
    }

    /// Replaces the energy table.
    pub fn with_energy(mut self, energy: EnergyTable) -> Self {
        self.energy = energy;
        self
    }

    /// Replaces the operand widths.
    pub fn with_widths(mut self, widths: DataWidths) -> Self {
        self.widths = widths;
        self
    }

    /// The energy table in use.
    pub fn energy(&self) -> &EnergyTable {
        &self.energy
    }

    /// The operand widths in use.
    pub fn widths(&self) -> &DataWidths {
        &self.widths
    }

    /// Evaluates one layer under one mapping.
    ///
    /// This is a thin wrapper over [`CostModel::evaluate_with`] with a
    /// fresh scratch, so the scalar and batched entry points share one
    /// implementation and give bit-identical results.
    ///
    /// # Errors
    ///
    /// [`CostError::Mapping`] if the mapping does not structurally match
    /// the design; [`CostError::Capacity`] if a working set overflows its
    /// buffer (the signal NAAS uses to resample invalid candidates).
    pub fn evaluate(
        &self,
        layer: &ConvSpec,
        accel: &Accelerator,
        mapping: &Mapping,
    ) -> Result<LayerCost, CostError> {
        self.evaluate_with(&mut EvalScratch::new(), layer, accel, mapping)
    }

    /// [`CostModel::evaluate`] with a caller-owned [`EvalScratch`] — the
    /// hot-loop entry point, which batched callers use with one scratch
    /// per worker thread.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CostModel::evaluate`].
    pub fn evaluate_with(
        &self,
        _scratch: &mut EvalScratch,
        layer: &ConvSpec,
        accel: &Accelerator,
        mapping: &Mapping,
    ) -> Result<LayerCost, CostError> {
        mapping.validate(accel)?;
        let conn = accel.connectivity();
        // One tile walk shared by the capacity check, the traffic
        // analysis and the compute roofline.
        let (l2_tile, pe_tile) = mapping.l2_and_pe_tiles(layer, conn);
        capacity::check_tiles(layer, accel, &pe_tile, &l2_tile, &self.widths)?;

        let traffic =
            traffic::analyze_tiles(layer, conn, mapping, &l2_tile, &pe_tile, &self.widths);

        // Compute roofline: every PE serially issues its tile, for every
        // temporal iteration of every level (ceil losses included).
        let trips_total: u64 = mapping.levels().iter().map(|l| l.trips.product()).product();
        let compute_cycles = layer.batch() * trips_total * pe_tile.product();

        let sizing = accel.sizing();
        let dram_cycles = traffic.dram_total() / sizing.dram_bandwidth();
        let noc_cycles = traffic.l2_total() / sizing.noc_bandwidth();

        let fill = self.pipeline_fill + conn.sizes().iter().sum::<u64>();
        let cycles = (compute_cycles as f64)
            .max(dram_cycles)
            .max(noc_cycles)
            .ceil() as u64
            + fill;

        let macs = layer.macs();
        let utilization = macs as f64 / (compute_cycles as f64 * accel.pe_count() as f64);

        let e = &self.energy;
        let energy_breakdown = EnergyBreakdown {
            mac_pj: macs as f64 * e.mac_pj,
            l1_pj: traffic.l1_total() * e.l1_pj,
            noc_pj: traffic.noc_total() * e.noc_pj,
            l2_pj: (traffic.l2_total() + traffic.dram_total()) * e.l2_pj,
            dram_pj: traffic.dram_total() * e.dram_pj,
        };
        let energy_pj = energy_breakdown.total_pj();

        Ok(LayerCost {
            macs,
            compute_cycles,
            dram_cycles,
            noc_cycles,
            cycles,
            utilization,
            energy_pj,
            energy_breakdown,
            traffic,
        })
    }

    /// Scores a whole candidate population of mappings for one layer in
    /// one call — the batch-evaluate step of the search pipeline. Results
    /// land in `out` (cleared first) in population order, one
    /// `Result` per mapping, each bit-identical to what the scalar
    /// [`CostModel::evaluate`] returns for that mapping.
    pub fn evaluate_batch(
        &self,
        layer: &ConvSpec,
        accel: &Accelerator,
        mappings: &[Mapping],
        scratch: &mut EvalScratch,
        out: &mut Vec<Result<LayerCost, CostError>>,
    ) {
        out.clear();
        for mapping in mappings {
            out.push(self.evaluate_with(scratch, layer, accel, mapping));
        }
    }

    /// Evaluates a whole network with one mapping per layer.
    ///
    /// # Errors
    ///
    /// [`CostError::LayerCountMismatch`] if `mappings.len() !=
    /// network.len()`; otherwise propagates the first per-layer error.
    pub fn evaluate_network(
        &self,
        network: &Network,
        accel: &Accelerator,
        mappings: &[Mapping],
    ) -> Result<NetworkCost, CostError> {
        if mappings.len() != network.len() {
            return Err(CostError::LayerCountMismatch {
                expected: network.len(),
                got: mappings.len(),
            });
        }
        let layers = network
            .iter()
            .zip(mappings)
            .map(|(layer, mapping)| self.evaluate(layer, accel, mapping))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NetworkCost { layers })
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naas_accel::baselines;
    use naas_ir::models;

    fn layer() -> ConvSpec {
        ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1).unwrap()
    }

    fn eval(accel: &Accelerator, l: &ConvSpec) -> LayerCost {
        let m = Mapping::balanced(l, accel);
        CostModel::new().evaluate(l, accel, &m).expect("valid")
    }

    #[test]
    fn latency_at_least_compute_bound() {
        let accel = baselines::nvdla_256();
        let l = layer();
        let c = eval(&accel, &l);
        let ideal = l.macs() / accel.pe_count();
        assert!(c.cycles as u64 >= ideal, "can't beat the compute bound");
        assert!(c.utilization > 0.0 && c.utilization <= 1.0);
    }

    #[test]
    fn energy_at_least_mac_energy() {
        let accel = baselines::nvdla_256();
        let l = layer();
        let c = eval(&accel, &l);
        let mac_floor = l.macs() as f64 * CostModel::new().energy().mac_pj;
        assert!(c.energy_pj > mac_floor);
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let accel = baselines::eyeriss();
        let c = eval(&accel, &layer());
        let b = c.energy_breakdown;
        assert!((b.total_pj() - c.energy_pj).abs() < 1e-6 * c.energy_pj);
        for (name, v) in [
            ("mac", b.mac_pj),
            ("l1", b.l1_pj),
            ("noc", b.noc_pj),
            ("l2", b.l2_pj),
            ("dram", b.dram_pj),
        ] {
            assert!(v > 0.0, "{name} component must be positive");
        }
    }

    #[test]
    fn edp_is_cycles_times_nj() {
        let accel = baselines::eyeriss();
        let l = layer();
        let c = eval(&accel, &l);
        assert!((c.edp() - c.cycles as f64 * c.energy_pj / 1000.0).abs() < 1e-6);
    }

    #[test]
    fn balanced_mapping_reuses_weights_near_the_bound() {
        // Each weight read once from DRAM serves macs / weight_elems
        // MACs; no mapping can beat that, and a weight-stationary-ish
        // balanced mapping comes close.
        let accel = baselines::edge_tpu();
        let l = ConvSpec::conv2d("c", 128, 128, (28, 28), (3, 3), 1, 1).unwrap();
        let c = eval(&accel, &l);
        let bound = l.macs() as f64 / l.weight_elems() as f64;
        let achieved = l.macs() as f64 / c.traffic.tensor(crate::Tensor::Weights).dram_bytes;
        assert!(
            achieved <= bound * 1.001,
            "cannot exceed the reuse bound: {achieved} vs {bound}"
        );
        assert!(achieved > bound * 0.2, "balanced mapping should reuse well");
    }

    #[test]
    fn more_pes_do_not_hurt_compute_roofline() {
        let l = layer();
        let small = eval(&baselines::nvdla_256(), &l);
        let big = eval(&baselines::nvdla_1024(), &l);
        assert!(big.compute_cycles <= small.compute_cycles);
    }

    #[test]
    fn invalid_capacity_is_reported() {
        use naas_ir::DIMS;
        use naas_mapping::LevelSpec;
        let accel = baselines::eyeriss();
        let l = layer();
        let untiled = Mapping::new(vec![LevelSpec::unit(), LevelSpec::unit()], DIMS);
        let err = CostModel::new().evaluate(&l, &accel, &untiled).unwrap_err();
        assert!(matches!(err, CostError::Capacity(_)));
    }

    #[test]
    fn wrong_level_count_is_reported() {
        use naas_ir::DIMS;
        use naas_mapping::LevelSpec;
        let accel = baselines::eyeriss();
        let err = CostModel::new()
            .evaluate(
                &layer(),
                &accel,
                &Mapping::new(vec![LevelSpec::unit()], DIMS),
            )
            .unwrap_err();
        assert!(matches!(err, CostError::Mapping(_)));
    }

    #[test]
    fn network_cost_sums_layers() {
        let accel = baselines::nvdla_1024();
        let net = models::cifar_resnet20();
        let mappings: Vec<Mapping> = net.iter().map(|l| Mapping::balanced(l, &accel)).collect();
        let cost = CostModel::new()
            .evaluate_network(&net, &accel, &mappings)
            .expect("valid");
        assert_eq!(cost.layers.len(), net.len());
        let manual_cycles: u64 = cost.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(cost.cycles(), manual_cycles);
        assert!(cost.edp() > 0.0);
    }

    #[test]
    fn depthwise_layers_evaluate() {
        let accel = baselines::eyeriss();
        let dw = ConvSpec::depthwise("dw", 96, (56, 56), (3, 3), 1, 1).unwrap();
        let c = eval(&accel, &dw);
        assert!(c.cycles > 0);
        assert_eq!(c.macs, 96 * 56 * 56 * 9);
    }

    #[test]
    fn fc_layers_evaluate() {
        let accel = baselines::edge_tpu();
        let fc = ConvSpec::linear("fc", 2048, 1000).unwrap();
        let c = eval(&accel, &fc);
        // FC at batch 1 is memory-bound: DRAM roofline dominates.
        assert!(c.dram_cycles > c.compute_cycles as f64);
    }
}
