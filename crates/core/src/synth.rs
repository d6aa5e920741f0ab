//! Synthesis resource estimation (paper Table 1).
//!
//! The paper reports Synopsys/Xilinx synthesis results for the six VHDL
//! entities of the injector. We cannot run vendor synthesis, so this module
//! substitutes a first-order *structural* estimator: each entity is
//! described by the registers, FSM state, counters, compare networks,
//! mux bit-slices and random combinational terms that our emulation of that
//! entity actually contains, and uniform coefficients map the structure to
//! the four columns the paper reports:
//!
//! - **D flip-flops** = register bits + state bits + counter bits (exact).
//! - **Multiplexors** = 2:1 mux bit-slices (exact).
//! - **Function generators** (4-input LUTs) = XOR-compare bits / 2
//!   + mux bits / 2 + decode terms + 4 × state bits + counter bits
//!   + register-enable fanout (register bits / 4).
//! - **Gates** = function generators minus a 1/16 LUT-packing saving (the
//!   vendor "gates" metric consistently ran a few percent below the FG
//!   count in Table 1).
//!
//! The regenerator (`table1_synthesis`) prints paper-reported versus
//! model-estimated values with per-cell error.

use std::fmt;

/// Structural description of one VHDL entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntityStructure {
    /// Entity name as in Table 1.
    pub name: &'static str,
    /// Number of instances on the device.
    pub instances: u32,
    /// Data/configuration register bits per instance.
    pub register_bits: u32,
    /// FSM state register bits per instance (one-hot where the paper's
    /// design used one-hot encoding).
    pub state_bits: u32,
    /// Counter bits per instance.
    pub counter_bits: u32,
    /// Bit-width of XOR/AND compare-and-mask networks per instance.
    pub xor_compare_bits: u32,
    /// 2:1 multiplexor bit-slices per instance.
    pub mux2_bits: u32,
    /// Irregular combinational terms (decoders, priority logic) per
    /// instance.
    pub decode_terms: u32,
}

/// Estimated resources, in the four columns of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Gate equivalents.
    pub gates: u32,
    /// 4-input function generators (LUTs).
    pub function_generators: u32,
    /// Multiplexors.
    pub multiplexors: u32,
    /// D flip-flops.
    pub dffs: u32,
}

impl ResourceEstimate {
    /// Sums two estimates.
    #[expect(
        clippy::should_implement_trait,
        reason = "a column-wise tally, not arithmetic closure"
    )]
    pub fn add(self, other: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            gates: self.gates + other.gates,
            function_generators: self.function_generators + other.function_generators,
            multiplexors: self.multiplexors + other.multiplexors,
            dffs: self.dffs + other.dffs,
        }
    }
}

impl EntityStructure {
    /// Applies the coefficient model to produce a per-device estimate
    /// (all instances included).
    pub(crate) fn estimate(&self) -> ResourceEstimate {
        let fg_per_instance = self.xor_compare_bits.div_ceil(2)
            + self.mux2_bits.div_ceil(2)
            + self.decode_terms
            + 4 * self.state_bits
            + self.counter_bits
            + self.register_bits.div_ceil(4);
        let gates_per_instance = fg_per_instance - fg_per_instance.div_ceil(16);
        let dff_per_instance = self.register_bits + self.state_bits + self.counter_bits;
        ResourceEstimate {
            gates: gates_per_instance * self.instances,
            function_generators: fg_per_instance * self.instances,
            multiplexors: self.mux2_bits * self.instances,
            dffs: dff_per_instance * self.instances,
        }
    }
}

/// The six entities of the injector, with structures matching the
/// emulation in this crate (`FifoInjector`, `CommandDecoder`, …).
pub(crate) fn entity_structures() -> Vec<EntityStructure> {
    vec![
        // Clock generator: an 11-bit divider plus phase decode.
        EntityStructure {
            name: "Clck_gen",
            instances: 1,
            register_bits: 0,
            state_bits: 0,
            counter_bits: 11,
            xor_compare_bits: 0,
            mux2_bits: 1,
            decode_terms: 4,
        },
        // Communications handler: byte latches, small FSM, interrupt
        // decode.
        EntityStructure {
            name: "Comm",
            instances: 1,
            register_bits: 24,
            state_bits: 3,
            counter_bits: 4,
            xor_compare_bits: 16,
            mux2_bits: 9,
            decode_terms: 60,
        },
        // Command (instruction) decoder: the large FSM plus the staged
        // 2 × 128-bit configuration register file.
        EntityStructure {
            name: "Inst_dec",
            instances: 1,
            register_bits: 256,
            state_bits: 22,
            counter_bits: 8,
            xor_compare_bits: 0,
            mux2_bits: 17,
            decode_terms: 100,
        },
        // Output generator: mostly combinational ASCII formatting, a
        // small one-hot FSM.
        EntityStructure {
            name: "Out_gen",
            instances: 1,
            register_bits: 8,
            state_bits: 7,
            counter_bits: 0,
            xor_compare_bits: 0,
            mux2_bits: 0,
            decode_terms: 50,
        },
        // SPI: two 16-bit shift registers, bit counter, small FSM.
        EntityStructure {
            name: "SPI",
            instances: 1,
            register_bits: 34,
            state_bits: 4,
            counter_bits: 4,
            xor_compare_bits: 0,
            mux2_bits: 6,
            decode_terms: 37,
        },
        // FIFO injector (×2, one per direction): compare shift registers,
        // pipeline registers, per-direction config latches, wide
        // compare/corrupt networks, FIFO addressing.
        EntityStructure {
            name: "FIFO_Inject",
            instances: 2,
            register_bits: 330,
            state_bits: 4,
            counter_bits: 60,
            xor_compare_bits: 160,
            mux2_bits: 175,
            decode_terms: 573,
        },
    ]
}

/// Values reported in the paper's Table 1 (FIFO_Inject row covers both
/// instances, matching the paper's totals).
pub(crate) fn paper_table1() -> Vec<(&'static str, ResourceEstimate)> {
    vec![
        ("Clck_gen", ResourceEstimate { gates: 10, function_generators: 15, multiplexors: 1, dffs: 11 }),
        ("Comm", ResourceEstimate { gates: 94, function_generators: 100, multiplexors: 9, dffs: 31 }),
        ("Inst_dec", ResourceEstimate { gates: 259, function_generators: 275, multiplexors: 17, dffs: 286 }),
        ("Out_gen", ResourceEstimate { gates: 78, function_generators: 80, multiplexors: 0, dffs: 15 }),
        ("SPI", ResourceEstimate { gates: 66, function_generators: 69, multiplexors: 6, dffs: 42 }),
        ("FIFO_Inject", ResourceEstimate { gates: 1768, function_generators: 1800, multiplexors: 350, dffs: 788 }),
    ]
}

/// One row of the reproduction: paper value vs model estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Entity name.
    pub name: &'static str,
    /// As reported in the paper.
    pub paper: ResourceEstimate,
    /// As estimated by the structural model.
    pub model: ResourceEstimate,
}

/// Builds the full paper-vs-model comparison, with a `Total` row.
pub fn table1() -> Vec<Table1Row> {
    let paper = paper_table1();
    let mut rows: Vec<Table1Row> = entity_structures()
        .into_iter()
        .zip(paper)
        .map(|(s, (name, p))| {
            debug_assert_eq!(s.name, name);
            Table1Row {
                name,
                paper: p,
                model: s.estimate(),
            }
        })
        .collect();
    let total = rows.iter().fold(
        Table1Row {
            name: "Total",
            paper: ResourceEstimate::default(),
            model: ResourceEstimate::default(),
        },
        |acc, row| Table1Row {
            name: "Total",
            paper: acc.paper.add(row.paper),
            model: acc.model.add(row.model),
        },
    );
    rows.push(total);
    rows
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} gates {:>5}/{:<5} FGs {:>5}/{:<5} mux {:>4}/{:<4} dff {:>5}/{:<5}",
            self.name,
            self.paper.gates,
            self.model.gates,
            self.paper.function_generators,
            self.model.function_generators,
            self.paper.multiplexors,
            self.model.multiplexors,
            self.paper.dffs,
            self.model.dffs,
        )
    }
}

/// Renders the whole comparison table (paper/model in each cell).
pub fn render_table1() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — synthesis results, paper-reported / model-estimated"
    );
    for row in table1() {
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(paper: u32, model: u32) -> bool {
        let diff = paper.abs_diff(model);
        // within 10 % or 6 absolute (small entities).
        diff * 10 <= paper.max(model) || diff <= 6
    }

    #[test]
    fn dff_counts_match_paper_exactly() {
        // Register inventories are exact structure, so the D-FF column
        // must reproduce Table 1 exactly.
        for row in table1() {
            assert_eq!(row.paper.dffs, row.model.dffs, "{}", row.name);
        }
    }

    #[test]
    fn mux_counts_match_paper_exactly() {
        for row in table1() {
            assert_eq!(row.paper.multiplexors, row.model.multiplexors, "{}", row.name);
        }
    }

    #[test]
    fn fg_and_gate_estimates_within_tolerance() {
        for row in table1() {
            assert!(
                close(row.paper.function_generators, row.model.function_generators),
                "{}: FG paper={} model={}",
                row.name,
                row.paper.function_generators,
                row.model.function_generators
            );
            assert!(
                close(row.paper.gates, row.model.gates),
                "{}: gates paper={} model={}",
                row.name,
                row.paper.gates,
                row.model.gates
            );
        }
    }

    #[test]
    fn totals_match_paper_sums() {
        // The paper's totals: 2275 / 2339 / 383 / 1173.
        let rows = table1();
        let total = rows.last().unwrap();
        assert_eq!(total.paper.gates, 2275);
        assert_eq!(total.paper.function_generators, 2339);
        assert_eq!(total.paper.multiplexors, 383);
        assert_eq!(total.paper.dffs, 1173);
    }

    #[test]
    fn fifo_injector_dominates() {
        // The datapath is by far the largest entity — the design insight
        // Table 1 communicates.
        let rows = table1();
        let fifo = rows.iter().find(|r| r.name == "FIFO_Inject").unwrap();
        for row in rows.iter().filter(|r| r.name != "FIFO_Inject" && r.name != "Total") {
            assert!(fifo.model.function_generators > 3 * row.model.function_generators);
        }
    }

    #[test]
    fn render_contains_all_entities() {
        let text = render_table1();
        for name in ["Clck_gen", "Comm", "Inst_dec", "Out_gen", "SPI", "FIFO_Inject", "Total"] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
