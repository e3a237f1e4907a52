//! The NeuraCompiler: lowers SpGEMM / GCN-aggregation workloads onto the
//! NeuraChip ISA.
//!
//! The compiler mirrors the paper's NeuraCompiler module: it takes the
//! adjacency matrix in CSC form and the feature (or second adjacency) matrix
//! in CSR form, tiles the Gustavson dataflow into `MMH<tile>` tasks, lays the
//! operands out in a virtual address space, and — crucially for the
//! rolling-eviction mechanism — precomputes the contribution count of every
//! output element so each partial product can carry its eviction counter.
//!
//! The counts come from one symbolic row-wise pass
//! ([`neura_sparse::spgemm::symbolic_rows`]) that writes each partial
//! product's counter straight into a flat slab in emission order: the slab
//! *is* the [`layout::COUNTER_BASE`] region the instructions'
//! `roll_counter_addr` fields point at. Nothing is hashed. The
//! [`Program`] owns the operands (A in CSC order, B in CSR order, the
//! counter slab), and each [`MmhWork`] descriptor holds ranges into them.

use crate::isa::{MmhInstruction, MmhWork};
use neura_sparse::spgemm::symbolic_rows;
use neura_sparse::{CscMatrix, CsrMatrix, DenseMatrix};
use serde::{Deserialize, Serialize};

/// Virtual-address-space layout used by the compiler.
pub mod layout {
    /// Base address of matrix A's value array (CSC order).
    pub const A_DATA_BASE: u64 = 0x0000_0000;
    /// Base address of matrix B's column-index array (CSR order).
    pub const B_COL_IDX_BASE: u64 = 0x4000_0000;
    /// Base address of matrix B's value array (CSR order).
    pub const B_DATA_BASE: u64 = 0x8000_0000;
    /// Base address of the rolling-counter array.
    pub const COUNTER_BASE: u64 = 0xC000_0000;
    /// Base address of the output matrix (indexed by output tag).
    pub const OUTPUT_BASE: u64 = 0xE000_0000;
}

/// A compiled workload: the instruction stream, the operands it reads, and
/// its metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    /// The `MMH` instruction stream in dispatch order.
    pub instructions: Vec<MmhInstruction>,
    /// Indices into `instructions` marking the end of each processed column
    /// of `A` (the DRHM reseed boundaries).
    pub row_boundaries: Vec<usize>,
    /// Shape of the output matrix (rows, cols).
    pub output_shape: (usize, usize),
    /// Number of `HACC` instructions the program will generate.
    pub total_partial_products: u64,
    /// Number of distinct output elements (non-zeros of the result).
    pub output_nnz: usize,
    /// Tile height used for the MMH instructions.
    pub tile: u8,
    /// Total operand bytes the NeuraCores must read from HBM.
    pub input_bytes: u64,
    /// Total bytes the NeuraMems will write back for the output matrix.
    pub output_bytes: u64,
    /// Matrix `A` in CSC order (the [`layout::A_DATA_BASE`] region).
    pub a: CscMatrix,
    /// Matrix `B` in CSR order (the [`layout::B_COL_IDX_BASE`] and
    /// [`layout::B_DATA_BASE`] regions).
    pub b: CsrMatrix,
    /// Rolling-eviction counter of every partial product in emission order
    /// (the [`layout::COUNTER_BASE`] region): the fan-in of the output
    /// element the partial product accumulates into.
    pub counters: Vec<u32>,
}

/// The operands one `MMH` instruction reads, borrowed from its [`Program`].
#[derive(Debug, Clone, Copy)]
pub struct MmhOperands<'p> {
    /// Output rows covered (up to `tile` of them).
    pub a_rows: &'p [usize],
    /// Values of `A` for each entry of `a_rows`.
    pub a_values: &'p [f64],
    /// Column indices of row `k` of `B`.
    pub b_cols: &'p [usize],
    /// Values of row `k` of `B`.
    pub b_values: &'p [f64],
    /// Rolling-eviction counter of each `(a_row, b_col)` partial product,
    /// row-major.
    pub counters: &'p [u32],
}

impl Program {
    /// Number of `MMH` instructions.
    pub fn instruction_count(&self) -> usize {
        self.instructions.len()
    }

    /// The operands described by `work`.
    pub fn operands(&self, work: &MmhWork) -> MmhOperands<'_> {
        MmhOperands {
            a_rows: &self.a.row_idx()[work.a_range()],
            a_values: &self.a.values()[work.a_range()],
            b_cols: &self.b.col_idx()[work.b_range()],
            b_values: &self.b.values()[work.b_range()],
            counters: &self.counters[work.counter_range()],
        }
    }

    /// The output tag of element `(row, col)`.
    pub fn tag_of(&self, row: usize, col: usize) -> u64 {
        (row as u64) * self.output_shape.1 as u64 + col as u64
    }

    /// Decodes an output tag back into `(row, col)`.
    pub fn coords_of(&self, tag: u64) -> (usize, usize) {
        let cols = self.output_shape.1 as u64;
        ((tag / cols) as usize, (tag % cols) as usize)
    }
}

/// Compiles the SpGEMM `C = A × B` into an `MMH<tile>` instruction stream.
///
/// `A` is consumed in CSC form (streamed column by column, `tile` stored
/// elements at a time) and `B` in CSR form, matching Section 3.1.
///
/// # Panics
///
/// Panics if the shapes are incompatible or `tile` is not 1, 2, 4 or 8.
pub fn compile_spgemm(a: &CscMatrix, b: &CsrMatrix, tile: u8) -> Program {
    lower(a.clone(), b.clone(), tile)
}

fn lower(a: CscMatrix, b: CsrMatrix, tile: u8) -> Program {
    assert!(matches!(tile, 1 | 2 | 4 | 8), "MMH tile height must be 1, 2, 4 or 8");
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");

    // The counters of column k of A start at `pp_start[k]`: one block of
    // nnz(B row k) counters per stored element of the column, in CSC order.
    let mut pp_start = Vec::with_capacity(a.cols());
    let mut total = 0usize;
    for k in 0..a.cols() {
        pp_start.push(total);
        total += a.col_nnz(k) * b.row_nnz(k);
    }

    // Pass 1: symbolic row-wise SpGEMM. When output row i is complete, its
    // fan-in counts go into the block of every stored element (i, k) of A.
    // Rows are visited in order and CSC columns list rows in order, so the
    // position of i within column k is the number of earlier rows of k.
    let mut counters = vec![0u32; total];
    let mut output_nnz = 0usize;
    let a_by_row = a.to_csr();
    let mut next_in_col = vec![0usize; a.cols()];
    symbolic_rows(&a_by_row, &b, |i, counts, touched| {
        output_nnz += touched.len();
        for &k in a_by_row.row(i).0 {
            let b_cols = b.row(k).0;
            let start = pp_start[k] + next_in_col[k] * b_cols.len();
            next_in_col[k] += 1;
            for (slot, &j) in counters[start..start + b_cols.len()].iter_mut().zip(b_cols) {
                *slot = counts[j];
            }
        }
    });

    // Pass 2: emit the tiled instruction stream.
    let mut instructions = Vec::new();
    let mut row_boundaries = Vec::new();
    let mut input_bytes = 0u64;
    for (k, &col_counters) in pp_start.iter().enumerate() {
        let (a_first, a_end) = (a.col_ptr()[k], a.col_ptr()[k + 1]);
        let (b_start, b_len) = (b.row_ptr()[k], b.row_nnz(k));
        if a_first < a_end && b_len > 0 {
            for a_start in (a_first..a_end).step_by(tile as usize) {
                let work = MmhWork {
                    k,
                    a_start,
                    a_len: (tile as usize).min(a_end - a_start),
                    b_start,
                    b_len,
                    counter_start: col_counters + (a_start - a_first) * b_len,
                };
                let instr = MmhInstruction {
                    tile,
                    base_addr: 0,
                    a_data_addr: (layout::A_DATA_BASE + a_start as u64 * 8) as u32,
                    b_col_ind_addr: (layout::B_COL_IDX_BASE + b_start as u64 * 4) as u32,
                    b_data_addr: (layout::B_DATA_BASE + b_start as u64 * 8) as u32,
                    roll_counter_addr: (layout::COUNTER_BASE
                        .wrapping_add(work.counter_start as u64 * 4))
                        as u32,
                    work,
                };
                input_bytes += instr.operand_bytes() as u64;
                instructions.push(instr);
            }
        } else if instructions.is_empty() {
            continue;
        }
        row_boundaries.push(instructions.len());
    }

    Program {
        instructions,
        row_boundaries,
        output_shape: (a.rows(), b.cols()),
        total_partial_products: total as u64,
        output_nnz,
        tile,
        input_bytes,
        output_bytes: output_nnz as u64 * 8,
        a,
        b,
        counters,
    }
}

/// Compiles the GCN aggregation `A × X` where `X` is a dense feature matrix.
///
/// The dense feature matrix is expressed as a fully-populated CSR so that the
/// same tiled-Gustavson lowering applies; every row of `X` then has
/// `feature_dim` stored elements, which is exactly how the paper's
/// aggregation-phase SpGEMM treats dense features.
pub fn compile_aggregation(a: &CscMatrix, features: &DenseMatrix, tile: u8) -> Program {
    lower(a.clone(), dense_to_csr(features), tile)
}

/// Converts a dense matrix to CSR keeping every entry (including zeros) so
/// the structural fan-in of the aggregation matches the dense computation.
fn dense_to_csr(m: &DenseMatrix) -> CsrMatrix {
    let rows = m.rows();
    let cols = m.cols();
    let row_ptr: Vec<usize> = (0..=rows).map(|r| r * cols).collect();
    let col_idx: Vec<usize> = (0..rows).flat_map(|_| 0..cols).collect();
    let values: Vec<f64> = (0..rows).flat_map(|r| m.row(r).to_vec()).collect();
    CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
        .expect("dense layout is structurally valid CSR")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use neura_sparse::gen::{feature_matrix, GraphGenerator};
    use neura_sparse::spgemm;
    use std::collections::HashMap;

    /// Fan-in of every output tag of `A × B`, counted with a hash map per
    /// partial product: the oracle the counter slab is checked against.
    pub(crate) fn fanin_oracle(a: &CscMatrix, b: &CsrMatrix) -> HashMap<u64, u32> {
        let mut fanin = HashMap::new();
        for k in 0..a.cols() {
            for &i in a.col(k).0 {
                for &j in b.row(k).0 {
                    *fanin.entry(i as u64 * b.cols() as u64 + j as u64).or_insert(0) += 1;
                }
            }
        }
        fanin
    }

    fn small_graph(seed: u64) -> CsrMatrix {
        GraphGenerator::power_law(60, 400, 2.1, seed).generate().to_csr()
    }

    #[test]
    fn partial_product_count_matches_reference() {
        let a = small_graph(1);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        let (_, stats) = spgemm::multiply_counting(&a, &a);
        assert_eq!(program.total_partial_products, stats.multiplications);
        assert_eq!(program.output_nnz, stats.output_nnz);
    }

    #[test]
    fn fanin_sums_to_partial_products() {
        let a = small_graph(2);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        let fanin = fanin_oracle(&a.to_csc(), &a);
        let fanin_sum: u64 = fanin.values().map(|&f| f as u64).sum();
        assert_eq!(fanin_sum, program.total_partial_products);
        assert_eq!(fanin.len(), program.output_nnz);
        assert!(fanin.values().all(|&f| f >= 1));
    }

    #[test]
    fn every_instruction_respects_tile_height() {
        let a = small_graph(3);
        for tile in [1u8, 2, 4, 8] {
            let program = compile_spgemm(&a.to_csc(), &a, tile);
            assert!(program
                .instructions
                .iter()
                .all(|i| i.work.a_len <= tile as usize && i.work.a_len > 0));
            assert!(program.instructions.iter().all(|i| i.tile == tile));
        }
    }

    #[test]
    fn larger_tiles_need_fewer_instructions() {
        let a = small_graph(4);
        let p1 = compile_spgemm(&a.to_csc(), &a, 1);
        let p4 = compile_spgemm(&a.to_csc(), &a, 4);
        let p8 = compile_spgemm(&a.to_csc(), &a, 8);
        assert!(p4.instruction_count() <= p1.instruction_count());
        assert!(p8.instruction_count() <= p4.instruction_count());
        assert_eq!(p1.total_partial_products, p8.total_partial_products);
    }

    #[test]
    fn counters_match_fanin_for_each_partial_product() {
        let a = small_graph(5);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        let fanin = fanin_oracle(&a.to_csc(), &a);
        for instr in &program.instructions {
            let ops = program.operands(&instr.work);
            let mut idx = 0;
            for &i in ops.a_rows {
                for &j in ops.b_cols {
                    let tag = program.tag_of(i, j);
                    assert_eq!(ops.counters[idx], fanin[&tag]);
                    idx += 1;
                }
            }
            assert_eq!(idx, ops.counters.len());
        }
    }

    #[test]
    fn row_boundaries_are_monotonic_and_end_at_last_instruction() {
        let a = small_graph(6);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        assert!(program.row_boundaries.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            *program.row_boundaries.last().unwrap(),
            program.instruction_count(),
            "the final boundary closes the program"
        );
    }

    #[test]
    fn tag_round_trip() {
        let a = small_graph(7);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        for &(r, c) in &[(0usize, 0usize), (3, 17), (59, 59)] {
            let tag = program.tag_of(r, c);
            assert_eq!(program.coords_of(tag), (r, c));
        }
    }

    #[test]
    fn aggregation_lowering_covers_dense_features() {
        let a = small_graph(8);
        let x = feature_matrix(a.cols(), 8, 3);
        let program = compile_aggregation(&a.to_csc(), &x, 4);
        // Every (non-empty row of A) × feature column pair is an output element.
        assert_eq!(program.total_partial_products, a.nnz() as u64 * 8);
        assert_eq!(program.output_shape, (a.rows(), 8));
    }

    #[test]
    fn input_bytes_accounts_for_all_operands() {
        let a = small_graph(9);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        let manual: u64 = program.instructions.iter().map(|i| i.operand_bytes() as u64).sum();
        assert_eq!(program.input_bytes, manual);
        assert_eq!(program.output_bytes, program.output_nnz as u64 * 8);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = CsrMatrix::identity(4).to_csc();
        let b = CsrMatrix::identity(5);
        compile_spgemm(&a, &b, 4);
    }
}
