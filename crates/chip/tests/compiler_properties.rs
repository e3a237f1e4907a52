//! Property tests of the NeuraCompiler over arbitrary rectangular SpGEMMs
//! `A (m × k) × B (k × n)` with empty rows and columns, at every MMH tile
//! height: the rolling counters in the program's slab equal a hash-map
//! fan-in oracle, the partial products of every output tag number exactly
//! its fan-in, the program's totals match the reference row-wise product,
//! and the instruction stream's addresses and row boundaries are monotone.

use neura_chip::compiler::{compile_spgemm, layout, Program};
use neura_sparse::spgemm::multiply_counting;
use neura_sparse::{CooMatrix, CscMatrix, CsrMatrix};
use proptest::prelude::*;
use std::collections::HashMap;

/// A `rows × cols` matrix with up to `max_nnz` entries; a quarter of them
/// are explicit zeros, which count towards the structure all the same.
fn arb_shaped(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec((0..rows, 0..cols, -2.0f64..2.0, 0u8..4), 0..max_nnz).prop_map(
        move |entries| {
            let mut coo = CooMatrix::new(rows, cols);
            for (r, c, v, zero) in entries {
                coo.push(r, c, if zero == 0 { 0.0 } else { v }).unwrap();
            }
            coo.to_csr()
        },
    )
}

/// A compatible pair `A (m × k)` and `B (k × n)` plus an MMH tile height.
fn arb_case() -> impl Strategy<Value = (CsrMatrix, CsrMatrix, u8)> {
    (1usize..20, 1usize..20, 1usize..20, 0usize..4).prop_flat_map(|(m, k, n, t)| {
        (arb_shaped(m, k, 80), arb_shaped(k, n, 80), Just([1u8, 2, 4, 8][t]))
    })
}

/// Fan-in of every output tag, counted with one hash-map update per
/// partial product.
fn fanin_oracle(a: &CscMatrix, b: &CsrMatrix) -> HashMap<u64, u32> {
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

/// Every partial product of the program as `(tag, counter)`, in emission order.
fn partial_products(program: &Program) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    for instr in &program.instructions {
        let ops = program.operands(&instr.work);
        assert_eq!(ops.counters.len(), ops.a_rows.len() * ops.b_cols.len());
        let mut counters = ops.counters.iter();
        for &i in ops.a_rows {
            for &j in ops.b_cols {
                out.push((program.tag_of(i, j), *counters.next().unwrap()));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every counter is the fan-in of its output tag, and the partial
    /// products of each tag number exactly that fan-in.
    #[test]
    fn counters_equal_the_fanin_oracle((a, b, tile) in arb_case()) {
        let a_csc = a.to_csc();
        let program = compile_spgemm(&a_csc, &b, tile);
        let fanin = fanin_oracle(&a_csc, &b);
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for (tag, counter) in partial_products(&program) {
            prop_assert_eq!(counter, fanin[&tag]);
            *seen.entry(tag).or_insert(0) += 1;
        }
        prop_assert_eq!(seen, fanin);
        prop_assert_eq!(program.counters.len() as u64, program.total_partial_products);
    }

    /// Totals match the reference row-wise product; operand bytes add up.
    #[test]
    fn totals_match_the_reference_product((a, b, tile) in arb_case()) {
        let program = compile_spgemm(&a.to_csc(), &b, tile);
        let (_, stats) = multiply_counting(&a, &b);
        prop_assert_eq!(program.output_nnz, stats.output_nnz);
        prop_assert_eq!(program.total_partial_products, stats.multiplications);
        prop_assert_eq!(program.output_bytes, stats.output_nnz as u64 * 8);
        let operand_bytes: u64 = program.instructions.iter().map(|i| i.operand_bytes() as u64).sum();
        prop_assert_eq!(program.input_bytes, operand_bytes);
        prop_assert_eq!(program.output_shape, (a.rows(), b.cols()));
    }

    /// Instructions respect the tile height, tile the counter slab in order,
    /// and their addresses and the row boundaries never go backwards.
    #[test]
    fn addresses_and_boundaries_are_monotone((a, b, tile) in arb_case()) {
        let program = compile_spgemm(&a.to_csc(), &b, tile);
        let mut next_counter = 0usize;
        for instr in &program.instructions {
            prop_assert_eq!(instr.tile, tile);
            prop_assert!(instr.work.a_len >= 1 && instr.work.a_len <= tile as usize);
            prop_assert!(instr.work.b_len >= 1);
            prop_assert_eq!(instr.work.counter_start, next_counter);
            prop_assert_eq!(
                instr.roll_counter_addr as u64,
                layout::COUNTER_BASE + next_counter as u64 * 4
            );
            next_counter = instr.work.counter_range().end;
        }
        prop_assert_eq!(next_counter, program.counters.len());
        for pair in program.instructions.windows(2) {
            let (x, y) = (&pair[0], &pair[1]);
            prop_assert!(x.a_data_addr < y.a_data_addr);
            prop_assert!(x.b_col_ind_addr <= y.b_col_ind_addr);
            prop_assert!(x.b_data_addr <= y.b_data_addr);
            prop_assert!(x.roll_counter_addr < y.roll_counter_addr);
            prop_assert!(x.work.k <= y.work.k);
        }
        prop_assert!(program.row_boundaries.windows(2).all(|w| w[0] <= w[1]));
        if let Some(&last) = program.row_boundaries.last() {
            prop_assert_eq!(last, program.instruction_count());
        } else {
            prop_assert_eq!(program.instruction_count(), 0);
        }
    }
}
