//! Property-based tests for the sparse-matrix substrate.

use neura_sparse::gen::GraphGenerator;
use neura_sparse::spgemm::{self, Dataflow};
use neura_sparse::{bloat, spmm, CooMatrix, CsrMatrix, DenseMatrix};
use proptest::prelude::*;

/// Strategy producing a small random sparse matrix together with its shape.
fn arb_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(rows, cols)| {
        let entry = (0..rows, 0..cols, -5.0f64..5.0);
        proptest::collection::vec(entry, 0..max_nnz).prop_map(move |entries| {
            let mut coo = CooMatrix::new(rows, cols);
            for (r, c, v) in entries {
                coo.push(r, c, v).unwrap();
            }
            coo.to_csr()
        })
    })
}

/// A pair of matrices with compatible shapes for multiplication.
fn arb_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1usize..24, 1usize..24, 1usize..24).prop_flat_map(|(m, k, n)| {
        let a_entries = proptest::collection::vec((0..m, 0..k, -3.0f64..3.0), 0..60);
        let b_entries = proptest::collection::vec((0..k, 0..n, -3.0f64..3.0), 0..60);
        (a_entries, b_entries).prop_map(move |(ae, be)| {
            let mut a = CooMatrix::new(m, k);
            for (r, c, v) in ae {
                a.push(r, c, v).unwrap();
            }
            let mut b = CooMatrix::new(k, n);
            for (r, c, v) in be {
                b.push(r, c, v).unwrap();
            }
            (a.to_csr(), b.to_csr())
        })
    })
}

/// A `rows × cols` matrix with up to `max_nnz` assembled entries (duplicates
/// summed), about a quarter of them explicit zeros. Empty rows and columns
/// are common.
fn arb_shaped_with_zeros(
    rows: usize,
    cols: usize,
    max_nnz: usize,
) -> impl Strategy<Value = CsrMatrix> {
    let entry = (0..rows, 0..cols, -3.0f64..3.0, 0u8..4);
    proptest::collection::vec(entry, 0..max_nnz).prop_map(move |entries| {
        let mut coo = CooMatrix::new(rows, cols);
        for (r, c, v, zero) in entries {
            coo.push(r, c, if zero == 0 { 0.0 } else { v }).unwrap();
        }
        coo.to_csr()
    })
}

/// A matrix of arbitrary shape with explicit zeros (see [`arb_shaped_with_zeros`]).
fn arb_matrix_with_zeros(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..max_dim, 1..max_dim)
        .prop_flat_map(move |(rows, cols)| arb_shaped_with_zeros(rows, cols, max_nnz))
}

/// A compatible pair `m × k` and `k × n` with explicit zeros.
fn arb_pair_with_zeros() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1usize..24, 1usize..24, 1usize..24).prop_flat_map(|(m, k, n)| {
        (arb_shaped_with_zeros(m, k, 60), arb_shaped_with_zeros(k, n, 60))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR -> CSC -> CSR round trips are lossless.
    #[test]
    fn csr_csc_round_trip(m in arb_matrix(32, 128)) {
        let back = m.to_csc().to_csr();
        prop_assert_eq!(m.nnz(), back.nnz());
        for (r, c, v) in m.iter() {
            prop_assert_eq!(back.get(r, c), v);
        }
    }

    /// COO -> dense and COO -> CSR -> dense agree entry-for-entry.
    #[test]
    fn coo_conversions_agree(m in arb_matrix(24, 96)) {
        let coo = m.to_coo();
        let via_dense = coo.to_dense();
        let via_csr = coo.to_csr().to_dense();
        prop_assert!(via_dense.max_abs_diff(&via_csr).unwrap() < 1e-12);
    }

    /// All four SpGEMM dataflows agree with the dense reference product.
    #[test]
    fn spgemm_dataflows_agree((a, b) in arb_pair()) {
        let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
        for dataflow in [Dataflow::InnerProduct, Dataflow::OuterProduct, Dataflow::RowWise, Dataflow::TiledRowWise(4)] {
            let c = spgemm::multiply(&a, &b, dataflow).unwrap();
            prop_assert!(c.to_dense().max_abs_diff(&dense).unwrap() < 1e-6);
        }
    }

    /// The bloat report is internally consistent: pp >= nnz_out, fanin >= 1 when non-empty.
    #[test]
    fn bloat_report_invariants((a, b) in arb_pair()) {
        prop_assume!(a.cols() == b.rows());
        let report = bloat::analyze(&a, &b);
        prop_assert!(report.intermediate_partial_products >= report.output_nnz as u64);
        if report.output_nnz > 0 {
            prop_assert!(report.average_reduction_fanin() >= 1.0);
            prop_assert!(report.bloat_percent >= 0.0);
        }
        prop_assert_eq!(
            report.intermediate_partial_products,
            bloat::partial_product_count(&a, &b)
        );
    }

    /// The symbolic bloat analysis reports exactly the counts of the numeric
    /// row-wise product, explicit zeros included.
    #[test]
    fn bloat_analysis_matches_numeric_counting((a, b) in arb_pair_with_zeros()) {
        let (_, stats) = spgemm::multiply_counting(&a, &b);
        let report = bloat::analyze(&a, &b);
        prop_assert_eq!(report.intermediate_partial_products, stats.multiplications);
        prop_assert_eq!(report.output_nnz, stats.output_nnz);
        prop_assert_eq!(report.bloat_percent.to_bits(), stats.bloat_percent().to_bits());
    }

    /// The counting-sort conversions (`to_csc`, `CscMatrix::to_csr`,
    /// `transpose`) equal the COO path exactly, explicit zeros and empty
    /// rows and columns included.
    #[test]
    fn compressed_conversions_match_the_coo_path(m in arb_matrix_with_zeros(24, 96)) {
        let csc = m.to_csc();
        prop_assert_eq!(&csc, &m.to_coo().to_csc());
        prop_assert_eq!(csc.to_csr(), csc.to_coo().to_csr());
        let mut transposed = CooMatrix::new(m.cols(), m.rows());
        for (r, c, v) in m.iter() {
            transposed.push(c, r, v).unwrap();
        }
        prop_assert_eq!(m.transpose(), transposed.to_csr());
    }

    /// SpMM against a random dense matrix matches the dense-dense reference.
    #[test]
    fn spmm_matches_dense(a in arb_matrix(24, 96), cols in 1usize..8, seed in 0u64..1000) {
        let x = neura_sparse::gen::feature_matrix(a.cols(), cols, seed);
        let got = spmm::spmm(&a, &x).unwrap();
        let expected = a.to_dense().matmul(&x).unwrap();
        prop_assert!(got.max_abs_diff(&expected).unwrap() < 1e-9);
    }

    /// Transposing twice is the identity.
    #[test]
    fn transpose_is_involution(m in arb_matrix(24, 96)) {
        let tt = m.transpose().transpose();
        prop_assert_eq!(m.nnz(), tt.nnz());
        for (r, c, v) in m.iter() {
            prop_assert_eq!(tt.get(r, c), v);
        }
    }

    /// Generated graphs always fit their declared shape and dedup is idempotent.
    #[test]
    fn generators_stay_in_bounds(seed in 0u64..500, nodes in 8usize..64, edges in 1usize..400) {
        let g = GraphGenerator::power_law(nodes, edges, 2.2, seed).generate();
        prop_assert_eq!(g.rows(), nodes);
        prop_assert_eq!(g.cols(), nodes);
        for &(r, c, _) in g.iter() {
            prop_assert!(r < nodes && c < nodes);
        }
        let csr = g.to_csr();
        prop_assert!(csr.nnz() <= edges);
    }

    /// Dense matmul with the identity is a no-op (sanity for the reference kernel).
    #[test]
    fn dense_identity_neutral(rows in 1usize..12, cols in 1usize..12, seed in 0u64..100) {
        let x = neura_sparse::gen::feature_matrix(rows, cols, seed);
        let id = DenseMatrix::identity(rows);
        let y = id.matmul(&x).unwrap();
        prop_assert!(y.max_abs_diff(&x).unwrap() < 1e-12);
    }
}
