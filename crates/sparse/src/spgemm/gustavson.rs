//! Row-wise (Gustavson) SpGEMM.

use super::SpgemmStats;
use crate::{CooMatrix, CsrMatrix};

/// Computes `C = A × B` with the row-wise (Gustavson) dataflow.
///
/// For each row `i` of `A`, every stored element `a_ik` scales row `k` of
/// `B`; the scaled rows are accumulated into row `i` of `C` using a sparse
/// accumulator.  This is the dataflow adopted by Gamma, MatRaptor, SPADA and
/// NeuraChip because it reuses rows of `B` and never materialises a full
/// intermediate matrix.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` (use [`super::multiply`] for a fallible
/// entry point).
pub fn gustavson(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    gustavson_with_stats(a, b).0
}

/// Same as [`gustavson`] but also returns operation counts.
pub fn gustavson_with_stats(a: &CsrMatrix, b: &CsrMatrix) -> (CsrMatrix, SpgemmStats) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut stats = SpgemmStats::default();
    let mut coo = CooMatrix::new(a.rows(), b.cols());

    // Dense sparse-accumulator (SPA) over the columns of B, reset per row.
    let mut accumulator = vec![0.0f64; b.cols()];
    let mut occupied: Vec<usize> = Vec::new();
    let mut touched = vec![false; b.cols()];

    for i in 0..a.rows() {
        let (a_cols, a_vals) = a.row(i);
        let mut row_partial_products = 0u64;
        for (&k, &a_ik) in a_cols.iter().zip(a_vals.iter()) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals.iter()) {
                stats.multiplications += 1;
                row_partial_products += 1;
                if touched[j] {
                    stats.additions += 1;
                    accumulator[j] += a_ik * b_kj;
                } else {
                    touched[j] = true;
                    occupied.push(j);
                    accumulator[j] = a_ik * b_kj;
                }
            }
        }
        if row_partial_products > 0 {
            stats.active_rows += 1;
        }
        stats.max_row_partial_products = stats.max_row_partial_products.max(row_partial_products);
        occupied.sort_unstable();
        for &j in &occupied {
            coo.push(i, j, accumulator[j]).expect("column index is in bounds");
            accumulator[j] = 0.0;
            touched[j] = false;
        }
        occupied.clear();
    }

    let product = coo.to_csr();
    stats.output_nnz = product.nnz();
    (product, stats)
}

/// Symbolic row-wise (Gustavson) pass over the structure of `C = A × B`.
///
/// For every row `i` of `A`, in order, the partial products of row `i` of
/// `C` are counted into a dense `b.cols()`-sized array with a touched list
/// (the sparse accumulator without values), then `visit(i, counts,
/// touched)` is called: `touched` lists, in first-touch order, the columns
/// of row `i` of `C` that receive at least one partial product, and
/// `counts[j]` is the fan-in of `C[i][j]`. No values are read and nothing
/// is hashed.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn symbolic_rows(a: &CsrMatrix, b: &CsrMatrix, mut visit: impl FnMut(usize, &[u32], &[usize])) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut counts = vec![0u32; b.cols()];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..a.rows() {
        for &k in a.row(i).0 {
            for &j in b.row(k).0 {
                if counts[j] == 0 {
                    touched.push(j);
                }
                counts[j] += 1;
            }
        }
        visit(i, &counts, &touched);
        for &j in &touched {
            counts[j] = 0;
        }
        touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;

    #[test]
    fn matches_dense_reference() {
        let a = GraphGenerator::rmat(6, 300, 5).generate().to_csr();
        let b = GraphGenerator::rmat(6, 280, 9).generate().to_csr();
        let c = gustavson(&a, &b);
        let expected = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert!(c.to_dense().max_abs_diff(&expected).unwrap() < 1e-9);
    }

    #[test]
    fn empty_rows_produce_empty_output_rows() {
        let a = CsrMatrix::zeros(5, 5);
        let b = CsrMatrix::identity(5);
        let c = gustavson(&a, &b);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn stats_count_partial_products() {
        // A = [1 1; 0 1], B = [1 1; 1 1]
        let a = crate::CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
            .unwrap()
            .to_csr();
        let b = crate::CooMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
        )
        .unwrap()
        .to_csr();
        let (c, stats) = gustavson_with_stats(&a, &b);
        // Row 0 of A has 2 nnz, each scaling a 2-nnz row of B: 4 products.
        // Row 1 of A has 1 nnz scaling a 2-nnz row: 2 products.
        assert_eq!(stats.multiplications, 6);
        assert_eq!(c.nnz(), 4);
        assert_eq!(stats.additions, 2);
        assert_eq!(stats.max_row_partial_products, 4);
        assert_eq!(stats.active_rows, 2);
    }

    #[test]
    fn symbolic_rows_count_the_fan_in_of_every_output() {
        let a = GraphGenerator::rmat(6, 300, 5).generate().to_csr();
        let b = GraphGenerator::rmat(6, 280, 9).generate().to_csr();
        let (c, stats) = gustavson_with_stats(&a, &b);
        let mut pp = 0u64;
        symbolic_rows(&a, &b, |i, counts, touched| {
            let mut cols = touched.to_vec();
            cols.sort_unstable();
            assert_eq!(cols, c.row(i).0);
            pp += touched.iter().map(|&j| counts[j] as u64).sum::<u64>();
        });
        assert_eq!(pp, stats.multiplications);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn panics_on_shape_mismatch() {
        let a = CsrMatrix::identity(2);
        let b = CsrMatrix::identity(3);
        let _ = gustavson(&a, &b);
    }
}
