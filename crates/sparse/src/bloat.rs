//! Memory-bloat analysis (Equation 1 / Table 1 of the paper).
//!
//! "Bloat percent" measures how many intermediate partial products an SpGEMM
//! produces relative to the number of non-zeros that survive in the output:
//!
//! ```text
//! bloat% = (pp_interim − nnz_output) / nnz_output × 100
//! ```
//!
//! Large bloat means an accelerator following Gustavson's (or the outer
//! product) dataflow must hold many short-lived partial products on chip,
//! which motivates NeuraChip's rolling-eviction HashPad.

use crate::spgemm;
use crate::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Result of the memory-bloat analysis of one SpGEMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BloatReport {
    /// Number of intermediate partial products (`pp_interim` in Eq. 1).
    pub intermediate_partial_products: u64,
    /// Number of structural non-zeros in the output matrix (`nnz_output`).
    pub output_nnz: usize,
    /// Bloat percent as defined by Equation 1.
    pub bloat_percent: f64,
    /// Sparsity of the left operand, in percent (as reported in Table 1).
    pub input_sparsity_percent: f64,
    /// Number of rows of the left operand (node count for graph datasets).
    pub node_count: usize,
    /// Number of non-zeros of the left operand (edge count for graph datasets).
    pub edge_count: usize,
}

impl BloatReport {
    /// Average number of partial products that merge into one output element.
    pub fn average_reduction_fanin(&self) -> f64 {
        if self.output_nnz == 0 {
            0.0
        } else {
            self.intermediate_partial_products as f64 / self.output_nnz as f64
        }
    }
}

/// Analyses the memory bloat of `A × B` with a symbolic row-wise pass
/// ([`spgemm::symbolic_rows`]): partial products and output non-zeros are
/// counted, no value is multiplied.
pub fn analyze(a: &CsrMatrix, b: &CsrMatrix) -> BloatReport {
    let mut stats = spgemm::SpgemmStats::default();
    spgemm::symbolic_rows(a, b, |_, counts, touched| {
        stats.output_nnz += touched.len();
        stats.multiplications += touched.iter().map(|&j| counts[j] as u64).sum::<u64>();
    });
    BloatReport {
        intermediate_partial_products: stats.multiplications,
        output_nnz: stats.output_nnz,
        bloat_percent: stats.bloat_percent(),
        input_sparsity_percent: a.sparsity() * 100.0,
        node_count: a.rows(),
        edge_count: a.nnz(),
    }
}

/// Analyses the memory bloat of the self-product `A × A`, the SpGEMM
/// configuration used in Table 1.
pub fn analyze_square(a: &CsrMatrix) -> BloatReport {
    analyze(a, a)
}

/// Computes only the intermediate partial-product count of `A × B`
/// (`Σ_k col_nnz_A(k) · row_nnz_B(k)`), without running the multiplication.
pub fn partial_product_count(a: &CsrMatrix, b: &CsrMatrix) -> u64 {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let a_csc = a.to_csc();
    (0..a.cols()).map(|k| a_csc.col_nnz(k) as u64 * b.row_nnz(k) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;

    #[test]
    fn bloat_formula_matches_definition() {
        let a = GraphGenerator::power_law(200, 1500, 2.2, 5).generate().to_csr();
        let report = analyze_square(&a);
        let expected = (report.intermediate_partial_products as f64 - report.output_nnz as f64)
            / report.output_nnz as f64
            * 100.0;
        assert!((report.bloat_percent - expected).abs() < 1e-9);
        assert!(report.bloat_percent >= 0.0);
    }

    #[test]
    fn closed_form_partial_product_count_agrees_with_counting() {
        let a = GraphGenerator::rmat(7, 800, 3).generate().to_csr();
        let b = GraphGenerator::rmat(7, 700, 4).generate().to_csr();
        let closed_form = partial_product_count(&a, &b);
        let report = analyze(&a, &b);
        assert_eq!(closed_form, report.intermediate_partial_products);
    }

    #[test]
    fn identity_has_zero_bloat() {
        let id = CsrMatrix::identity(64);
        let report = analyze_square(&id);
        assert_eq!(report.bloat_percent, 0.0);
        assert_eq!(report.intermediate_partial_products, 64);
        assert_eq!(report.output_nnz, 64);
        assert_eq!(report.average_reduction_fanin(), 1.0);
    }

    #[test]
    fn denser_graphs_have_higher_bloat() {
        let sparse = GraphGenerator::erdos_renyi(300, 0.01, 9).generate().to_csr();
        let dense = GraphGenerator::erdos_renyi(300, 0.08, 9).generate().to_csr();
        let sparse_bloat = analyze_square(&sparse).bloat_percent;
        let dense_bloat = analyze_square(&dense).bloat_percent;
        assert!(dense_bloat > sparse_bloat);
    }

    #[test]
    fn report_records_input_statistics() {
        let a = GraphGenerator::erdos_renyi(100, 0.05, 13).generate().to_csr();
        let report = analyze_square(&a);
        assert_eq!(report.node_count, 100);
        assert_eq!(report.edge_count, a.nnz());
        assert!(report.input_sparsity_percent > 90.0);
    }
}
