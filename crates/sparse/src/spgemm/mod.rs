//! Reference SpGEMM (sparse × sparse) implementations.
//!
//! The paper's Figure 2 contrasts four ways of organising the multiplication
//! stage of SpGEMM.  Each is implemented here as a functionally equivalent
//! reference kernel:
//!
//! * [`inner_product`] — computes each output element directly (InnerSP),
//! * [`outer_product`] — forms one full partial-product matrix per column of
//!   `A` / row of `B` (OuterSPACE, SpArch),
//! * [`gustavson`] — the row-wise product used by Gamma, MatRaptor, SPADA and
//!   as the basis of NeuraChip,
//! * [`tiled_gustavson`] — NeuraChip's adaptation that processes `tile`
//!   column elements of `A` at once (the `MMH4` instruction corresponds to
//!   `tile == 4`).
//!
//! All kernels produce identical numerical results; they differ only in the
//! order in which partial products are generated, which is what the
//! accelerator models in `neura-chip` care about.  [`multiply_counting`]
//! additionally reports the partial-product trace statistics, and
//! [`symbolic_rows`] counts the fan-in of every output element without
//! computing values (the memory-bloat analysis and the NeuraCompiler's
//! rolling counters).

mod gustavson;
mod inner;
mod outer;
mod tiled;

pub use gustavson::{gustavson, gustavson_with_stats, symbolic_rows};
pub use inner::inner_product;
pub use outer::{outer_product, outer_product_partial_products};
pub use tiled::{tiled_gustavson, TiledTask, TiledTrace};

use crate::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Which multiplication-stage dataflow to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Inner-product (output stationary) dataflow.
    InnerProduct,
    /// Outer-product dataflow with explicit intermediate matrices.
    OuterProduct,
    /// Row-wise (Gustavson) dataflow.
    RowWise,
    /// Tiled row-wise dataflow with the given tile height.
    TiledRowWise(usize),
}

impl Dataflow {
    /// Human readable name used in reports.
    pub fn name(&self) -> String {
        match self {
            Dataflow::InnerProduct => "inner-product".to_string(),
            Dataflow::OuterProduct => "outer-product".to_string(),
            Dataflow::RowWise => "row-wise".to_string(),
            Dataflow::TiledRowWise(t) => format!("tiled-row-wise-{t}"),
        }
    }
}

/// Statistics gathered while running a counting SpGEMM.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpgemmStats {
    /// Number of scalar multiplications performed (== intermediate partial products).
    pub multiplications: u64,
    /// Number of scalar additions performed during accumulation.
    pub additions: u64,
    /// Number of structurally non-zero entries in the output.
    pub output_nnz: usize,
    /// Maximum number of partial products that target a single output row.
    pub max_row_partial_products: u64,
    /// Number of rows of the output that receive at least one partial product.
    pub active_rows: usize,
}

impl SpgemmStats {
    /// Total floating point operations (multiplications + additions).
    pub fn flops(&self) -> u64 {
        self.multiplications + self.additions
    }

    /// The paper's "bloat percent" (Equation 1):
    /// `(pp_interim - nnz_output) / nnz_output * 100`.
    pub fn bloat_percent(&self) -> f64 {
        if self.output_nnz == 0 {
            0.0
        } else {
            (self.multiplications as f64 - self.output_nnz as f64) / self.output_nnz as f64 * 100.0
        }
    }
}

/// Runs the requested dataflow and returns the product matrix.
///
/// All dataflows produce the same result; this entry point exists so callers
/// (benchmarks, tests) can select a dataflow by value.
pub fn multiply(a: &CsrMatrix, b: &CsrMatrix, dataflow: Dataflow) -> crate::Result<CsrMatrix> {
    if a.cols() != b.rows() {
        return Err(crate::SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        });
    }
    Ok(match dataflow {
        Dataflow::InnerProduct => inner_product(a, b),
        Dataflow::OuterProduct => outer_product(a, b),
        Dataflow::RowWise => gustavson(a, b),
        Dataflow::TiledRowWise(tile) => tiled_gustavson(a, b, tile).product,
    })
}

/// Runs a row-wise SpGEMM while counting multiplications/additions.
///
/// This is the numeric reference for the partial-product counts; the
/// memory-bloat analysis (Table 1) reaches the same counts symbolically
/// through [`symbolic_rows`].
pub fn multiply_counting(a: &CsrMatrix, b: &CsrMatrix) -> (CsrMatrix, SpgemmStats) {
    gustavson_with_stats(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;

    fn small_pair() -> (CsrMatrix, CsrMatrix) {
        let a = GraphGenerator::erdos_renyi(40, 0.12, 3).generate().to_csr();
        let b = GraphGenerator::erdos_renyi(40, 0.15, 4).generate().to_csr();
        (a, b)
    }

    #[test]
    fn all_dataflows_agree_with_dense_reference() {
        let (a, b) = small_pair();
        let expected = a.to_dense().matmul(&b.to_dense()).unwrap();
        for dataflow in [
            Dataflow::InnerProduct,
            Dataflow::OuterProduct,
            Dataflow::RowWise,
            Dataflow::TiledRowWise(4),
            Dataflow::TiledRowWise(1),
            Dataflow::TiledRowWise(8),
        ] {
            let c = multiply(&a, &b, dataflow).unwrap();
            let diff = c.to_dense().max_abs_diff(&expected).unwrap();
            assert!(diff < 1e-9, "dataflow {dataflow:?} diverged by {diff}");
        }
    }

    #[test]
    fn multiply_rejects_shape_mismatch() {
        let a = CsrMatrix::identity(3);
        let b = CsrMatrix::identity(4);
        assert!(multiply(&a, &b, Dataflow::RowWise).is_err());
    }

    #[test]
    fn counting_stats_are_consistent() {
        let (a, b) = small_pair();
        let (c, stats) = multiply_counting(&a, &b);
        assert_eq!(stats.output_nnz, c.nnz());
        // Each output non-zero requires at least one multiplication.
        assert!(stats.multiplications >= c.nnz() as u64);
        // additions == multiplications - populated entries (merging k partial
        // products takes k-1 additions).
        assert_eq!(stats.additions, stats.multiplications - c.nnz() as u64);
        assert!(stats.bloat_percent() >= 0.0);
    }

    #[test]
    fn dataflow_names_are_distinct() {
        let names: std::collections::HashSet<String> = [
            Dataflow::InnerProduct,
            Dataflow::OuterProduct,
            Dataflow::RowWise,
            Dataflow::TiledRowWise(4),
        ]
        .iter()
        .map(|d| d.name())
        .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn identity_times_identity_is_identity() {
        let id = CsrMatrix::identity(16);
        for dataflow in [Dataflow::InnerProduct, Dataflow::OuterProduct, Dataflow::RowWise] {
            let c = multiply(&id, &id, dataflow).unwrap();
            assert_eq!(c.nnz(), 16);
            for i in 0..16 {
                assert_eq!(c.get(i, i), 1.0);
            }
        }
    }
}
