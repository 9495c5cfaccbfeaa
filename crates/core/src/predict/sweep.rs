//! Figure 12: random-forest AUC as a function of the lookahead window N.

use super::{PredictConfig, RESIDENT_DATASETS};
use crate::report::Series;
use ssd_ml::{CvError, Dataset};
use ssd_types::FleetTrace;

/// Result of the Figure 12 sweep.
#[derive(Debug, Clone)]
pub struct LookaheadSweep {
    /// (N, mean AUC) points.
    pub auc: Series,
    /// Per-N standard deviation across CV folds (the paper's error bars).
    pub std: Vec<(u32, f64)>,
}

/// Runs Figure 12 over the given lookahead values (the paper sweeps
/// 1..=30; pass a thinner grid for quick runs). Fails when a dataset
/// cannot be cross-validated.
pub fn lookahead_sweep(
    trace: &FleetTrace,
    config: &PredictConfig,
    lookaheads: &[u32],
) -> Result<LookaheadSweep, CvError> {
    let mut pts = Vec::with_capacity(lookaheads.len());
    let mut std = Vec::with_capacity(lookaheads.len());
    // Each build already runs on the whole pool; building a chunk's
    // datasets one after another keeps a single build's buffers live.
    for chunk in lookaheads.chunks(RESIDENT_DATASETS) {
        let datasets: Vec<Dataset> = chunk.iter().map(|&n| config.dataset(trace, n)).collect();
        for (&n, r) in chunk.iter().zip(config.forest_cvs(&datasets)) {
            let r = r?;
            pts.push((f64::from(n), r.mean()));
            std.push((n, r.std_dev()));
        }
    }
    Ok(LookaheadSweep {
        auc: Series::new("Random forest AUC vs lookahead N", pts),
        std,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::test_support::shared_trace;

    #[test]
    fn auc_declines_with_window_size() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(5);
        let sweep = lookahead_sweep(trace, &cfg, &[1, 14]).unwrap();
        let a1 = sweep.auc.points[0].1;
        let a14 = sweep.auc.points[1].1;
        // Figure 12: 0.90 at N=1 falling toward 0.77 at N=30. We assert
        // the downward shape with tolerance for CV noise.
        assert!(a1 > 0.75, "N=1 AUC {a1}");
        assert!(a1 > a14 - 0.02, "N=1 {a1} vs N=14 {a14}");
        assert_eq!(sweep.std.len(), 2);
    }
}

ssd_types::impl_json_struct!(LookaheadSweep { auc, std });
