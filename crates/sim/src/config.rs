//! Fleet-simulation configuration.

use crate::calibration::{DEFAULT_REPORT_PERMILLE, HORIZON_DAYS};

/// Configuration for generating a synthetic fleet trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Drives per model (the paper's trace has "over 10,000 unique drives
    /// for each drive model").
    pub drives_per_model: u32,
    /// Observation horizon in days (the paper's trace spans six years).
    pub horizon_days: u32,
    /// Master seed; every drive derives an independent stream from it.
    pub seed: u64,
    /// Probability (in permille, clamped to `1..=1000`) that an
    /// operational day emits a report. The calibrated field value is
    /// [`DEFAULT_REPORT_PERMILLE`] (= 970, Figure 1's Data Count < Max
    /// Age gap); event-sparse benchmarks lower it to make the generator's
    /// skipped spans long.
    pub report_permille: u32,
}

ssd_types::impl_json_struct!(SimConfig {
    drives_per_model,
    horizon_days,
    seed,
    report_permille
});

impl SimConfig {
    /// Paper-scale fleet: 10,000 drives per model over six years.
    /// Produces tens of millions of daily reports — expect multi-GB memory.
    pub fn paper_scale(seed: u64) -> Self {
        SimConfig {
            drives_per_model: 10_000,
            horizon_days: HORIZON_DAYS,
            seed,
            report_permille: DEFAULT_REPORT_PERMILLE,
        }
    }

    /// Default scale: 2,000 drives per model — enough for all population
    /// statistics to stabilize while staying laptop-friendly.
    pub fn default_scale(seed: u64) -> Self {
        SimConfig {
            drives_per_model: 2_000,
            horizon_days: HORIZON_DAYS,
            seed,
            report_permille: DEFAULT_REPORT_PERMILLE,
        }
    }

    /// Small fleets for unit/integration tests.
    pub fn test_scale(seed: u64) -> Self {
        SimConfig {
            drives_per_model: 300,
            horizon_days: HORIZON_DAYS,
            seed,
            report_permille: DEFAULT_REPORT_PERMILLE,
        }
    }

    /// Total drives across all three models.
    pub fn total_drives(&self) -> u32 {
        self.drives_per_model * 3
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::default_scale(0x55D_F1E1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let p = SimConfig::paper_scale(1);
        let d = SimConfig::default_scale(1);
        let t = SimConfig::test_scale(1);
        assert!(p.drives_per_model > d.drives_per_model);
        assert!(d.drives_per_model > t.drives_per_model);
        assert_eq!(p.total_drives(), 30_000);
    }

    #[test]
    fn serde_roundtrip() {
        let c = SimConfig::default();
        let s = ssd_types::json::to_string(&c);
        let back: SimConfig = ssd_types::json::from_str(&s).unwrap();
        assert_eq!(back, c);
    }
}
