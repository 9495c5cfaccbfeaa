//! Dense row-major dataset with group labels for grouped cross-validation.

use ssd_types::cast::f64_from_usize;

/// A supervised binary-classification dataset.
///
/// Features are stored row-major in one contiguous `Vec<f32>` (structure of
/// arrays was measured slower for the tree learner's per-feature sorts at
/// our row counts once gather costs are included; row-major also makes
/// single-row prediction cache-friendly).
///
/// `groups` carries the drive ID of each row: the paper partitions
/// cross-validation folds *by drive* because "error and workload for a
/// given drive are highly correlated across different drive days"
/// (Section 5.1) — splitting a drive across train and test leaks.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    n_features: usize,
    features: Vec<f32>,
    labels: Vec<bool>,
    groups: Vec<u32>,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature schema.
    pub fn new(feature_names: Vec<String>) -> Self {
        let n_features = feature_names.len();
        assert!(n_features > 0, "need at least one feature");
        Dataset {
            n_features,
            features: Vec::new(),
            labels: Vec::new(),
            groups: Vec::new(),
            feature_names,
        }
    }

    /// Creates a dataset with anonymous feature names `f0..f{d-1}`.
    pub fn with_dims(n_features: usize) -> Self {
        Self::new((0..n_features).map(|i| format!("f{i}")).collect())
    }

    /// Appends one row. Panics if the row width mismatches the schema or
    /// if any value is non-finite: NaN has no place in a total order, so a
    /// single NaN would silently scramble the tree learners' sorted
    /// feature columns, and ±inf breaks threshold midpoints. Rejecting at
    /// ingest keeps the invariant checkable in exactly one place.
    pub fn push_row(&mut self, row: &[f32], label: bool, group: u32) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        for (j, &v) in row.iter().enumerate() {
            assert!(
                v.is_finite(),
                "non-finite feature value {v} in column {j} ({}) at row {}: \
                 clean or clamp features before pushing them",
                self.feature_names[j],
                self.labels.len(),
            );
        }
        self.features.extend_from_slice(row);
        self.labels.push(label);
        self.groups.push(group);
    }

    /// Reserves capacity for `n` additional rows.
    pub fn reserve(&mut self, n: usize) {
        self.features.reserve(n * self.n_features);
        self.labels.reserve(n);
        self.groups.reserve(n);
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of features per row.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Label of row `i`.
    #[inline]
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Group (drive ID) of row `i`.
    #[inline]
    pub fn group(&self, i: usize) -> u32 {
        self.groups[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// All groups.
    pub fn groups(&self) -> &[u32] {
        &self.groups
    }

    /// Raw feature buffer (row-major).
    pub fn raw_features(&self) -> &[f32] {
        &self.features
    }

    /// `(positives, negatives)` counts.
    pub fn class_counts(&self) -> (usize, usize) {
        let pos = self.labels.iter().filter(|&&l| l).count();
        (pos, self.labels.len() - pos)
    }

    /// Materializes the subset of rows at `indices` (in the given order).
    /// The rows were checked when they were pushed, so they are copied
    /// as they are.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.feature_names.clone());
        out.reserve(indices.len());
        for &i in indices {
            out.features.extend_from_slice(self.row(i));
            out.labels.push(self.labels[i]);
            out.groups.push(self.groups[i]);
        }
        out
    }

    /// Appends every row of `other`, which must share this schema's
    /// width. The rows were checked when they were pushed.
    pub fn append(&mut self, other: &Dataset) {
        assert_eq!(other.n_features, self.n_features, "row width mismatch");
        self.features.extend_from_slice(&other.features);
        self.labels.extend_from_slice(&other.labels);
        self.groups.extend_from_slice(&other.groups);
    }

    /// Applies `f` to every feature value in place (used by the scaler).
    pub fn map_features_in_place(&mut self, mut f: impl FnMut(usize, f32) -> f32) {
        let d = self.n_features;
        for (idx, v) in self.features.iter_mut().enumerate() {
            *v = f(idx % d, *v);
        }
    }
}

/// Per-feature standardization (zero mean, unit variance) fitted on
/// training data and applied to both train and test — fitting on the full
/// dataset would leak test statistics into training.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    means: Vec<f32>,
    inv_stds: Vec<f32>,
}

impl Scaler {
    /// Fits means and standard deviations per feature column.
    pub fn fit(data: &Dataset) -> Self {
        let d = data.n_features();
        let n = data.n_rows().max(1);
        let mut means = vec![0f64; d];
        for i in 0..data.n_rows() {
            for (m, &v) in means.iter_mut().zip(data.row(i)) {
                *m += f64::from(v);
            }
        }
        for m in &mut means {
            *m /= f64_from_usize(n);
        }
        let mut vars = vec![0f64; d];
        for i in 0..data.n_rows() {
            for ((var, &m), &v) in vars.iter_mut().zip(&means).zip(data.row(i)) {
                let dlt = f64::from(v) - m;
                *var += dlt * dlt;
            }
        }
        #[expect(
            clippy::as_conversions,
            reason = "feature matrix is f32; rounding the scale is the precision contract"
        )]
        let inv_stds = vars
            .iter()
            .map(|&v| {
                let sd = (v / f64_from_usize(n)).sqrt();
                if sd > 1e-12 {
                    (1.0 / sd) as f32
                } else {
                    1.0 // constant feature: leave centred but unscaled
                }
            })
            .collect();
        #[expect(
            clippy::as_conversions,
            reason = "feature matrix is f32; rounding the centre is the precision contract"
        )]
        let means = means.into_iter().map(|m| m as f32).collect();
        Scaler { means, inv_stds }
    }

    /// Standardizes a dataset in place.
    pub fn transform(&self, data: &mut Dataset) {
        let means = &self.means;
        let inv = &self.inv_stds;
        data.map_features_in_place(|j, v| (v - means[j]) * inv[j]);
    }

    /// Standardizes one row into a scratch buffer.
    pub fn transform_row(&self, row: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(
            row.iter()
                .zip(&self.means)
                .zip(&self.inv_stds)
                .map(|((&v, &m), &s)| (v - m) * s),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::with_dims(2);
        d.push_row(&[1.0, 10.0], true, 0);
        d.push_row(&[2.0, 20.0], false, 0);
        d.push_row(&[3.0, 30.0], true, 1);
        d.push_row(&[4.0, 40.0], false, 2);
        d
    }

    #[test]
    fn rows_and_counts() {
        let d = toy();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(2), &[3.0, 30.0]);
        assert_eq!(d.class_counts(), (2, 2));
        assert_eq!(d.group(3), 2);
    }

    #[test]
    fn select_preserves_rows() {
        let d = toy();
        let s = d.select(&[3, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), &[4.0, 40.0]);
        assert!(!s.label(0));
        assert_eq!(s.row(1), &[1.0, 10.0]);
        assert!(s.label(1));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_wrong_width_panics() {
        let mut d = Dataset::with_dims(2);
        d.push_row(&[1.0], true, 0);
    }

    #[test]
    fn scaler_standardizes_columns() {
        let mut d = toy();
        let s = Scaler::fit(&d);
        s.transform(&mut d);
        for j in 0..2 {
            let col: Vec<f64> = (0..d.n_rows()).map(|i| f64::from(d.row(i)[j])).collect();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                / col.len() as f64;
            assert!(mean.abs() < 1e-6, "col {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-5, "col {j} var {var}");
        }
    }

    #[test]
    fn scaler_handles_constant_features() {
        let mut d = Dataset::with_dims(1);
        d.push_row(&[5.0], true, 0);
        d.push_row(&[5.0], false, 1);
        let s = Scaler::fit(&d);
        s.transform(&mut d);
        assert_eq!(d.row(0)[0], 0.0);
        assert_eq!(d.row(1)[0], 0.0);
    }

    #[test]
    fn transform_row_matches_dataset_transform() {
        let d = toy();
        let s = Scaler::fit(&d);
        let mut row_out = Vec::new();
        s.transform_row(d.row(1), &mut row_out);
        let mut d2 = d.clone();
        s.transform(&mut d2);
        assert_eq!(row_out.as_slice(), d2.row(1));
    }
}
