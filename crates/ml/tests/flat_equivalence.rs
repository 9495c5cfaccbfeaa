//! Equivalence battery for the flattened forest (`ssd_ml::flat`).
//!
//! The flat scorer exists purely for speed: every prediction it makes
//! must be *bit-identical* to the pointer forest it was flattened from.
//! These properties fit small forests on adversarial random datasets —
//! heavy ties, quantized columns, bootstrap-style duplicate rows — and
//! compare pointer vs flat per row, per batch, and across block
//! boundaries, down to the last mantissa bit. Non-finite values are
//! covered on both sides of the ingest boundary: training rejects them
//! (`Dataset::push_row` panics), while *scoring* rows may carry NaN/±inf
//! and must route through flat trees exactly as through pointer trees.

use ssd_ml::{BatchScorer, Classifier, Dataset, FlatForest, ForestConfig, RandomForest};
use ssd_testkit::{for_each_case, Gen};

/// Random train set with the tie-heavy shapes that break tree code:
/// up to 6 features, each column independently continuous or quantized
/// to 1–4 discrete levels, with 20–120 rows.
fn tied_data(g: &mut Gen) -> Dataset {
    let n = g.usize_in(20, 120);
    let d = g.usize_in(1, 6);
    let levels: Vec<usize> = (0..d).map(|_| if g.bool() { g.usize_in(1, 4) } else { 0 }).collect();
    let mut data = Dataset::with_dims(d);
    let mut row = vec![0f32; d];
    for i in 0..n {
        for (v, &lv) in row.iter_mut().zip(&levels) {
            let x = g.f64_unit();
            *v = if lv == 0 { x as f32 } else { ((x * lv as f64).floor() / lv as f64) as f32 };
        }
        data.push_row(&row, g.bool(), i as u32);
    }
    data
}

/// Probe rows over the train distribution's support, plus overshoot.
fn probes(g: &mut Gen, d: usize, n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..d).map(|_| g.f64_in(-0.5, 1.5) as f32).collect())
        .collect()
}

fn assert_bits_eq(name: &str, want: &[f64], got: &[f64]) {
    assert_eq!(want.len(), got.len(), "{name}: length mismatch");
    for (i, (p, q)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            p.to_bits(),
            q.to_bits(),
            "{name}[{i}]: pointer {p} (0x{:016X}) vs flat {q} (0x{:016X})",
            p.to_bits(),
            q.to_bits(),
        );
    }
}

#[test]
fn flat_forest_is_bit_identical_on_random_tied_datasets() {
    for_each_case("flat_forest_is_bit_identical_on_random_tied_datasets", 48, |g| {
        let data = tied_data(g);
        let cfg = ForestConfig {
            n_trees: g.usize_in(1, 8),
            ..Default::default()
        };
        let forest = RandomForest::fit(&cfg, &data, g.u64());
        let flat = FlatForest::from_forest(&forest);

        // Per-row walks on training rows (duplicates/ties included)...
        for i in 0..data.n_rows() {
            let p = forest.predict_proba(data.row(i));
            let q = flat.predict_proba(data.row(i));
            assert_eq!(p.to_bits(), q.to_bits(), "train row {i}");
        }
        // ...and on fresh probes, through both the per-row and the
        // blocked batch path.
        let rows = probes(g, data.n_features(), 17);
        let flat_buf: Vec<f32> = rows.iter().flatten().copied().collect();
        let want: Vec<f64> = rows.iter().map(|r| forest.predict_proba(r)).collect();
        let got = flat.predict_rows(&flat_buf, data.n_features());
        assert_bits_eq("forest probes", &want, &got);
    });
}

#[test]
fn flat_walks_route_non_finite_probes_like_pointer_trees() {
    // NaN fails every `x <= t` comparison, so both implementations must
    // send it to the right child at every split; ±inf exercises the
    // comparison at its extremes. Scoring rows are allowed to be
    // non-finite even though training rows are not.
    for_each_case("flat_walks_route_non_finite_probes_like_pointer_trees", 32, |g| {
        let data = tied_data(g);
        let d = data.n_features();
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 5,
                ..Default::default()
            },
            &data,
            g.u64(),
        );
        let flat_f = FlatForest::from_forest(&forest);

        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for _ in 0..8 {
            let mut row: Vec<f32> = (0..d).map(|_| g.f64_unit() as f32).collect();
            // Poison 1..=d columns with non-finite values.
            for _ in 0..g.usize_in(1, d + 1) {
                row[g.usize_in(0, d)] = *g.choose(&specials);
            }
            let p = forest.predict_proba(&row);
            let q = flat_f.predict_proba(&row);
            assert_eq!(p.to_bits(), q.to_bits(), "forest probe {row:?}");
            // The blocked batch path must agree too.
            let batch = flat_f.predict_rows(&row, d);
            assert_eq!(batch[0].to_bits(), flat_f.predict_proba(&row).to_bits());
        }
    });
}

#[test]
fn batch_path_is_invariant_to_block_boundaries() {
    // predict_rows blocks rows 256 at a time and walks lanes of 8; row
    // counts straddling those boundaries must score exactly like the
    // one-row-at-a-time path.
    let mut g = Gen::from_seed(0xB10C);
    let data = tied_data(&mut g);
    let d = data.n_features();
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 4,
            ..Default::default()
        },
        &data,
        1,
    );
    let flat = FlatForest::from_forest(&forest);
    for n_rows in [1usize, 7, 8, 9, 255, 256, 257, 264] {
        let rows = probes(&mut g, d, n_rows);
        let buf: Vec<f32> = rows.iter().flatten().copied().collect();
        let want: Vec<f64> = rows.iter().map(|r| flat.predict_proba(r)).collect();
        let got = flat.predict_rows(&buf, d);
        assert_bits_eq(&format!("block boundary n={n_rows}"), &want, &got);
    }
}

#[test]
#[should_panic(expected = "non-finite feature value")]
fn training_rows_still_reject_nan_at_ingest() {
    let mut d = Dataset::with_dims(2);
    d.push_row(&[0.5, f32::NAN], true, 0);
}

#[test]
#[should_panic(expected = "non-finite feature value")]
fn training_rows_still_reject_infinity_at_ingest() {
    let mut d = Dataset::with_dims(2);
    d.push_row(&[f32::INFINITY, 0.5], false, 0);
}
