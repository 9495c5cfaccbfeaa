//! Small numeric helpers: medians, tail-percentile choice, output digests.

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the benchmark may report, highest first, in tenths of a
/// percent (999 = p99.9).
const CANDIDATES_PERMILLE: [u32; 5] = [999, 990, 950, 900, 500];

/// The highest candidate percentile that still has at least ten samples
/// beyond it among `n` samples, in tenths of a percent.
pub(crate) fn tail_permille(n: usize) -> Option<u32> {
    let n = n as u64;
    CANDIDATES_PERMILLE
        .iter()
        .copied()
        .find(|&p| n * u64::from(1000 - p) >= 10 * 1000)
}

/// Metric-name prefix for a percentile in tenths of a percent: `p99`,
/// `p99.9`, `p50`.
pub(crate) fn percentile_label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Nearest-rank percentile of `xs` at `permille` tenths of a percent.
pub(crate) fn percentile(xs: &[f64], permille: u32) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as u64;
    let rank = (n * u64::from(permille)).div_ceil(1000).max(1);
    v[(rank - 1) as usize]
}

/// 64-bit FNV-1a, used to fingerprint outputs so a change can show its
/// outputs are unchanged.
#[derive(Clone, Copy)]
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a file's bytes, read in bounded chunks.
pub(crate) fn digest_file(path: &std::path::Path) -> std::io::Result<(String, u64)> {
    use std::io::Read;
    let mut f = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut d = Digest::new();
    let mut len = 0u64;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok((d.hex(), len));
        }
        d.update(&buf[..n]);
        len += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_permille(10_000), Some(999));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(1_000), Some(990));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(19), None);
        for n in 20..3000usize {
            let p = tail_permille(n).expect("n >= 20 has a median");
            // At least ten samples beyond the chosen percentile...
            assert!(n as u64 * u64::from(1000 - p) >= 10_000, "n={n} p={p}");
            // ...and no higher candidate qualifies.
            for &q in CANDIDATES_PERMILLE.iter().filter(|&&q| q > p) {
                assert!((n as u64 * u64::from(1000 - q)) < 10_000, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn percentile_labels_and_nearest_rank() {
        assert_eq!(percentile_label(990), "p99");
        assert_eq!(percentile_label(999), "p99.9");
        assert_eq!(percentile_label(500), "p50");
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), 100.0);
        assert_eq!(percentile(&xs, 950), 190.0);
        assert_eq!(percentile(&xs, 990), 198.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Published FNV-1a 64 test vectors.
        let mut d = Digest::new();
        assert_eq!(d.hex(), "cbf29ce484222325");
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let mut e = Digest::new();
        e.update(b"foobar");
        assert_eq!(e.hex(), "85944171f73967e8");
        // Chunking does not matter; byte order does.
        let mut split = Digest::new();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.hex(), e.hex());
        let mut swapped = Digest::new();
        swapped.update(b"barfoo");
        assert_ne!(swapped.hex(), e.hex());
    }
}
