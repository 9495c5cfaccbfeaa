//! Fixture: float comparisons inside test regions are exempt.

/// Fixture item `half`.
pub fn half(x: f64) -> f64 {
    x / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves() {
        assert!(half(1.0) == 0.5);
        assert_eq!(half(3.0).partial_cmp(&1.0), Some(std::cmp::Ordering::Greater));
    }
}
