//! Fixture: hash maps and clock reads inside test regions are exempt.

/// Fixture item `double`.
pub fn double(x: u32) -> u32 {
    x * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn doubles() {
        let start = std::time::Instant::now();
        let m: HashMap<u32, u32> = [(1, double(1))].into();
        assert_eq!(m[&1], 2);
        assert!(start.elapsed().as_secs() < 60);
    }
}
