//! Canonical SHA-256 for content-addressing job specs.
//!
//! The FIPS 180-4 implementation lives in [`flumen_linalg::sha256_hex`];
//! this module is the path the sweep, the serve layer and the figure
//! binaries hash through.

pub use flumen_linalg::sha256_hex;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexport_matches_fips_vector() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}
