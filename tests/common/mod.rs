//! The seeded property runner shared by the root property suites.
//!
//! Each property runs over [`CASES`] inputs drawn from the in-tree
//! `hc_gen::rng` generator, one seed per case. A failure names the property
//! and the seed, and `HC_PROP_SEED=<seed>` replays that one case:
//!
//! ```text
//! HC_PROP_SEED=17 cargo test --test linalg_properties svd_algorithms_agree
//! ```

use hetero_measures::gen::rng::{Rng, StdRng};
use hetero_measures::linalg::Matrix;

/// Inputs per property.
pub const CASES: u64 = 300;

/// Runs `prop` once per seed in `0..CASES` (or only on `$HC_PROP_SEED`),
/// panicking with the property name and the failing seed.
pub fn check(name: &str, prop: impl Fn(&mut StdRng) -> Result<(), String>) {
    let seeds = match std::env::var("HC_PROP_SEED") {
        Ok(s) => {
            let seed = s.parse().expect("HC_PROP_SEED must be an integer");
            seed..seed + 1
        }
        Err(_) => 0..CASES,
    };
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(msg) = prop(&mut rng) {
            panic!("{name} failed for seed {seed} (replay: HC_PROP_SEED={seed}): {msg}");
        }
    }
}

/// Fails with `msg` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// An `m × n` matrix with entries uniform in `lo..hi`, drawn row by row.
pub fn matrix_of(rng: &mut StdRng, m: usize, n: usize, lo: f64, hi: f64) -> Matrix {
    let data = (0..m * n).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(m, n, data).expect("shape matches data")
}
