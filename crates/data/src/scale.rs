//! Scale-synthetic preset family: million-user implicit-feedback data
//! generated *per user on demand*, deterministically from the run seed.
//!
//! The paper's largest preset (Gowalla) stops at 8,392 users; the scale
//! presets model the cross-device fleets PTF-FedRec is designed for. Two
//! properties make them usable at that size:
//!
//! * **Streaming.** A user's interaction row is a pure function of
//!   `(master seed, user id)` — [`ScaleConfig::user_items`] derives a
//!   private RNG per user, so any row can be produced in isolation, in
//!   any order, on any thread, without materializing the rest. The cohort
//!   runtime writes rows into an on-disk [`crate::arena::CsrArena`] and
//!   the full dataset is never resident.
//! * **Power-law popularity.** Item popularity follows a Zipf-like
//!   inverse-CDF over popularity *ranks*; a seed-derived Feistel
//!   permutation then scatters ranks over item ids, so popular items are
//!   spread across the id space exactly as in the shuffled real datasets.
//!
//! Profile lengths are log-normal (as in [`crate::synthetic`]), clamped
//! to `[min_profile_len, max_profile_len]`.

use crate::arena::{ArenaError, ArenaWriter};
use crate::dataset::Dataset;
use ptf_tensor::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::LogNormal;
use std::path::Path;

/// Stream discriminator for per-user row generation inside the master
/// seed's namespace. The federation scheduler owns streams
/// `0x0100…`–`0x0700…` (see `ptf_federated`'s `RngStream`); `0x0800…` is
/// reserved here so a scale run's data generation can never collide with
/// a protocol stream derived from the same seed.
pub const SCALE_STREAM: u64 = 0x0800_0000_0000;

/// A 4-round Feistel network over the smallest even-bit power-of-two
/// domain covering `domain`, with cycle-walking to stay inside it: a
/// cheap seed-derived bijection `rank → item id`. Keys derive from the
/// seed, so different master seeds scatter popularity differently while
/// any one run is fully deterministic.
struct Feistel {
    keys: [u64; 4],
    half_bits: u32,
    half_mask: u64,
    domain: u64,
}

impl Feistel {
    fn new(domain: u64, seed: u64) -> Self {
        debug_assert!(domain >= 2, "permutation domain too small");
        let bits = 64 - (domain - 1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let keys = [
            derive_seed(seed, 1, 0),
            derive_seed(seed, 2, 0),
            derive_seed(seed, 3, 0),
            derive_seed(seed, 4, 0),
        ];
        Self { keys, half_bits, half_mask: (1u64 << half_bits) - 1, domain }
    }

    fn encrypt_once(&self, x: u64) -> u64 {
        let mut l = x >> self.half_bits;
        let mut r = x & self.half_mask;
        for &k in &self.keys {
            let f = derive_seed(k, r, 0) & self.half_mask;
            (l, r) = (r, l ^ f);
        }
        (l << self.half_bits) | r
    }

    /// The permuted value of `x < domain`, cycle-walking through the
    /// power-of-two super-domain until the image lands back inside.
    fn permute(&self, x: u64) -> u64 {
        debug_assert!(x < self.domain);
        let mut y = x;
        loop {
            y = self.encrypt_once(y);
            if y < self.domain {
                return y;
            }
        }
    }
}

/// A truncated power law over ranks `0..n` (exponent `s ≠ 1`), sampled
/// by inverse CDF: rank 0 is the most popular. The two constants of the
/// inverse CDF are computed once.
struct PowerLaw {
    n: u64,
    /// `n^(1−s) − 1`.
    span: f64,
    /// `1/(1−s)`.
    exponent: f64,
}

impl PowerLaw {
    fn new(n: u64, s: f64) -> Self {
        let one_minus_s = 1.0 - s;
        Self { n, span: (n as f64).powf(one_minus_s) - 1.0, exponent: 1.0 / one_minus_s }
    }

    fn rank(&self, u: f64) -> u64 {
        debug_assert!((0.0..1.0).contains(&u));
        let x = (1.0 + u * self.span).powf(self.exponent);
        ((x as u64).saturating_sub(1)).min(self.n - 1)
    }
}

/// What every row of one dataset shares: the popularity law and the
/// seed-derived rank → item scatter. A lone row permutes the ranks it
/// draws; a whole arena tabulates the permutation once
/// ([`Popularity::tabulated`]) — the same map, so the same rows.
struct Popularity {
    law: PowerLaw,
    scatter: Feistel,
    /// `item of rank r` for every rank, when tabulated.
    table: Option<Vec<u32>>,
}

impl Popularity {
    fn new(cfg: &ScaleConfig, master_seed: u64) -> Self {
        let n = cfg.num_items as u64;
        Self {
            law: PowerLaw::new(n, cfg.pop_exponent),
            scatter: Feistel::new(n, derive_seed(master_seed, 0, SCALE_STREAM)),
            table: None,
        }
    }

    fn tabulated(mut self) -> Self {
        let table = (0..self.law.n).map(|rank| self.scatter.permute(rank) as u32).collect();
        self.table = Some(table);
        self
    }

    /// The item a uniform draw `u ∈ [0, 1)` picks.
    fn item(&self, u: f64) -> u32 {
        let rank = self.law.rank(u);
        match &self.table {
            Some(table) => table[rank as usize],
            None => self.scatter.permute(rank) as u32,
        }
    }
}

/// A scale-synthetic preset: user count, catalogue size, and the
/// popularity/length distribution parameters.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    pub name: String,
    pub num_users: usize,
    pub num_items: usize,
    /// Mean profile length (log-normal).
    pub avg_len: f64,
    /// Log-normal sigma of the profile length.
    pub len_sigma: f64,
    pub min_profile_len: usize,
    pub max_profile_len: usize,
    /// Power-law exponent of item popularity (Zipf-ish, `≠ 1`).
    pub pop_exponent: f64,
}

impl ScaleConfig {
    /// A scale preset over `num_users` users. The catalogue is fixed at
    /// 10,000 items across all user scales on purpose: model and server
    /// state size then depend only on the item space, so growing the user
    /// count 10× must leave peak heap flat — the property the CI
    /// `scale-smoke` gate measures.
    pub fn new(name: impl Into<String>, num_users: usize) -> Self {
        Self {
            name: name.into(),
            num_users,
            num_items: 10_000,
            avg_len: 20.0,
            len_sigma: 0.6,
            min_profile_len: 3,
            max_profile_len: 200,
            pop_exponent: 1.1,
        }
    }

    /// The named presets: `scale-10k`, `scale-100k`, `scale-1m`.
    pub fn preset(key: &str) -> Option<Self> {
        match key {
            "scale-10k" => Some(Self::new("scale-10k", 10_000)),
            "scale-100k" => Some(Self::new("scale-100k", 100_000)),
            "scale-1m" => Some(Self::new("scale-1m", 1_000_000)),
            _ => None,
        }
    }

    /// Generates `user`'s interaction row (sorted ascending, unique) into
    /// `out`. Pure function of `(self, master_seed, user)`: any row can
    /// be generated independently, which is what lets the dataset stream.
    pub fn user_items(&self, master_seed: u64, user: u32, out: &mut Vec<u32>) {
        self.row_into(&Popularity::new(self, master_seed), master_seed, user, out);
    }

    /// [`ScaleConfig::user_items`] under a [`Popularity`] of the same
    /// `master_seed`.
    fn row_into(&self, pop: &Popularity, master_seed: u64, user: u32, out: &mut Vec<u32>) {
        debug_assert!((user as usize) < self.num_users, "user out of range");
        out.clear();
        let mut rng = StdRng::seed_from_u64(derive_seed(master_seed, user as u64, SCALE_STREAM));
        let sigma = self.len_sigma.max(f64::MIN_POSITIVE);
        // mu chosen so the log-normal's mean is avg_len
        let mu = self.avg_len.ln() - sigma * sigma / 2.0;
        let drawn: f64 = rng.sample(LogNormal::new(mu, sigma).expect("finite length params"));
        let len = (drawn.round() as usize)
            .clamp(self.min_profile_len, self.max_profile_len)
            .min(self.num_items);
        // rejection-dedup: popular items collide often, so allow a
        // bounded number of redraws before accepting a shorter profile
        let mut attempts = 0usize;
        let max_attempts = len * 8 + 32;
        while out.len() < len && attempts < max_attempts {
            attempts += 1;
            let item = pop.item(rng.gen());
            if let Err(pos) = out.binary_search(&item) {
                out.insert(pos, item);
            }
        }
    }

    /// Streams every user's row into an on-disk arena at `path`. Peak
    /// memory is O(one row) plus the writer's indptr vector (8 bytes per
    /// user, generation-time only) and the tabulated rank → item map (4
    /// bytes per item).
    pub fn write_arena(&self, master_seed: u64, path: &Path) -> Result<(), ArenaError> {
        let mut w = ArenaWriter::create(path, self.num_users, self.num_items)?;
        let pop = Popularity::new(self, master_seed).tabulated();
        let mut row = Vec::new();
        for user in 0..self.num_users as u32 {
            self.row_into(&pop, master_seed, user, &mut row);
            w.push_user(&row)?;
        }
        w.finish()
    }

    /// Materializes the whole dataset in memory — parity harnesses and
    /// small presets only; the scale runtime streams via
    /// [`ScaleConfig::write_arena`] instead.
    pub fn materialize(&self, master_seed: u64) -> Dataset {
        let mut b = Dataset::builder(self.name.clone(), self.num_items, self.num_users, 0);
        let pop = Popularity::new(self, master_seed).tabulated();
        let mut row = Vec::new();
        for user in 0..self.num_users as u32 {
            self.row_into(&pop, master_seed, user, &mut row);
            b.push_user(&row);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        let mut cfg = ScaleConfig::new("scale-test", 200);
        cfg.num_items = 500;
        cfg
    }

    #[test]
    fn rows_are_deterministic_and_valid() {
        let cfg = tiny();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for user in [0u32, 7, 199] {
            cfg.user_items(2024, user, &mut a);
            cfg.user_items(2024, user, &mut b);
            assert_eq!(a, b, "user {user} not deterministic");
            assert!(a.len() >= cfg.min_profile_len, "user {user} below min length");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "user {user} not sorted unique");
            assert!(a.iter().all(|&i| (i as usize) < cfg.num_items));
        }
        // a different master seed draws different rows
        cfg.user_items(2024, 0, &mut a);
        cfg.user_items(9999, 0, &mut b);
        assert_ne!(a, b, "master seed has no effect");
    }

    #[test]
    fn popularity_is_skewed_but_scattered() {
        let cfg = tiny();
        let mut counts = vec![0u32; cfg.num_items];
        let mut row = Vec::new();
        for user in 0..cfg.num_users as u32 {
            cfg.user_items(2024, user, &mut row);
            for &i in &row {
                counts[i as usize] += 1;
            }
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sorted.iter().map(|&c| c as u64).sum();
        let top_decile: u64 = sorted[..cfg.num_items / 10].iter().map(|&c| c as u64).sum();
        assert!(
            top_decile * 10 > total * 3,
            "top 10% of items hold only {top_decile}/{total} interactions — not a power law"
        );
        // the Feistel scatter: the most popular item should NOT be id 0
        // in general; check popularity mass is spread over the id space
        let first_half: u64 = counts[..cfg.num_items / 2].iter().map(|&c| c as u64).sum();
        assert!(
            first_half * 10 > total && (total - first_half) * 10 > total,
            "popularity collapsed onto one half of the id space"
        );
    }

    #[test]
    fn feistel_is_a_bijection() {
        let f = Feistel::new(77, 42);
        let mut seen = [false; 77];
        for x in 0..77 {
            let y = f.permute(x) as usize;
            assert!(!seen[y], "collision at {y}");
            seen[y] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn power_law_rank_bounds() {
        let law = PowerLaw::new(1000, 1.1);
        for &u in &[0.0, 0.1, 0.5, 0.9, 0.999_999] {
            let r = law.rank(u);
            assert!(r < 1000, "rank {r} out of range for u={u}");
        }
        assert_eq!(law.rank(0.0), 0, "u=0 must map to the top rank");
    }

    #[test]
    fn a_tabulated_arena_draws_the_rows_of_lone_user_items() {
        let cfg = ScaleConfig::new("scale-test", 2_000);
        let (mut lone, mut tabulated) = (Vec::new(), Vec::new());
        for seed in [2024u64, 7] {
            let pop = Popularity::new(&cfg, seed).tabulated();
            for user in 0..cfg.num_users as u32 {
                cfg.user_items(seed, user, &mut lone);
                cfg.row_into(&pop, seed, user, &mut tabulated);
                assert_eq!(lone, tabulated, "seed {seed}, user {user}");
            }
        }
    }

    /// FNV-1a of the arena file `cfg` writes at `seed`, pinned: any drift
    /// in row generation or the arena format shows here.
    #[test]
    fn a_small_arena_file_is_pinned() {
        let mut cfg = ScaleConfig::new("scale-pin", 300);
        cfg.num_items = 700;
        let path = std::env::temp_dir().join(format!("ptf-scale-pin-{}.arena", std::process::id()));
        cfg.write_arena(2024, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (26_284, 0xcc09_52e6_63b2_7bd2), "arena file drifted");
    }

    #[test]
    fn arena_stream_matches_materialize() {
        let cfg = tiny();
        let path =
            std::env::temp_dir().join(format!("ptf-scale-test-{}.arena", std::process::id()));
        cfg.write_arena(2024, &path).unwrap();
        let arena = crate::arena::CsrArena::open(&path).unwrap();
        let mem = cfg.materialize(2024);
        assert_eq!(arena.num_users(), mem.num_users());
        let mut row = Vec::new();
        for user in 0..cfg.num_users as u32 {
            arena.read_user_into(user, &mut row).unwrap();
            assert_eq!(&row[..], mem.user_items(user), "user {user} row diverged");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn named_presets_resolve() {
        assert_eq!(ScaleConfig::preset("scale-10k").unwrap().num_users, 10_000);
        assert_eq!(ScaleConfig::preset("scale-100k").unwrap().num_users, 100_000);
        assert_eq!(ScaleConfig::preset("scale-1m").unwrap().num_users, 1_000_000);
        assert!(ScaleConfig::preset("scale-9000").is_none());
        // item space is deliberately constant across scales (flat-heap gate)
        assert_eq!(
            ScaleConfig::preset("scale-10k").unwrap().num_items,
            ScaleConfig::preset("scale-1m").unwrap().num_items,
        );
    }
}
