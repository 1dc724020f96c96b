//! Dataset presets calibrated to the paper's Table II.
//!
//! `paper()` configs match the published statistics exactly in user/item
//! counts and interaction targets; `small()` configs are ~20× reductions
//! that preserve the *ordering* of scale, density and profile length across
//! the three datasets, so every experiment keeps its qualitative shape
//! while finishing quickly ([`Scale::Small`], the default everywhere).

use crate::dataset::Dataset;
use crate::synthetic::SyntheticConfig;
use rand::Rng;

/// The three evaluation datasets of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// 943 users × 1,682 movies, 100,000 ratings, density 6.30%.
    MovieLens100K,
    /// 3,753 users × 5,134 games, 114,713 interactions, density 0.59%.
    Steam200K,
    /// 8,392 users × 10,086 locations, 391,238 check-ins, density 0.46%.
    Gowalla,
}

impl DatasetPreset {
    pub const ALL: [DatasetPreset; 3] = [Self::MovieLens100K, Self::Steam200K, Self::Gowalla];

    pub fn name(self) -> &'static str {
        match self {
            Self::MovieLens100K => "MovieLens-100K",
            Self::Steam200K => "Steam-200K",
            Self::Gowalla => "Gowalla",
        }
    }

    /// Full-size synthetic configuration (Table II statistics).
    pub fn paper(self) -> SyntheticConfig {
        match self {
            Self::MovieLens100K => SyntheticConfig {
                len_sigma: 0.8,
                ..SyntheticConfig::new(self.name(), 943, 1_682, 106.0)
            },
            Self::Steam200K => SyntheticConfig {
                len_sigma: 1.0,
                ..SyntheticConfig::new(self.name(), 3_753, 5_134, 30.6)
            },
            Self::Gowalla => SyntheticConfig {
                len_sigma: 1.0,
                ..SyntheticConfig::new(self.name(), 8_392, 10_086, 46.6)
            },
        }
    }

    /// Scaled-down synthetic configuration for fast experiment runs.
    ///
    /// Sizes shrink ~20×, but MovieLens stays the densest/longest-profile
    /// dataset and Gowalla the largest/sparsest, preserving the cross-
    /// dataset trends of Tables III–V.
    pub fn small(self) -> SyntheticConfig {
        match self {
            Self::MovieLens100K => SyntheticConfig {
                len_sigma: 0.8,
                ..SyntheticConfig::new("MovieLens-100K(small)", 120, 260, 24.0)
            },
            Self::Steam200K => SyntheticConfig {
                len_sigma: 0.9,
                ..SyntheticConfig::new("Steam-200K(small)", 200, 420, 9.0)
            },
            Self::Gowalla => SyntheticConfig {
                len_sigma: 0.9,
                ..SyntheticConfig::new("Gowalla(small)", 280, 560, 10.0)
            },
        }
    }

    /// Generates the preset at the requested scale.
    pub fn generate(self, scale: Scale, rng: &mut impl Rng) -> Dataset {
        match scale {
            Scale::Paper => self.paper().generate(rng),
            Scale::Small => self.small().generate(rng),
        }
    }
}

/// Experiment scale selector (`--scale` on the CLI).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Table II sized datasets and paper hyperparameters.
    Paper,
    /// ~20× reduced datasets for quick runs.
    Small,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_table2_counts() {
        let ml = DatasetPreset::MovieLens100K.paper();
        assert_eq!((ml.num_users, ml.num_items), (943, 1682));
        assert_eq!(ml.target_interactions, 99_958); // 943 × 106.0 rounded
        let steam = DatasetPreset::Steam200K.paper();
        assert_eq!((steam.num_users, steam.num_items), (3753, 5134));
        let gowalla = DatasetPreset::Gowalla.paper();
        assert_eq!((gowalla.num_users, gowalla.num_items), (8392, 10_086));
    }

    #[test]
    fn small_preserves_cross_dataset_ordering() {
        let mut rng = crate::test_rng(11);
        let ml = DatasetPreset::MovieLens100K.small().generate(&mut rng);
        let steam = DatasetPreset::Steam200K.small().generate(&mut rng);
        let gowalla = DatasetPreset::Gowalla.small().generate(&mut rng);
        // density: ML ≫ Steam ≳ Gowalla
        assert!(ml.density() > 2.0 * steam.density());
        assert!(steam.density() > gowalla.density());
        // scale: Gowalla has the most users/items
        assert!(gowalla.num_users() > steam.num_users());
        assert!(steam.num_users() > ml.num_users());
        // profile length: ML longest
        assert!(ml.avg_profile_len() > steam.avg_profile_len());
    }
}
