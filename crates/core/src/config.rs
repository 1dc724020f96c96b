//! PTF-FedRec hyperparameters (§IV-D of the paper) and their validation.

use ptf_data::Scale;
use ptf_federated::Participation;
use ptf_privacy::SamplingConfig;

/// Why a federation could not be configured.
///
/// Returned by [`PtfConfig::validate`] and every driver's `try_new`
/// instead of panicking, so the CLI and library callers can surface a
/// message (and a non-zero exit) rather than a backtrace.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A count/size field that must be strictly positive was zero.
    NotPositive(&'static str),
    /// A fraction field left `[0, 1]`.
    OutOfUnitRange { field: &'static str, got: f64 },
    /// The on-disk client store's root directory could not be created.
    StoreRoot { path: std::path::PathBuf, reason: String },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotPositive(field) => write!(f, "{field} must be positive"),
            Self::OutOfUnitRange { field, got } => {
                write!(f, "{field} must be in [0,1], got {got}")
            }
            Self::StoreRoot { path, reason } => {
                write!(f, "cannot create client store {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which client-side defense shapes the uploaded prediction set D̂ᵗᵢ
/// (the rows of Table V).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DefenseKind {
    /// Upload predictions for the whole trained pool.
    NoDefense,
    /// Laplace noise on every uploaded score (the LDP baseline row).
    Ldp { epsilon: f64 },
    /// The paper's sampling step only.
    Sampling,
    /// Sampling followed by score swapping — the full PTF-FedRec defense.
    SamplingSwapping,
}

impl DefenseKind {
    /// The LDP budget of Table V's LDP row, and `ptf privacy --defense
    /// ldp`'s default. The paper does not state its ε; 5.0 lands the
    /// attack F1 between the sampling rows, as in Table V.
    pub const LDP_EPSILON: f64 = 5.0;

    /// The four defense rows of Table V, in order.
    pub const TABLE_V: [DefenseKind; 4] = [
        Self::NoDefense,
        Self::Ldp { epsilon: Self::LDP_EPSILON },
        Self::Sampling,
        Self::SamplingSwapping,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::NoDefense => "No Defense",
            Self::Ldp { .. } => "LDP",
            Self::Sampling => "Sampling",
            Self::SamplingSwapping => "Sampling + Swapping",
        }
    }
}

/// How the server selects the α items of D̃ᵢ (Table VII ablation rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisperseStrategy {
    /// µα by embedding-update frequency + (1−µ)α hardest (the paper's
    /// confidence-based hard construction).
    ConfidenceHard,
    /// "-confidence": random items replace the confidence share.
    RandomHard,
    /// "-hard": random items replace the hard share.
    ConfidenceRandom,
    /// "-confidence -hard": α random items.
    Random,
}

impl DisperseStrategy {
    pub const ALL: [DisperseStrategy; 4] =
        [Self::ConfidenceHard, Self::RandomHard, Self::ConfidenceRandom, Self::Random];

    pub fn name(self) -> &'static str {
        match self {
            Self::ConfidenceHard => "PTF-FedRec",
            Self::RandomHard => "-confidence",
            Self::ConfidenceRandom => "-hard",
            Self::Random => "-confidence -hard",
        }
    }
}

/// Per-client cold-row eviction schedule, which bounds a client's
/// materialized row set over long runs (without eviction the set grows
/// monotonically — every sampled negative materializes a row that is
/// never dropped — until the table's growth turns it dense).
///
/// This is the only storage setting: the layout follows one growth-time
/// rule (`ptf_tensor::grows_dense`). A dense table cannot drop rows, so
/// eviction resets its cold rows to their derived init in place, the
/// same state a sparse table re-materializes them into; a budget below
/// the promotion point keeps a client sparse for good.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoragePolicy {
    /// Evict cold rows every this many *local* rounds (0 = never — the
    /// default; eviction is opt-in because it trades re-materialization
    /// work for bounded memory).
    pub evict_interval: u32,
    /// Target materialized rows per client after an eviction pass. The
    /// keep set is positives ∪ the current round's pool (always retained,
    /// which also keeps every graph-edge item resolvable), topped up with
    /// the most recently touched other rows — so the budget is a floor
    /// the keep set can exceed only when a single round's pool does.
    pub evict_budget: usize,
}

/// Full protocol configuration. [`PtfConfig::paper`] reproduces §IV-D;
/// [`PtfConfig::small`] shrinks rounds/epochs for quick runs while keeping
/// every mechanism active.
#[derive(Clone, Debug)]
pub struct PtfConfig {
    /// Global federation rounds T (paper: 20).
    pub rounds: u32,
    /// Client local epochs L (paper: 5).
    pub client_epochs: u32,
    /// Server training epochs per round (paper: 2).
    pub server_epochs: u32,
    /// Client mini-batch size (paper: 64).
    pub client_batch: usize,
    /// Server mini-batch size (paper: 1024).
    pub server_batch: usize,
    /// Negative sampling ratio (paper: 1:4).
    pub neg_ratio: usize,
    /// Size of the server-dispersed set D̃ᵢ (paper: α = 30).
    pub alpha: usize,
    /// Confidence share of D̃ᵢ (paper: µ = 0.5).
    pub mu: f64,
    /// Swap fraction (paper: λ = 0.1).
    pub lambda: f64,
    /// β/γ sampling ranges (paper: β ∈ [0.1, 1], γ ∈ [1, 4]).
    pub sampling: SamplingConfig,
    /// Client-side upload defense (paper default: sampling + swapping).
    pub defense: DefenseKind,
    /// Server-side D̃ᵢ construction strategy.
    pub disperse: DisperseStrategy,
    /// Participation policy (paper: all clients every round).
    pub participation: Participation,
    /// Soft-label threshold at or above which an uploaded prediction
    /// becomes an edge of the server's interaction graph. The paper does
    /// not specify it; `fig_server_graph` sweeps it.
    pub graph_threshold: f32,
    /// Master seed for all protocol randomness.
    pub seed: u64,
    /// Worker threads for the parallel client phase (`0` = every hardware
    /// thread). Runs are bit-identical at any value — see
    /// `ptf_federated::scheduler`.
    pub threads: usize,
    /// Per-client cold-row eviction schedule. Clients are item-scoped:
    /// each holds only the embedding rows of its own pool — positives at
    /// construction, sampled negatives and dispersed items as each round
    /// prepares them — until that growth would cost as much memory as a
    /// dense table, which then replaces it (see `PtfClient::new`).
    pub storage: StoragePolicy,
}

impl PtfConfig {
    /// The paper's §IV-D settings.
    pub fn paper() -> Self {
        Self {
            rounds: 20,
            client_epochs: 5,
            server_epochs: 2,
            client_batch: 64,
            server_batch: 1024,
            neg_ratio: 4,
            alpha: 30,
            mu: 0.5,
            lambda: 0.1,
            sampling: SamplingConfig::default(),
            defense: DefenseKind::SamplingSwapping,
            disperse: DisperseStrategy::ConfidenceHard,
            participation: Participation::full(),
            graph_threshold: 0.5,
            seed: 17,
            threads: 0,
            storage: StoragePolicy::default(),
        }
    }

    /// Reduced rounds/epochs for quick experiments; every mechanism stays
    /// enabled so qualitative behaviour is unchanged.
    pub fn small() -> Self {
        Self {
            rounds: 10,
            client_epochs: 3,
            server_epochs: 2,
            client_batch: 64,
            server_batch: 256,
            alpha: 20,
            ..Self::paper()
        }
    }

    /// The settings at `scale`: [`Self::paper`] or [`Self::small`].
    pub fn at(scale: Scale) -> Self {
        scale.pick(Self::paper, Self::small)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn positive(ok: bool, field: &'static str) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError::NotPositive(field))
            }
        }
        fn unit(value: f64, field: &'static str) -> Result<(), ConfigError> {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(ConfigError::OutOfUnitRange { field, got: value })
            }
        }
        positive(self.rounds > 0, "rounds")?;
        positive(self.client_epochs > 0, "client_epochs")?;
        positive(self.server_epochs > 0, "server_epochs")?;
        positive(self.client_batch > 0, "client_batch")?;
        positive(self.server_batch > 0, "server_batch")?;
        unit(self.mu, "mu")?;
        unit(self.lambda, "lambda")?;
        unit(self.graph_threshold as f64, "graph_threshold")?;
        unit(self.participation.fraction, "participation.fraction")?;
        if self.storage.evict_interval > 0 {
            positive(self.storage.evict_budget > 0, "storage.evict_budget")?;
        }
        if let DefenseKind::Ldp { epsilon } = self.defense {
            // `Ldp::new` asserts this; NaN fails the comparison too
            positive(epsilon > 0.0 && epsilon.is_finite(), "defense.epsilon")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4d() {
        let c = PtfConfig::paper();
        assert_eq!(c.rounds, 20);
        assert_eq!(c.client_epochs, 5);
        assert_eq!(c.server_epochs, 2);
        assert_eq!(c.client_batch, 64);
        assert_eq!(c.server_batch, 1024);
        assert_eq!(c.neg_ratio, 4);
        assert_eq!(c.alpha, 30);
        assert_eq!(c.mu, 0.5);
        assert_eq!(c.lambda, 0.1);
        assert_eq!(c.sampling.beta_range, (0.1, 1.0));
        assert_eq!(c.sampling.gamma_range, (1.0, 4.0));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn small_keeps_mechanisms() {
        let c = PtfConfig::small();
        assert_eq!(c.defense, DefenseKind::SamplingSwapping);
        assert_eq!(c.disperse, DisperseStrategy::ConfidenceHard);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_mu() {
        let mut c = PtfConfig::paper();
        c.mu = 1.5;
        assert_eq!(c.validate(), Err(ConfigError::OutOfUnitRange { field: "mu", got: 1.5 }));
    }

    #[test]
    fn validate_catches_bad_participation_fraction() {
        for fraction in [1.5, -0.5, f64::NAN] {
            let mut c = PtfConfig::paper();
            c.participation.fraction = fraction;
            assert!(
                matches!(
                    c.validate(),
                    Err(ConfigError::OutOfUnitRange { field: "participation.fraction", got })
                        if got.to_bits() == fraction.to_bits()
                ),
                "fraction {fraction} was accepted"
            );
        }
        let mut c = PtfConfig::paper();
        c.participation.fraction = 0.0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_zero_counts() {
        type Mutator = fn(&mut PtfConfig);
        let cases: [(&str, Mutator); 5] = [
            ("rounds", |c| c.rounds = 0),
            ("client_epochs", |c| c.client_epochs = 0),
            ("server_epochs", |c| c.server_epochs = 0),
            ("client_batch", |c| c.client_batch = 0),
            ("server_batch", |c| c.server_batch = 0),
        ];
        for (field, set) in cases {
            let mut c = PtfConfig::paper();
            set(&mut c);
            assert_eq!(c.validate(), Err(ConfigError::NotPositive(field)));
        }
        for epsilon in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = PtfConfig::paper();
            c.defense = DefenseKind::Ldp { epsilon };
            assert_eq!(c.validate(), Err(ConfigError::NotPositive("defense.epsilon")));
        }
    }

    #[test]
    fn storage_defaults_and_validation() {
        let c = PtfConfig::paper();
        assert_eq!(c.storage, StoragePolicy::default());
        assert_eq!(c.storage.evict_interval, 0, "eviction is opt-in");

        let mut c = PtfConfig::paper();
        c.storage.evict_interval = 5;
        assert_eq!(c.validate(), Err(ConfigError::NotPositive("storage.evict_budget")));
        c.storage.evict_budget = 64;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn config_error_displays_actionable_messages() {
        assert_eq!(ConfigError::NotPositive("rounds").to_string(), "rounds must be positive");
        assert_eq!(
            ConfigError::OutOfUnitRange { field: "lambda", got: -0.5 }.to_string(),
            "lambda must be in [0,1], got -0.5"
        );
        let e = ConfigError::StoreRoot { path: "client-store".into(), reason: "denied".into() };
        assert!(e.to_string().contains("client-store"), "{e}");
        // it is a real std error
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn strategy_names_match_table7_rows() {
        assert_eq!(DisperseStrategy::ConfidenceHard.name(), "PTF-FedRec");
        assert_eq!(DisperseStrategy::ConfidenceRandom.name(), "-hard");
        assert_eq!(DisperseStrategy::RandomHard.name(), "-confidence");
        assert_eq!(DisperseStrategy::Random.name(), "-confidence -hard");
    }
}
