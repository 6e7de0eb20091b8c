//! Leva configuration (Table 2 of the paper): every stage's parameters with
//! the paper's defaults, so `LevaConfig::default()` reproduces the system
//! as evaluated.

use leva_discovery::DiscoveryConfig;
use leva_embedding::{MfConfig, SgnsConfig, WalkConfig};
use leva_graph::GraphConfig;
use leva_textify::TextifyConfig;

/// How the base table is featurized from the embedding (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Featurization {
    /// Row-node embeddings only.
    RowOnly,
    /// Row-node embeddings concatenated with the mean of the incident
    /// value-node embeddings (the paper's default, "Row + Value").
    RowPlusValue,
}

/// Which embedding method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbeddingMethod {
    /// Always matrix factorization.
    MatrixFactorization,
    /// Always random walks + SGNS.
    RandomWalk,
    /// Pick by estimated memory: MF when the estimate fits the budget,
    /// RW otherwise (§4.2 "Why Two Methods?").
    Auto {
        /// Memory budget in bytes for the embedding stage.
        memory_budget_bytes: usize,
    },
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct LevaConfig {
    /// Embedding dimensionality (Table 2 default: 100).
    pub dim: usize,
    /// Textification parameters (bin size 50, kurtosis histograms).
    pub textify: TextifyConfig,
    /// Graph construction/refinement (θ_range 50%, θ_min 5%, weighted).
    pub graph: GraphConfig,
    /// Content-based join discovery (off by default; when enabled, runs as
    /// a timed stage before graph construction and threads discovered
    /// relationships into the graph as confidence-weighted extra edges).
    pub discovery: DiscoveryConfig,
    /// Embedding method selection.
    pub method: EmbeddingMethod,
    /// Matrix-factorization parameters.
    pub mf: MfConfig,
    /// Random-walk generation parameters.
    pub walks: WalkConfig,
    /// SGNS training parameters.
    pub sgns: SgnsConfig,
    /// Featurization strategy (Table 2 default: Row + Value).
    pub featurization: Featurization,
    /// Master seed (propagated to every stochastic stage).
    pub seed: u64,
    /// Worker threads for the deterministic pipeline stages — textification,
    /// walk generation, and the matrix-factorization linear algebra
    /// (`0` = available parallelism, the default). Results are bitwise
    /// identical at any setting; `1` reproduces single-threaded execution
    /// exactly. SGNS Hogwild training keeps its own `sgns.threads` knob
    /// because lock-free updates are *not* bitwise reproducible.
    pub threads: usize,
}

impl Default for LevaConfig {
    fn default() -> Self {
        let dim = 100;
        Self {
            dim,
            textify: TextifyConfig::default(),
            graph: GraphConfig::default(),
            discovery: DiscoveryConfig::default(),
            method: EmbeddingMethod::Auto {
                memory_budget_bytes: 2 * 1024 * 1024 * 1024,
            },
            mf: MfConfig {
                dim,
                ..MfConfig::default()
            },
            walks: WalkConfig::default(),
            sgns: SgnsConfig {
                dim,
                ..SgnsConfig::default()
            },
            featurization: Featurization::RowPlusValue,
            seed: 0x1e7a,
            threads: 0,
        }
    }
}

impl LevaConfig {
    /// A configuration sized for fast experimentation: smaller embeddings,
    /// fewer walks, fewer SGNS epochs. Used by tests and quick examples.
    pub fn fast() -> Self {
        let dim = 32;
        Self {
            dim,
            mf: MfConfig {
                dim,
                oversample: 6,
                power_iters: 1,
                ..MfConfig::default()
            },
            walks: WalkConfig {
                walk_length: 40,
                walks_per_node: 5,
                ..WalkConfig::default()
            },
            sgns: SgnsConfig {
                dim,
                epochs: 3,
                window: 5,
                ..SgnsConfig::default()
            },
            ..Self::default()
        }
        .with_dim(dim)
    }

    /// Returns a copy with the embedding dimension set everywhere it
    /// matters (MF rank, SGNS dim).
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self.mf.dim = dim;
        self.sgns.dim = dim;
        self
    }

    /// Returns a copy with the master seed applied to all stages.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.mf.seed = seed ^ 0x1111;
        self.walks.seed = seed ^ 0x2222;
        self.sgns.seed = seed ^ 0x3333;
        self
    }

    /// Returns a copy with the worker-thread count applied to every stage,
    /// including SGNS Hogwild training (which is the one stage that is not
    /// bitwise reproducible above one thread — keep `sgns.threads = 1` if
    /// exact reproducibility of the RW path matters more than speed).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.discovery.threads = threads;
        self.sgns.threads = threads.max(1);
        self
    }

    /// Checks the configuration for degenerate values that would make the
    /// pipeline silently produce garbage (zero-dimensional embeddings,
    /// out-of-range voting thresholds, zero-length walks). Returns the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be positive".to_owned());
        }
        if self.mf.dim == 0 || self.sgns.dim == 0 {
            return Err(
                "stage dims must be positive (use with_dim to set them together)".to_owned(),
            );
        }
        if !(0.0..=1.0).contains(&self.graph.theta_range) {
            return Err(format!(
                "graph.theta_range must be in [0, 1], got {}",
                self.graph.theta_range
            ));
        }
        if !(0.0..=1.0).contains(&self.graph.theta_min) {
            return Err(format!(
                "graph.theta_min must be in [0, 1], got {}",
                self.graph.theta_min
            ));
        }
        if self.walks.walk_length == 0 {
            return Err("walks.walk_length must be positive".to_owned());
        }
        if self.walks.walks_per_node == 0 {
            return Err("walks.walks_per_node must be positive".to_owned());
        }
        if !(0.0..=1.0).contains(&self.walks.restart_fraction) {
            return Err(format!(
                "walks.restart_fraction must be in [0, 1], got {}",
                self.walks.restart_fraction
            ));
        }
        if self.textify.bin_count == 0 {
            return Err("textify.bin_count must be positive".to_owned());
        }
        self.discovery
            .validate()
            .map_err(|e| format!("discovery: {e}"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = LevaConfig::default();
        assert_eq!(c.dim, 100);
        assert_eq!(c.textify.bin_count, 50);
        assert_eq!(c.graph.theta_range, 0.5);
        assert_eq!(c.graph.theta_min, 0.05);
        assert!(c.graph.weighted);
        assert_eq!(c.featurization, Featurization::RowPlusValue);
    }

    #[test]
    fn with_dim_propagates() {
        let c = LevaConfig::default().with_dim(16);
        assert_eq!(c.dim, 16);
        assert_eq!(c.mf.dim, 16);
        assert_eq!(c.sgns.dim, 16);
    }

    #[test]
    fn with_seed_differentiates_stages() {
        let c = LevaConfig::default().with_seed(42);
        assert_ne!(c.mf.seed, c.walks.seed);
        assert_ne!(c.walks.seed, c.sgns.seed);
    }

    #[test]
    fn with_threads_propagates_to_sgns() {
        let c = LevaConfig::default().with_threads(4);
        assert_eq!(c.threads, 4);
        assert_eq!(c.sgns.threads, 4);
        // Auto sentinel still keeps SGNS at a concrete >= 1 value.
        let auto = LevaConfig::default().with_threads(0);
        assert_eq!(auto.threads, 0);
        assert_eq!(auto.sgns.threads, 1);
    }

    #[test]
    fn default_config_validates() {
        assert!(LevaConfig::default().validate().is_ok());
        assert!(LevaConfig::fast().validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let zero_dim = LevaConfig::default().with_dim(0);
        assert!(zero_dim.validate().is_err());

        let mut bad_theta = LevaConfig::default();
        bad_theta.graph.theta_range = 1.5;
        assert!(bad_theta.validate().unwrap_err().contains("theta_range"));

        let mut neg_theta = LevaConfig::default();
        neg_theta.graph.theta_min = -0.1;
        assert!(neg_theta.validate().unwrap_err().contains("theta_min"));

        let mut no_walk = LevaConfig::default();
        no_walk.walks.walk_length = 0;
        assert!(no_walk.validate().unwrap_err().contains("walk_length"));

        let mut no_bins = LevaConfig::default();
        no_bins.textify.bin_count = 0;
        assert!(no_bins.validate().unwrap_err().contains("bin_count"));
    }
}
