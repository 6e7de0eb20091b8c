//! Random-walk generation with balancing (§4.2.2).
//!
//! The plain recipe starts `walks_per_node` walks of `walk_length` steps
//! from every node. Two balancing mechanisms address tokens that random
//! walks under-visit:
//!
//! * **Restart scheduling** — a fraction of the iterations restarts only
//!   from the worst-represented (least-visited) nodes instead of from every
//!   node (the Fig. 7c "restart walks" ablation uses 6 normal + 4 restart
//!   iterations).
//! * **Visit limits** — nodes visited more than a cap (mostly hub value
//!   nodes) stop being *emitted* into the corpus, which effectively makes
//!   walks step row→row and boosts row-node representation.
//!
//! # Parallelism & determinism
//!
//! Walk *trajectories* depend only on the RNG — the visit counters gate
//! emission, never the transition choice. Generation therefore splits into
//! two phases per iteration:
//!
//! 1. **Trajectories** (parallel): every walk owns an RNG seeded by
//!    `walk_seed(base_seed, iteration, slot, start_node)`, so its node
//!    sequence is independent of scheduling. Slots are sharded across
//!    `threads` workers in contiguous chunks and re-assembled in slot order.
//! 2. **Emission** (sequential): trajectories are replayed in slot order
//!    against the shared visit counters, applying the visit limit exactly as
//!    a single-threaded pass would.
//!
//! Restart iterations pick their start nodes from the visit counters *after*
//! the previous iteration's emission pass, which phase 2 makes deterministic.
//! The corpus is bitwise identical at any thread count.

use crate::corpus::Corpus;
use leva_graph::{AliasTable, LevaGraph};
use leva_linalg::par_map_range;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Random-walk generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Steps per walk (default 80, as in §6.6.3).
    pub walk_length: usize,
    /// Walk iterations per node (default 10).
    pub walks_per_node: usize,
    /// Use edge weights via alias tables; unweighted walks skip the alias
    /// preprocessing and its memory cost (§4.3).
    pub weighted: bool,
    /// Enables restart balancing.
    pub restart_balancing: bool,
    /// Fraction of iterations replaced by restart-from-underrepresented
    /// iterations (default 0.4 ⇒ 6 normal + 4 restart of 10).
    pub restart_fraction: f64,
    /// Optional per-node emission cap (visit limit balancing).
    pub visit_limit: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for trajectory generation and alias-table builds
    /// (`0` = available parallelism). The corpus is bitwise identical at
    /// any thread count.
    pub threads: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            walk_length: 80,
            walks_per_node: 10,
            weighted: true,
            restart_balancing: true,
            restart_fraction: 0.4,
            visit_limit: None,
            seed: 0x11aa,
            threads: 1,
        }
    }
}

/// Generates the walk corpus for a graph. Sentence tokens are node names.
pub fn generate_walks(graph: &LevaGraph, cfg: &WalkConfig) -> Corpus {
    let n = graph.n_nodes();
    let alias: Option<Vec<Option<AliasTable>>> = if cfg.weighted {
        Some(build_alias_tables_threads(graph, cfg.threads))
    } else {
        None
    };
    let mut visits = vec![0u32; n];
    let mut sequences: Vec<Vec<u32>> = Vec::with_capacity(n * cfg.walks_per_node);

    let restart_iters = if cfg.restart_balancing {
        ((cfg.walks_per_node as f64) * cfg.restart_fraction).round() as usize
    } else {
        0
    };
    let normal_iters = cfg.walks_per_node - restart_iters.min(cfg.walks_per_node);

    for iter in 0..normal_iters {
        run_iteration(
            graph,
            cfg,
            alias.as_deref(),
            iter as u64,
            |slot| slot as u32,
            &mut visits,
            &mut sequences,
        );
    }
    for r in 0..restart_iters {
        // Restart only from the worst-represented half, cycling to keep the
        // walk count per iteration equal to n (the paper replaces the
        // remaining iterations "with the same number of walks").
        let worst = worst_represented(&visits, n / 2);
        if worst.is_empty() {
            break;
        }
        run_iteration(
            graph,
            cfg,
            alias.as_deref(),
            (normal_iters + r) as u64,
            |slot| worst[slot % worst.len()],
            &mut visits,
            &mut sequences,
        );
    }

    // Node identities are the vocabulary; ids in the walks are node ids.
    // The graph's interned tokens are reused directly — no string is owned
    // or copied here.
    let vocab = (0..n as u32).map(|u| graph.token(u)).collect();
    Corpus {
        symbols: Arc::clone(graph.symbols()),
        vocab,
        sequences,
    }
}

/// Runs one walk iteration: parallel trajectory generation over all `n`
/// start slots, then a sequential emission pass in slot order.
fn run_iteration(
    graph: &LevaGraph,
    cfg: &WalkConfig,
    alias: Option<&[Option<AliasTable>]>,
    iteration: u64,
    start_of: impl Fn(usize) -> u32 + Sync,
    visits: &mut [u32],
    sequences: &mut Vec<Vec<u32>>,
) {
    let n = graph.n_nodes();
    let trajectories = par_map_range(n, cfg.threads, |slot| {
        let start = start_of(slot);
        let mut rng = StdRng::seed_from_u64(walk_seed(cfg.seed, iteration, slot as u64, start));
        trajectory(graph, start, cfg, alias, &mut rng)
    });
    for traj in &trajectories {
        let seq = emit(traj, cfg.visit_limit, visits);
        if seq.len() >= 2 {
            sequences.push(seq);
        }
    }
}

/// Derives an independent RNG seed for one walk from the base seed, the
/// iteration number, the start slot, and the start node (SplitMix64-style
/// avalanche). Decoupling walks from a shared RNG stream is what lets
/// trajectories run on any thread without changing the corpus.
fn walk_seed(base: u64, iteration: u64, slot: u64, start: u32) -> u64 {
    let mut z = base
        .wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(slot.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(u64::from(start).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Precomputes alias tables per node for weighted transitions, sharding
/// nodes across `threads` workers (`0` = available parallelism). The memory
/// cost of this step is what makes weighted walks heavier (§4.3). Per-node
/// tables are independent, so the result is identical at any thread count.
fn build_alias_tables_threads(graph: &LevaGraph, threads: usize) -> Vec<Option<AliasTable>> {
    par_map_range(graph.n_nodes(), threads, |u| {
        AliasTable::new(graph.neighbors(u as u32).weights())
    })
}

/// Generates one walk's node sequence. Purely RNG-driven: visit counters
/// never influence transitions, only emission (see [`emit`]).
fn trajectory(
    graph: &LevaGraph,
    start: u32,
    cfg: &WalkConfig,
    alias: Option<&[Option<AliasTable>]>,
    rng: &mut StdRng,
) -> Vec<u32> {
    let mut seq = Vec::with_capacity(cfg.walk_length);
    let mut current = start;
    for _ in 0..cfg.walk_length {
        seq.push(current);
        let nbrs = graph.neighbors(current);
        if nbrs.is_empty() {
            break;
        }
        let next_idx = match alias {
            Some(tables) => match &tables[current as usize] {
                Some(t) => t.sample(rng),
                None => break,
            },
            None => rng.gen_range(0..nbrs.len()),
        };
        current = nbrs.targets()[next_idx];
    }
    seq
}

/// Replays a trajectory against the shared visit counters, keeping only the
/// nodes still under the visit limit. Must run in slot order to match the
/// single-threaded semantics.
fn emit(trajectory: &[u32], visit_limit: Option<usize>, visits: &mut [u32]) -> Vec<u32> {
    let mut seq = Vec::with_capacity(trajectory.len());
    for &node in trajectory {
        let keep = match visit_limit {
            Some(limit) => (visits[node as usize] as usize) < limit,
            None => true,
        };
        if keep {
            seq.push(node);
        }
        visits[node as usize] += 1;
    }
    seq
}

/// Indices of the `k` least-visited nodes.
fn worst_represented(visits: &[u32], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..visits.len() as u32).collect();
    idx.sort_by_key(|&i| visits[i as usize]);
    idx.truncate(k.max(1));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_graph::{build_graph, GraphConfig};
    use leva_relational::{Database, Table};
    use leva_textify::{textify, TextifyConfig};

    fn sample_graph() -> LevaGraph {
        let mut db = Database::new();
        let mut a = Table::new("a", vec!["name", "city"]);
        let mut b = Table::new("b", vec!["name", "flag"]);
        for i in 0..20 {
            a.push_row(vec![
                format!("user{i}").into(),
                ["nyc", "sfo"][i % 2].into(),
            ])
            .unwrap();
            b.push_row(vec![format!("user{i}").into(), ["y", "n"][i % 2].into()])
                .unwrap();
        }
        db.add_table(a).unwrap();
        db.add_table(b).unwrap();
        build_graph(
            &textify(&db, &TextifyConfig::default()),
            &GraphConfig::default(),
        )
    }

    #[test]
    fn walks_have_expected_shape() {
        let g = sample_graph();
        let cfg = WalkConfig {
            walk_length: 10,
            walks_per_node: 2,
            restart_balancing: false,
            ..Default::default()
        };
        let c = generate_walks(&g, &cfg);
        assert_eq!(c.vocab_size(), g.n_nodes());
        assert_eq!(c.sequences.len(), g.n_nodes() * 2);
        assert!(c.sequences.iter().all(|s| s.len() <= 10));
    }

    #[test]
    fn walks_follow_edges() {
        let g = sample_graph();
        let cfg = WalkConfig {
            walk_length: 20,
            walks_per_node: 1,
            restart_balancing: false,
            visit_limit: None,
            ..Default::default()
        };
        let c = generate_walks(&g, &cfg);
        for seq in &c.sequences {
            for w in seq.windows(2) {
                assert!(
                    g.neighbors(w[0]).targets().contains(&w[1]),
                    "walk steps over a non-edge"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let g = sample_graph();
        let cfg = WalkConfig {
            walk_length: 15,
            walks_per_node: 3,
            ..Default::default()
        };
        let a = generate_walks(&g, &cfg);
        let b = generate_walks(&g, &cfg);
        assert_eq!(a.sequences, b.sequences);
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        // Restart balancing + visit limits exercise every sequential
        // dependency in the generator; the corpus must not change by a
        // single id at any thread count.
        let g = sample_graph();
        let base = WalkConfig {
            walk_length: 25,
            walks_per_node: 6,
            restart_balancing: true,
            restart_fraction: 0.5,
            visit_limit: Some(40),
            seed: 0xd37,
            ..Default::default()
        };
        let seq_corpus = generate_walks(&g, &WalkConfig { threads: 1, ..base });
        for threads in [0, 2, 3, 8] {
            let par = generate_walks(&g, &WalkConfig { threads, ..base });
            assert_eq!(seq_corpus.vocab, par.vocab, "threads={threads}");
            assert_eq!(seq_corpus.sequences, par.sequences, "threads={threads}");
        }
    }

    #[test]
    fn alias_tables_identical_across_thread_counts() {
        let g = sample_graph();
        let seq_tables = build_alias_tables_threads(&g, 1);
        let par_tables = build_alias_tables_threads(&g, 4);
        assert_eq!(seq_tables.len(), par_tables.len());
        // Tables have no Eq; compare via sampling behaviour with one RNG
        // stream each.
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        for (a, b) in seq_tables.iter().zip(&par_tables) {
            match (a, b) {
                (Some(ta), Some(tb)) => {
                    for _ in 0..16 {
                        assert_eq!(ta.sample(&mut r1), tb.sample(&mut r2));
                    }
                }
                (None, None) => {}
                _ => panic!("alias table presence mismatch"),
            }
        }
    }

    #[test]
    fn restart_balancing_shifts_visits_toward_underrepresented() {
        let g = sample_graph();
        let base = WalkConfig {
            walk_length: 20,
            walks_per_node: 10,
            restart_balancing: false,
            seed: 5,
            ..Default::default()
        };
        let balanced = WalkConfig {
            restart_balancing: true,
            restart_fraction: 0.4,
            ..base
        };
        let c0 = generate_walks(&g, &base);
        let c1 = generate_walks(&g, &balanced);
        let spread = |c: &Corpus| {
            let f = c.frequencies();
            let max = *f.iter().max().unwrap() as f64;
            let min = *f.iter().filter(|&&x| x > 0).min().unwrap() as f64;
            max / min
        };
        // Balancing must not worsen the max/min visit ratio.
        assert!(spread(&c1) <= spread(&c0) * 1.1);
    }

    #[test]
    fn visit_limit_suppresses_hub_emissions() {
        let g = sample_graph();
        let cfg = WalkConfig {
            walk_length: 30,
            walks_per_node: 5,
            restart_balancing: false,
            visit_limit: Some(3),
            seed: 9,
            ..Default::default()
        };
        let c = generate_walks(&g, &cfg);
        let freqs = c.frequencies();
        // With the limit, no node can be emitted more than ~limit times
        // (the cap is checked at emission).
        assert!(freqs.iter().all(|&f| f <= 3));
    }

    #[test]
    fn unweighted_walks_skip_alias_tables() {
        let g = sample_graph();
        let cfg = WalkConfig {
            weighted: false,
            walk_length: 10,
            walks_per_node: 1,
            restart_balancing: false,
            ..Default::default()
        };
        let c = generate_walks(&g, &cfg);
        assert!(!c.sequences.is_empty());
    }
}
