//! Seeded input generators: a small deterministic RNG, a Zipf sampler, and
//! the RelBench-style (arXiv 2407.20060) relational schema used by the
//! `fit_schemafree_rw` workload.
//!
//! The benchmark owns its RNG rather than borrowing the workspace's, so a
//! change to the library's random-number code can never silently change the
//! benchmark's inputs: the same `--seed` gives the same bytes on every
//! commit.

/// SplitMix64: tiny, fast, and stable forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_1e7a_5eed_1e7a)
    }

    /// An independent stream for one purpose (`salt`) under one seed.
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^s`, rank 0 most popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn head_share(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }
}

/// A declared-then-stripped foreign key: what discovery should find.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrueFk {
    pub from_table: String,
    pub from_column: String,
    pub to_table: String,
    pub to_column: String,
}

/// The generated RelBench-style database, already rendered to CSV and
/// split at a timestamp cut.
pub struct RelSchema {
    /// `(table, csv)` sources of the training database: the train side of
    /// `events` (with its label column) plus the full `users` and `items`.
    pub sources: Vec<(String, String)>,
    /// The test side of `events`, without the label column.
    pub test_csv: String,
    pub y_train: Vec<f64>,
    pub y_test: Vec<f64>,
    pub true_fks: Vec<TrueFk>,
}

pub const EVENTS: usize = 8_000;
pub const USERS: usize = 1_500;
pub const ITEMS: usize = 600;
/// Wide-table attributes on `items`, on top of its four core columns.
pub const ITEM_ATTRS: usize = 120;
pub const ZIPF_S: f64 = 1.1;
const USER_KEY0: usize = 100_000;
const ITEM_KEY0: usize = 500_000;
/// First event day: 2022-01-08.
const DAY0: i64 = 19_000;
const EVENT_DAYS: i64 = 730;
/// Share of events (by time) on the train side of the cut.
const TRAIN_SHARE: f64 = 0.75;

/// Generates the schema for `seed`. Events reference users and items
/// through integer keys whose column names differ from the referenced
/// ones (`buyer_id → uid`, `product_id → sku`), so only content discovery
/// can recover the joins; the label is driven by item attributes.
pub fn relbench(seed: u64) -> RelSchema {
    let mut rng = Rng::derive(seed, 0x7e1b);

    // Users: a weak latent taste.
    let user_latent: Vec<f64> = (0..USERS).map(|_| rng.normal()).collect();
    let mut users = String::from("uid,country,age,segment,signup\n");
    for (k, lat) in user_latent.iter().enumerate() {
        let country = rng.below(24);
        let age = 18 + rng.below(62);
        let segment = ((lat + 3.0) * 1.2).clamp(0.0, 6.0) as usize;
        // Sign-ups predate every event, so the date columns never overlap.
        let signup = DAY0 - 2_500 + rng.below(2_400) as i64;
        users.push_str(&format!(
            "{},country_{country},{age},segment_{segment},{}\n",
            USER_KEY0 + k,
            date(signup)
        ));
    }

    // Items: the wide table. Ten informative numeric attributes track the
    // latent quality, the rest are numeric and categorical noise whose
    // vocabularies are distinct per column (shared vocabularies would be
    // spurious joins).
    let item_latent: Vec<f64> = (0..ITEMS).map(|_| rng.normal()).collect();
    let mut items = String::from("sku,category,brand,price");
    for a in 0..ITEM_ATTRS {
        items.push_str(&format!(",a{a:03}"));
    }
    items.push('\n');
    for (k, lat) in item_latent.iter().enumerate() {
        let category = ((lat + 2.5) * 5.0).clamp(0.0, 24.0) as usize;
        items.push_str(&format!(
            "{},category_{category},brand_{},{:.2}",
            ITEM_KEY0 + k,
            rng.below(80),
            5.0 + 95.0 * rng.f64()
        ));
        for a in 0..ITEM_ATTRS {
            match a {
                0..=9 => items.push_str(&format!(",{:.2}", 10.0 * lat + 4.0 * rng.normal())),
                10..=59 => items.push_str(&format!(",{:.2}", 100.0 * rng.f64())),
                _ => items.push_str(&format!(",a{a:03}_v{}", rng.below(3 + a % 40))),
            }
        }
        items.push('\n');
    }

    // Events in time order; Zipf-skewed keys through a seeded permutation
    // so the popular keys are not simply the smallest ones.
    let mut user_rank: Vec<usize> = (0..USERS).collect();
    let mut item_rank: Vec<usize> = (0..ITEMS).collect();
    rng.shuffle(&mut user_rank);
    rng.shuffle(&mut item_rank);
    let user_zipf = Zipf::new(USERS, ZIPF_S);
    let item_zipf = Zipf::new(ITEMS, ZIPF_S);
    let mut days: Vec<i64> = (0..EVENTS)
        .map(|_| DAY0 + rng.below(EVENT_DAYS as usize) as i64)
        .collect();
    days.sort_unstable();
    let cut_day = days[(EVENTS as f64 * TRAIN_SHARE) as usize];

    let header = "event_id,buyer_id,product_id,ts,channel,qty";
    let mut train = format!("{header},label\n");
    let mut test = format!("{header}\n");
    let (mut y_train, mut y_test) = (Vec::new(), Vec::new());
    for (i, &day) in days.iter().enumerate() {
        let u = user_rank[user_zipf.sample(&mut rng)];
        let it = item_rank[item_zipf.sample(&mut rng)];
        let score = item_latent[it] + 0.3 * user_latent[u] + 0.4 * rng.normal();
        let label = f64::from(score > 0.0);
        let row = format!(
            "ev_{i},{},{},{},channel_{},{}",
            USER_KEY0 + u,
            ITEM_KEY0 + it,
            date(day),
            rng.below(4),
            1 + rng.below(5)
        );
        if day < cut_day {
            train.push_str(&format!("{row},{label}\n"));
            y_train.push(label);
        } else {
            test.push_str(&row);
            test.push('\n');
            y_test.push(label);
        }
    }

    let fk = |from_table: &str, from_column: &str, to_table: &str, to_column: &str| TrueFk {
        from_table: from_table.into(),
        from_column: from_column.into(),
        to_table: to_table.into(),
        to_column: to_column.into(),
    };
    RelSchema {
        sources: vec![
            ("events".into(), train),
            ("users".into(), users),
            ("items".into(), items),
        ],
        test_csv: test,
        y_train,
        y_test,
        true_fks: vec![
            fk("events", "buyer_id", "users", "uid"),
            fk("events", "product_id", "items", "sku"),
        ],
    }
}

/// `YYYY-MM-DD` for a day count since 1970-01-01 (proleptic Gregorian).
pub fn date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_csv_bytes() {
        let (a, b) = (relbench(7), relbench(7));
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.test_csv, b.test_csv);
        assert_ne!(a.sources, relbench(8).sources);
    }

    #[test]
    fn zipf_head_share_matches_theory() {
        let zipf = Zipf::new(ITEMS, ZIPF_S);
        let head = ITEMS / 10;
        let expected = zipf.head_share(head);
        // Zipf(1.1) puts well over half the mass on the top 10% of keys.
        assert!(expected > 0.55, "theoretical head share {expected}");
        let mut rng = Rng::new(3);
        let n = 200_000;
        let hits = (0..n).filter(|_| zipf.sample(&mut rng) < head).count();
        let share = hits as f64 / n as f64;
        assert!((share - expected).abs() < 0.01, "{share} vs {expected}");
    }

    #[test]
    fn timestamp_cut_splits_train_and_test_disjointly() {
        let s = relbench(11);
        // `ts` is the fourth column; ISO dates order as strings.
        let days = |csv: &str| -> Vec<String> {
            csv.lines()
                .skip(1)
                .map(|l| l.split(',').nth(3).unwrap().to_owned())
                .collect()
        };
        let (train, test) = (days(&s.sources[0].1), days(&s.test_csv));
        assert_eq!(train.len(), s.y_train.len());
        assert_eq!(test.len(), s.y_test.len());
        assert_eq!(train.len() + test.len(), EVENTS);
        assert!(!test.is_empty() && train.len() > 3 * test.len() / 2);
        let last_train = train.iter().max().unwrap();
        let first_test = test.iter().min().unwrap();
        assert!(last_train < first_test, "{last_train} vs {first_test}");
        assert!(!s.test_csv.lines().next().unwrap().contains("label"));
    }

    #[test]
    fn items_table_is_wide() {
        let s = relbench(1);
        let header = s.sources[2].1.lines().next().unwrap();
        assert!(header.split(',').count() >= 120);
    }

    #[test]
    fn dates_render_in_the_civil_calendar() {
        assert_eq!(date(0), "1970-01-01");
        assert_eq!(date(19_000), "2022-01-08");
        assert_eq!(date(11_016), "2000-02-29");
    }
}
