//! Per-stage performance accounting (the Fig. 6b/6c profile and the
//! Fig. 7a scaling curves).
//!
//! Stages are recorded as an *ordered list of named entries* rather than
//! fixed struct fields, so experiment binaries can add stages without
//! touching this type. Each entry carries wall-clock time, the process
//! CPU-time delta over the stage (wall × utilization ≈ cpu, so
//! `cpu / wall` shows how well a parallel stage scaled), and the worker
//! thread count the stage ran with.

use std::time::Duration;

/// One named pipeline stage's performance record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name (e.g. `"textify"`, `"walk_generation"`). Owned so records
    /// survive (de)serialization in the model artifact.
    pub stage: String,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// Process CPU time consumed during the stage (zero when unknown).
    pub cpu: Duration,
    /// Worker threads the stage ran with.
    pub threads: usize,
}

/// Ordered per-stage performance records of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    stages: Vec<StageTiming>,
}

impl StageTimings {
    /// Appends a stage record with unknown CPU time and one thread.
    pub fn push(&mut self, stage: impl Into<String>, wall: Duration) {
        self.push_with(stage, wall, Duration::ZERO, 1);
    }

    /// Appends a full stage record.
    pub fn push_with(
        &mut self,
        stage: impl Into<String>,
        wall: Duration,
        cpu: Duration,
        threads: usize,
    ) {
        self.stages.push(StageTiming {
            stage: stage.into(),
            wall,
            cpu,
            threads,
        });
    }

    /// The recorded stages, in execution order.
    pub fn stages(&self) -> &[StageTiming] {
        &self.stages
    }

    /// Wall-clock time of a named stage (zero if it never ran).
    pub fn wall(&self, stage: &str) -> Duration {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.wall)
            .sum()
    }

    /// Total wall-clock time across stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// Per-stage fractions of the total wall time, aligned with
    /// [`StageTimings::stages`] order.
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return vec![0.0; self.stages.len()];
        }
        self.stages
            .iter()
            .map(|s| s.wall.as_secs_f64() / total)
            .collect()
    }
}

/// Total CPU time (user + system) consumed by this process so far, at the
/// kernel's nanosecond accounting resolution
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`). Linux only; returns zero
/// elsewhere (or if the call fails), so CPU columns degrade gracefully
/// instead of breaking the pipeline.
pub fn process_cpu_time() -> Duration {
    #[cfg(target_os = "linux")]
    {
        // Minimal clock_gettime(2) binding: the workspace builds offline
        // with no libc crate. `struct timespec` is two C longs on Linux.
        #[repr(C)]
        struct Timespec {
            tv_sec: std::ffi::c_long,
            tv_nsec: std::ffi::c_long,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the duration of
        // the call, which writes nothing else.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            if let (Ok(secs), Ok(nanos)) = (u64::try_from(ts.tv_sec), u32::try_from(ts.tv_nsec)) {
                return Duration::new(secs, nanos);
            }
        }
        Duration::ZERO
    }
    #[cfg(not(target_os = "linux"))]
    {
        Duration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut t = StageTimings::default();
        t.push("textify", Duration::from_millis(10));
        t.push("graph", Duration::from_millis(20));
        t.push("walk_generation", Duration::from_millis(30));
        t.push("embedding_training", Duration::from_millis(40));
        let f = t.fractions();
        assert_eq!(f.len(), 4);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((f[3] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_total_is_safe() {
        assert!(StageTimings::default().fractions().is_empty());
        assert_eq!(StageTimings::default().total(), Duration::ZERO);
    }

    #[test]
    fn named_lookup_sums_repeats() {
        let mut t = StageTimings::default();
        t.push("embedding_training", Duration::from_millis(5));
        t.push("embedding_training", Duration::from_millis(7));
        assert_eq!(t.wall("embedding_training"), Duration::from_millis(12));
        assert_eq!(t.wall("absent"), Duration::ZERO);
    }

    #[test]
    fn push_with_records_threads_and_cpu() {
        let mut t = StageTimings::default();
        t.push_with(
            "textify",
            Duration::from_millis(3),
            Duration::from_millis(9),
            4,
        );
        let s = &t.stages()[0];
        assert_eq!(s.threads, 4);
        assert_eq!(s.cpu, Duration::from_millis(9));
    }

    #[test]
    fn cpu_time_is_monotonic_or_zero() {
        let a = process_cpu_time();
        // Burn a little CPU.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = process_cpu_time();
        assert!(b >= a);
    }

    /// Stages far shorter than a 10 ms clock tick still report non-zero
    /// CPU time — every one of them, not just those that happen to
    /// straddle a tick boundary.
    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_time_resolves_sub_tick_stages() {
        for stage in 0..5 {
            let start = process_cpu_time();
            let wall = std::time::Instant::now();
            let mut x = 0u64;
            while wall.elapsed() < Duration::from_millis(3) {
                for i in 0..1_000u64 {
                    x = x.wrapping_add(i * i);
                }
                std::hint::black_box(x);
            }
            let spent = process_cpu_time() - start;
            assert!(
                spent > Duration::ZERO,
                "3 ms busy stage {stage} reported {spent:?} CPU"
            );
        }
    }
}
