//! Serving-daemon configuration: the batch, capacity, and protocol
//! knobs (DESIGN.md §6.12). Coalescing has no wait budget: a batch worker
//! takes whatever is queued when it pops, so a lone request never waits
//! for company, and requests that arrive while a batch runs merge into
//! the next one.

/// Configuration for the serving daemon and its coalescing engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` asks the OS for an ephemeral
    /// port, the shape tests use).
    pub addr: String,
    /// Row budget of one coalesced featurize call: a worker stops taking
    /// queued requests into its batch once they reach this many rows.
    pub max_batch_rows: usize,
    /// Bounded queue capacity in *requests*; arrivals beyond it are
    /// rejected with an overload error instead of growing memory.
    pub queue_capacity: usize,
    /// Number of batch-executor threads draining the queue. Each batch
    /// runs the model's own banded row parallelism, so one worker already
    /// uses every core; more workers trade coalescing opportunity for
    /// pipeline overlap.
    pub batch_workers: usize,
    /// Maximum accepted HTTP body / binary frame size in bytes. Model
    /// artifacts posted to `/admin/swap` arrive as a body, so this also
    /// caps the size of an artifact swapped in by bytes; swap a larger one
    /// by path (`{"path": ...}`), which maps the file instead.
    pub max_body_bytes: usize,
    /// Maximum concurrently served connections; excess connections get an
    /// immediate 503 and are closed.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            max_batch_rows: 512,
            queue_capacity: 4_096,
            batch_workers: 1,
            max_body_bytes: 64 << 20,
            max_connections: 256,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, mirroring `LevaConfig::validate`.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch_rows == 0 {
            return Err("max_batch_rows must be at least 1".to_owned());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".to_owned());
        }
        if self.batch_workers == 0 {
            return Err("batch_workers must be at least 1".to_owned());
        }
        if self.max_body_bytes == 0 {
            return Err("max_body_bytes must be at least 1".to_owned());
        }
        if self.max_connections == 0 {
            return Err("max_connections must be at least 1".to_owned());
        }
        Ok(())
    }

    /// Sets the listen address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the batch flush threshold in rows.
    pub fn with_max_batch_rows(mut self, rows: usize) -> Self {
        self.max_batch_rows = rows;
        self
    }

    /// Sets the number of batch-executor threads.
    pub fn with_batch_workers(mut self, workers: usize) -> Self {
        self.batch_workers = workers;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_knobs_are_rejected() {
        assert!(ServeConfig::default()
            .with_max_batch_rows(0)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_batch_workers(0)
            .validate()
            .is_err());
        let c = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
