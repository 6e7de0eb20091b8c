//! Serving-daemon configuration: the listen address and the two bounds
//! that cap a daemon's memory (DESIGN.md §6.12). Each connection thread
//! runs one request at a time, so at most `max_connections` requests of
//! at most `max_body_bytes` each are ever in flight.

/// Configuration for the serving daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` asks the OS for an ephemeral
    /// port, the shape tests use).
    pub addr: String,
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
            max_body_bytes: 64 << 20,
            max_connections: 256,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, mirroring `LevaConfig::validate`.
    pub fn validate(&self) -> Result<(), String> {
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
        let c = ServeConfig {
            max_body_bytes: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            max_connections: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
