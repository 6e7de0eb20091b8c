//! `leva-serve` — the Leva serving daemon.
//!
//! Loads a fitted model artifact (see `LevaModel::save`) and serves
//! featurization over HTTP/JSON and the compact binary protocol on one
//! port, one featurize call per request on its connection's thread, with
//! `/metrics` and hot model swap via `POST /admin/swap` or SIGHUP
//! (re-reads the artifact path).
//!
//! ```text
//! leva-serve model.leva [--addr 127.0.0.1:7878]
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use leva::LevaModel;
use leva_serve::{Engine, ServeConfig, Server};

/// Set by the SIGHUP handler; the main loop polls it and reloads the
/// artifact from disk when it flips.
static RELOAD_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sighup_handler() {
    // Minimal signal(2) binding: the workspace builds offline with no
    // libc crate, and all the handler does is flip an atomic — which is
    // async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sighup(_signum: i32) {
        RELOAD_REQUESTED.store(true, Ordering::SeqCst);
    }
    const SIGHUP: i32 = 1;
    unsafe {
        signal(SIGHUP, on_sighup as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sighup_handler() {}

struct Args {
    artifact: std::path::PathBuf,
    config: ServeConfig,
}

/// Parses the command line after the program name.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut artifact = None;
    let mut config = ServeConfig::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = args
                    .next()
                    .ok_or_else(|| "--addr needs a value".to_owned())?
            }
            "--help" | "-h" => {
                return Err("usage: leva-serve <artifact> [--addr HOST:PORT]".to_owned())
            }
            other if artifact.is_none() && !other.starts_with('-') => {
                artifact = Some(std::path::PathBuf::from(other))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let artifact = artifact.ok_or_else(|| "missing artifact path (see --help)".to_owned())?;
    config.validate()?;
    Ok(Args { artifact, config })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let model = match LevaModel::load(&args.artifact) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("failed to load {}: {e}", args.artifact.display());
            return ExitCode::FAILURE;
        }
    };
    let engine = match Engine::new(model, args.config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("failed to start engine: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(Arc::clone(&engine)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_sighup_handler();
    {
        let m = engine.current_model();
        eprintln!(
            "leva-serve listening on {} (model version {}, checksum {:08x}, artifact {} bytes)",
            server.local_addr(),
            m.version,
            m.checksum,
            m.artifact_bytes
        );
        eprintln!(
            "routes: POST /featurize, GET /metrics, GET /healthz, POST /admin/swap, \
             POST /admin/shutdown; SIGHUP reloads {}",
            args.artifact.display()
        );
    }

    // The accept loop lives in the Server; main just waits for shutdown
    // and services SIGHUP reloads.
    while !server.is_stopping() {
        std::thread::sleep(Duration::from_millis(100));
        if RELOAD_REQUESTED.swap(false, Ordering::SeqCst) {
            match engine.swap_from_path(&args.artifact) {
                Ok((version, checksum)) => {
                    eprintln!(
                        "reloaded {} as version {version} (checksum {checksum:08x})",
                        args.artifact.display()
                    )
                }
                Err(e) => eprintln!(
                    "reload of {} rejected, keeping current model: {e}",
                    args.artifact.display()
                ),
            }
        }
    }
    drop(server); // joins the acceptor and drains the engine
    eprintln!("leva-serve stopped");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn addr_is_parsed() {
        let args = parse(&["model.leva", "--addr", "0.0.0.0:9000"]).unwrap();
        assert_eq!(args.artifact, std::path::PathBuf::from("model.leva"));
        assert_eq!(args.config.addr, "0.0.0.0:9000");
        assert!(parse(&["model.leva", "--addr"]).is_err());
    }

    #[test]
    fn removed_batching_flags_are_unknown() {
        for flag in ["--max-batch-rows", "--batch-workers"] {
            let err = parse(&["model.leva", flag, "4"]).err().unwrap();
            assert!(err.starts_with("unknown argument"), "{flag}: {err}");
        }
    }

    #[test]
    fn missing_artifact_is_an_error() {
        let err = parse(&["--addr", "127.0.0.1:0"]).err().unwrap();
        assert!(err.contains("missing artifact path"), "{err}");
        assert!(parse(&[]).is_err());
    }
}
