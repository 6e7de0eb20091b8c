//! Hot-swappable model handle: an epoch-versioned `Arc` behind an
//! `RwLock`, so each request pins one consistent model for the lifetime
//! of its featurize call while swaps publish a replacement atomically.

use std::io;
use std::sync::{Arc, RwLock};

use leva::LevaModel;

/// A fitted model prepared for serving: the model itself plus the
/// identity (version epoch + artifact checksum) stamped onto every
/// response produced from it.
pub struct ServingModel {
    /// The fitted pipeline artifact.
    pub model: LevaModel,
    /// Monotonically increasing swap epoch, assigned by the
    /// [`ModelHandle`] that installs the model: the initially loaded model
    /// is version 1 and every successful swap increments it.
    pub version: u64,
    /// CRC-32 of exactly the artifact bytes [`LevaModel::save`] writes for
    /// this model — lets clients correlate a response with exactly one
    /// artifact even across swaps back and forth between the same two
    /// files.
    pub checksum: u32,
    /// Size of the serialized artifact in bytes (surfaced in `/metrics`).
    pub artifact_bytes: usize,
}

impl ServingModel {
    /// Prepares `model` for serving: stamps it by encoding the artifact
    /// into [`io::sink`] ([`LevaModel::save_to`] returns the CRC-32 and
    /// length of what it wrote, hashing each byte once, and no serialized
    /// copy is ever held, so preparing a large model does not double peak
    /// RSS) and warms the featurizer cache so the first request does not
    /// pay the cache build. The version is assigned at install.
    pub fn prepare(model: LevaModel) -> Self {
        // The sink never fails, and encoding is infallible once the
        // model exists, so the expect is unreachable in practice.
        let (checksum, artifact_bytes) = model
            .save_to(io::sink())
            .expect("the sink cannot fail and encoding is infallible");
        // Warm the serving cache before the model becomes visible to
        // requests; otherwise the first post-swap request pays the build.
        let _ = model.featurizer();
        Self {
            model,
            version: 0,
            checksum,
            artifact_bytes,
        }
    }

    /// Prepares a model loaded from a mapped artifact file
    /// ([`LevaModel::load_mmap`]) whose identity was already hashed from
    /// the file bytes themselves: re-encoding a mapped model would both
    /// defeat the O(1)-memory load and stamp a *re-serialized* checksum
    /// that need not match the file on disk. Still warms the featurizer
    /// cache like [`ServingModel::prepare`].
    pub fn prepare_mapped(model: LevaModel, checksum: u32, artifact_bytes: usize) -> Self {
        let _ = model.featurizer();
        Self {
            model,
            version: 0,
            checksum,
            artifact_bytes,
        }
    }
}

/// Shared, swappable pointer to the current [`ServingModel`].
///
/// Readers take a brief read lock only to clone the `Arc`; featurization
/// itself runs outside the lock, so an in-flight request keeps its pinned
/// model alive (and consistent) even while a swap publishes a new one.
pub struct ModelHandle {
    current: RwLock<Arc<ServingModel>>,
}

impl ModelHandle {
    /// Wraps an already-prepared model as version 1.
    pub fn new(mut initial: ServingModel) -> Self {
        initial.version = 1;
        Self {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// Returns the current model, pinned: the caller's `Arc` stays valid
    /// across any number of concurrent swaps.
    pub fn current(&self) -> Arc<ServingModel> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Atomically replaces the served model, assigning it the next epoch.
    /// Returns the `(version, checksum)` stamped onto the new model.
    pub fn swap(&self, model: LevaModel) -> (u64, u32) {
        self.swap_with(|| ServingModel::prepare(model))
    }

    /// Like [`ModelHandle::swap`] but lets the caller choose how the
    /// replacement is prepared — the mmap swap path uses this with
    /// [`ServingModel::prepare_mapped`] so a mapped model is never
    /// re-serialized just to stamp its identity. `prepare` runs before the
    /// write lock is taken, so readers keep pinning the current model
    /// while the replacement is encoded, hashed and warmed; the lock is
    /// held only to assign the next epoch and install.
    pub fn swap_with(&self, prepare: impl FnOnce() -> ServingModel) -> (u64, u32) {
        let mut next = prepare();
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        next.version = slot.version + 1;
        let stamp = (next.version, next.checksum);
        *slot = Arc::new(next);
        stamp
    }
}
