//! A dataset's memo of the datasets derived from it: the progressive
//! engines' shuffled copy and the stratified engines' samples.
//!
//! The memo holds its entries **weakly**. The engines that use a derived
//! dataset hold the strong references, so a copy or sample dies with its
//! last user and the memo only lets later users find it while it lives.

use crate::star::{Dataset, StarSchema};
use crate::table::Table;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// What a memoized dataset was derived with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DerivedKey {
    /// A physically shuffled copy built for this seed. At most one lives
    /// per dataset at a time.
    Shuffled(u64),
    /// Any other derivation, named by its builder together with every
    /// parameter the result depends on.
    Named(String),
}

/// A dataset handle that does not keep the dataset alive.
#[derive(Debug)]
enum WeakDataset {
    Denormalized(Weak<Table>),
    Star(Weak<StarSchema>),
}

impl WeakDataset {
    fn of(dataset: &Dataset) -> Self {
        match dataset {
            Dataset::Denormalized(t) => WeakDataset::Denormalized(Arc::downgrade(t)),
            Dataset::Star(s) => WeakDataset::Star(Arc::downgrade(s)),
        }
    }

    fn is_alive(&self) -> bool {
        match self {
            WeakDataset::Denormalized(t) => t.strong_count() > 0,
            WeakDataset::Star(s) => s.strong_count() > 0,
        }
    }

    fn upgrade(&self) -> Option<Dataset> {
        match self {
            WeakDataset::Denormalized(t) => t.upgrade().map(Dataset::Denormalized),
            WeakDataset::Star(s) => s.upgrade().map(Dataset::Star),
        }
    }
}

/// Weakly held datasets derived from one dataset (module docs).
///
/// A clone of the owning table or schema starts with an empty memo.
#[derive(Debug, Default)]
pub(crate) struct DerivedMemo {
    entries: Mutex<Vec<(DerivedKey, WeakDataset)>>,
}

impl Clone for DerivedMemo {
    fn clone(&self) -> Self {
        DerivedMemo::default()
    }
}

impl DerivedMemo {
    /// The entries. A builder that panicked leaves them valid (entries are
    /// only pushed after a build returns), so a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, Vec<(DerivedKey, WeakDataset)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The live dataset derived under `key`, or `build()`'s result, which
    /// is then memoized under `key`. Returns `None` for a
    /// [`DerivedKey::Shuffled`] key while a shuffled copy for another seed
    /// is alive.
    ///
    /// `build` runs under the memo's lock, so concurrent callers with one
    /// key build the dataset once.
    pub(crate) fn get_or_build(
        &self,
        key: DerivedKey,
        build: impl FnOnce() -> Dataset,
    ) -> Option<Dataset> {
        let mut entries = self.lock();
        entries.retain(|(_, weak)| weak.is_alive());
        if let Some(live) = entries
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, weak)| weak.upgrade())
        {
            return Some(live);
        }
        if matches!(key, DerivedKey::Shuffled(_))
            && entries
                .iter()
                .any(|(k, _)| matches!(k, DerivedKey::Shuffled(_)))
        {
            return None;
        }
        let built = build();
        entries.push((key, WeakDataset::of(&built)));
        Some(built)
    }

    /// Number of derived datasets still alive.
    pub(crate) fn live(&self) -> usize {
        self.lock()
            .iter()
            .filter(|(_, weak)| weak.is_alive())
            .count()
    }
}
