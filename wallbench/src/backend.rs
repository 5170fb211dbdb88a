//! A [`StateBackend`] wrapper that times the storage layer.
//!
//! [`TimedBackend`] delegates every call to the real memory or trie
//! backend and, when a [`Tracer`] is attached, records `store.get`,
//! `store.commit`, `store.root` and `store.flush` spans plus the
//! `store.commit_keys` counter. The wrapped backend stays reachable from
//! outside the chain through a [`BackendHandle`], which the end-of-run
//! checks use to compare the chain's state digest against a root
//! computed another way.

use crate::report::{check, Check};
use crate::trace::Tracer;
use pol_store::{BatchEntry, MerkleProof, StateBackend, StoreError, TrieBackend};
use std::sync::{Arc, Mutex, MutexGuard};

type Shared = Arc<Mutex<Box<dyn StateBackend>>>;

fn lock(inner: &Shared) -> MutexGuard<'_, Box<dyn StateBackend>> {
    inner.lock().expect("state backend lock poisoned by a panicking commit")
}

/// The timing wrapper installed into the chain.
pub struct TimedBackend {
    inner: Shared,
    tracer: Option<Arc<Tracer>>,
}

/// Outside access to the backend a [`TimedBackend`] wraps.
#[derive(Clone)]
pub struct BackendHandle(Shared);

impl TimedBackend {
    /// Wraps `inner`; spans are recorded only when `tracer` is given.
    pub fn wrap(
        inner: Box<dyn StateBackend>,
        tracer: Option<Arc<Tracer>>,
    ) -> (TimedBackend, BackendHandle) {
        let inner = Arc::new(Mutex::new(inner));
        (TimedBackend { inner: Arc::clone(&inner), tracer }, BackendHandle(inner))
    }

    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.tracer {
            Some(t) => t.span(name, None, f),
            None => f(),
        }
    }
}

impl BackendHandle {
    /// The wrapped backend's entries, sorted by key.
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        lock(&self.0).entries()
    }

    /// Live entries in the wrapped backend.
    pub fn len(&self) -> usize {
        lock(&self.0).len()
    }

    /// Whether the wrapped backend is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root the wrapped backend must have, computed over its
    /// entries by an implementation other than its own: the canonical
    /// scratch-root construction for a trie, and a trie built afresh for
    /// the memory backend (whose own root is the scratch construction).
    /// Returns the oracle's name with the root.
    ///
    /// # Errors
    ///
    /// A commit the fresh trie refuses.
    pub fn oracle_root(&self) -> Result<(&'static str, [u8; 32]), StoreError> {
        let backend = lock(&self.0);
        let entries = backend.entries();
        if backend.name() == "trie" {
            let leaves =
                entries.iter().map(|(k, v)| (pol_crypto::sha256(k), pol_crypto::sha256(v)));
            return Ok(("the scratch-root oracle", pol_store::scratch_root(leaves)));
        }
        let mut trie = TrieBackend::new();
        let batch: Vec<BatchEntry> = entries.into_iter().map(|(k, v)| (k, Some(v))).collect();
        trie.commit(&batch)?;
        Ok(("a trie rebuilt from the entries", trie.root()))
    }

    /// End-of-run check: the chain's `state_digest` equals
    /// [`BackendHandle::oracle_root`].
    pub fn root_check(&self, state_digest: [u8; 32]) -> Check {
        let entries = self.len();
        match self.oracle_root() {
            Ok((oracle, root)) => check(
                "root_oracle",
                root == state_digest,
                format!("state digest equals {oracle} over {entries} entries"),
            ),
            Err(e) => check("root_oracle", false, format!("oracle trie refused the entries: {e}")),
        }
    }
}

impl StateBackend for TimedBackend {
    fn name(&self) -> &'static str {
        lock(&self.inner).name()
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.timed("store.get", || lock(&self.inner).get(key))
    }

    fn commit(&mut self, batch: &[BatchEntry]) -> Result<(), StoreError> {
        if let Some(t) = &self.tracer {
            t.count("store.commit_keys", batch.len() as u64);
        }
        self.timed("store.commit", || lock(&self.inner).commit(batch))
    }

    fn root(&self) -> [u8; 32] {
        self.timed("store.root", || lock(&self.inner).root())
    }

    fn flush_block(&mut self, height: u64) -> Result<(), StoreError> {
        self.timed("store.flush", || lock(&self.inner).flush_block(height))
    }

    fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        lock(&self.inner).entries()
    }

    fn prove(&self, key: &[u8]) -> Option<MerkleProof> {
        lock(&self.inner).prove(key)
    }

    fn snapshot_backend(&self) -> Box<dyn StateBackend> {
        lock(&self.inner).snapshot_backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_store::{MemoryBackend, TrieBackend};

    fn batches() -> Vec<Vec<BatchEntry>> {
        (0u32..20)
            .map(|b| {
                (0u32..25)
                    .map(|i| {
                        let key = (b * 7 + i).to_be_bytes().to_vec();
                        // Every fifth write of a later batch deletes.
                        let delete = b > 3 && i % 5 == 0;
                        (key, (!delete).then(|| (b * 31 + i).to_le_bytes().to_vec()))
                    })
                    .collect()
            })
            .collect()
    }

    fn check_equal(bare: Box<dyn StateBackend>, wrapped: Box<dyn StateBackend>, traced: bool) {
        let mut bare = bare;
        let tracer = traced.then(|| Arc::new(Tracer::default()));
        let (mut timed, handle) = TimedBackend::wrap(wrapped, tracer.clone());
        for (height, batch) in batches().iter().enumerate() {
            bare.commit(batch).unwrap();
            timed.commit(batch).unwrap();
            bare.flush_block(height as u64).unwrap();
            timed.flush_block(height as u64).unwrap();
            assert_eq!(bare.root(), timed.root(), "root after batch {height}");
        }
        assert_eq!(bare.entries(), timed.entries());
        assert_eq!(bare.entries(), handle.entries());
        assert_eq!(bare.len(), handle.len());
        assert_eq!(timed.root(), handle.oracle_root().unwrap().1);
        assert!(handle.root_check(bare.root()).ok);
        let key = 9u32.to_be_bytes();
        assert_eq!(bare.get(&key), timed.get(&key));
        if let Some(t) = tracer {
            let stats = t.stats();
            assert_eq!(stats["store.commit"].count, 20);
            assert_eq!(stats["store.flush"].count, 20);
            assert_eq!(stats["store.get"].count, 1);
            assert_eq!(t.counter("store.commit_keys"), 500);
        }
    }

    #[test]
    fn wrapped_and_bare_backends_agree_after_identical_commits() {
        for traced in [false, true] {
            check_equal(Box::new(MemoryBackend::new()), Box::new(MemoryBackend::new()), traced);
            check_equal(Box::new(TrieBackend::new()), Box::new(TrieBackend::new()), traced);
        }
    }
}
