//! Node providers: the hosted RPC façade the paper's frontends use
//! (§2.9.4 — Infura for Goerli/Ropsten, Quicknode for Polygon, Purestake
//! for Algorand) instead of running full nodes.

use crate::chain::Chain;
use parking_lot::Mutex;
use pol_ledger::{LedgerError, Receipt, Transaction, TxId};
use std::sync::Arc;

/// A hosted node-provider endpoint wrapping one chain.
///
/// Requests must carry a registered API key, mirroring the registration
/// step the paper describes for each provider's free plan.
#[derive(Clone)]
pub struct NodeProvider {
    name: String,
    chain: Arc<Mutex<Chain>>,
    api_keys: Arc<Mutex<Vec<String>>>,
}

impl std::fmt::Debug for NodeProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeProvider").field("name", &self.name).finish()
    }
}

impl NodeProvider {
    /// Wraps a chain behind a provider endpoint.
    pub fn new(name: impl Into<String>, chain: Chain) -> NodeProvider {
        NodeProvider {
            name: name.into(),
            chain: Arc::new(Mutex::new(chain)),
            api_keys: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The provider's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers on the provider's platform, obtaining an API key.
    pub fn register(&self) -> String {
        let mut keys = self.api_keys.lock();
        let key = format!("{}-key-{:04}", self.name.to_lowercase(), keys.len());
        keys.push(key.clone());
        key
    }

    /// Direct access to the wrapped chain (the simulation equivalent of a
    /// local node).
    pub fn chain(&self) -> Arc<Mutex<Chain>> {
        Arc::clone(&self.chain)
    }

    /// Submits a transaction through the endpoint.
    ///
    /// # Errors
    ///
    /// [`LedgerError::BadSignature`] for an unknown API key (the provider
    /// rejects unauthenticated requests) or an invalid transaction
    /// signature, or any chain submission error.
    pub fn send_raw_transaction(
        &self,
        api_key: &str,
        tx: Transaction,
    ) -> Result<TxId, LedgerError> {
        self.check_key(api_key)?;
        self.chain.lock().submit(tx.verify()?)
    }

    /// Waits for a transaction and returns its receipt.
    ///
    /// # Errors
    ///
    /// Key and chain errors as for
    /// [`NodeProvider::send_raw_transaction`].
    pub fn wait_for_receipt(&self, api_key: &str, id: TxId) -> Result<Receipt, LedgerError> {
        self.check_key(api_key)?;
        self.chain.lock().await_tx(id)
    }

    fn check_key(&self, api_key: &str) -> Result<(), LedgerError> {
        if self.api_keys.lock().iter().any(|k| k == api_key) {
            Ok(())
        } else {
            Err(LedgerError::ExecutionFailed(format!("{}: unknown API key", self.name)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use pol_ledger::Address;

    #[test]
    fn requires_api_key() {
        let provider = NodeProvider::new("Infura", presets::devnet_evm().build(1));
        let (kp, addr) = provider.chain().lock().create_funded_account(10u128.pow(18));
        let (max_fee, prio) = provider.chain().lock().suggested_fees();
        let tx =
            Transaction::transfer(addr, Address::ZERO, 1, 0).with_fees(max_fee, prio).signed(&kp);
        assert!(provider.send_raw_transaction("bogus", tx.clone()).is_err());
        let key = provider.register();
        let id = provider.send_raw_transaction(&key, tx).unwrap();
        let receipt = provider.wait_for_receipt(&key, id).unwrap();
        assert!(receipt.status.is_success());
    }

    #[test]
    fn keys_are_unique_per_registration() {
        let provider = NodeProvider::new("Purestake", presets::devnet_algo().build(2));
        assert_ne!(provider.register(), provider.register());
    }
}
