//! Runtime-selectable lock algorithm: [`LockKind`] and [`AnyLock`].
//!
//! Benchmarks and experiments iterate the lock registry
//! ([`crate::LockCatalog`]); `AnyLock` gives them a single concrete type
//! to do it with, at the cost of one `match` per operation. `LockKind`
//! itself carries no metadata — names, families, years and capability
//! flags live in the catalog, which every method here delegates to.

use std::fmt;
use std::sync::Arc;

use nuca_topology::{NodeId, Topology};

use crate::registry::LockCatalog;
use crate::{
    ClhLock, ClhToken, CnaLock, CnaToken, GtContext, HboGtLock, HboGtSdConfig, HboGtSdLock,
    HboGtSdToken, HboGtToken, HboLock, HboToken, HierHboLock, HierHboToken, LevelBackoff,
    LockFamily, McsLock, McsToken, NucaLock, RecipLock, RecipToken, RhLock, RhToken,
    TatasExpLock, TatasLock, TatasToken, TicketLock, TicketToken, TwaLock, TwaToken,
};

/// A registered locking algorithm. Variant order mirrors the catalog's
/// registration order: the paper's eight, the library extensions, then
/// the post-2003 contenders.
///
/// # Example
///
/// ```
/// use hbo_locks::{LockCatalog, LockKind};
/// assert!(LockCatalog::kinds().len() >= 13);
/// assert_eq!(LockKind::HboGtSd.as_str(), "HBO_GT_SD");
/// assert_eq!("CNA".parse::<LockKind>().unwrap(), LockKind::Cna);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockKind {
    /// Traditional test-and-test&set.
    Tatas,
    /// TATAS with exponential backoff.
    TatasExp,
    /// Mellor-Crummey & Scott queue lock.
    Mcs,
    /// Craig / Landin & Hagersten queue lock.
    Clh,
    /// The 2-node proof-of-concept NUCA lock.
    Rh,
    /// Hierarchical backoff lock.
    Hbo,
    /// HBO with global traffic throttling.
    HboGt,
    /// HBO_GT with starvation detection.
    HboGtSd,
    /// FIFO ticket lock with proportional backoff.
    Ticket,
    /// Multi-level HBO (the paper's "expand hierarchically" remark).
    Hier,
    /// Compact NUMA-aware MCS variant (secondary-queue splicing).
    Cna,
    /// Ticket lock with a hashed waiting array.
    Twa,
    /// Reciprocating lock (palindromic admission segments).
    Recip,
}

impl LockKind {
    /// The canonical display name (from the catalog).
    pub fn as_str(self) -> &'static str {
        LockCatalog::info(self).name
    }

    /// Whether this algorithm exploits NUCA node locality.
    pub fn is_nuca_aware(self) -> bool {
        LockCatalog::info(self).nuca_aware
    }

    /// Whether this algorithm guarantees FIFO order.
    pub fn is_fifo(self) -> bool {
        LockCatalog::info(self).fifo
    }

    /// Whether waiters take an explicit queue position (the catalog's
    /// `queue` family).
    pub fn is_queue_lock(self) -> bool {
        LockCatalog::info(self).family == LockFamily::Queue
    }

    /// Instantiates a fresh lock of this kind for a machine with `nodes`
    /// NUCA nodes. HBO_GT/HBO_GT_SD receive a *private* throttling context
    /// so experiments do not interfere.
    pub fn instantiate(self, nodes: usize) -> AnyLock {
        match self {
            LockKind::Tatas => AnyLock::Tatas(TatasLock::new()),
            LockKind::TatasExp => AnyLock::TatasExp(TatasExpLock::new()),
            LockKind::Mcs => AnyLock::Mcs(McsLock::new()),
            LockKind::Clh => AnyLock::Clh(ClhLock::new()),
            LockKind::Rh => AnyLock::Rh(RhLock::new()),
            LockKind::Hbo => AnyLock::Hbo(HboLock::new()),
            LockKind::HboGt => AnyLock::HboGt(HboGtLock::with_context(GtContext::new(
                nodes.max(1),
            ))),
            LockKind::HboGtSd => AnyLock::HboGtSd(HboGtSdLock::with_config(
                GtContext::new(nodes.max(1)),
                HboGtSdConfig::default(),
            )),
            LockKind::Ticket => AnyLock::Ticket(TicketLock::new()),
            // Distance classes on this flat topology: entry 1 covers the
            // same CPU and same node (distances 0 and 1), entry 2 the
            // cross-node distance 2; entry 3 is reached only on deeper
            // topologies.
            LockKind::Hier => AnyLock::Hier(HierHboLock::new(
                Arc::new(Topology::symmetric(nodes.max(1), 2)),
                LevelBackoff::geometric(3, 32, 1024, 4),
            )),
            LockKind::Cna => AnyLock::Cna(CnaLock::new()),
            LockKind::Twa => AnyLock::Twa(TwaLock::new()),
            LockKind::Recip => AnyLock::Recip(RecipLock::new()),
        }
    }
}

impl fmt::Display for LockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown lock name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLockKindError(String);

impl ParseLockKindError {
    pub(crate) fn new(name: &str) -> ParseLockKindError {
        ParseLockKindError(name.to_owned())
    }
}

impl fmt::Display for ParseLockKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown lock kind `{}`", self.0)
    }
}

impl std::error::Error for ParseLockKindError {}

impl std::str::FromStr for LockKind {
    type Err = ParseLockKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LockCatalog::parse(s)
    }
}

/// A lock whose algorithm is chosen at runtime.
///
/// # Example
///
/// ```
/// use hbo_locks::{LockCatalog, NucaLock};
/// use nuca_topology::NodeId;
///
/// for &kind in LockCatalog::kinds() {
///     let lock = kind.instantiate(2);
///     let t = lock.acquire(NodeId(0));
///     lock.release(t);
/// }
/// ```
// Variant sizes differ (RH carries two padded lock copies); boxing the
// large variants would put a pointer chase on the lock fast path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyLock {
    /// TATAS.
    Tatas(TatasLock),
    /// TATAS_EXP.
    TatasExp(TatasExpLock),
    /// MCS.
    Mcs(McsLock),
    /// CLH.
    Clh(ClhLock),
    /// RH.
    Rh(RhLock),
    /// HBO.
    Hbo(HboLock),
    /// HBO_GT.
    HboGt(HboGtLock),
    /// HBO_GT_SD.
    HboGtSd(HboGtSdLock),
    /// TICKET.
    Ticket(TicketLock),
    /// HIER.
    Hier(HierHboLock),
    /// CNA.
    Cna(CnaLock),
    /// TWA.
    Twa(TwaLock),
    /// RECIP.
    Recip(RecipLock),
}

/// Token for [`AnyLock`], mirroring its variants.
#[derive(Debug)]
pub enum AnyToken {
    /// TATAS.
    Tatas(TatasToken),
    /// TATAS_EXP.
    TatasExp(TatasToken),
    /// MCS.
    Mcs(McsToken),
    /// CLH.
    Clh(ClhToken),
    /// RH.
    Rh(RhToken),
    /// HBO.
    Hbo(HboToken),
    /// HBO_GT.
    HboGt(HboGtToken),
    /// HBO_GT_SD.
    HboGtSd(HboGtSdToken),
    /// TICKET.
    Ticket(TicketToken),
    /// HIER.
    Hier(HierHboToken),
    /// CNA.
    Cna(CnaToken),
    /// TWA.
    Twa(TwaToken),
    /// RECIP.
    Recip(RecipToken),
}

impl AnyLock {
    /// The kind of the contained algorithm.
    pub fn kind(&self) -> LockKind {
        match self {
            AnyLock::Tatas(_) => LockKind::Tatas,
            AnyLock::TatasExp(_) => LockKind::TatasExp,
            AnyLock::Mcs(_) => LockKind::Mcs,
            AnyLock::Clh(_) => LockKind::Clh,
            AnyLock::Rh(_) => LockKind::Rh,
            AnyLock::Hbo(_) => LockKind::Hbo,
            AnyLock::HboGt(_) => LockKind::HboGt,
            AnyLock::HboGtSd(_) => LockKind::HboGtSd,
            AnyLock::Ticket(_) => LockKind::Ticket,
            AnyLock::Hier(_) => LockKind::Hier,
            AnyLock::Cna(_) => LockKind::Cna,
            AnyLock::Twa(_) => LockKind::Twa,
            AnyLock::Recip(_) => LockKind::Recip,
        }
    }

    /// Convenience: a shared, runtime-chosen lock.
    pub fn shared(kind: LockKind, nodes: usize) -> Arc<AnyLock> {
        Arc::new(kind.instantiate(nodes))
    }
}

impl NucaLock for AnyLock {
    type Token = AnyToken;

    fn acquire(&self, node: NodeId) -> AnyToken {
        match self {
            AnyLock::Tatas(l) => AnyToken::Tatas(l.acquire(node)),
            AnyLock::TatasExp(l) => AnyToken::TatasExp(l.acquire(node)),
            AnyLock::Mcs(l) => AnyToken::Mcs(l.acquire(node)),
            AnyLock::Clh(l) => AnyToken::Clh(l.acquire(node)),
            AnyLock::Rh(l) => AnyToken::Rh(l.acquire(node)),
            AnyLock::Hbo(l) => AnyToken::Hbo(l.acquire(node)),
            AnyLock::HboGt(l) => AnyToken::HboGt(l.acquire(node)),
            AnyLock::HboGtSd(l) => AnyToken::HboGtSd(l.acquire(node)),
            AnyLock::Ticket(l) => AnyToken::Ticket(l.acquire(node)),
            AnyLock::Hier(l) => AnyToken::Hier(l.acquire(node)),
            AnyLock::Cna(l) => AnyToken::Cna(l.acquire(node)),
            AnyLock::Twa(l) => AnyToken::Twa(l.acquire(node)),
            AnyLock::Recip(l) => AnyToken::Recip(l.acquire(node)),
        }
    }

    fn try_acquire(&self, node: NodeId) -> Option<AnyToken> {
        Some(match self {
            AnyLock::Tatas(l) => AnyToken::Tatas(l.try_acquire(node)?),
            AnyLock::TatasExp(l) => AnyToken::TatasExp(l.try_acquire(node)?),
            AnyLock::Mcs(l) => AnyToken::Mcs(l.try_acquire(node)?),
            AnyLock::Clh(l) => AnyToken::Clh(l.try_acquire(node)?),
            AnyLock::Rh(l) => AnyToken::Rh(l.try_acquire(node)?),
            AnyLock::Hbo(l) => AnyToken::Hbo(l.try_acquire(node)?),
            AnyLock::HboGt(l) => AnyToken::HboGt(l.try_acquire(node)?),
            AnyLock::HboGtSd(l) => AnyToken::HboGtSd(l.try_acquire(node)?),
            AnyLock::Ticket(l) => AnyToken::Ticket(l.try_acquire(node)?),
            AnyLock::Hier(l) => AnyToken::Hier(l.try_acquire(node)?),
            AnyLock::Cna(l) => AnyToken::Cna(l.try_acquire(node)?),
            AnyLock::Twa(l) => AnyToken::Twa(l.try_acquire(node)?),
            AnyLock::Recip(l) => AnyToken::Recip(l.try_acquire(node)?),
        })
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if `token` came from a different algorithm than this lock
    /// holds — which can only happen by mixing tokens across locks,
    /// violating the [`NucaLock`] contract.
    fn release(&self, token: AnyToken) {
        match (self, token) {
            (AnyLock::Tatas(l), AnyToken::Tatas(t)) => l.release(t),
            (AnyLock::TatasExp(l), AnyToken::TatasExp(t)) => l.release(t),
            (AnyLock::Mcs(l), AnyToken::Mcs(t)) => l.release(t),
            (AnyLock::Clh(l), AnyToken::Clh(t)) => l.release(t),
            (AnyLock::Rh(l), AnyToken::Rh(t)) => l.release(t),
            (AnyLock::Hbo(l), AnyToken::Hbo(t)) => l.release(t),
            (AnyLock::HboGt(l), AnyToken::HboGt(t)) => l.release(t),
            (AnyLock::HboGtSd(l), AnyToken::HboGtSd(t)) => l.release(t),
            (AnyLock::Ticket(l), AnyToken::Ticket(t)) => l.release(t),
            (AnyLock::Hier(l), AnyToken::Hier(t)) => l.release(t),
            (AnyLock::Cna(l), AnyToken::Cna(t)) => l.release(t),
            (AnyLock::Twa(l), AnyToken::Twa(t)) => l.release(t),
            (AnyLock::Recip(l), AnyToken::Recip(t)) => l.release(t),
            (lock, token) => panic!(
                "token {token:?} does not belong to a {} lock",
                lock.kind()
            ),
        }
    }

    fn name(&self) -> &'static str {
        self.kind().as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn all_kinds_roundtrip() {
        for &kind in LockCatalog::kinds() {
            let lock = kind.instantiate(2);
            assert_eq!(lock.kind(), kind);
            assert_eq!(lock.name(), kind.as_str());
            let t = lock.acquire(NodeId(0));
            lock.release(t);
            // RH's try_acquire deliberately refuses to migrate the lock
            // across nodes, so re-try from the node that just held it.
            let t = lock.try_acquire(NodeId(0)).expect("free after release");
            lock.release(t);
            let t = lock.acquire(NodeId(1));
            lock.release(t);
        }
    }

    #[test]
    fn parse_roundtrip() {
        for &kind in LockCatalog::kinds() {
            assert_eq!(kind.as_str().parse::<LockKind>().unwrap(), kind);
            assert_eq!(
                kind.as_str().to_lowercase().parse::<LockKind>().unwrap(),
                kind
            );
        }
        assert!("QOLB".parse::<LockKind>().is_err());
    }

    #[test]
    fn classification_matches_catalog() {
        assert!(LockKind::HboGtSd.is_nuca_aware());
        assert!(LockKind::Rh.is_nuca_aware());
        assert!(LockKind::Cna.is_nuca_aware());
        assert!(!LockKind::Mcs.is_nuca_aware());
        assert!(!LockKind::Twa.is_nuca_aware());
        assert!(LockKind::Mcs.is_queue_lock());
        assert!(LockKind::Clh.is_queue_lock());
        assert!(LockKind::Twa.is_queue_lock());
        assert!(!LockKind::Hbo.is_queue_lock());
        assert!(!LockKind::Cna.is_queue_lock(), "CNA is hybrid, not queue");
        assert!(LockKind::Twa.is_fifo());
        assert!(!LockKind::Recip.is_fifo());
        // The paper's NUCA-aware set is a strict subset of today's.
        for kind in [LockKind::Rh, LockKind::Hbo, LockKind::HboGt, LockKind::HboGtSd] {
            assert!(LockCatalog::nuca_aware().contains(&kind));
        }
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn mixed_token_panics() {
        let a = LockKind::Tatas.instantiate(2);
        let b = LockKind::Hbo.instantiate(2);
        let t = b.acquire(NodeId(0));
        a.release(t);
    }

    #[test]
    fn contention_every_kind() {
        for &kind in LockCatalog::kinds() {
            let lock = AnyLock::shared(kind, 2);
            let counter = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for i in 0..3 {
                    let lock = Arc::clone(&lock);
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        for _ in 0..5_000 {
                            let t = lock.acquire(NodeId(i % 2));
                            let v = counter.load(Ordering::Relaxed);
                            counter.store(v + 1, Ordering::Relaxed);
                            lock.release(t);
                        }
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 15_000, "{kind}");
        }
    }
}
