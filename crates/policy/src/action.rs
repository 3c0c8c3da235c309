//! Network functions and ordered action lists (§II).

use std::fmt;
use std::sync::Arc;

/// A network function a middlebox can implement — the elements of the
/// paper's function set Π. The four named variants are the ones used in the
/// evaluation (§IV.A); `Custom` supports arbitrary additional functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkFunction {
    /// Firewalling (FW).
    Firewall,
    /// Intrusion detection (IDS).
    Ids,
    /// Web proxying / caching (WP).
    WebProxy,
    /// Traffic measurement (TM).
    TrafficMonitor,
    /// Any other function, identified by a small integer.
    Custom(u8),
}

impl NetworkFunction {
    /// The four functions of the paper's evaluation, in a fixed order.
    pub const EVALUATION_SET: [NetworkFunction; 4] = [
        NetworkFunction::Firewall,
        NetworkFunction::Ids,
        NetworkFunction::WebProxy,
        NetworkFunction::TrafficMonitor,
    ];

    /// Short display name matching the paper's abbreviations.
    pub fn abbrev(self) -> String {
        match self {
            NetworkFunction::Firewall => "FW".to_string(),
            NetworkFunction::Ids => "IDS".to_string(),
            NetworkFunction::WebProxy => "WP".to_string(),
            NetworkFunction::TrafficMonitor => "TM".to_string(),
            NetworkFunction::Custom(n) => format!("NF{n}"),
        }
    }

    /// Inverse of [`NetworkFunction::abbrev`]; `None` for unknown names.
    pub fn from_abbrev(s: &str) -> Option<NetworkFunction> {
        match s {
            "FW" => Some(NetworkFunction::Firewall),
            "IDS" => Some(NetworkFunction::Ids),
            "WP" => Some(NetworkFunction::WebProxy),
            "TM" => Some(NetworkFunction::TrafficMonitor),
            other => other
                .strip_prefix("NF")
                .and_then(|n| n.parse().ok())
                .map(NetworkFunction::Custom),
        }
    }
}

impl fmt::Display for NetworkFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.abbrev())
    }
}

/// An ordered list of network functions a policy applies to matching
/// traffic. An empty list means *permit*: forward without further action
/// (the first two rows of Table I).
///
/// Cloning is cheap (shared storage): action lists are copied into flow
/// caches and label tables on every flow setup.
///
/// # Example
///
/// ```
/// use sdm_policy::{ActionList, NetworkFunction};
/// let chain = ActionList::chain([NetworkFunction::Firewall, NetworkFunction::Ids]);
/// assert_eq!(chain.len(), 2);
/// assert_eq!(chain.first(), Some(NetworkFunction::Firewall));
/// assert_eq!(chain.get(1), Some(NetworkFunction::Ids));
/// assert_eq!(chain.get(2), None);
/// assert!(ActionList::permit().is_permit());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActionList(Arc<[NetworkFunction]>);

impl ActionList {
    /// The empty list: permit without further action.
    pub fn permit() -> Self {
        ActionList(Arc::from([] as [NetworkFunction; 0]))
    }

    /// An ordered chain of functions.
    pub fn chain(functions: impl IntoIterator<Item = NetworkFunction>) -> Self {
        ActionList(functions.into_iter().collect())
    }

    /// True if this list is a bare permit (no functions).
    pub fn is_permit(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of functions in the chain.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the chain is empty (same as [`ActionList::is_permit`]).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The functions in order.
    pub fn functions(&self) -> &[NetworkFunction] {
        &self.0
    }

    /// The first function, if any — where enforcement starts (§III.B).
    pub fn first(&self) -> Option<NetworkFunction> {
        self.0.first().copied()
    }

    /// The last function, if any.
    pub fn last(&self) -> Option<NetworkFunction> {
        self.0.last().copied()
    }

    /// The function at `index`.
    pub fn get(&self, index: usize) -> Option<NetworkFunction> {
        self.0.get(index).copied()
    }

    /// Position of the first occurrence of `f` in the chain.
    pub fn position(&self, f: NetworkFunction) -> Option<usize> {
        self.0.iter().position(|&g| g == f)
    }

    /// True if the chain contains `f` — the controller's test for which
    /// policies are relevant to a middlebox (§III.B).
    pub fn contains(&self, f: NetworkFunction) -> bool {
        self.0.contains(&f)
    }
}

impl FromIterator<NetworkFunction> for ActionList {
    fn from_iter<T: IntoIterator<Item = NetworkFunction>>(iter: T) -> Self {
        ActionList::chain(iter)
    }
}

impl fmt::Display for ActionList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_permit() {
            return f.write_str("permit");
        }
        let parts: Vec<String> = self.0.iter().map(|nf| nf.abbrev()).collect();
        f.write_str(&parts.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use NetworkFunction::*;

    #[test]
    fn permit_is_empty() {
        let p = ActionList::permit();
        assert!(p.is_permit());
        assert!(p.is_empty());
        assert_eq!(p.first(), None);
        assert_eq!(p.last(), None);
        assert_eq!(p.to_string(), "permit");
    }

    #[test]
    fn chain_navigation() {
        let c = ActionList::chain([Firewall, Ids, WebProxy]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.first(), Some(Firewall));
        assert_eq!(c.last(), Some(WebProxy));
        assert_eq!(c.position(Ids), Some(1));
        assert_eq!(c.position(TrafficMonitor), None);
        assert!(c.contains(WebProxy));
    }

    #[test]
    fn display_chains() {
        let c = ActionList::chain([Firewall, Ids]);
        assert_eq!(c.to_string(), "FW -> IDS");
        assert_eq!(Custom(9).to_string(), "NF9");
    }

    #[test]
    fn clone_is_shared() {
        let c = ActionList::chain([Firewall, Ids]);
        let d = c.clone();
        assert_eq!(c, d);
        assert_eq!(c.functions().as_ptr(), d.functions().as_ptr());
    }

    #[test]
    fn collect_from_iterator() {
        let c: ActionList = [Ids, TrafficMonitor].into_iter().collect();
        assert_eq!(c.len(), 2);
    }
}
