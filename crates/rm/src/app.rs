//! Real-time applications and their host allocation.

use netqos_topology::NodeId;
use std::collections::HashMap;
use std::fmt;

/// A real-time application endpoint managed by the RM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtApp {
    /// Application name (unique).
    pub name: String,
    /// Host the application currently runs on.
    pub host: NodeId,
    /// Whether the RM may move this application (some apps are pinned to
    /// special hardware).
    pub movable: bool,
}

/// Errors from allocation bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// Application name already registered.
    DuplicateApp(String),
    /// Unknown application.
    NoSuchApp(String),
    /// The application is pinned.
    AppPinned(String),
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::DuplicateApp(a) => write!(f, "application `{a}` already exists"),
            AllocationError::NoSuchApp(a) => write!(f, "no such application `{a}`"),
            AllocationError::AppPinned(a) => write!(f, "application `{a}` is pinned to its host"),
        }
    }
}

impl std::error::Error for AllocationError {}

/// The current application-to-host allocation.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    apps: HashMap<String, RtApp>,
}

impl Allocation {
    /// Creates an empty allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an application on a host.
    pub fn place(
        &mut self,
        name: &str,
        host: NodeId,
        movable: bool,
    ) -> Result<(), AllocationError> {
        if self.apps.contains_key(name) {
            return Err(AllocationError::DuplicateApp(name.to_owned()));
        }
        self.apps.insert(
            name.to_owned(),
            RtApp {
                name: name.to_owned(),
                host,
                movable,
            },
        );
        Ok(())
    }

    /// Looks up an application.
    pub fn get(&self, name: &str) -> Option<&RtApp> {
        self.apps.get(name)
    }

    /// The host of an application.
    pub fn host_of(&self, name: &str) -> Result<NodeId, AllocationError> {
        self.apps
            .get(name)
            .map(|a| a.host)
            .ok_or_else(|| AllocationError::NoSuchApp(name.to_owned()))
    }

    /// Moves an application to a new host (the migration itself is outside
    /// this substrate's scope).
    pub fn migrate(&mut self, name: &str, to: NodeId) -> Result<(), AllocationError> {
        let app = self
            .apps
            .get_mut(name)
            .ok_or_else(|| AllocationError::NoSuchApp(name.to_owned()))?;
        if !app.movable {
            return Err(AllocationError::AppPinned(name.to_owned()));
        }
        app.host = to;
        Ok(())
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True when no applications are registered.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_and_lookup() {
        let mut a = Allocation::new();
        a.place("radar", NodeId(1), true).unwrap();
        assert_eq!(a.host_of("radar").unwrap(), NodeId(1));
        assert_eq!(a.len(), 1);
        assert!(a.place("radar", NodeId(2), true).is_err());
        assert!(a.host_of("ghost").is_err());
    }

    #[test]
    fn migrate_respects_pinning() {
        let mut a = Allocation::new();
        a.place("radar", NodeId(1), true).unwrap();
        a.place("sensor", NodeId(1), false).unwrap();
        a.migrate("radar", NodeId(2)).unwrap();
        assert_eq!(a.host_of("radar").unwrap(), NodeId(2));
        assert_eq!(
            a.migrate("sensor", NodeId(2)),
            Err(AllocationError::AppPinned("sensor".into()))
        );
    }
}
