//! Strongly-typed identifiers.
//!
//! Plain newtype wrappers over small integers: cheap to copy, impossible to
//! confuse (a `NodeId` cannot be used where an `InvocationId` is expected),
//! and usable directly as `Vec` indices in the hot path.

use core::fmt;

/// Identifies a deployed function (a code package, §1 footnote 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub u32);

/// Identifies a single invocation (a running instance of a function).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvocationId(pub u32);

/// Identifies a worker node (an OpenWhisk invoker).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl FunctionId {
    /// Index into per-function tables.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl InvocationId {
    /// Index into per-invocation tables.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl NodeId {
    /// Index into per-node tables.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

impl fmt::Debug for InvocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inv#{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Display for InvocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index_and_format() {
        assert_eq!(FunctionId(3).idx(), 3);
        assert_eq!(InvocationId(7).idx(), 7);
        assert_eq!(NodeId(1).idx(), 1);
        assert_eq!(format!("{}", FunctionId(3)), "fn#3");
        assert_eq!(format!("{:?}", InvocationId(7)), "inv#7");
        assert_eq!(format!("{}", NodeId(1)), "node#1");
    }
}
