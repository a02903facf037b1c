//! The unit of pricing: one point-to-point message between two cores.

use tarr_topo::CoreId;

/// A point-to-point transfer to be priced by a network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    /// Sending core.
    pub src: CoreId,
    /// Receiving core.
    pub dst: CoreId,
    /// Payload size in bytes.
    pub bytes: u64,
}

impl Message {
    /// Convenience constructor.
    pub fn new(src: CoreId, dst: CoreId, bytes: u64) -> Self {
        Message { src, dst, bytes }
    }

    /// Whether source and destination are the same core (a local copy).
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_detection() {
        assert!(Message::new(CoreId(3), CoreId(3), 10).is_local());
        assert!(!Message::new(CoreId(3), CoreId(4), 10).is_local());
    }
}
