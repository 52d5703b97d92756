"""Exception types shared across the package."""


class CKHopfError(Exception):
    """Base class for all errors raised by ckhopf."""


class InvalidInput(CKHopfError):
    """A JSON document or a setting does not have the expected shape or value."""


class InvalidGraph(CKHopfError):
    """A raw graph description violates a structural invariant."""


class NonPairEdge(InvalidGraph):
    """An edge is not an unordered pair of two distinct known half-edges."""


class OverlappingPartition(InvalidGraph):
    """A half-edge occurs in more than one edge or more than one vertex."""


class DanglingHalfEdge(InvalidGraph):
    """A half-edge occurs in no edge or in no vertex."""


class ExternalNotUnivalent(InvalidGraph):
    """An external vertex does not have exactly one half-edge."""


class NotInternalEdge(CKHopfError):
    """Contraction or subgraph extraction was asked for a non-internal edge."""


class EmptySubgraph(CKHopfError):
    """Subgraph extraction requires at least one edge."""


class ResourceBound(CKHopfError):
    """An enumeration or search exceeded its configured budget."""


class ValencyMismatch(CKHopfError):
    """Insertion site valency differs from the external edge count."""


class NotInternalVertex(CKHopfError):
    """Insertion site must be an internal vertex."""


class DimensionTooSmall(CKHopfError):
    """Coinvariant z_c needs at least N basis vectors."""


class LengthMismatch(CKHopfError):
    """Raw tensors of different word lengths cannot be paired."""


class ShapeMismatch(CKHopfError):
    """Block sizes are inconsistent with the tensor or chord diagram."""


class EmptyVertexUnsupported(CKHopfError):
    """Graphs with empty vertices have no chord-diagram presentation."""


class InhomogeneousInput(CKHopfError):
    """Operation requires a tensor homogeneous in the bigrading."""


class DimensionMismatch(CKHopfError):
    """Tensors live over different coefficient-space dimensions."""


class NotInLPlus(CKHopfError):
    """Pre-Lie product arguments must have every component of bigrade N > k."""
