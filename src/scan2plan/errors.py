"""Exception types raised across the toolkit."""


class Scan2PlanError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInput(Scan2PlanError):
    """Input geometry is degenerate (e.g. all points coincide)."""


class ParseError(Scan2PlanError):
    """A file could not be parsed; message names the offending location."""


class EmptyModel(Scan2PlanError):
    """Wall model contains no walls."""


class InvalidModel(Scan2PlanError):
    """Wall model spans too large a score-field raster."""


class EmptyScene(Scan2PlanError):
    """No wall surface is visible from the requested sensor placement."""


class EmptySubmap(Scan2PlanError):
    """Submap has no usable points for the requested operation."""


class InvalidSubmap(Scan2PlanError):
    """Submap has a non-finite point, a zero or non-finite gravity vector,
    points too far apart for the octree's int64 cell keys, or too large a
    wall raster or Hough accumulator."""


class EmptyGrid(Scan2PlanError):
    """Vote grid holds no votes."""


class NoCandidates(Scan2PlanError):
    """Candidate list is empty."""


class ResolutionMismatch(Scan2PlanError):
    """Two descriptor databases were built with different quantization."""


class VersionMismatch(Scan2PlanError):
    """Serialized file has an unknown magic or version."""
