"""Exception types raised across the toolkit, and the one check of a
positive parameter.

A bad argument or parameter raises ValueError (CLI exit 1); data that
cannot be used raises a `Scan2PlanError` subclass (exit 2), so a loader
re-raises a ValueError from a value it read as ParseError.
"""

import math


def check_positive(**values) -> None:
    """Raise ValueError naming the first value that is not finite and positive."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:  # also rejects NaN
            raise ValueError("%s must be finite and positive, got %r" % (name, value))


class Scan2PlanError(Exception):
    """Base class for all toolkit errors."""


class ParseError(Scan2PlanError):
    """A file could not be parsed; message names the offending location."""


class EmptyModel(Scan2PlanError):
    """Wall model contains no walls."""


class InvalidModel(Scan2PlanError):
    """Wall model spans too large a score-field raster."""


class EmptyScene(Scan2PlanError):
    """A scene lacks what it needs: no wall is visible from the sensor
    placement, no free placement for a sensor is found
    (`synthetic.random_interior_pose`), a scene directory holds no
    `*.submap` file (`pipeline.register_directory`), or no scene has a
    gt pose file (`pipeline.evaluate_scenes`)."""


class EmptySubmap(Scan2PlanError):
    """Submap has no usable points for the requested operation."""


class InvalidSubmap(Scan2PlanError):
    """Submap has a non-finite point, a zero or non-finite gravity vector,
    gravity too far from the z axis, or points too far apart for the
    octree's int64 cell keys."""


class EmptyGrid(Scan2PlanError):
    """Vote grid holds no votes. Only `voting.hierarchical_vote` raises
    it: a submap without walls reaches voting with no triplets."""
