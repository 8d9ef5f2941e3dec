"""One-shot registration of LiDAR submaps against 2D building wall models.

The package root exports nothing: each name is imported from the module
that defines it (`scan2plan.pipeline`, `scan2plan.config`, ...), and a
module's `__all__` lists what it exports.
"""

__version__ = "0.1.0"
