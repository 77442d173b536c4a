"""The package version, importable without pulling in the package.

Single source of truth: ``repro.__init__`` re-exports it, the CLI's
``--version`` prints it, and every trace / metrics export stamps it into
its header (so an artifact collected from CI or a long-lived server
names the engine build that produced it).  Lives in its own module so
the zero-dependency observability layer (:mod:`repro.observe`) can
import it without importing ``repro`` itself.
"""

__version__ = "9.0.0"
