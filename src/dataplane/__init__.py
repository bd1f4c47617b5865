"""Executable model of a programmable switch data plane.

The package is layered: bit-exact packet formats at the bottom, the
two pipelines and the traffic manager engines above them, a
whole-switch step machine with an explicit decision oracle, bundled
applications, and a relational checker that audits recorded traces.
The package exports only __version__; import from the modules.
"""

__version__ = "0.1.0"
