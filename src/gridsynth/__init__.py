"""Synthetic three-phase distribution feeder generator.

Fits hierarchical Bayesian sub-models for phase configuration, power demand,
reliability indices, and line impedances to reference feeder data, then
samples complete phase-consistent networks.
"""

__version__ = "0.1.0"
