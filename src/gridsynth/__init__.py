"""Synthetic three-phase distribution feeder generator.

Fits hierarchical Bayesian sub-models for phase configuration, power demand,
reliability indices, and line impedances to reference feeder data.
``generate.network`` then draws a complete network from one posterior draw,
with phases consistent along every line.
"""

__version__ = "0.1.0"
