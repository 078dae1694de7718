"""Transient gas-flow control for pipeline network stations.

The package builds element-wise MIP models of a network station,
constructs compressor-configuration operating-range polytopes from unit
data, and runs a three-stage algorithm (stationary initial solve,
improvement heuristic, rolling-horizon smoothing) that produces a
time-stamped control recommendation.
"""
