"""Residual quantum neural networks on graph-structured quantum data.

A small, deterministic simulator: dense multi-qubit linear algebra
(:mod:`resqnn.qlinalg`), network architecture and feedforward with residual
state additions (:mod:`resqnn.netcore`), supervised/graph cost functions
(:mod:`resqnn.cost`), dataset generation (:mod:`resqnn.graphdata`), training
via closed-form update generators checked by a finite-difference oracle
(:mod:`resqnn.trainer`), and a command-line harness (:mod:`resqnn.cli`).
"""

__version__ = "0.1.0"
