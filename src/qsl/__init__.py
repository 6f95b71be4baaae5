"""Quantum speed limit numerics.

Computes the fidelity-dependent coefficient of the excitation-energy speed
limit three independent ways (closed form, minimax over the tangent-line
family, brute-force dynamics), and verifies the limits on simulated
finite-dimensional evolutions.
"""
