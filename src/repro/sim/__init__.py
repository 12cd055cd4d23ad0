"""Deterministic discrete-event simulator.

This package replaces the Mininet emulation of the original artifact.
Time is simulated (milliseconds, float); every run with the same seed is
bit-for-bit reproducible.
"""
