"""Causal double products of rotations, their coefficient combinatorics, and the limit kernel."""
