"""Unitarity defect of a dense product, shared by the product tests."""
import numpy as np


def unitarity_defect(m: np.ndarray) -> float:
    """Largest entry of |M^* M - I|; zero for M with exactly orthonormal columns."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))
