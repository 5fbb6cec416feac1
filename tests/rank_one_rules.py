"""Entrywise oracles for the structural classifiers on all-ones partitions.

With blocks of size one the BIO and SBIO pattern rules reduce to statements
about single entries: at most one nonzero entry per column (BIO), and per
column and per row (SBIO).  Shared by acceptance criterion 8 and
tests/test_channels.py.
"""

import numpy as np


def entrywise_column_rule(ks, tol=1e-10):
    for op in ks.operators:
        nz = np.abs(op) > tol * (1.0 + np.abs(op).max())
        if np.any(nz.sum(axis=0) > 1):
            return False
    return True


def entrywise_row_and_column_rule(ks, tol=1e-10):
    for op in ks.operators:
        nz = np.abs(op) > tol * (1.0 + np.abs(op).max())
        if np.any(nz.sum(axis=0) > 1) or np.any(nz.sum(axis=1) > 1):
            return False
    return True
