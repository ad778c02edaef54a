"""Centralized numerical tolerances.

NORM_TOL   -- squared-norm / unitarity checks
PROB_TOL   -- equality of probabilities
RANK_TOL   -- witness-search rank / residual threshold: singular values of
              the projected atom-present matrix up to RANK_TOL times its
              norm count as zero, so a leftover of a truncated run (a
              cavity cut off after K round trips leaves 1e-11 inside)
              is not fitted
"""

NORM_TOL = 1e-12
PROB_TOL = 1e-10
RANK_TOL = 1e-9
