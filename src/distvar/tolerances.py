"""Central tolerance table.

Every threshold a caller can override lives here and reaches its checks
only as this table, so that a report records the exact table it was
produced under: a function given a pair, bundle or instance reads the table
the pair was validated with, ``pair.tol``, and others take it as ``tol``.
Every field is read by at least one check on the certification path; an
override of the table therefore always moves a decision.  Other thresholds
(SVD floors, the eigenvalue merge radius and others) are fixed literals in
the modules that use them: no override moves them.
"""

from dataclasses import dataclass, asdict, replace


@dataclass(frozen=True)
class Tolerances:
    # inner functions
    tol_unitary: float = 1e-8       # boundary / block unitarity defect
    pure_margin: float = 1e-12      # interior spectral-radius gap for inner functions
    # pairs of matrices
    tol_commute: float = 1e-8       # commutator norm
    tol_norm: float = 1e-8          # contractivity slack on ||T||
    tol_rank: float = 1e-7          # relative numerical-rank threshold
    tol_eig: float = 1e-8           # joint eigenvector cut, relative to max(1, ||T1||, ||T2||)
    tol_ann: float = 1e-8           # annihilation norm for ideal membership
    # dilation machinery
    tol_trunc: float = 1e-10        # ||J*J - I|| of the model-space embedding
    tol_intertwine: float = 1e-7    # intertwining residuals
    kernel_rel: float = 1e-8        # relative SVD threshold for kernel cuts
    rank_guard: float = 10.0        # inconclusive band around rank thresholds
    # point-set semantics
    match_cap: float = 1e-6         # optimal-assignment distance cap for set equality
    cluster_warn: float = 1e-4      # zeros of m1 this close are not simple
    tol_zset: float = 1e-8          # vanishing threshold for zero-set membership
    # certificates
    tol_attain: float = 1e-6        # slack on the "= 1" attainment conditions
    margin_spec: float = 1e-2       # required spectral gap rho(T) <= 1 - margin

    def as_dict(self):
        return asdict(self)

    def override(self, **kwargs):
        return replace(self, **kwargs)


DEFAULT = Tolerances()
