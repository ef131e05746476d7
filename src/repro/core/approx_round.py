"""Block-diagonal ROUND solver (Algorithm 3 of the paper).

Under the approximation that every Fisher matrix keeps only its ``d x d``
class-diagonal blocks (Eq. 14), the FTRL round of Algorithm 1 collapses to
block-diagonal algebra:

* candidate scoring uses the closed form of Proposition 4 (Eq. 17) — a batch
  of quadratic forms per class block plus the Sherman–Morrison denominator,
* the FTRL matrix update needs only per-block generalized eigenvalues of the
  accumulated Hessian with respect to ``Sigma_*`` (Line 9) and a bisection
  for ν (Line 10),
* ``B_{t+1}^{-1}`` is a batch of ``c`` dense ``d x d`` inverses (Line 11).

Total cost ``O(b c d^2 (n/p + d))`` — the ROUND column of Table IV.  The
generalized eigensolve and the batched inverses run through the active
backend's promoted (float64) linear algebra.

Hot-path layout: all η-independent state (``Sigma_*`` block diagonal, labeled
blocks, the promoted pool features and rank-one coefficients, scoring
scratch) lives in a :class:`RoundPrecompute` that is assembled **once** —
per solve, or once per η *grid* when the caller (``select_eta``) threads the
same instance through every trial.  The selection loop scores candidates with
the fused shared-contraction kernel
(:func:`repro.linalg.sherman_morrison.fused_round_scores`), optionally
streaming the pool in chunks (``RoundConfig.score_chunk_size``), and
accumulates the ``B_{t+1}`` update in place through the precompute's
:class:`~repro.backend.Workspace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.backend import Array, COMPUTE_DTYPE, Workspace, get_backend
from repro.core.config import RoundConfig
from repro.core.result import RoundResult
from repro.fisher.hessian import point_block_coefficients
from repro.fisher.operators import FisherDataset
from repro.linalg.bisection import find_ftrl_nu
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.sherman_morrison import fused_round_scores
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import require

__all__ = [
    "RoundPrecompute",
    "approx_round",
    "generalized_block_eigenvalues",
    "selected_batch_min_eigenvalue",
]


@dataclass
class RoundPrecompute:
    """η-independent state of a block-diagonal ROUND solve.

    Everything here depends only on ``(dataset, z_relaxed, regularization)``
    — not on the FTRL learning rate η — so the § IV-A grid search assembles
    one instance and threads it through all trials instead of letting each
    :func:`approx_round` call rebuild it: the ``Sigma_*`` assembly, the
    compute-dtype promotion of the pool features / rank-one coefficients, and
    the scoring scratch buffers are paid once per grid, not once per trial.

    Attributes
    ----------
    sigma_star:
        ``B(Sigma_*)`` with the configured Tikhonov term already added.
    labeled_blocks:
        ``B(H_o)``.
    labeled_blocks64:
        ``B(H_o)`` blocks promoted to the compute dtype.
    X:
        Pool features promoted to the compute dtype, shape ``(n, d)``.
    gammas:
        Rank-one coefficients ``h_i^k (1 - h_i^k)`` promoted to the compute
        dtype, shape ``(n, c)``.
    z:
        The promoted relaxed weights this context was built from; the solver
        validates its ``z_relaxed`` argument against it so a stale context
        (same pool, different RELAX output) cannot be threaded in silently.
    workspace:
        Scratch-buffer pool shared by the scoring kernel and the in-place
        ``B_{t+1}`` accumulation across selection steps and η trials.
    """

    sigma_star: BlockDiagonalMatrix
    labeled_blocks: BlockDiagonalMatrix
    labeled_blocks64: Array
    X: Array
    gammas: Array
    z: Array
    workspace: Workspace = field(default_factory=lambda: Workspace(get_backend()))

    @classmethod
    def build(
        cls,
        dataset: FisherDataset,
        z_relaxed: Array,
        config: Optional[RoundConfig] = None,
    ) -> "RoundPrecompute":
        """Assemble the η-independent state (Line 3 of Algorithm 3 + promotions)."""

        backend = get_backend()
        cfg = config or RoundConfig(eta=1.0)
        z = backend.ascompute(z_relaxed).ravel()
        require(
            tuple(z.shape) == (dataset.num_pool,),
            "z_relaxed must have one weight per pool point",
        )
        sigma_star = dataset.sigma_block_diagonal(z)
        if cfg.regularization > 0.0:
            sigma_star = sigma_star.add_identity(cfg.regularization)
        labeled_blocks = dataset.labeled_block_diagonal()
        return cls(
            sigma_star=sigma_star,
            labeled_blocks=labeled_blocks,
            labeled_blocks64=backend.ascompute(labeled_blocks.blocks),
            X=backend.ascompute(dataset.pool_features),
            gammas=point_block_coefficients(dataset.pool_probabilities),
            z=z,
        )

    @property
    def num_pool(self) -> int:
        return int(self.X.shape[0])


def generalized_block_eigenvalues(a_blocks: Array, s_blocks: Array) -> Array:
    """Eigenvalues of ``S^{-1/2} A S^{-1/2}`` for stacked ``(c, d, d)`` blocks.

    Equivalent to the generalized eigenproblem ``A v = lambda S v`` per class
    block, which is how Line 9 of Algorithm 3 is evaluated without forming
    ``S^{-1/2}`` explicitly.  Inputs are promoted to the compute dtype and
    symmetrized; the distributed ROUND solver shares this helper (on block
    slices) so both paths apply the identical promotion/symmetrization
    policy.  Returns an array of shape ``(c, d)``.
    """

    backend = get_backend()
    a = backend.ascompute(a_blocks)
    s = backend.ascompute(s_blocks)
    a_sym = 0.5 * (a + backend.transpose_last(a))
    s_sym = 0.5 * (s + backend.transpose_last(s))
    return backend.eigh_generalized(a_sym, s_sym)


def selected_batch_min_eigenvalue(
    dataset: FisherDataset,
    selected_indices: Array,
    *,
    precompute: Optional[RoundPrecompute] = None,
) -> float:
    """``min_k lambda_min(H_k)`` of the selected batch's block Hessian sum.

    This is the score the paper maximizes when grid-searching η (§ IV-A):
    "select the [η] that maximizes ``min_k lambda_min(H_k)`` where ``H`` is
    the summation of Hessians of the selected b points".  When a precompute
    context is supplied (any object exposing promoted ``X``/``gammas``), its
    promoted arrays are indexed directly instead of re-promoting per call.
    """

    backend = get_backend()
    selected_indices = backend.index_array(selected_indices)
    require(selected_indices.size > 0, "selection must not be empty")
    if precompute is not None:
        X64 = precompute.X[selected_indices]
        coeff = precompute.gammas[selected_indices]
    else:
        X64 = backend.ascompute(dataset.pool_features[selected_indices])
        coeff = point_block_coefficients(dataset.pool_probabilities[selected_indices])
    blocks = backend.einsum("ik,id,ie->kde", coeff, X64, X64, optimize=True)
    return BlockDiagonalMatrix(blocks, copy=False).min_eigenvalue()


def approx_round(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    eta: float,
    config: Optional[RoundConfig] = None,
    *,
    precompute: Optional[RoundPrecompute] = None,
) -> RoundResult:
    """Select ``budget`` points with the block-diagonal round solver.

    Parameters
    ----------
    dataset:
        Fisher data for the current round.
    z_relaxed:
        Relaxed weights ``z*`` from the RELAX step.
    budget:
        Number of points ``b`` to select.
    eta:
        FTRL learning rate η.
    config:
        Round options.
    precompute:
        Optional η-independent state built with :meth:`RoundPrecompute.build`
        for the same ``(dataset, z_relaxed, config)``.  The η grid search
        passes one instance through every trial; when omitted the solve
        builds (and discards) its own.
    """

    require(budget > 0, "budget must be positive")
    require(eta > 0, "eta must be positive")
    cfg = config or RoundConfig(eta=eta)
    backend = get_backend()
    xp = backend.xp
    n = dataset.num_pool
    require(n >= budget, "pool smaller than budget")

    z_relaxed = backend.ascompute(z_relaxed).ravel()
    require(tuple(z_relaxed.shape) == (n,), "z_relaxed must have one weight per pool point")

    timings = TimingBreakdown()
    d = dataset.dimension
    c = dataset.num_classes
    dc = d * c

    with timings.region("setup"):
        if precompute is None:
            precompute = RoundPrecompute.build(dataset, z_relaxed, cfg)
        require(precompute.num_pool == n, "precompute does not match the dataset pool")
        require(
            bool(xp.all(precompute.z == z_relaxed)),
            "precompute was built from different relaxed weights",
        )
        sigma_star = precompute.sigma_star
        labeled_blocks = precompute.labeled_blocks
        X = precompute.X
        gammas = precompute.gammas
        workspace = precompute.workspace

        # Line 4: B_1 = sqrt(dc) * Sigma_* + (eta/b) * H_o, inverted per block.
        b1 = sigma_star * math.sqrt(dc) + labeled_blocks * (eta / budget)
        bt_inv = b1.inverse()

        # Line 5: accumulated H starts at zero; hoisted per-step constants.
        accumulated = workspace.get("round_accumulated", (c, d, d), COMPUTE_DTYPE, zero=True)
        labeled_over_budget = precompute.labeled_blocks64 / budget
        labeled_eta_blocks = precompute.labeled_blocks64 * (eta / budget)
        scores_buf = workspace.get("round_scores", (n,), COMPUTE_DTYPE)

    selected = []
    objective_trace = []
    available = backend.ones((n,), dtype=bool)

    for t in range(1, budget + 1):
        # Line 7: candidate scoring via Proposition 4 (Eq. 17, with Sigma_* as
        # the middle matrix — see the note in block_rank_one_quadratic_forms).
        with timings.region("score"):
            scores = fused_round_scores(
                bt_inv,
                sigma_star,
                X,
                gammas,
                eta,
                chunk_size=cfg.score_chunk_size,
                workspace=workspace,
                out=scores_buf,
            )
            scores = xp.where(available, scores, -xp.inf)
            best_index = int(xp.argmax(scores))
            require(bool(xp.isfinite(scores[best_index])), "no candidate available for selection")
            selected.append(best_index)
            objective_trace.append(float(scores[best_index]))
            available[best_index] = False

        # Line 8: accumulate (1/b) H_o + block Hessian of the selected point,
        # in place — no per-step (c, d, d) reallocation.
        with timings.region("update_accumulated"):
            x_sel = X[best_index]
            gamma_sel = gammas[best_index]
            rank_one = workspace.get("round_rank_one", (c, d, d), COMPUTE_DTYPE)
            xp.multiply(
                gamma_sel[:, None, None], (x_sel[:, None] * x_sel[None, :])[None], out=rank_one
            )
            accumulated += labeled_over_budget
            accumulated += rank_one

        # Lines 9-10: generalized eigenvalues and the FTRL constant nu.
        with timings.region("compute_eigenvalues"):
            eigenvalues = generalized_block_eigenvalues(accumulated, sigma_star.blocks)
            nu = find_ftrl_nu(eta * eigenvalues)

        # Line 11: refresh B_{t+1}^{-1}.
        with timings.region("refresh_inverse"):
            next_b = workspace.get("round_next_b", (c, d, d), COMPUTE_DTYPE)
            xp.multiply(backend.ascompute(sigma_star.blocks), nu, out=next_b)
            next_b += eta * accumulated
            next_b += labeled_eta_blocks
            bt_inv = BlockDiagonalMatrix(backend.inv(next_b), copy=False)

    return RoundResult(
        selected_indices=backend.index_array(selected),
        eta=float(eta),
        objective_trace=objective_trace,
        timings=timings,
    )
