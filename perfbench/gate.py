"""The correctness gate every response must pass.

The reference digest is the definition of a correct answer, computed
here with numpy and no program code beyond the characteristic matrix
and complement that ``make_permutation`` draws for the key: a BMMC
permutation sends record ``x`` to ``y = A x xor c``, the source holds
``x`` at address ``x``, so the final portion holds ``x`` at address
``y``.  The program hashes the final portion's int64 bytes; so does
:func:`reference_digest`.  :func:`strict_digest` runs the same key
through the program's strict (rule-checked, per-I/O) engine; the
benchmark's tests hold the two equal, and every run cross-checks one
key at the workload's own shape.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "BMMC_METHODS",
    "check_response",
    "reference_digest",
    "strict_digest",
    "target_addresses",
]

#: Methods that run the paper's BMMC algorithms, whose I/O count the
#: planner predicts exactly and Theorem 21 bounds from above.  The
#: distribution sort is randomized: only the lower bound applies.
BMMC_METHODS = frozenset({"mrc", "mld", "inv-mld", "bmmc", "bmmc-unmerged"})


def target_addresses(perm, N: int) -> np.ndarray:
    """``y = A x xor c`` for every address ``x`` (bit 0 least significant)."""
    bits = np.asarray(perm.matrix.to_array(), dtype=np.uint64)
    n = bits.shape[0]
    if (1 << n) != N:
        raise ValueError(f"matrix is {n}x{n} but N={N}")
    # Column j as an integer: the output bits that input bit j flips.
    columns = (bits << np.arange(n, dtype=np.uint64)[:, None]).sum(axis=0)
    xs = np.arange(N, dtype=np.uint64)
    ys = np.full(N, perm.complement, dtype=np.uint64)
    for j in range(n):
        ys ^= ((xs >> np.uint64(j)) & np.uint64(1)) * columns[j]
    return ys.astype(np.int64)


def reference_digest(perm, N: int) -> str:
    """SHA-256 of the correct final portion for ``perm``."""
    final = np.empty(N, dtype=np.int64)
    final[target_addresses(perm, N)] = np.arange(N, dtype=np.int64)
    return hashlib.sha256(final.tobytes()).hexdigest()


def strict_digest(geometry, key) -> str:
    """The strict engine's digest for ``key`` (no cache, no optimizer)."""
    from repro.serve import PermutationRequest, run_sequential

    request = PermutationRequest(
        perm=key.perm, method=key.method, seed=key.seed, engine="strict",
        optimize=False, capture_portion=True,
    )
    result = run_sequential(geometry, [request])[0]
    if not result.ok:
        raise RuntimeError(f"strict engine failed on {key}: {result.error!r}")
    return result.digest


def check_response(body: dict, expected_digest: str) -> list[str]:
    """Problems with one result body (the HTTP JSON shape); empty if none.

    ``body`` is what ``repro.serve.http.result_to_dict`` produces, so
    in-process results and HTTP responses pass the same gate.
    """
    if not body.get("ok"):
        error = body.get("error", {})
        return [f"failed: {error.get('type')}: {error.get('message')}"]
    report = body["report"]
    bounds = report["bounds"]
    ios = report["parallel_ios"]
    problems = []
    if report["verified"] is not True:
        problems.append("verified is not true")
    if body.get("digest") != expected_digest:
        problems.append(f"digest {body.get('digest')} != reference {expected_digest}")
    lower = bounds.get("theorem3_lower_bound")
    if lower is None:
        problems.append("no theorem3_lower_bound in the bound table")
    elif ios < lower:
        problems.append(f"{ios} parallel I/Os < Theorem 3 lower bound {lower}")
    if report["method"] in BMMC_METHODS:
        if ios != bounds.get("predicted_ios"):
            problems.append(f"{ios} parallel I/Os != predicted {bounds.get('predicted_ios')}")
        if ios > bounds.get("theorem21_upper_bound", -1):
            problems.append(
                f"{ios} parallel I/Os > Theorem 21 upper bound "
                f"{bounds.get('theorem21_upper_bound')}"
            )
    return problems
