"""The warm path's shortcuts must not weaken what a request proves.

* Verification through the inverse image still rejects a wrong target:
  two records swapped, a pass missing, an inverse that lies, and a
  kernel that corrupts its output behind a warm plan-cache hit.
* The request-prefix memo skips construction, classification and the
  bound table on a warm request, and never holds an ``N``-sized array.
* Hashing the final portion in place gives the digest the old
  copy-then-hash formula gave.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.bits.random import random_mld_matrix, random_nonsingular
from repro.core import runner
from repro.core.mld_algorithm import perform_mld_pass
from repro.pdm.cache import CompiledPlan, PlanCache
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import ExplicitPermutation
from repro.perms.bmmc import BMMCPermutation
from repro.serve import PermutationRequest, requests, run_sequential, synthetic_mix
from repro.serve.requests import _execute_request, make_permutation

from tests.bits.reference_affine import reference_image

#: The module, not the function ``repro.perms`` re-exports under its name.
classify_module = importlib.import_module("repro.perms.classify")

G = DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**7)
CANONICAL = np.arange(G.N, dtype=np.int64)


def _bmmc(seed: int) -> BMMCPermutation:
    rng = np.random.default_rng(seed)
    return BMMCPermutation(random_nonsingular(G.n, rng), int(rng.integers(0, G.N)))


PERMS = {
    "bmmc": lambda: _bmmc(3),
    "explicit": lambda: ExplicitPermutation(np.random.default_rng(5).permutation(G.N)),
}


def _targets(perm) -> np.ndarray:
    """Every source address's target, without the code under test."""
    if isinstance(perm, BMMCPermutation):
        return reference_image(perm.matrix, perm.complement).astype(np.int64)
    return perm.target_vector()


def _system_holding(target: np.ndarray) -> ParallelDiskSystem:
    system = ParallelDiskSystem(G)
    system.fill(1, target)
    return system


# --------------------------------------------------------------------------
# verification still catches a wrong target
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(PERMS))
@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "shuffled-source"])
def test_two_swapped_target_records_fail(kind, canonical):
    perm = PERMS[kind]()
    source = CANONICAL if canonical else np.random.default_rng(7).permutation(G.N)
    target = np.empty(G.N, dtype=np.int64)
    target[_targets(perm)] = source
    assert _system_holding(target).verify_permutation(perm, source, 1)
    target[[3, G.N - 5]] = target[[G.N - 5, 3]]
    assert not _system_holding(target).verify_permutation(perm, source, 1)


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "shuffled-source"])
@pytest.mark.parametrize("swap", [(5, 9), (70_000, 2**18 - 3), (2**18 - 2, 2**18 - 1)])
def test_a_swap_in_any_verification_run_fails(canonical, swap):
    """At 2^18 the inverse image is checked in several sequential runs;
    a swap inside the first, across runs, or inside the last is caught."""
    g = DiskGeometry(N=2**18, B=2**4, D=2**3, M=2**11)
    rng = np.random.default_rng(17)
    perm = BMMCPermutation(random_nonsingular(g.n, rng), int(rng.integers(0, g.N)))
    source = np.arange(g.N) if canonical else rng.permutation(g.N)
    target = np.empty(g.N, dtype=np.int64)
    target[reference_image(perm.matrix, perm.complement).astype(np.int64)] = source
    system = ParallelDiskSystem(g)
    system.fill(1, target)
    assert system.verify_permutation(perm, source, 1)
    target[list(swap)] = target[list(swap[::-1])]
    system.fill(1, target)
    assert not system.verify_permutation(perm, source, 1)


def test_a_source_canonical_only_in_its_first_run_is_not_canonical():
    """The canonical shortcut ``target == pre`` needs the whole source
    to be ``arange(N)``: a source that departs from it only near the end
    is checked against its own values."""
    g = DiskGeometry(N=2**18, B=2**4, D=2**3, M=2**11)
    rng = np.random.default_rng(19)
    perm = BMMCPermutation(random_nonsingular(g.n, rng), int(rng.integers(0, g.N)))
    targets = reference_image(perm.matrix, perm.complement).astype(np.int64)
    source = np.arange(g.N)
    source[[g.N - 7, g.N - 2]] = source[[g.N - 2, g.N - 7]]
    canonical_layout = np.empty(g.N, dtype=np.int64)
    canonical_layout[targets] = np.arange(g.N)
    system = ParallelDiskSystem(g)
    system.fill(1, canonical_layout)
    assert not system.verify_permutation(perm, source, 1)
    layout = np.empty(g.N, dtype=np.int64)
    layout[targets] = source
    system.fill(1, layout)
    assert system.verify_permutation(perm, source, 1)


def test_a_target_one_pass_short_fails():
    rng = np.random.default_rng(11)
    first = BMMCPermutation(random_mld_matrix(G.n, G.b, G.m, rng))
    second = BMMCPermutation(random_mld_matrix(G.n, G.b, G.m, rng))
    both = second.compose(first)
    assert not second.is_identity()
    system = ParallelDiskSystem(G)
    system.fill_identity(0)
    perform_mld_pass(system, first, 0, 1, engine="fast")  # the second pass never runs
    assert system.verify_permutation(first, CANONICAL, 1)
    assert not system.verify_permutation(both, CANONICAL, 1)
    # the source portion a finished pass has consumed holds no target
    assert not system.verify_permutation(first, CANONICAL, 0)


@pytest.mark.parametrize("lie", ["matrix", "complement"])
def test_an_inverse_that_does_not_invert_is_caught(monkeypatch, lie):
    """The target agrees with the lying inverse's image, as a kernel
    sharing the bug would leave it; only the composition check
    ``A A^-1 == I``, ``perm(A^-1 c) == 0`` can tell."""
    perm = _bmmc(13)
    honest = perm.inverse()
    if lie == "matrix":
        wrong = BMMCPermutation(
            honest.matrix.with_columns_swapped(0, 1), honest.complement, validate=False
        )
    else:
        wrong = BMMCPermutation(honest.matrix, honest.complement ^ 1, validate=False)
    system = _system_holding(wrong.target_vector())
    assert not system.verify_permutation(perm, CANONICAL, 1)
    monkeypatch.setattr(perm, "inverse", lambda: wrong)
    assert not system.verify_permutation(perm, CANONICAL, 1)


def test_a_corrupting_kernel_fails_verification_on_a_warm_hit(monkeypatch):
    """Verification reads neither the plan nor the cache: a compiled plan
    served warm whose execution swaps two records is still caught."""
    cache = PlanCache()
    request = PermutationRequest(perm="random-mld", method="mld", seed=4)
    cold = run_sequential(G, [request], cache=cache)[0]
    assert cold.report.verified
    execute = CompiledPlan.execute

    def corrupting(self, system, *args, **kwargs):
        report = execute(self, system, *args, **kwargs)
        values = system.portion_values(request.target_portion)
        values[[0, 1]] = values[[1, 0]]
        system.fill(request.target_portion, values)
        return report

    monkeypatch.setattr(CompiledPlan, "execute", corrupting)
    hits = cache.info().hits
    warm = run_sequential(G, [request], cache=cache)[0]
    assert cache.info().hits == hits + 1
    assert warm.ok and not warm.report.verified


# --------------------------------------------------------------------------
# the request-prefix memo
# --------------------------------------------------------------------------

@pytest.fixture
def fresh_memo():
    requests._memoized_permutation.cache_clear()
    yield
    requests._memoized_permutation.cache_clear()


def _count_calls(monkeypatch, calls: Counter, module, name: str) -> None:
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("perm,method", [("random-bmmc", "bmmc"), ("gray", "auto")])
def test_a_warm_request_rebuilds_nothing_in_its_prefix(monkeypatch, fresh_memo, perm, method):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, requests, "_build_permutation")
    _count_calls(monkeypatch, calls, classify_module, "classify_matrix")
    _count_calls(monkeypatch, calls, runner, "_bounds")
    cache = PlanCache()
    request = PermutationRequest(perm=perm, method=method, seed=6, capture_portion=True)
    cold = run_sequential(G, [request], cache=cache)[0]
    after_cold = dict(calls)
    assert after_cold == {"_build_permutation": 1, "classify_matrix": 1, "_bounds": 1}
    warm = run_sequential(G, [request, request], cache=cache)
    assert dict(calls) == after_cold
    for result in warm:
        assert result.report.verified
        assert result.digest == cold.digest
        assert result.report.bounds == cold.report.bounds
        assert result.report.classes == cold.report.classes


def test_threads_sharing_the_memo_see_the_sequential_prefix(fresh_memo):
    """12 threads on 2 cores race cold misses on the same keys with a
    tiny switch interval: every prefix they read equals the sequential
    one, and each key keeps one memo entry."""
    names = ["random-bmmc", "random-mld", "gray", "bit-reversal"]

    def prefix(name):
        perm = make_permutation(name, G, seed=9)
        classes = classify_module.classify(perm, G)
        bounds = runner._bound_table(G, perm, classes)
        return perm.matrix, perm.complement, classes, bounds

    expected = {name: prefix(name) for name in names}
    requests._memoized_permutation.cache_clear()
    seen, errors = [], []
    start = threading.Barrier(12)

    def worker(offset):
        try:
            start.wait(timeout=10)
            for i in range(40):
                name = names[(offset + i) % len(names)]
                seen.append((name, prefix(name)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(seen) == 12 * 40
    assert all(got == expected[name] for name, got in seen)
    assert requests._memoized_permutation.cache_info().currsize == len(names)


def test_random_requests_are_never_memoized(fresh_memo):
    first = make_permutation("random", G, seed=1)
    again = make_permutation("random", G, seed=1)
    assert first is not again
    assert np.array_equal(first.target_vector(), again.target_vector())
    results = run_sequential(G, [PermutationRequest(perm="random", method="distribution")] * 2)
    assert all(r.report.verified for r in results)
    assert requests._memoized_permutation.cache_info().currsize == 0


def test_a_list_seed_is_built_but_not_memoized(fresh_memo):
    request = PermutationRequest(perm="random-mld", method="mld", seed=[1, 2])
    assert run_sequential(G, [request])[0].report.verified
    assert make_permutation("random-mld", G, seed=[1, 2]) is not make_permutation(
        "random-mld", G, seed=[1, 2]
    )
    assert requests._memoized_permutation.cache_info().currsize == 0


def _largest_array(obj, seen=None) -> int:
    """Size of the largest numpy array reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return 0
    return max((_largest_array(child, seen) for child in children), default=0)


def test_memoized_permutations_hold_no_n_sized_array(fresh_memo):
    g = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**9)
    mix = synthetic_mix(6, capture_portion=True)
    results = run_sequential(g, mix, cache=PlanCache())
    assert all(r.report.verified for r in results)
    assert requests._memoized_permutation.cache_info().currsize == len(mix)
    for request in mix:
        perm = make_permutation(request.perm, g, seed=request.seed)
        assert perm._memo, request.perm  # classified and bounded, and kept
        assert _largest_array(perm) < g.N, request.perm


# --------------------------------------------------------------------------
# the digest is hashed in place
# --------------------------------------------------------------------------

WARM_GEOMETRY = DiskGeometry(N=2**20, B=2**4, D=2**3, M=2**11)
WARM_KEYS = [("random-mld", "mld"), ("random-mrc", "mrc"),
             ("random-bmmc", "bmmc"), ("bit-reversal", "auto")]


@pytest.mark.parametrize(
    "geometry,request_",
    [(WARM_GEOMETRY, PermutationRequest(perm=p, method=m, capture_portion=True))
     for p, m in WARM_KEYS]
    + [(G, r) for r in synthetic_mix(6, capture_portion=True)],
    ids=[f"2e20-{p}" for p, _ in WARM_KEYS] + [f"mix-{r.perm}" for r in synthetic_mix(6)],
)
def test_the_in_place_digest_is_the_copy_digest(geometry, request_):
    system = ParallelDiskSystem(geometry)
    report, digest = _execute_request(system, request_, cache=None)
    assert report.verified
    copied = system.portion_values(report.final_portion).tobytes()
    assert digest == hashlib.sha256(copied).hexdigest()
