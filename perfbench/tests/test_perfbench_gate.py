"""The gate's reference digest is the strict engine's digest."""

from __future__ import annotations

import pytest

from repro.pdm.geometry import DiskGeometry
from repro.serve import PermutationRequest, make_permutation, run_sequential
from repro.serve.http import result_to_dict

from perfbench import gate, workloads

GEOMETRY = DiskGeometry(N=2**10, B=8, D=4, M=2**7)


@pytest.mark.parametrize("perm, method", workloads.FAMILIES)
def test_reference_digest_equals_the_strict_engine_digest(perm, method):
    key = workloads.Key(perm, method, seed=11)
    expected = gate.reference_digest(make_permutation(perm, GEOMETRY, seed=11), GEOMETRY.N)
    assert gate.strict_digest(GEOMETRY, key) == expected


def _body(key):
    request = PermutationRequest(
        perm=key.perm, method=key.method, seed=key.seed, capture_portion=True
    )
    return result_to_dict(run_sequential(GEOMETRY, [request])[0])


@pytest.mark.parametrize("perm, method", workloads.FAMILIES)
def test_a_correct_fast_engine_response_passes(perm, method):
    key = workloads.Key(perm, method, seed=3)
    reference = gate.reference_digest(make_permutation(perm, GEOMETRY, seed=3), GEOMETRY.N)
    assert gate.check_response(_body(key), reference) == []


def test_the_gate_names_each_failure():
    key = workloads.Key("random-bmmc", "bmmc", seed=3)
    body = _body(key)
    reference = body["digest"]
    body["digest"] = "0" * 64
    body["report"]["verified"] = False
    body["report"]["parallel_ios"] = 1
    problems = " | ".join(gate.check_response(body, reference))
    assert "digest" in problems
    assert "verified" in problems
    assert "lower bound" in problems
    assert "predicted" in problems
    assert gate.check_response({"ok": False, "error": {"type": "X"}}, reference)
