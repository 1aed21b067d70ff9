"""Section 5 crypto-cost calibration: real RSA-512 and ring signatures.

The paper charges 0.5 ms per public-key encryption and 8.5 ms per
decryption (2005-era portable CPU).  These benchmarks measure our actual
primitives so the calibrated cost model can be compared against real
numbers on modern hardware; the *ratio* (decrypt >> encrypt) is the
protocol-relevant shape and is asserted.

The crypto fast path (PR 3) adds cached-vs-uncached pairs: the repeated
hello-verify workload (one ring-signed hello heard by 10 receivers) and
the last-hop-region trapdoor-open workload (10 nodes attempting one
trapdoor), plus the CRT precompute-vs-recompute micro-benchmark.  The
derived ratios land in ``benchmarks/BENCH_crypto.json`` via
``bench_to_json.py`` and are floor-tested in
``tests/test_crypto_cache.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aant import AantAuthenticator
from repro.core.config import AantConfig
from repro.core.trapdoor import TrapdoorContents, TrapdoorFactory
from repro.crypto.cache import reset_caches
from repro.crypto.certificates import CertificateAuthority, KeyStore
from repro.crypto.ring_signature import ring_sign, ring_verify
from repro.crypto.rsa import generate_keypair
from repro.geo.vec import Position

_rng = random.Random(42)
_key = generate_keypair(512, _rng)
_pub = _key.public()
_plain = b"src-identity|location|ts"
_cipher = _pub.encrypt(_plain, rng=_rng)
_ring_keys = [generate_keypair(512, _rng) for _ in range(5)]
_ring = [k.public() for k in _ring_keys]
_ring_sig = ring_sign(b"hello", _ring, 2, _ring_keys[2], _rng)

_measured: dict[str, float] = {}


def _record(benchmark, name: str) -> None:
    _measured[name] = benchmark.stats.stats.mean
    benchmark.extra_info["paper_reference_ms"] = {
        "pk_encrypt": 0.5,
        "pk_decrypt": 8.5,
    }


@pytest.mark.benchmark(group="crypto")
def test_rsa512_encrypt(benchmark):
    benchmark(lambda: _pub.encrypt(_plain, rng=_rng))
    _record(benchmark, "encrypt")


@pytest.mark.benchmark(group="crypto")
def test_rsa512_decrypt(benchmark):
    benchmark(lambda: _key.decrypt(_cipher))
    _record(benchmark, "decrypt")
    # The asymmetry the protocol design exploits (open only in the
    # last-hop region): private-key ops cost much more than public-key ops.
    if "encrypt" in _measured:
        assert _measured["decrypt"] > 2 * _measured["encrypt"]
    # Printed, not written under results/: these are this machine's
    # timings, not a regenerated table (visible with ``-s``).
    print(
        "\n[crypto_costs]\nRSA-512 measured vs paper (2005 hardware)\n"
        f"encrypt: {_measured.get('encrypt', 0) * 1000:.4f} ms (paper 0.5 ms)\n"
        f"decrypt: {_measured.get('decrypt', 0) * 1000:.4f} ms (paper 8.5 ms)"
    )


@pytest.mark.benchmark(group="crypto")
def test_rsa512_sign(benchmark):
    benchmark(lambda: _key.sign(b"message"))


@pytest.mark.benchmark(group="crypto")
def test_rsa512_verify(benchmark):
    signature = _key.sign(b"message")
    benchmark(lambda: _pub.verify(b"message", signature))


@pytest.mark.benchmark(group="crypto")
def test_rsa512_keygen(benchmark):
    keygen_rng = random.Random(7)
    benchmark.pedantic(lambda: generate_keypair(512, keygen_rng), rounds=3, iterations=1)


@pytest.mark.benchmark(group="crypto")
def test_ring_sign_k4(benchmark):
    benchmark(lambda: ring_sign(b"hello", _ring, 2, _ring_keys[2], _rng))


@pytest.mark.benchmark(group="crypto")
def test_ring_verify_k4(benchmark):
    result = benchmark(lambda: ring_verify(b"hello", _ring, _ring_sig))
    assert result


@pytest.mark.benchmark(group="crypto")
def test_trapdoor_seal_and_open_real(benchmark):
    factory = TrapdoorFactory("real", rng=_rng, memoize=False)
    contents = TrapdoorContents("node-1", Position(10, 20), 1.0)

    def roundtrip():
        trapdoor, _ = factory.seal("dest", _pub, contents)
        opened, _ = factory.try_open(trapdoor, "dest", _key)
        return opened

    assert benchmark(roundtrip) is not None


# ---------------------------------------------------------------------------
# Crypto fast path: cached vs uncached (PR 3)
# ---------------------------------------------------------------------------
# One PKI shared by all fast-path benchmarks: a CA, 11 enrolled nodes
# (1 signer + 10 receivers), everyone's certificate pre-shared.
_fp_rng = random.Random(2025)
_ca = CertificateAuthority(rng=_fp_rng)
_stores: list[KeyStore] = []
for _i in range(11):
    _node_key, _node_cert = _ca.enroll(f"node-{_i}")
    _stores.append(KeyStore(f"node-{_i}", _node_key, _node_cert))
for _store in _stores:
    _store.add_all(s.certificate for s in _stores)

_RING_K = 4  # 4 decoys + signer = ring size 5 (the acceptance workload)
_signer = AantAuthenticator(
    AantConfig(ring_size=_RING_K), mode="real",
    keystore=_stores[0], ca=_ca, rng=_fp_rng,
)
_hello_args = (b"\x0a" * 6, Position(100.0, 50.0), 7.0)
_attachment, _ = _signer.sign_hello(*_hello_args)

_sealed_contents = TrapdoorContents("node-0", Position(100.0, 50.0), 7.0)
_sealer = TrapdoorFactory("real", rng=_fp_rng, memoize=False)
_region_trapdoor, _ = _sealer.seal(
    "node-5", _stores[5].certificate.public_key, _sealed_contents
)


def _receivers(memoize: bool) -> list[AantAuthenticator]:
    return [
        AantAuthenticator(
            AantConfig(ring_size=_RING_K), mode="real",
            keystore=_stores[i], ca=_ca, memoize=memoize,
        )
        for i in range(1, 11)
    ]


@pytest.mark.benchmark(group="crypto-fast-path")
@pytest.mark.parametrize("memoize", [False, True], ids=["off", "on"])
def test_hello_verify_ring5_10_receivers(benchmark, memoize):
    """The broadcast-verify hot path: one ring-signed hello (ring size 5)
    verified by 10 distinct receivers.  'off' recomputes 10x(5 cert
    verifies + 1 ring verify); 'on' collapses them to memo lookups after
    the first receiver.  Charged virtual-time delays are identical either
    way — only the wall clock changes, which is what this pair measures."""
    reset_caches()
    _ca.memoize = memoize
    verifiers = _receivers(memoize)

    def verify_all() -> int:
        valid_count = 0
        for verifier in verifiers:
            valid, _delay = verifier.verify_hello(_attachment, *_hello_args)
            valid_count += valid
        return valid_count

    try:
        assert benchmark(verify_all) == 10
    finally:
        _ca.memoize = True


@pytest.mark.benchmark(group="crypto-fast-path")
@pytest.mark.parametrize("memoize", [False, True], ids=["off", "on"])
def test_trapdoor_open_region10(benchmark, memoize):
    """The last-hop-region open: 10 nodes attempt the same trapdoor (9
    negative opens + the destination).  Negative results memoize too —
    the common case the paper's 8.5 ms decrypt charge exists for."""
    reset_caches()
    factory = TrapdoorFactory("real", rng=_fp_rng, memoize=memoize)

    def open_region() -> int:
        opened = 0
        for i in range(1, 11):
            contents, _delay = factory.try_open(
                _region_trapdoor, f"node-{i}", _stores[i].private_key
            )
            opened += contents is not None
        return opened

    assert benchmark(open_region) == 1


def _apply_recomputing_crt(key, value: int) -> int:
    """The pre-PR ``RsaPrivateKey.apply`` body: CRT parameters derived
    inside every call (kept here as the micro-benchmark's baseline)."""
    dp = key.d % (key.p - 1)
    dq = key.d % (key.q - 1)
    q_inv = pow(key.q, -1, key.p)
    m1 = pow(value % key.p, dp, key.p)
    m2 = pow(value % key.q, dq, key.q)
    h = (q_inv * (m1 - m2)) % key.p
    return m2 + h * key.q


@pytest.mark.benchmark(group="crypto-fast-path")
@pytest.mark.parametrize("variant", ["recompute", "precomputed"])
def test_rsa512_private_apply(benchmark, variant):
    """CRT hoisting micro-benchmark: one-time dp/dq/q_inv at construction
    vs the old per-call recomputation (satellite fix)."""
    value = 0x1234567890ABCDEF
    if variant == "precomputed":
        result = benchmark(lambda: _key.apply(value))
    else:
        result = benchmark(lambda: _apply_recomputing_crt(_key, value))
    assert result == pow(value, _key.d, _key.n)
