"""The persistent proving service (``groth16-service``)."""

from __future__ import annotations

from repro.zksnark import Groth16Backend
from repro.zksnark.backend import get_backend
from repro.zksnark.service import ProvingService

from tests.zksnark.test_differential import ProductCircuit


class TestProvingService:
    def test_registered_as_backend(self) -> None:
        service = get_backend("groth16-service")
        assert isinstance(service, ProvingService)

    def test_setup_is_warm_cached_by_digest(self) -> None:
        service = ProvingService(Groth16Backend(optimized=True, jobs=1))
        first = service.setup(ProductCircuit(), seed=b"svc-test")
        # A *different* circuit object with the same structure hits the
        # same cache entry: keying is by digest, not object identity.
        second = service.setup(ProductCircuit(), seed=b"other-seed")
        assert first is second
        assert len(service.warmed_digests()) == 1

    def test_prove_verify_through_service(self) -> None:
        service = ProvingService(Groth16Backend(optimized=True, jobs=1))
        circuit = ProductCircuit()
        keys = service.warm(circuit, seed=b"svc-prove")
        instance = {"out": 35, "a": 5, "b": 7}
        proof = service.prove(keys.proving_key, circuit, instance)
        assert service.verify(keys.verifying_key, [35, 5], proof) is True
        assert service.verify(keys.verifying_key, [36, 5], proof) is False

    def test_prove_many_serial_path_and_key_adoption(self) -> None:
        service = ProvingService(Groth16Backend(optimized=True, jobs=1), jobs=1)
        circuit = ProductCircuit()
        # Keys set up OUTSIDE the service get adopted into the warm cache.
        external = Groth16Backend(optimized=True).setup(circuit, seed=b"ext")
        requests = [
            (external.proving_key, circuit, {"out": 6, "a": 2, "b": 3}),
            (external.proving_key, circuit, {"out": 35, "a": 5, "b": 7}),
        ]
        proofs = service.prove_many(requests)
        assert len(proofs) == 2
        assert service.verify(external.verifying_key, [6, 2], proofs[0])
        assert service.verify(external.verifying_key, [35, 5], proofs[1])
        assert len(service.warmed_digests()) == 1

    def test_prove_many_empty(self) -> None:
        service = ProvingService(Groth16Backend(optimized=True, jobs=1))
        assert service.prove_many([]) == []

    def test_batch_verify_delegates(self) -> None:
        service = ProvingService(Groth16Backend(optimized=True, jobs=1))
        circuit = ProductCircuit()
        keys = service.warm(circuit, seed=b"svc-batch")
        instances = [
            {"out": 6, "a": 2, "b": 3},
            {"out": 35, "a": 5, "b": 7},
        ]
        proofs = [
            service.prove(keys.proving_key, circuit, inst) for inst in instances
        ]
        statements = [[6, 2], [35, 5]]
        assert service.batch_verify(keys.verifying_key, statements, proofs) is True
        assert (
            service.batch_verify(keys.verifying_key, [[6, 2], [34, 5]], proofs)
            is False
        )

    def test_close_is_idempotent(self) -> None:
        with ProvingService(Groth16Backend(optimized=True, jobs=1)) as service:
            service.close()
        service.close()
