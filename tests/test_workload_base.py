"""The Workload interface contract."""

import random

import pytest

from repro import TxnSpec, Workload
from repro.partition import FootprintKeys


class TestWorkloadBase:
    def test_abstract_methods_raise(self):
        workload = Workload()
        with pytest.raises(NotImplementedError):
            workload.register(None)
        with pytest.raises(NotImplementedError):
            workload.build_partitioner(2)
        with pytest.raises(NotImplementedError):
            workload.initial_data(None)
        with pytest.raises(NotImplementedError):
            workload.generate(random.Random(1), 0, None)

    def test_cold_predicate_defaults_to_none(self):
        assert Workload().cold_predicate() is None


class TestTxnSpec:
    def test_create_normalizes_sets(self):
        spec = TxnSpec.create("p", None, ["a", "a", "b"], ["b"])
        assert spec.read_set == ("a", "b")
        assert spec.write_set == ("b",)
        assert type(spec.read_set) is type(spec.write_set) is FootprintKeys
        assert not spec.dependent

    def test_specs_hashable_and_comparable(self):
        a = TxnSpec.create("p", None, ["a"], [])
        b = TxnSpec.create("p", None, ["a"], [])
        assert a == b
        assert hash(a) == hash(b)
