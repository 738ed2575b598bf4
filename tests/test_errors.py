"""The unified error taxonomy: stable codes + to_dict() payloads (PR 7).

Every ``repro`` error derives from :class:`ReproError`, carries a
stable kebab-case ``code`` (the wire identifier — it must survive
Python-class renames), and serializes through ``to_dict()`` in the same
shape the result-store records use.
"""

import json

import pytest

from repro import errors
from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    MemoryFault,
    ReproError,
    RuntimeError_,
    ServiceBackpressure,
    TableIntegrityError,
)


def _error_classes():
    # dedupe by identity: an alias (CompileError -> TinyCError) is the
    # same definition, not a sibling declaration
    seen = []
    for obj in vars(errors).values():
        if isinstance(obj, type) and issubclass(obj, ReproError) \
                and obj not in seen:
            seen.append(obj)
    return seen


class TestTaxonomy:
    def test_every_error_class_has_a_stable_code(self):
        for cls in _error_classes():
            assert isinstance(cls.code, str) and cls.code, cls
            # kebab-case, machine-matchable
            assert cls.code == cls.code.lower()
            assert " " not in cls.code and "_" not in cls.code

    def test_codes_are_unique_per_concrete_class(self):
        # Abstract bases share their code downward until a subclass
        # overrides it, but no two *sibling* definitions may collide:
        # every class that declares a code declares a distinct one.
        declared = {}
        for cls in _error_classes():
            if "code" in vars(cls):
                assert vars(cls)["code"] not in declared.values(), cls
                declared[cls.__name__] = vars(cls)["code"]
        assert declared["ReproError"] == "repro-error"

    def test_service_errors_inherit_the_common_base(self):
        for cls in (ServiceBackpressure, TableIntegrityError,
                    DeadlineExceeded):
            assert issubclass(cls, RuntimeError_)
            assert issubclass(cls, ReproError)

    def test_base_to_dict_shape(self):
        err = ReproError("boom")
        assert err.to_dict() == {
            "code": "repro-error", "type": "ReproError",
            "message": "boom"}


class TestPayloads:
    def test_backpressure_payload(self):
        err = ServiceBackpressure(pending=7, limit=8)
        payload = err.to_dict()
        assert payload["code"] == "service-backpressure"
        assert payload["pending"] == 7 and payload["limit"] == 8

    def test_table_integrity_payload(self):
        err = TableIntegrityError("corrupt", index=3, retries=4096)
        payload = err.to_dict()
        assert payload["code"] == "table-integrity"
        assert payload["index"] == 3 and payload["retries"] == 4096

    def test_deadline_payload(self):
        err = DeadlineExceeded("tenant3/5", deadline_tick=900,
                               now_tick=1024)
        payload = err.to_dict()
        assert payload["code"] == "deadline-exceeded"
        assert payload["request_id"] == "tenant3/5"
        assert payload["deadline_tick"] == 900
        assert payload["now_tick"] == 1024

    def test_injected_fault_payload(self):
        err = InjectedFault("service.commit", "shard1")
        payload = err.to_dict()
        assert payload["code"] == "injected-fault"
        assert payload["point"] == "service.commit"
        assert payload["detail"] == "shard1"

    @pytest.mark.parametrize("err", [
        ServiceBackpressure(1, 2),
        TableIntegrityError("x", index=0, retries=1),
        MemoryFault(0x40, "write", "outside Tary table"),
        DeadlineExceeded("t/0", 10, 20),
        InjectedFault("p", "d"),
    ])
    def test_payloads_are_json_serializable(self, err):
        line = json.dumps(err.to_dict(), sort_keys=True)
        assert json.loads(line)["code"] == err.code
