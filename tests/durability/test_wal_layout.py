"""The ``register_dataset`` WAL record layout, and what never reaches the log.

A registration is checked in full before it is logged, and its WAL record
carries the validated record's canonical encoding (``"processing": []``
included), the same bytes a checkpoint reuses.  A log written in the
earlier layout (the raw call arguments, and rejected registrations logged
before they failed) must still recover to the same state.
"""

import pytest

from repro.durability import (
    DurableMetadataStore,
    MemoryWalStorage,
    WriteAheadLog,
)
from repro.metadata.errors import (
    SchemaError,
    UnknownProjectError,
    WriteOnceError,
)
from repro.metadata.schema import FieldSpec, Schema
from repro.workloads.zebrafish import zebrafish_basic_schema

#: A log in the earlier ``register_dataset`` layout: register_project,
#: register d0, a duplicate d0 that was logged and then rejected, d1
#: through register_batch, then a tag on d1.
_EARLIER_LAYOUT_WAL = (
    b'm\x01\x00\x00\xa7\x9aQo{"args": {"basic_schema": {"allow_extra": fa'
    b'lse, "fields": [{"choices": null, "default": null, "'
    b'doc": "", "name": "sample", "required": false, "type'
    b'": "str"}, {"choices": null, "default": null, "doc":'
    b' "", "name": "n", "required": false, "type": "int"}]'
    b', "name": "basic", "version": 1}, "name": "zebra", "'
    b'processing_schemas": {}}, "op": "register_project", '
    b'"seq": 1}\xd3\x00\x00\x00\xd1\xef\xd8N{"args": {"basic": {"n": 0, "sample'
    b'": "s0"}, "checksum": "sum0", "created": 1.0, "datas'
    b'et_id": "d0", "project": "zebra", "size": 10, "tags"'
    b': ["raw"], "url": "adal://lsdf/d0"}, "op": "register'
    b'_dataset", "seq": 2}\xc8\x00\x00\x00_\x1c\xa7({"args": {"basic": {"n":'
    b' 9, "sample": "x"}, "checksum": "x", "created": 0.0,'
    b' "dataset_id": "d0", "project": "zebra", "size": 1, '
    b'"tags": [], "url": "adal://lsdf/x"}, "op": "register'
    b'_dataset", "seq": 3}\xce\x00\x00\x00\xbf\xa2P\x06{"args": {"basic": {"n":'
    b' 1, "sample": "s1"}, "checksum": "sum1", "created": '
    b'2.0, "dataset_id": "d1", "project": "zebra", "size":'
    b' 11, "tags": [], "url": "adal://lsdf/d1"}, "op": "re'
    b'gister_dataset", "seq": 4}E\x00\x00\x00\x99\r*o{"args": {"dataset'
    b'_id": "d1", "tags": ["qc"]}, "op": "tag", "seq": 5}'
)


def _schema():
    return Schema("basic", [FieldSpec("sample", "str"), FieldSpec("n", "int")])


def _log_the_same_operations(store):
    store.register_project("zebra", _schema())
    store.register_dataset("d0", "zebra", "adal://lsdf/d0", 10, "sum0",
                           {"sample": "s0", "n": 0}, created=1.0,
                           tags=["raw"])
    with pytest.raises(WriteOnceError):
        store.register_dataset("d0", "zebra", "adal://lsdf/x", 1, "x",
                               {"sample": "x", "n": 9})
    store.register_batch([{
        "dataset_id": "d1", "project": "zebra", "url": "adal://lsdf/d1",
        "size": 11, "checksum": "sum1", "basic": {"sample": "s1", "n": 1},
        "created": 2.0}])
    store.tag("d1", "qc")


def _recovered(medium):
    store = DurableMetadataStore(WriteAheadLog(medium))
    store.recover()
    return store


def test_earlier_layout_recovers_to_the_same_state():
    earlier = MemoryWalStorage()
    earlier.append(_EARLIER_LAYOUT_WAL)
    live = DurableMetadataStore()
    _log_the_same_operations(live)
    assert live.wal.appended == 4  # the duplicate was never logged
    assert live.wal.storage.read() != _EARLIER_LAYOUT_WAL
    assert (_recovered(earlier).state_bytes()
            == _recovered(live.wal.storage).state_bytes()
            == live.state_bytes())


def test_register_record_carries_the_validated_record():
    store = DurableMetadataStore(snapshot_every=100)
    store.register_project("zf", zebrafish_basic_schema())
    record = store.register_dataset("f0", "zf", "adal://lsdf/f0", 4, "c",
                                    {"plate": 1, "well": "A01"})
    logged = store.wal.replay().records[-1].args
    assert logged == record.to_dict()
    assert logged["basic"]["microscope"] == "scanR"  # the filled default
    assert logged["processing"] == []
    assert _recovered(store.wal.storage).state_bytes() == store.state_bytes()


_REJECTED = [
    (WriteOnceError, dict(dataset_id="d0")),
    (UnknownProjectError, dict(project="nope")),
    (SchemaError, dict(basic={"sample": 3, "n": 0})),
]


def _item(**overrides):
    item = {"dataset_id": "new", "project": "zebra",
            "url": "adal://lsdf/new", "size": 1, "checksum": "c",
            "basic": {"sample": "s", "n": 0}, "created": 5.0, "tags": ()}
    item.update(overrides)
    return item


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("error,overrides", _REJECTED,
                         ids=["write-once", "unknown-project", "schema"])
def test_rejected_registration_never_reaches_the_wal(error, overrides,
                                                     batched):
    store = DurableMetadataStore(snapshot_every=3)
    store.register_project("zebra", _schema())
    store.register_dataset(**_item(dataset_id="d0"))
    before = (store.wal.size_bytes, store.wal.appended,
              store._appends_since_snapshot, store.snapshots,
              store.state_bytes())
    with pytest.raises(error):
        if batched:
            store.register_batch([_item(dataset_id="ok"), _item(**overrides)])
        else:
            store.register_dataset(**_item(**overrides))
    assert (store.wal.size_bytes, store.wal.appended,
            store._appends_since_snapshot, store.snapshots,
            store.state_bytes()) == before
