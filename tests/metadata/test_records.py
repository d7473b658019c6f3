"""Tests for dataset and processing records."""

import pytest

from repro.metadata import DatasetRecord, MetadataError, ProcessingRecord


def _dataset(**kwargs):
    defaults = dict(
        dataset_id="d1",
        project="p",
        url="adal://lsdf/x",
        size=100,
        checksum="abc",
        created=0.0,
        basic={"plate": 1},
    )
    defaults.update(kwargs)
    return DatasetRecord(**defaults)


def _step(step_id="s1", name="segment", parent=None, status="success"):
    return ProcessingRecord(
        step_id=step_id, name=name, params={"alg": "otsu"}, results={"cells": 3},
        started=0.0, finished=1.0, status=status, parent=parent,
    )


class TestProcessingRecord:
    def test_bad_status_rejected(self):
        with pytest.raises(MetadataError):
            _step(status="maybe")

    def test_times_must_be_ordered(self):
        with pytest.raises(MetadataError):
            ProcessingRecord("s", "n", {}, {}, started=2.0, finished=1.0)

    def test_params_results_frozen(self):
        step = _step()
        with pytest.raises(TypeError):
            step.params["alg"] = "other"
        with pytest.raises(TypeError):
            step.results["cells"] = 9

    def test_round_trip(self):
        step = _step(parent="s0")
        restored = ProcessingRecord.from_dict(step.to_dict())
        assert restored.step_id == step.step_id
        assert restored.parent == "s0"
        assert dict(restored.results) == {"cells": 3}


class TestDatasetRecord:
    def test_records_without_steps_share_one_empty_chain(self):
        assert _dataset().processing is _dataset(dataset_id="d2").processing
        assert _dataset().processing == ()
        restored = DatasetRecord.from_dict(_dataset().to_dict())
        assert restored.processing is _dataset().processing

    def test_basic_frozen(self):
        record = _dataset()
        with pytest.raises(TypeError):
            record.basic["plate"] = 2

    def test_step_lookup(self):
        record = _dataset(processing=(_step("s1"),))
        assert record.step("s1").name == "segment"
        with pytest.raises(KeyError):
            record.step("ghost")

    def test_chain_follows_parents(self):
        record = _dataset(processing=(
            _step("s1"), _step("s2", "count", parent="s1"),
            _step("s3", "stats", parent="s2")))
        chain = record.chain("s3")
        assert [s.step_id for s in chain] == ["s1", "s2", "s3"]

    def test_chain_cycle_detected(self):
        record = _dataset(processing=(_step("s1", parent="s2"),
                                      _step("s2", parent="s1")))
        with pytest.raises(MetadataError, match="cycle"):
            record.chain("s2")

    def test_latest_result_prefers_recent_success(self):
        record = _dataset(processing=(
            _step("s1", "segment"),
            _step("s2", "segment", status="failed"),
        ))
        assert record.latest_result("segment").step_id == "s1"
        assert record.latest_result("missing") is None

    def test_round_trip_with_chain_and_tags(self):
        record = _dataset(tags={"raw", "qc"}, processing=(_step("s1"),))
        restored = DatasetRecord.from_dict(record.to_dict())
        assert restored.tags == {"raw", "qc"}
        assert restored.processing[0].step_id == "s1"
        assert dict(restored.basic) == {"plate": 1}
