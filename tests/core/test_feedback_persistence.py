"""Tests for feedback-store persistence and the CLI entry points."""

import json
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FeedbackError
from repro.core import feedback as feedback_module
from repro.core.feedback import FeedbackStore
from repro.optimizer import InjectionSet
from repro.core.requests import (
    AccessPathRequest,
    Mechanism,
    PageCountObservation,
)
from repro.sql import Comparison, conjunction_of


def observation(column, estimate, exact=True):
    return PageCountObservation(
        request=AccessPathRequest("t", conjunction_of(Comparison(column, "<", 9))),
        mechanism=Mechanism.EXACT_SCAN_COUNT if exact else Mechanism.DPSAMPLE,
        estimate=estimate,
        exact=exact,
    )


class TestPersistence:
    def make_store(self):
        store = FeedbackStore()
        store.record_observations(
            [observation("a", 12.0), observation("b", 7.5, exact=False)]
        )
        store.record_cardinality("CARD(t, a < 9)", 500.0)
        return store

    def test_json_roundtrip(self):
        store = self.make_store()
        clone = FeedbackStore.from_json(store.to_json())
        assert clone.keys() == store.keys()
        for key in store.keys():
            original, copied = store.record(key), clone.record(key)
            assert copied.page_count == original.page_count
            assert copied.page_count_exact == original.page_count_exact
            assert copied.cardinality == original.cardinality

    def test_file_roundtrip(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "feedback.json"
        store.save(path)
        loaded = FeedbackStore.load(path)
        assert loaded.keys() == store.keys()

    def test_roundtrip_preserves_injections(self):
        store = self.make_store()
        clone = FeedbackStore.from_json(store.to_json())
        key = observation("a", 0).key
        assert (
            clone.to_injections()._page_counts[key]
            == store.to_injections()._page_counts[key]
        )

    def test_recency_survives_roundtrip(self):
        store = self.make_store()
        clone = FeedbackStore.from_json(store.to_json())
        # New feedback recorded after loading still beats the old record.
        clone.record_observations([observation("a", 99.0)])
        assert clone.record(observation("a", 0).key).page_count == 99.0

    def test_bad_json_rejected(self):
        with pytest.raises(FeedbackError):
            FeedbackStore.from_json("not json at all")

    def test_wrong_version_rejected(self):
        with pytest.raises(FeedbackError):
            FeedbackStore.from_json('{"version": 99}')

    def test_non_dict_payload_rejected(self):
        with pytest.raises(FeedbackError):
            FeedbackStore.from_json('[1, 2, 3]')

    def test_records_must_be_a_list(self):
        with pytest.raises(FeedbackError, match="must be a list"):
            FeedbackStore.from_json('{"version": 1, "records": {"key": "x"}}')

    def test_record_missing_key_rejected(self):
        with pytest.raises(FeedbackError, match="missing 'key'"):
            FeedbackStore.from_json(
                '{"version": 1, "records": [{"page_count": 4.0}]}'
            )

    def test_non_dict_record_rejected(self):
        with pytest.raises(FeedbackError, match="missing 'key'"):
            FeedbackStore.from_json('{"version": 1, "records": ["DPC(t, a)"]}')

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "feedback.json"
        path.write_text('{"version": 1, "records": [{}]}', encoding="utf-8")
        with pytest.raises(FeedbackError):
            FeedbackStore.load(path)

    def test_save_keeps_file_mode(self, tmp_path):
        path = tmp_path / "feedback.json"
        umask = os.umask(0o027)
        try:
            self.make_store().save(path)
        finally:
            os.umask(umask)
        # A new file gets 0o666 less the umask, as an in-place write would.
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        path.chmod(0o604)
        self.make_store().save(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o604

    def test_crash_mid_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "feedback.json"
        self.make_store().save(path)
        path.chmod(0o644)
        before = path.read_text(encoding="utf-8")

        real_fdopen = feedback_module.os.fdopen

        class CrashingStream:
            """Writes half the payload, then fails like a full disk."""

            def __init__(self, stream):
                self._stream = stream

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._stream.close()

            def fileno(self):
                return self._stream.fileno()

            def write(self, text):
                self._stream.write(text[: len(text) // 2])
                self._stream.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(
            feedback_module.os,
            "fdopen",
            lambda *args, **kwargs: CrashingStream(real_fdopen(*args, **kwargs)),
        )
        bigger = self.make_store()
        bigger.record_cardinality("CARD(t, b < 9)", 77.0)
        with pytest.raises(OSError, match="No space"):
            bigger.save(path)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == before
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert FeedbackStore.load(path).keys() == self.make_store().keys()
        assert [p.name for p in tmp_path.iterdir()] == ["feedback.json"]
        bigger.save(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "feedback.json"
        FeedbackStore().save(path)
        store = self.make_store()
        store.save(path)
        assert FeedbackStore.load(path).keys() == store.keys()
        assert [p.name for p in tmp_path.iterdir()] == ["feedback.json"]

    @pytest.mark.parametrize(
        "record",
        [
            {"key": 5},
            {"key": "DPC(t, a < 9)", "page_count": "12"},
            {"key": "DPC(t, a < 9)", "page_count": float("nan")},
            {"key": "DPC(t, a < 9)", "page_count": -1},
            {"key": "DPC(t, a < 9)", "sequence": "x"},
            {"key": "DPC(t, a < 9)", "sequence": 1.5},
            {"key": "DPC(t, a < 9)", "partial": "no"},
            {"key": "DPC(t, a < 9)", "mechanism": 3},
            {"key": "DPC(t, a < 9)", "cardinality": 10**400},
        ],
    )
    def test_mistyped_record_field_rejected(self, record):
        payload = {"version": 1, "sequence": 1, "records": [record]}
        with pytest.raises(FeedbackError):
            FeedbackStore.from_json(json.dumps(payload))

class TestLoweringOntoBase:
    def test_to_injections_layers_onto_non_empty_base(self):
        store = FeedbackStore()
        store.record_observations([observation("a", 12.0)])
        feedback_key = observation("a", 0).key

        base = InjectionSet()
        base.inject_page_count_by_key("DPC(t, base_only)", 3.0)
        base.inject_page_count_by_key(feedback_key, 999.0)

        merged = store.to_injections(base)
        # Mutates and returns the base set...
        assert merged is base
        # ...keeping base-only entries and letting feedback win conflicts.
        assert merged._page_counts["DPC(t, base_only)"] == 3.0
        assert merged._page_counts[feedback_key] == 12.0

    def test_base_mutation_does_not_poison_the_memo(self):
        store = FeedbackStore()
        store.record_observations([observation("a", 12.0)])
        base = InjectionSet()
        base.inject_page_count_by_key("DPC(t, base_only)", 3.0)
        store.to_injections(base)
        # A later bare lowering must not contain the base's entries.
        assert "DPC(t, base_only)" not in store.to_injections()._page_counts


class TestCli:
    def test_inventory_command(self, capsys):
        from repro.__main__ import main

        assert main(["inventory", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "TABLE I" in output and "synthetic" in output

    def test_explain_command(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "explain",
                "SELECT count(padding) FROM t WHERE c2 < 300",
                "--rows",
                "5000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SeqScan" in output and "IndexSeek" in output

    def test_figures_unknown_name(self, capsys):
        from repro.__main__ import main

        assert main(["figures", "fig99"]) == 2

    def test_diagnose_command_with_feedback(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "fb.json"
        code = main(
            [
                "diagnose",
                "SELECT count(padding) FROM t WHERE c2 < 300",
                "--rows",
                "8000",
                "--feedback",
                str(path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "distinct page counts" in output
        assert path.exists()
        assert len(FeedbackStore.load(path)) >= 1


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.sampled_from(["DPC(t, a < 9)", "CARD(t, b < 3)", "DPC(t1, c2 = 4)"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
_field_names = st.sampled_from(
    [
        "key",
        "page_count",
        "page_count_exact",
        "cardinality",
        "mechanism",
        "sequence",
        "partial",
    ]
)
_payloads = st.one_of(
    _json_values,
    st.fixed_dictionaries(
        {
            "version": st.one_of(st.just(1), _json_scalars),
            "sequence": st.one_of(st.integers(0, 50), _json_scalars),
            "records": st.one_of(
                st.lists(
                    st.one_of(
                        st.dictionaries(_field_names, _json_scalars, max_size=7),
                        _json_values,
                    ),
                    max_size=5,
                ),
                _json_values,
            ),
        }
    ),
)


class TestFuzzedLoad:
    """Any JSON either loads into a store that round-trips exactly, or is
    refused with :class:`FeedbackError` — never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(payload=_payloads)
    def test_load_round_trips_or_raises_feedback_error(self, payload):
        text = json.dumps(payload)
        try:
            store = FeedbackStore.from_json(text)
        except FeedbackError:
            return
        serialized = store.to_json()
        assert FeedbackStore.from_json(serialized).to_json() == serialized

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=40))
    def test_arbitrary_text_loads_or_raises_feedback_error(self, text):
        try:
            store = FeedbackStore.from_json(text)
        except FeedbackError:
            return
        assert FeedbackStore.from_json(store.to_json()).to_json() == store.to_json()
