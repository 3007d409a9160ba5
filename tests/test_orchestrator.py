import dataclasses
import json
import multiprocessing
import shutil
import sys
import threading
import time

import pytest

from ctivalidator import cli, features, ingest, learners, orchestrator as O
from ctivalidator.errors import ContractError, StorageError, UnknownAttributeError

from fixture_lib import (
    PLANTED_ALERT_LABELS,
    PlainRequirement,
    banded_dataset,
    noisy_dataset,
    planted_alerts,
    planted_dataset,
)


def build_model(dataset, observed, label, seed=7):
    table = ingest.select_columns(dataset, PlainRequirement(observed, label))
    report = learners.build_candidates(
        table, seed=seed, requirement_key="k")
    return learners.select_optimal(report.candidates)


class TestRequirement:
    def test_frozen_and_validated(self):
        req = O.Requirement(observed=("domain", "port"), label="attack",
                            confidence=0.8)
        assert req.observed == ("domain", "port")
        with pytest.raises(AttributeError):
            req.confidence = 0.9

    def test_empty_observed_rejected(self):
        with pytest.raises(ContractError):
            O.Requirement(observed=(), label="attack", confidence=0.5)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(UnknownAttributeError):
            O.Requirement(observed=("telepathy",), label="attack", confidence=0.5)

    def test_label_in_observed_rejected(self):
        with pytest.raises(ContractError):
            O.Requirement(observed=("attack", "port"), label="attack",
                          confidence=0.5)

    def test_duplicate_observed_rejected(self):
        with pytest.raises(ContractError):
            O.Requirement(observed=("port", "port"), label="attack",
                          confidence=0.5)

    def test_confidence_range(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ContractError):
                O.Requirement(observed=("port",), label="attack", confidence=bad)


class TestInterpret:
    def test_requirement_passthrough(self):
        req = O.Requirement(observed=("port",), label="attack", confidence=0.5)
        assert O.interpret(req) is req

    def test_json_document(self):
        doc = json.dumps({"observed": ["domain", "port"], "label": "attack",
                          "confidence": 0.7})
        req = O.interpret(doc)
        assert req.observed == ("domain", "port")
        assert req.label == "attack"
        assert req.confidence == 0.7

    def test_json_bytes_with_aliases(self):
        doc = json.dumps({"ob": "domain,port", "un": "attack",
                          "confidence": 0.6, "dataset": "ds9"}).encode()
        req = O.interpret(doc)
        assert req.observed == ("domain", "port")
        assert req.dataset_id == "ds9"

    def test_key_value_lines(self):
        text = "# alert validation request\nob: domain, port\nun: attack\nconfidence = 0.25\n"
        req = O.interpret(text)
        assert req.observed == ("domain", "port")
        assert req.confidence == 0.25

    def test_observed_set_alias(self):
        req = O.interpret({"ob": "ob3", "un": "attack", "confidence": 0.5})
        assert req.observed == ("ip_src", "asn", "owner", "country")

    def test_attribute_aliases_fold(self):
        req = O.interpret({"ob": "IP, Domain", "un": "attack", "confidence": 0.5})
        assert req.observed == ("ip_src", "domain")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(UnknownAttributeError):
            O.interpret({"ob": "clairvoyance", "un": "attack", "confidence": 0.5})

    def test_missing_label_rejected(self):
        with pytest.raises(ContractError):
            O.interpret({"ob": "domain", "confidence": 0.5})

    def test_garbage_text_rejected(self):
        with pytest.raises(ContractError):
            O.interpret("no separators here at all")


class TestRequirementKey:
    def test_order_invariant(self):
        a = O.Requirement(observed=("domain", "port"), label="attack",
                          confidence=0.5)
        b = O.Requirement(observed=("port", "domain"), label="attack",
                          confidence=0.9)
        assert O.requirement_key(a, "fp1") == O.requirement_key(b, "fp1")

    def test_tracks_dataset_fingerprint(self):
        req = O.Requirement(observed=("domain",), label="attack", confidence=0.5)
        assert O.requirement_key(req, "fp1") != O.requirement_key(req, "fp2")

    def test_tracks_label(self):
        a = O.Requirement(observed=("domain",), label="attack", confidence=0.5)
        b = O.Requirement(observed=("domain",), label="name", confidence=0.5)
        assert O.requirement_key(a, "fp") != O.requirement_key(b, "fp")


@pytest.fixture(scope="module")
def banded_model():
    return build_model(banded_dataset(), ("timestamp", "port"), "attack")


@pytest.fixture(scope="module")
def noisy_model():
    return build_model(noisy_dataset(), ("domain",), "attack")


def for_key(model, key):
    """The model as the orchestrator would build it for ``key``."""
    return dataclasses.replace(model, requirement_key=key)


def register_keys(root, model_path, prefix, n_keys, barrier):
    """Worker: open the registry, wait for the others, register n keys."""
    model = learners.TrainedModel.load(model_path)
    registry = O.ModelRegistry(root)
    barrier.wait(timeout=120)
    for i in range(n_keys):
        registry.register(f"{prefix}-{i}", for_key(model, f"{prefix}-{i}"))


class TestRegistry:
    def test_register_then_lookup(self, tmp_path, banded_model):
        reg = O.ModelRegistry(tmp_path)
        assert reg.register("key1", for_key(banded_model, "key1"))
        hit = reg.lookup("key1", confidence=0.5)
        assert hit is not None
        assert hit.f1 == banded_model.f1
        assert len(reg) == 1

    def test_survives_restart(self, tmp_path, banded_model):
        model = for_key(banded_model, "key1")
        O.ModelRegistry(tmp_path).register("key1", model)
        reopened = O.ModelRegistry(tmp_path)
        hit = reopened.lookup("key1", confidence=0.5)
        assert hit is not None
        assert hit.canonical_bytes() == model.canonical_bytes()

    def test_lookup_respects_confidence_gate(self, tmp_path, banded_model):
        reg = O.ModelRegistry(tmp_path)
        reg.register("key1", for_key(banded_model, "key1"))
        assert banded_model.f1 < 0.99
        assert reg.lookup("key1", confidence=0.99) is None
        assert reg.lookup("key1", confidence=banded_model.f1) is not None

    def test_unknown_key_misses(self, tmp_path):
        assert O.ModelRegistry(tmp_path).lookup("nope", confidence=0.1) is None

    def test_worse_candidate_refused(self, tmp_path, banded_model, noisy_model):
        reg = O.ModelRegistry(tmp_path)
        reg.register("key1", for_key(banded_model, "key1"))
        assert noisy_model.f1 < banded_model.f1
        assert not reg.register("key1", for_key(noisy_model, "key1"))
        assert reg.lookup("key1", 0.0).f1 == banded_model.f1

    def test_equal_or_better_candidate_replaces(self, tmp_path, banded_model,
                                                noisy_model):
        reg = O.ModelRegistry(tmp_path)
        reg.register("key1", for_key(noisy_model, "key1"))
        assert reg.register("key1", for_key(banded_model, "key1"))  # strictly better
        assert reg.lookup("key1", 0.0).f1 == banded_model.f1
        # equal score: last writer wins
        assert reg.register("key1", for_key(banded_model, "key1"))

    def test_separate_keys_coexist(self, tmp_path, banded_model):
        reg = O.ModelRegistry(tmp_path)
        reg.register("key1", for_key(banded_model, "key1"))
        reg.register("key2", for_key(banded_model, "key2"))
        assert len(reg) == 2
        assert {e["key"] for e in reg.entries()} == {"key1", "key2"}

    def test_below_bar_repeat_does_not_decode_an_unchanged_file(
            self, tmp_path, banded_model, monkeypatch):
        reg = O.ModelRegistry(tmp_path)
        reg.register("key1", for_key(banded_model, "key1"))
        loads = []
        load = learners.TrainedModel.load.__func__
        monkeypatch.setattr(learners.TrainedModel, "load", classmethod(
            lambda cls, path: loads.append(path) or load(cls, path)))
        # a below-bar repeat looks up twice: in validate, then before it rebuilds
        assert reg.lookup("key1", confidence=0.99) is None
        assert reg.lookup("key1", confidence=0.99) is None
        assert loads == []
        reopened = O.ModelRegistry(tmp_path)
        assert reopened.lookup("key1", confidence=0.99) is None
        assert reopened.lookup("key1", confidence=0.99) is None
        assert len(loads) == 1  # a fresh registry decodes the file once

    def test_entries_do_not_decode_models(self, tmp_path, banded_model,
                                          monkeypatch):
        reg = O.ModelRegistry(tmp_path)
        reg.register("key1", for_key(banded_model, "key1"))
        monkeypatch.setattr(learners.TrainedModel, "load", None)  # any call fails
        [entry] = reg.entries()
        assert (entry["key"], entry["f1"], entry["family"], entry["scheme"]) == (
            "key1", banded_model.f1, banded_model.family, banded_model.scheme)

    def test_register_rejects_model_built_for_another_key(self, tmp_path,
                                                          banded_model):
        reg = O.ModelRegistry(tmp_path)
        with pytest.raises(ContractError):
            reg.register("key1", for_key(banded_model, "key2"))
        assert len(reg) == 0

    def test_lookup_sees_better_model_from_another_registry(
            self, tmp_path, banded_model, noisy_model):
        a = O.ModelRegistry(tmp_path)
        a.register("key1", for_key(noisy_model, "key1"))
        assert a.lookup("key1", noisy_model.f1) is not None  # cached in a
        better = for_key(banded_model, "key1")
        assert O.ModelRegistry(tmp_path).register("key1", better)
        hit = a.lookup("key1", banded_model.f1)
        assert hit is not None
        assert hit.canonical_bytes() == better.canonical_bytes()

    def test_processes_sharing_a_root_keep_every_key(self, tmp_path,
                                                     banded_model):
        model_path = tmp_path / "model.json"
        banded_model.save(model_path)
        root = tmp_path / "registry"
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        workers = [ctx.Process(target=register_keys,
                               args=(root, model_path, prefix, 20, barrier),
                               daemon=True)
                   for prefix in ("a", "b")]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [w.exitcode for w in workers] == [0, 0]
        reopened = O.ModelRegistry(root)
        expected = {f"{p}-{i}" for p in ("a", "b") for i in range(20)}
        assert {e["key"] for e in reopened.entries()} == expected
        assert len(reopened) == 40
        assert all(reopened.lookup(key, 0.0) is not None for key in expected)

    def test_root_with_old_index_json_serves_its_models(self, tmp_path,
                                                        banded_model):
        model = for_key(banded_model, "key1")
        O.ModelRegistry(tmp_path).register("key1", model)
        [entry] = O.ModelRegistry(tmp_path).entries()
        index = {"format_version": "1", "entries": {entry["key_id"]: {
            "key": "key1", "f1": model.f1, "family": model.family,
            "scheme": model.scheme, "path": entry["path"],
            "created_at": "2026-01-01T00:00:00+00:00"}}}
        (tmp_path / "index.json").write_text(json.dumps(index))
        reopened = O.ModelRegistry(tmp_path)
        assert len(reopened) == 1
        assert [e["key"] for e in reopened.entries()] == ["key1"]
        hit = reopened.lookup("key1", confidence=0.5)
        assert hit.canonical_bytes() == model.canonical_bytes()


class TestCorruptFiles:
    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:100],
        lambda raw: b"[]",
        lambda raw: b'{"format_version": "2"}',
    ], ids=["cut", "not-an-object", "missing-fields"])
    def test_corrupt_model_file_is_a_storage_error(self, tmp_path, banded_model,
                                                   damage):
        model = for_key(banded_model, "key1")
        O.ModelRegistry(tmp_path).register("key1", model)
        [path] = tmp_path.glob("models/*/model.json")
        path.write_bytes(damage(path.read_bytes()))
        registry = O.ModelRegistry(tmp_path)
        for call in (lambda: registry.lookup("key1", confidence=0.5),
                     lambda: registry.register("key1", model),
                     registry.entries):
            with pytest.raises(StorageError, match="corrupt model file") as info:
                call()
            assert str(path) in str(info.value)


class TestModelFiles:
    def test_same_inputs_and_seed_give_byte_identical_files(self, tmp_path):
        stored = []
        for name in ("a", "b"):
            orch, registry, _ = make_orchestrator(tmp_path / name, seed=7)
            outcome = orch.build(BANDED_REQ, banded_dataset())
            assert isinstance(outcome, O.Predicted)
            [path] = registry.root.glob("models/*/model.json")
            raw = path.read_bytes()
            assert raw == outcome.model.canonical_bytes()
            stored.append(raw)
        assert stored[0] == stored[1]
        doc = json.loads(stored[0])
        assert "timing" not in doc and "dataset_fingerprint" not in doc
        assert "seed" not in json.loads(doc["encoder_spec"])

    def test_version_one_file_loads_serves_and_lists(self, tmp_path,
                                                     banded_model):
        # the older layout: indented, with wall-clock timing, a copy of the
        # dataset fingerprint and an encoder spec that carries a seed
        dataset = banded_dataset()
        key = O.requirement_key(BANDED_REQ, dataset.fingerprint)
        model = for_key(banded_model, key)
        doc = model.to_document()
        spec = json.loads(doc["encoder_spec"])
        spec["seed"] = 7
        doc.update(
            format_version="1", dataset_fingerprint=dataset.fingerprint,
            encoder_spec=json.dumps(spec, sort_keys=True, separators=(",", ":")),
            timing={"format_version": "1", "train_time": 0.5,
                    "predict_time": 0.125, "computation_time": 0.625})
        root = tmp_path / "registry"
        O.ModelRegistry(root).register(key, model)
        [path] = root.glob("models/*/model.json")
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")

        orch, registry, _ = make_orchestrator(tmp_path, seed=7)
        hit = registry.lookup(key, confidence=0.5)
        assert hit is not None and hit.timing is None
        assert hit.canonical_bytes() == model.canonical_bytes()
        assert [e["key"] for e in registry.entries()] == [key]
        rows = dataset.records[:20]
        outcome = orch.validate(BANDED_REQ, dataset, rows)
        assert isinstance(outcome, O.Predicted) and outcome.from_cache
        assert orch.stats.builds == 0
        columns = {name: [getattr(r, name) for r in rows]
                   for name in BANDED_REQ.observed}
        assert outcome.labels == tuple(model.predict_labels(
            features.transform(columns, model.encoder_spec)))

class TestNotifier:
    def test_appends_jsonl(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        notifier = O.Notifier(path)
        notifier.notify(O.SECURITY_TEAM, O.REASON_NO_DATA, "k1", "need data")
        notifier.notify(O.DATA_SCIENCE_TEAM, O.REASON_BELOW_CONFIDENCE, "k2", "low")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["channel"] == O.SECURITY_TEAM
        assert first["reason"] == O.REASON_NO_DATA
        assert first["requirement_key"] == "k1"
        assert first["created_at"].endswith("+00:00")

    def test_channel_filter(self, tmp_path):
        notifier = O.Notifier(tmp_path / "n.jsonl")
        notifier.notify(O.SECURITY_TEAM, "r", "k", "m")
        notifier.notify(O.DATA_SCIENCE_TEAM, "r", "k", "m")
        assert len(notifier.entries()) == 2
        assert len(notifier.entries(channel=O.SECURITY_TEAM)) == 1

    def test_memory_only_notifier(self):
        notifier = O.Notifier()
        notifier.notify(O.SECURITY_TEAM, "r", "k", "m")
        assert len(notifier.entries()) == 1


def make_orchestrator(tmp_path, **config):
    registry = O.ModelRegistry(tmp_path / "registry")
    notifier = O.Notifier(tmp_path / "notifications.jsonl")
    orch = O.Orchestrator(registry, notifier=notifier,
                          config=O.BuildConfig(**config))
    return orch, registry, notifier


BANDED_REQ = O.Requirement(observed=("timestamp", "port"), label="attack",
                           confidence=0.5)


class TestValidatePaths:
    def test_predicts_when_data_supports_model(self, tmp_path):
        orch, registry, notifier = make_orchestrator(tmp_path, seed=7)
        dataset = planted_dataset()
        req = O.Requirement(observed=("domain", "port"), label="attack",
                            confidence=0.9)
        outcome = orch.validate(req, dataset, planted_alerts())
        assert isinstance(outcome, O.Predicted)
        assert not outcome.from_cache
        assert tuple(outcome.labels) == PLANTED_ALERT_LABELS
        assert outcome.f1 >= 0.9
        assert len(registry) == 1
        assert notifier.entries() == []  # success notifies nobody

    def test_cache_hit_skips_rebuild(self, tmp_path):
        orch, _, _ = make_orchestrator(tmp_path, seed=7)
        dataset = banded_dataset()
        first = orch.validate(BANDED_REQ, dataset, [])
        second = orch.validate(BANDED_REQ, dataset, [])
        assert not first.from_cache
        assert second.from_cache
        assert second.model_key == first.model_key
        assert orch.stats.builds == 1
        assert orch.stats.cache_hits == 1

    def test_registry_shared_across_orchestrators(self, tmp_path):
        orch1, _, _ = make_orchestrator(tmp_path, seed=7)
        dataset = banded_dataset()
        orch1.validate(BANDED_REQ, dataset, [])
        orch2, _, _ = make_orchestrator(tmp_path, seed=7)
        again = orch2.validate(BANDED_REQ, dataset, [])
        assert again.from_cache
        assert orch2.stats.builds == 0

    def test_no_data_requests_collection(self, tmp_path):
        orch, registry, notifier = make_orchestrator(tmp_path)
        dataset = banded_dataset()  # has no file_hash column content
        req = O.Requirement(observed=("file_hash",), label="attack",
                            confidence=0.5)
        outcome = orch.validate(req, dataset, [])
        assert isinstance(outcome, O.NotApplicable)
        assert outcome.reason == O.REASON_NO_DATA
        assert isinstance(outcome.request, O.DataRequested)
        assert "file_hash" in outcome.request.missing
        channels = {n.channel for n in notifier.entries()}
        assert O.THREAT_INTEL_TEAM in channels
        assert O.SECURITY_TEAM in channels
        assert len(registry) == 0

    def test_below_confidence_withheld_and_not_stored(self, tmp_path):
        orch, registry, notifier = make_orchestrator(tmp_path, seed=7)
        dataset = noisy_dataset()  # best achievable F1 is ~0.64
        req = O.Requirement(observed=("domain",), label="attack",
                            confidence=0.9)
        outcome = orch.validate(req, dataset, [])
        assert isinstance(outcome, O.NotApplicable)
        assert outcome.reason == O.REASON_BELOW_CONFIDENCE
        assert 0.5 < outcome.best_f1 < 0.7
        assert len(registry) == 0
        channels = [n.channel for n in notifier.entries()]
        assert channels == [O.DATA_SCIENCE_TEAM]

    def test_same_data_clears_lower_bar(self, tmp_path):
        orch, registry, _ = make_orchestrator(tmp_path, seed=7)
        dataset = noisy_dataset()
        req = O.Requirement(observed=("domain",), label="attack",
                            confidence=0.5)
        outcome = orch.validate(req, dataset, [])
        assert isinstance(outcome, O.Predicted)
        assert outcome.f1 >= 0.5
        assert len(registry) == 1

    def test_all_timed_out(self, tmp_path):
        orch, registry, notifier = make_orchestrator(
            tmp_path, seed=7, budget=learners.BuildBudget(wall_clock_limit=1e-9))
        outcome = orch.validate(BANDED_REQ, banded_dataset(), [])
        assert isinstance(outcome, O.NotApplicable)
        assert outcome.reason == O.REASON_ALL_TIMED_OUT
        assert len(registry) == 0
        assert [n.channel for n in notifier.entries()] == [O.DATA_SCIENCE_TEAM]

    def test_gate_soundness_never_predicts_below_confidence(self, tmp_path):
        orch, _, _ = make_orchestrator(tmp_path, seed=7)
        dataset = noisy_dataset()
        for confidence in (0.1, 0.5, 0.66, 0.9):
            req = O.Requirement(observed=("domain",), label="attack",
                                confidence=confidence)
            outcome = orch.validate(req, dataset, [])
            if isinstance(outcome, O.Predicted):
                assert outcome.f1 >= confidence

    def test_build_without_alerts(self, tmp_path):
        orch, registry, _ = make_orchestrator(tmp_path, seed=7)
        outcome = orch.build(BANDED_REQ, banded_dataset())
        assert isinstance(outcome, O.Predicted)
        assert tuple(outcome.labels) == ()
        assert len(registry) == 1

    def test_alert_rows_accept_records_and_dicts(self, tmp_path):
        orch, _, _ = make_orchestrator(tmp_path, seed=7)
        dataset = planted_dataset()
        req = O.Requirement(observed=("domain", "port"), label="attack",
                            confidence=0.5)
        from ctivalidator.schema import CtiRecord
        rows = [CtiRecord(domain="z.credful.example.com", port=80),
                {"domain": "z.floodway.example.com", "port": "443"}]
        outcome = orch.validate(req, dataset, rows)
        assert tuple(outcome.labels) == ("phishing", "ddos")

    def test_requirement_for_another_dataset_rejected(self, tmp_path):
        orch, registry, notifier = make_orchestrator(tmp_path, seed=7)
        dataset = banded_dataset()
        other = dataclasses.replace(BANDED_REQ, dataset_id="ds9")
        with pytest.raises(ContractError, match="ds9"):
            orch.validate(other, dataset, [])
        assert orch.stats.builds == 0 and len(registry) == 0
        assert notifier.entries() == []
        same = dataclasses.replace(BANDED_REQ, dataset_id=dataset.dataset_id)
        assert isinstance(orch.validate(same, dataset, []), O.Predicted)


class TestSingleFlight:
    def test_concurrent_identical_requests_build_once(self, tmp_path):
        orch, _, _ = make_orchestrator(tmp_path, seed=7)
        dataset = banded_dataset()
        outcomes = [None] * 8
        errors = []

        def worker(i):
            try:
                outcomes[i] = orch.validate(BANDED_REQ, dataset, [])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert orch.stats.builds == 1
        assert orch.stats.flight_joins + orch.stats.cache_hits == 7
        keys = {o.model_key for o in outcomes}
        assert len(keys) == 1
        assert all(isinstance(o, O.Predicted) for o in outcomes)

    def test_request_arriving_during_register_joins_the_flight(
            self, tmp_path, monkeypatch):
        orch, _, _ = make_orchestrator(tmp_path, seed=7)
        dataset = planted_dataset(n=120)
        req = O.Requirement(observed=("domain", "port"), label="attack",
                            confidence=0.5)
        register = O.ModelRegistry.register
        threads, outcomes = [], []

        def register_after_a_second_request(registry, key, model):
            if not threads:
                thread = threading.Thread(
                    target=lambda: outcomes.append(orch.validate(req, dataset, [])))
                threads.append(thread)
                thread.start()
                # The owner still holds the flight, so the second request
                # must join it rather than build.
                deadline = time.monotonic() + 60
                while (thread.is_alive() and orch.stats.flight_joins == 0
                       and time.monotonic() < deadline):
                    thread.join(timeout=0.01)
            return register(registry, key, model)

        monkeypatch.setattr(O.ModelRegistry, "register",
                            register_after_a_second_request)
        first = orch.validate(req, dataset, [])
        [thread] = threads
        thread.join(timeout=120)
        assert not thread.is_alive()
        [second] = outcomes
        assert isinstance(first, O.Predicted) and isinstance(second, O.Predicted)
        assert second.model_key == first.model_key
        assert (orch.stats.builds, orch.stats.flight_joins) == (1, 1)


NOISY_REQ = O.Requirement(observed=("domain",), label="attack", confidence=0.9)


@pytest.fixture(scope="module")
def memo_root(tmp_path_factory):
    """A root whose noisy key holds a withheld memo and no model: seed 7,
    asked once at bar 0.9.  Returns (root, the memo's best F1)."""
    root = tmp_path_factory.mktemp("memo")
    orch, _, _ = make_orchestrator(root, seed=7)
    outcome = orch.validate(NOISY_REQ, noisy_dataset(), [])
    assert outcome.reason == O.REASON_BELOW_CONFIDENCE
    return root, outcome.best_f1


def copy_root(memo_root, tmp_path) -> float:
    root, best_f1 = memo_root
    shutil.copytree(root / "registry", tmp_path / "registry")
    return best_f1


class Rebuilt(Exception):
    pass


def forbid_builds(monkeypatch):
    """Make the first step of any build raise Rebuilt."""
    def refuse(*args, **kwargs):
        raise Rebuilt
    monkeypatch.setattr(ingest, "select_columns", refuse)
    monkeypatch.setattr(O, "build_candidates", refuse)


class TestWithheldMemo:
    def test_repeat_answers_from_the_memo(self, tmp_path, monkeypatch):
        orch, registry, notifier = make_orchestrator(tmp_path, seed=7)
        dataset = noisy_dataset()
        first = orch.validate(NOISY_REQ, dataset, [])
        assert first.reason == O.REASON_BELOW_CONFIDENCE
        forbid_builds(monkeypatch)
        second = orch.validate(NOISY_REQ, dataset, [])
        assert second == first
        before, after = notifier.entries()
        assert dataclasses.replace(after, created_at=before.created_at) == before
        assert after.channel == O.DATA_SCIENCE_TEAM
        assert (orch.stats.builds, orch.stats.memo_hits) == (1, 1)
        assert len(registry) == 0

    def test_new_registry_on_the_root_uses_the_memo(self, memo_root, tmp_path,
                                                     monkeypatch, capsys):
        best_f1 = copy_root(memo_root, tmp_path)
        forbid_builds(monkeypatch)
        orch, registry, notifier = make_orchestrator(tmp_path, seed=7)
        outcome = orch.validate(NOISY_REQ, noisy_dataset(), [])
        assert outcome == O.NotApplicable(reason=O.REASON_BELOW_CONFIDENCE,
                                          best_f1=best_f1)
        [note] = notifier.entries()
        assert note.channel == O.DATA_SCIENCE_TEAM
        assert f"f1={best_f1:.4f}" in note.message
        assert (orch.stats.builds, orch.stats.memo_hits) == (0, 1)
        # the memo is never a model
        assert len(registry) == 0 and registry.entries() == []
        assert cli.main(["registry-list", "--registry", str(registry.root),
                         "--json"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize("config, data", [
        (dict(seed=8), {}),
        (dict(seed=7, tiers=("required", "optional")), {}),
        (dict(seed=7, n_trials=3), {}),
        (dict(seed=7, budget=learners.BuildBudget(memory_limit=2**30)), {}),
        (dict(seed=7), dict(seed=12)),
    ], ids=["seed", "tiers", "n_trials", "budget", "dataset"])
    def test_other_build_inputs_rebuild(self, memo_root, tmp_path, monkeypatch,
                                        config, data):
        copy_root(memo_root, tmp_path)
        forbid_builds(monkeypatch)
        orch, _, notifier = make_orchestrator(tmp_path, **config)
        with pytest.raises(Rebuilt):
            orch.validate(NOISY_REQ, noisy_dataset(**data), [])
        assert orch.stats.memo_hits == 0 and notifier.entries() == []

    def test_bar_at_the_memo_f1_builds_and_stores(self, memo_root, tmp_path,
                                                  capsys):
        best_f1 = copy_root(memo_root, tmp_path)
        orch, registry, notifier = make_orchestrator(tmp_path, seed=7)
        req = dataclasses.replace(NOISY_REQ, confidence=best_f1)
        outcome = orch.validate(req, noisy_dataset(), [])
        assert isinstance(outcome, O.Predicted) and not outcome.from_cache
        assert outcome.f1 == best_f1
        assert (orch.stats.builds, orch.stats.memo_hits) == (1, 0)
        assert notifier.entries() == []
        [entry] = registry.entries()
        assert len(registry) == 1 and entry["path"].endswith("model.json")
        cli.main(["registry-list", "--registry", str(registry.root), "--json"])
        assert [e["key"] for e in json.loads(capsys.readouterr().out)] == [
            outcome.model_key]

    @pytest.mark.parametrize("damage", [b'{"format_version": "1", "req',
                                        b"[1]"], ids=["cut", "not-an-object"])
    def test_corrupt_withheld_memo_builds_and_is_rewritten(
            self, memo_root, tmp_path, damage):
        best_f1 = copy_root(memo_root, tmp_path)
        [memo] = (tmp_path / "registry").glob("models/*/withheld.json")
        intact = memo.read_bytes()
        memo.write_bytes(damage)
        orch, _, _ = make_orchestrator(tmp_path, seed=7)
        outcome = orch.validate(NOISY_REQ, noisy_dataset(), [])
        assert outcome == O.NotApplicable(reason=O.REASON_BELOW_CONFIDENCE,
                                          best_f1=best_f1)
        assert (orch.stats.builds, orch.stats.memo_hits) == (1, 0)
        assert memo.read_bytes() == intact

    @pytest.mark.parametrize("kind", ["time", "memory"])
    def test_memo_only_from_a_build_without_time_failures(
            self, tmp_path, monkeypatch, noisy_model, kind):
        dataset = noisy_dataset()
        key = O.requirement_key(NOISY_REQ, dataset.fingerprint)
        report = learners.BuildReport(
            candidates=[for_key(noisy_model, key)],
            failures=[learners.CandidateFailure("rid", "onehot-count", kind, 1.0)])
        monkeypatch.setattr(O, "build_candidates", lambda *a, **k: report)
        orch, registry, _ = make_orchestrator(tmp_path, seed=7)
        outcome = orch.validate(NOISY_REQ, dataset, [])
        assert outcome.reason == O.REASON_BELOW_CONFIDENCE
        memo = registry.withheld_f1(key, orch.config.to_doc())
        assert memo == (None if kind == "time" else noisy_model.f1)

    def test_concurrent_bars_on_both_sides_of_the_memo(self, memo_root,
                                                       tmp_path):
        best_f1 = copy_root(memo_root, tmp_path)
        orch, registry, _ = make_orchestrator(tmp_path, seed=7)
        dataset = noisy_dataset()
        bars = [0.9, 0.5] * 4
        outcomes = [None] * len(bars)
        errors = []
        barrier = threading.Barrier(len(bars))

        def worker(i):
            try:
                barrier.wait(timeout=60)
                req = dataclasses.replace(NOISY_REQ, confidence=bars[i])
                outcomes[i] = orch.validate(req, dataset, [])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(bars))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for bar, outcome in zip(bars, outcomes):
            if bar == 0.5:
                assert isinstance(outcome, O.Predicted) and outcome.f1 >= 0.5
            else:
                assert outcome == O.NotApplicable(
                    reason=O.REASON_BELOW_CONFIDENCE, best_f1=best_f1)
        [entry] = registry.entries()
        assert entry["f1"] >= 0.5
        assert orch.stats.memo_hits == 4
