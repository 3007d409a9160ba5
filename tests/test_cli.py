import json

import pytest

import ctivalidator
from ctivalidator import cli, orchestrator
from ctivalidator.errors import ContractError

from fixture_lib import PLANTED_WORDS

CSV_HEADER = "date,domain,IP,port,reverse lookup,description,ASN"
CSV_MAP = {"date": "date", "domain": "domain", "IP": "ip_src", "port": "port",
           "reverse lookup": "owner", "description": "attack", "ASN": "asn"}


def write_feed(tmp_path, n=120):
    rows = [CSV_HEADER]
    kinds = sorted(PLANTED_WORDS)
    ports = (80, 443, 8080, 25)
    for i in range(n):
        kind = kinds[i % 3]  # the domain token carries the label signal
        rows.append(f"2017-03-{1 + i % 28:02d},h{i}.{PLANTED_WORDS[kind]}.example.com,"
                    f"10.0.{i % 200}.{i % 250},{ports[i % 4]},owner{i % 5},"
                    f"{kind},{64496 + i % 7}")
    feed = tmp_path / "feed.csv"
    feed.write_text("\n".join(rows) + "\n")
    column_map = tmp_path / "map.json"
    column_map.write_text(json.dumps(CSV_MAP))
    return feed, column_map


def ingest_dataset(tmp_path):
    feed, column_map = write_feed(tmp_path)
    out = tmp_path / "dataset.json"
    code = cli.main(["ingest", "--csv", str(feed), "--column-map",
                     str(column_map), "--dataset-id", "feed1",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    return out


def write_requirement(tmp_path, observed="domain,port", label="attack",
                      confidence=0.5, name="req.json"):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"ob": observed, "un": label, "confidence": confidence}))
    return path


class TestIngest:
    def test_csv_to_dataset_file(self, tmp_path, capsys):
        out = ingest_dataset(tmp_path)
        doc = json.loads(out.read_text())
        assert doc["dataset_id"] == "feed1"
        assert len(doc["records"]) > 0
        stdout = capsys.readouterr().out
        assert "fingerprint" in stdout

    def test_misp_events_with_reports(self, tmp_path):
        misp = tmp_path / "events.json"
        misp.write_text(json.dumps({"response": [
            {"Event": {"uuid": "u1", "info": "c1", "threat_level_id": "2",
                       "Attribute": [
                           {"type": "domain", "value": "a.example"},
                           {"type": "yara", "value": "rule x {}"},
                       ]}},
            {"Event": {"uuid": "u2", "info": "c2", "Attribute": [
                {"type": "ip-dst|port", "value": "9.9.9.9|443"}]}},
        ]}))
        out = tmp_path / "ds.json"
        reports = tmp_path / "reports.json"
        code = cli.main(["ingest", "--misp", str(misp), "--dataset-id", "m1",
                         "--out", str(out), "--reports-out", str(reports)])
        assert code == cli.EXIT_OK
        rows = [json.loads(line) for line in
                reports.read_text().strip().splitlines()]
        assert any(r["reason"] == "unsupported-attribute-type" for r in rows)

    def test_enrichment_table(self, tmp_path):
        feed, column_map = write_feed(tmp_path, n=30)
        enrich = tmp_path / "whois.csv"
        enrich.write_text("ip,asn,owner,country\n10.0.0.0,64500,acme,US\n")
        out = tmp_path / "ds.json"
        code = cli.main(["ingest", "--csv", str(feed), "--column-map",
                         str(column_map), "--enrich", str(enrich),
                         "--dataset-id", "e1", "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        countries = {r.get("country") for r in doc["records"]}
        assert "US" in countries

    def test_missing_input_is_config_error(self, tmp_path):
        out = tmp_path / "ds.json"
        code = cli.main(["ingest", "--dataset-id", "x", "--out", str(out)])
        assert code == cli.EXIT_ERROR

    def test_unreadable_file_is_error(self, tmp_path):
        code = cli.main(["ingest", "--csv", str(tmp_path / "absent.csv"),
                         "--column-map", str(tmp_path / "absent.json"),
                         "--dataset-id", "x", "--out", str(tmp_path / "o.json")])
        assert code == cli.EXIT_ERROR


class TestBuildAndValidate:
    def test_build_then_validate_round_trip(self, tmp_path, capsys):
        dataset = ingest_dataset(tmp_path)
        requirement = write_requirement(tmp_path)
        registry = tmp_path / "registry"
        build_out = tmp_path / "build.json"

        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry", str(registry),
                         "--seed", "7", "--out", str(build_out)])
        assert code == cli.EXIT_OK
        build_doc = json.loads(build_out.read_text())
        assert build_doc["outcome"] == "predicted"
        assert build_doc["f1"] >= 0.5
        capsys.readouterr()

        alerts = tmp_path / "alerts.json"
        alerts.write_text(json.dumps([
            {"domain": "x.credful.example.com", "port": 80},
            {"domain": "y.floodway.example.com", "port": 443},
            {"domain": "z.cryptlock.example.com", "port": 8080},
        ]))
        validate_out = tmp_path / "validate.json"
        code = cli.main(["validate", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry", str(registry),
                         "--seed", "7", "--alerts", str(alerts),
                         "--out", str(validate_out)])
        assert code == cli.EXIT_OK
        doc = json.loads(validate_out.read_text())
        assert doc["labels"] == ["phishing", "ddos", "ransom"]
        stdout = capsys.readouterr().out
        assert "(cache)" in stdout  # second run reuses the stored model

    def test_alias_observed_set(self, tmp_path):
        dataset = ingest_dataset(tmp_path)
        requirement = write_requirement(tmp_path, observed="ob4")  # date+domain
        registry = tmp_path / "registry"
        out = tmp_path / "b.json"
        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry", str(registry),
                         "--seed", "3", "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["outcome"] == "predicted"
        assert "ob=date,domain" in doc["requirement_key"]

    def test_no_data_exit_code(self, tmp_path):
        dataset = ingest_dataset(tmp_path)
        requirement = write_requirement(tmp_path, observed="file_hash")
        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry",
                         str(tmp_path / "registry")])
        assert code == cli.EXIT_NO_DATA

    def test_below_confidence_exit_code(self, tmp_path):
        dataset = ingest_dataset(tmp_path)
        requirement = write_requirement(tmp_path, confidence=0.999,
                                        observed="asn")
        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry",
                         str(tmp_path / "registry")])
        assert code == cli.EXIT_BELOW_CONFIDENCE

    def test_all_timed_out_exit_code(self, tmp_path):
        dataset = ingest_dataset(tmp_path)
        requirement = write_requirement(tmp_path)
        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry",
                         str(tmp_path / "registry"),
                         "--budget-seconds", "1e-9"])
        assert code == cli.EXIT_ALL_TIMED_OUT

    def test_bad_requirement_is_config_error(self, tmp_path):
        dataset = ingest_dataset(tmp_path)
        requirement = tmp_path / "req.json"
        requirement.write_text(json.dumps({"ob": "telepathy", "un": "attack",
                                           "confidence": 0.5}))
        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry",
                         str(tmp_path / "registry")])
        assert code == cli.EXIT_ERROR

    def test_confidence_option_overrides_the_document(self):
        text = "ob: domain, port; un: attack; confidence: 0.5"
        assert cli._load_requirement(text, None).confidence == 0.5
        assert cli._load_requirement(text, 0.9).confidence == 0.9
        with pytest.raises(ContractError):
            cli._load_requirement(text, 1.5)

    def test_inline_requirement_text(self, tmp_path):
        dataset = ingest_dataset(tmp_path)
        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         "ob: domain, port; un: attack; confidence: 0.5",
                         "--registry", str(tmp_path / "registry"),
                         "--seed", "7"])
        assert code == cli.EXIT_OK

    def test_output_documents_are_byte_stable(self, tmp_path):
        # every required candidate ties at F1 1.0 on the planted feed
        dataset = ingest_dataset(tmp_path)
        requirement = write_requirement(tmp_path)
        alerts = tmp_path / "alerts.json"
        alerts.write_text(json.dumps([{"domain": "a1.credful.example.com",
                                       "port": 80}]))
        outs = []
        for run in ("a", "b"):
            registry = tmp_path / f"registry-{run}"
            out = tmp_path / f"out-{run}.json"
            code = cli.main(["validate", "--dataset", str(dataset),
                             "--requirement", str(requirement), "--registry",
                             str(registry), "--seed", "7", "--alerts",
                             str(alerts), "--out", str(out)])
            assert code == cli.EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_registry_env_variable(self, tmp_path, monkeypatch, capsys):
        dataset = ingest_dataset(tmp_path)
        requirement = write_requirement(tmp_path)
        registry = tmp_path / "env-registry"
        monkeypatch.setenv("CTIVALIDATOR_REGISTRY", str(registry))
        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--seed", "7"])
        assert code == cli.EXIT_OK
        assert len(list(registry.glob("models/*/model.json"))) == 1
        capsys.readouterr()
        code = cli.main(["registry-list", "--registry", str(registry),
                         "--json"])
        assert code == cli.EXIT_OK
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A dataset file, its requirement file and a registry holding the model."""
    root = tmp_path_factory.mktemp("built")
    dataset = ingest_dataset(root)
    requirement = write_requirement(root)
    registry = root / "registry"
    assert cli.main(["build", "--dataset", str(dataset), "--requirement",
                     str(requirement), "--registry", str(registry),
                     "--seed", "7"]) == cli.EXIT_OK
    return dataset, requirement, registry


class TestAlertFiles:
    def validate(self, built, tmp_path, text):
        dataset, requirement, registry = built
        alerts = tmp_path / "alerts.json"
        alerts.write_text(text)
        return cli.main(["validate", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry", str(registry),
                         "--seed", "7", "--alerts", str(alerts)])

    def test_json_lines(self, built, tmp_path, capsys):
        capsys.readouterr()
        text = ('{"domain": "x.credful.example.com", "port": 80}\n\n'
                '{"domain": "y.floodway.example.com", "port": 443}\n')
        assert self.validate(built, tmp_path, text) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[1:] == ["phishing", "ddos"]

    def test_malformed_json_is_a_format_error(self, built, tmp_path, capsys):
        text = '{"domain": "a.b"\n'
        assert self.validate(built, tmp_path, text) == cli.EXIT_ERROR
        assert "line 1" in capsys.readouterr().err

    def test_rows_that_are_not_mappings_are_rejected(self, built, tmp_path,
                                                     capsys):
        capsys.readouterr()
        assert self.validate(built, tmp_path, "[1, 2]") == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert "neither a mapping nor a CtiRecord" in captured.err
        assert captured.out == ""

    def test_empty_file_is_an_empty_batch(self, built, tmp_path, capsys):
        capsys.readouterr()
        assert self.validate(built, tmp_path, "") == cli.EXIT_OK
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("predicted:")

    def test_requirement_for_another_dataset_is_an_error(self, built, tmp_path,
                                                         capsys):
        dataset, _, registry = built
        requirement = tmp_path / "req.json"
        requirement.write_text(json.dumps({"ob": "domain,port", "un": "attack",
                                           "confidence": 0.5, "dataset": "ds9"}))
        code = cli.main(["build", "--dataset", str(dataset), "--requirement",
                         str(requirement), "--registry", str(registry)])
        assert code == cli.EXIT_ERROR
        assert "ds9" in capsys.readouterr().err


class TestRegistryList:
    def test_empty_registry(self, tmp_path, capsys):
        code = cli.main(["registry-list", "--registry", str(tmp_path / "r")])
        assert code == cli.EXIT_OK
        assert "empty" in capsys.readouterr().out

    def test_lists_stored_models(self, tmp_path, capsys):
        dataset = ingest_dataset(tmp_path)
        requirement = write_requirement(tmp_path)
        registry = tmp_path / "registry"
        cli.main(["build", "--dataset", str(dataset), "--requirement",
                  str(requirement), "--registry", str(registry), "--seed", "7"])
        capsys.readouterr()
        code = cli.main(["registry-list", "--registry", str(registry)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "ob=domain,port" in out
        assert "family" in out and "f1" in out  # table header


class TestBench:
    def test_default_presets(self, capsys):
        code = cli.main(["bench"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "524160" in out
        assert "99.8443%" in out

    def test_json_output(self, capsys):
        code = cli.main(["bench", "--json", "--sample-seconds", "10",
                         "--timed-out", "4"])
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregate_savings"] >= 0.99
        assert doc["timed_out"] == 4

    def test_custom_plan(self, capsys):
        code = cli.main(["bench", "--preset", "", "--attributes", "6",
                         "--labels", "1", "--requirements", "7"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "992" in out
        assert "112" in out

    def test_custom_plan_follows_tiers(self, capsys):
        code = cli.main(["bench", "--attributes", "6", "--requirements", "7",
                         "--tiers", "required", "--json"])
        assert code == cli.EXIT_OK
        [plan] = json.loads(capsys.readouterr().out)["plans"]
        # 5 required families x 2 encodings x (7 requirements | 62 subsets)
        assert plan["experiments"] == {"on_demand": 70, "prebuild": 620}

    def test_out_file(self, tmp_path):
        out = tmp_path / "bench.json"
        code = cli.main(["bench", "--json", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["aggregate_savings"] >= 0.99

    def test_bad_preset_is_error(self):
        assert cli.main(["bench", "--preset", "ds99"]) == cli.EXIT_ERROR


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.split() == ["ctivalidator",
                                                   ctivalidator.__version__]

    def test_build_defaults_are_the_library_defaults(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["build", "--dataset", "d.json", "--requirement", "r.json",
             "--registry", str(tmp_path / "registry")])
        assert cli._orchestrator(args).config == orchestrator.BuildConfig()

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
