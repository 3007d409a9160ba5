import datetime
import math

import numpy as np
import pytest

from ctivalidator import features as F
from ctivalidator import schema
from ctivalidator.errors import ContractError, SpecMismatchError

# Two sentences whose count vectors are known exactly.
S1 = ["fireball", "is", "malware"]
S2 = ["malware", "is", "any", "program", "that", "is", "harmful"]


class TestTextCleaning:
    def test_strips_non_alpha_and_lowercases(self):
        assert F.clean_text("C2-server 443!!") == ["cserver"]

    def test_stop_words_removed(self):
        assert F.clean_text("Fireball is malware") == ["fireball", "malware"]

    def test_empty_text(self):
        assert F.clean_text("") == []

    def test_surviving_words_are_light_stemmed(self):
        assert F.clean_text("queries crosses") == ["query", "cross"]

    def test_default_filter_is_light_stem(self):
        assert F.light_stem("policies") == "policy"
        assert F.light_stem("classes") == "class"
        assert F.light_stem("domains") == "domain"
        assert F.light_stem("is") == "is"


class TestStructuredTokens:
    def test_url_split(self):
        assert F.tokenize_structured("photoscape.ch/Setup.exe", ("//", ".", "/")) == [
            "photoscape", "ch", "Setup", "exe"]

    def test_domain_split(self):
        assert F.tokenize_structured("textspeier.de", ("//", ".", "/")) == [
            "textspeier", "de"]

    def test_hash_is_one_token(self):
        value = "ffc0ebad1e5f18a9df29bd37e07cbbb1de2e"
        assert F.tokenize_structured(value, ()) == [value]

    def test_scheme_prefix_dropped(self):
        got = F.tokenize_structured("http://a.b/c", ("//", ".", "/"))
        assert got == ["http:", "a", "b", "c"] or got == ["http", "a", "b", "c"]


class TestCountVectorizer:
    def test_two_sentence_matrix(self):
        vocab = F.fit_count_vectorizer([S1, S2])
        assert vocab.vocabulary == (
            "fireball", "is", "malware", "any", "program", "that", "harmful")
        matrix = vocab.transform([S1, S2])
        assert matrix.astype(int).tolist() == [
            [1, 1, 1, 0, 0, 0, 0],
            [0, 2, 1, 1, 1, 1, 1],
        ]

    def test_single_document(self):
        vocab = F.fit_count_vectorizer([["a"]])
        assert vocab.transform([["a"]]).tolist() == [[1.0]]

    def test_repeated_documents_identical_rows(self):
        vocab = F.fit_count_vectorizer([S1, S1])
        matrix = vocab.transform([S1, S1])
        assert (matrix[0] == matrix[1]).all()

    def test_all_empty_documents_yield_zero_width(self):
        vocab = F.fit_count_vectorizer([[], []])
        assert vocab.vocabulary == ()
        assert vocab.transform([[], []]).shape == (2, 0)

    def test_unseen_tokens_ignored(self):
        vocab = F.fit_count_vectorizer([S1])
        assert vocab.transform([["quux"]]).tolist() == [[0.0, 0.0, 0.0]]


class TestTfidf:
    def test_idf_formula(self):
        vocab = F.fit_tfidf([S1, S2])
        by_token = dict(zip(vocab.vocabulary, vocab.idf))
        assert by_token["fireball"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
        assert by_token["is"] == pytest.approx(1.0, abs=1e-12)  # df = N

    def test_rows_have_unit_norm(self):
        docs = [S1, S2, ["malware"], []]
        vocab = F.fit_tfidf(docs)
        norms = np.linalg.norm(vocab.transform(docs), axis=1)
        assert norms[:3] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        assert norms[3] == 0.0  # all-OOV/empty rows stay zero

    def test_single_token_document(self):
        vocab = F.fit_tfidf([["a"]])
        assert vocab.transform([["a"]]).tolist() == [[1.0]]


class TestCategoricalEncoding:
    # the attack column and its fitted category order
    FIT_ORDER = ["Phishing", "DDoS", "SQL injection"]
    COLUMN = ["DDoS", "Phishing", "DDoS", "Phishing", "Phishing", "SQL injection"]

    def test_label_codes(self):
        enc = F.CategoricalEncoder.fit(self.FIT_ORDER)
        codes = enc.transform_labels(self.COLUMN)
        assert codes.astype(int).tolist() == [2, 1, 2, 1, 1, 3]

    def test_onehot_rows(self):
        enc = F.CategoricalEncoder.fit(self.FIT_ORDER)
        rows = enc.transform_onehot(self.COLUMN).astype(int).tolist()
        assert rows == [
            [0, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0], [1, 0, 0], [0, 0, 1]]

    def test_unseen_category(self):
        enc = F.CategoricalEncoder.fit(self.FIT_ORDER)
        assert enc.transform_labels(["Worm"]).astype(int).tolist() == [0]
        assert enc.transform_onehot(["Worm"]).astype(int).tolist() == [[0, 0, 0]]

    def test_first_appearance_order(self):
        enc = F.CategoricalEncoder.fit(self.COLUMN)
        assert enc.categories == ("DDoS", "Phishing", "SQL injection")

    def test_onehot_row_sums(self):
        column = self.COLUMN + ["Worm"]
        matrix = F.CategoricalEncoder.fit(column).transform_onehot(column)
        sums = matrix.sum(axis=1).tolist()
        assert sums[:6] == [1.0] * 6


class TestStandardize:
    def test_two_point_column(self):
        values = np.array([2.0, 4.0])
        scaler = F.Standardizer.fit(values)
        assert scaler.transform(values).tolist() == [-1.0, 1.0]
        assert scaler.mean == 3.0 and scaler.stddev == 1.0

    def test_constant_column(self):
        values = np.array([5.0, 5.0, 5.0])
        scaler = F.Standardizer.fit(values)
        assert scaler.transform(values).tolist() == [0.0, 0.0, 0.0]
        assert scaler.stddev == 1.0  # zero variance recorded as 1

    def test_refit_is_near_identity(self):
        values = np.array([1.0, 2.0, 3.0, 10.0])
        once = F.Standardizer.fit(values).transform(values)
        assert once.mean() == pytest.approx(0.0, abs=1e-9)
        assert once.std() == pytest.approx(1.0, abs=1e-9)


def _table():
    return {
        "domain": ["textspeier.de", "photoscape.ch/Setup.exe", None,
                   "textspeier.de"],
        "port": [80, 443, 80, None],
        "date": ["2017-03-29", "2017-03-30", None, "2017-03-29"],
        "description": ["Fireball is malware", "harmless text", "", None],
    }


class TestFitTransform:
    @pytest.mark.parametrize("scheme", F.SCHEMES)
    def test_replay_is_identical(self, scheme):
        matrix, spec = F.fit_transform(_table(), scheme=scheme)
        again = F.transform(_table(), spec)
        assert (matrix.values == again.values).all()

    @pytest.mark.parametrize("scheme", F.SCHEMES)
    def test_width_law(self, scheme):
        matrix, spec = F.fit_transform(_table(), scheme=scheme)
        assert matrix.values.shape[1] == spec.width
        assert spec.width == sum(a.width for a in spec.artifacts)

    def test_matrix_is_finite(self):
        matrix, _ = F.fit_transform(_table(), scheme=F.LABEL_TFIDF)
        assert np.isfinite(matrix.values).all()

    def test_unseen_tokens_produce_zero_block(self):
        _, spec = F.fit_transform({"domain": ["textspeier.de"]},
                                  scheme=F.LABEL_TFIDF)
        out = F.transform({"domain": ["entirely-unseen.example"]}, spec)
        assert (out.values == 0).all()

    def test_schema_mismatch_rejected(self):
        _, spec = F.fit_transform(_table(), scheme=F.LABEL_TFIDF)
        with pytest.raises(SpecMismatchError):
            F.transform({"domain": ["x.org"]}, spec)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ContractError):
            F.fit_transform(_table(), scheme="bag-of-bytes")

    def test_ragged_columns_rejected(self):
        with pytest.raises(ContractError):
            F.fit_transform({"domain": ["a.org"], "port": [1, 2]},
                            scheme=F.LABEL_TFIDF)

    def test_timestamps_are_standardized(self):
        table = {"timestamp": [3600, 7200, 10800]}
        matrix, spec = F.fit_transform(table, scheme=F.LABEL_TFIDF)
        column = matrix.values[:, 0]
        assert column.mean() == pytest.approx(0.0, abs=1e-9)
        assert column.tolist() == pytest.approx([-1.224744871, 0.0, 1.224744871])

    def test_dates_become_days_since_epoch(self):
        table = {"date": [datetime.date(1970, 1, 2), datetime.date(1970, 1, 4)]}
        _, spec = F.fit_transform(table, scheme=F.LABEL_TFIDF)
        artifact = spec.artifacts[0]
        assert artifact.mean == pytest.approx(2.0)  # (1 + 3) / 2 days

    def test_spec_round_trip_bytes(self):
        matrix, spec = F.fit_transform(_table(), scheme=F.ONEHOT_COUNT)
        clone = F.EncoderSpec.from_bytes(spec.to_bytes())
        replay = F.transform(_table(), clone)
        assert (matrix.values == replay.values).all()

    def test_spec_version_rejected(self):
        _, spec = F.fit_transform(_table(), scheme=F.LABEL_TFIDF)
        import json
        doc = json.loads(spec.to_bytes())
        doc["format_version"] = "999"
        with pytest.raises(SpecMismatchError):
            F.EncoderSpec.from_bytes(json.dumps(doc).encode())

    @pytest.mark.parametrize("rules", [
        {"stem": False, "stop_words": sorted(F.STOP_WORDS)},
        {"stem": True, "stop_words": []},
        None,
    ], ids=["no-stemming", "no-stop-words", "null"])
    def test_spec_fitted_under_other_text_rules_rejected(self, rules):
        _, spec = F.fit_transform({"description": ["fireball is malware"]},
                                  scheme=F.ONEHOT_COUNT)
        import json
        doc = json.loads(spec.to_bytes())
        assert F.EncoderSpec.from_bytes(json.dumps(doc).encode()) == spec
        doc["text"] = rules
        with pytest.raises(SpecMismatchError, match="text-cleaning rules"):
            F.EncoderSpec.from_bytes(json.dumps(doc).encode())

    @pytest.mark.parametrize("scheme", F.SCHEMES)
    def test_table6_corpus_through_pipeline(self, scheme):
        # free-text column built from the two sentences; cleaning drops the
        # stop words, leaving fireball, malware, program, harmful
        table = {"description": ["fireball is malware",
                                 "malware is any program that is harmful"]}
        matrix, _ = F.fit_transform(table, scheme=scheme)
        if scheme == F.ONEHOT_COUNT:
            assert matrix.values.astype(int).tolist() == [
                [1, 1, 0, 0],
                [0, 1, 1, 1],
            ]
        else:
            norms = np.linalg.norm(matrix.values, axis=1)
            assert norms == pytest.approx([1.0, 1.0], abs=1e-9)
