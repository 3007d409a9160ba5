"""Feature engineering: turn selected record columns into numeric matrices.

Two encoding schemes are supported end to end:

* ``label-tfidf`` — categorical columns become a single integer-code column
  (codes start at 1; 0 is reserved for unseen values) and text columns are
  TF-IDF vectorized.
* ``onehot-count`` — categorical columns become one 0/1 column per category
  (unseen values produce an all-zero block) and text columns are raw-count
  vectorized.

Dates and timestamps are mapped to numbers (days since 1970-01-01 and epoch
seconds) and standardized under both schemes.  Fitting produces an
:class:`EncoderSpec` that replays the exact transform later, including on
rows with values never seen at fit time, and serializes bit-exactly.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import schema
from .codec import from_fields
from .errors import ContractError, SpecMismatchError, UnknownAttributeError

LABEL_TFIDF = "label-tfidf"
ONEHOT_COUNT = "onehot-count"
SCHEMES = (LABEL_TFIDF, ONEHOT_COUNT)

UNKNOWN_CODE = 0  # label-encoding slot reserved for values unseen at fit time

_SPEC_FORMAT_VERSION = "1"
_EPOCH = _dt.date(1970, 1, 1)

# Compact English stop-word list for free-text cleaning.
DEFAULT_STOP_WORDS: tuple[str, ...] = (
    "a", "an", "and", "any", "are", "as", "at", "be", "been", "but", "by",
    "for", "from", "has", "have", "in", "is", "it", "its", "of", "on", "or",
    "that", "the", "these", "this", "those", "to", "was", "were", "with",
)


def light_stem(token: str) -> str:
    """Very light suffix stripping: plural endings only, short words untouched."""
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 4 and token.endswith("sses"):
        return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def clean_text(
    text: str,
    *,
    stop_words=DEFAULT_STOP_WORDS,
    token_filter=light_stem,
) -> list[str]:
    """Clean a free-text value into an ordered token list.

    Non-alphabetic characters are stripped (inside words too, so
    "C2-server" collapses to "cserver"), the result is lowercased and split
    on whitespace, stop words are dropped, and ``token_filter`` is applied
    to each surviving token.  The filter may rewrite a token or return
    None/"" to drop it.
    """
    if text is None:
        return []
    kept = []
    stop = frozenset(stop_words)
    for chunk in str(text).split():
        word = "".join(ch for ch in chunk if ch.isalpha()).lower()
        if not word or word in stop:
            continue
        if token_filter is not None:
            word = token_filter(word)
            if not word:
                continue
        kept.append(word)
    return kept


def tokenize_structured(value: str, delimiters: tuple[str, ...]) -> list[str]:
    """Split a structured string (domain, filename, ...) on its delimiters.

    Case is preserved.  Leftover punctuation inside tokens is removed, empty
    tokens are dropped, and an empty delimiter tuple means the whole value
    is one opaque token (hashes).
    """
    if value is None:
        return []
    text = str(value).strip()
    if not text:
        return []
    if not delimiters:
        return [text]
    for delim in delimiters:
        text = text.replace(delim, "\x00")
    tokens = []
    for part in text.split("\x00"):
        token = "".join(ch for ch in part if ch.isalnum())
        if token:
            tokens.append(token)
    return tokens


# ---------------------------------------------------------------------------
# Vectorizers and encoders


@dataclass(frozen=True)
class CountVocab:
    """Vocabulary for raw-count vectorization, ordered by first appearance."""

    vocabulary: tuple[str, ...]

    def transform(self, token_docs) -> np.ndarray:
        index = {t: i for i, t in enumerate(self.vocabulary)}
        out = np.zeros((len(token_docs), len(self.vocabulary)), dtype=np.float64)
        for row, doc in enumerate(token_docs):
            for token in doc:
                col = index.get(token)
                if col is not None:
                    out[row, col] += 1.0
        return out


@dataclass(frozen=True)
class TfidfVocab:
    """Vocabulary plus smoothed idf weights; rows are L2-normalized."""

    vocabulary: tuple[str, ...]
    idf: tuple[float, ...]

    def transform(self, token_docs) -> np.ndarray:
        counts = CountVocab(self.vocabulary).transform(token_docs)
        weighted = counts * np.asarray(self.idf, dtype=np.float64)
        norms = np.linalg.norm(weighted, axis=1)
        nonzero = norms > 0.0
        weighted[nonzero] /= norms[nonzero, None]
        return weighted


def fit_count_vectorizer(token_docs) -> CountVocab:
    """Fit a count vocabulary; column order is first appearance across docs."""
    seen: dict[str, None] = {}
    for doc in token_docs:
        for token in doc:
            seen.setdefault(token, None)
    return CountVocab(tuple(seen))


def fit_tfidf(token_docs) -> TfidfVocab:
    """Fit a TF-IDF vocabulary: idf(t) = ln((1+N)/(1+df(t))) + 1."""
    vocab = fit_count_vectorizer(token_docs).vocabulary
    n_docs = len(token_docs)
    df = {t: 0 for t in vocab}
    for doc in token_docs:
        for token in set(doc):
            if token in df:
                df[token] += 1
    idf = tuple(math.log((1.0 + n_docs) / (1.0 + df[t])) + 1.0 for t in vocab)
    return TfidfVocab(vocab, idf)


@dataclass(frozen=True)
class CategoricalEncoder:
    """First-appearance category codebook shared by both encoding modes.

    Label codes start at 1; code 0 is reserved for values unseen at fit
    time.  One-hot columns follow the category order, and unseen values
    produce an all-zero row.
    """

    categories: tuple[str, ...]

    @classmethod
    def fit(cls, values) -> "CategoricalEncoder":
        seen: dict[str, None] = {}
        for value in values:
            if value is None:
                continue
            seen.setdefault(str(value), None)
        return cls(tuple(seen))

    def transform_labels(self, values) -> np.ndarray:
        index = {c: i + 1 for i, c in enumerate(self.categories)}
        return np.array(
            [0 if v is None else index.get(str(v), UNKNOWN_CODE) for v in values],
            dtype=np.float64,
        )

    def transform_onehot(self, values) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.categories)}
        out = np.zeros((len(values), len(self.categories)), dtype=np.float64)
        for row, value in enumerate(values):
            if value is None:
                continue
            col = index.get(str(value))
            if col is not None:
                out[row, col] = 1.0
        return out


@dataclass(frozen=True)
class Standardizer:
    """(x - mean) / stddev with population stddev; constant columns map to 0."""

    mean: float
    stddev: float

    @classmethod
    def fit(cls, values: np.ndarray) -> "Standardizer":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return cls(0.0, 1.0)
        mean = float(arr.mean())
        stddev = float(arr.std())
        if stddev == 0.0:
            stddev = 1.0
        return cls(mean, stddev)

    def transform(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        return (arr - self.mean) / self.stddev


# ---------------------------------------------------------------------------
# Whole-table pipeline


@dataclass(frozen=True)
class TextOptions:
    """Named (serializable) free-text cleaning configuration."""

    stop_words: tuple[str, ...] = DEFAULT_STOP_WORDS
    stem: bool = True

    def tokens(self, text: str) -> list[str]:
        return clean_text(
            text,
            stop_words=self.stop_words,
            token_filter=light_stem if self.stem else None,
        )


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense, finite float64 design matrix."""

    values: np.ndarray

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def columns(self) -> int:
        return int(self.values.shape[1])

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ContractError("feature matrix must be 2-dimensional")
        if self.values.size and not np.isfinite(self.values).all():
            raise ContractError("feature matrix contains NaN or infinite entries")


@dataclass(frozen=True)
class ColumnArtifact:
    """Fitted transform for one source column."""

    name: str
    kind: str
    encoder_type: str  # label | onehot | tfidf | count | standardize
    categories: tuple[str, ...] = ()
    vocabulary: tuple[str, ...] = ()
    idf: tuple[float, ...] = ()
    mean: float = 0.0
    stddev: float = 1.0

    @property
    def width(self) -> int:
        if self.encoder_type in ("label", "standardize"):
            return 1
        if self.encoder_type == "onehot":
            return len(self.categories)
        return len(self.vocabulary)


@dataclass(frozen=True)
class EncoderSpec:
    """Everything needed to replay a fitted feature transform bit-exactly."""

    scheme: str
    text: TextOptions
    artifacts: tuple[ColumnArtifact, ...] = field(default_factory=tuple)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.artifacts)

    @property
    def width(self) -> int:
        return sum(a.width for a in self.artifacts)

    def to_bytes(self) -> bytes:
        doc = {
            "format_version": _SPEC_FORMAT_VERSION,
            "scheme": self.scheme,
            "text": {f.name: getattr(self.text, f.name) for f in fields(self.text)},
            "columns": [{f.name: getattr(a, f.name) for f in fields(a)}
                        for a in self.artifacts],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EncoderSpec":
        doc = json.loads(raw.decode("utf-8"))
        if doc.get("format_version") != _SPEC_FORMAT_VERSION:
            raise SpecMismatchError(
                f"unsupported encoder format version: {doc.get('format_version')!r}"
            )
        return cls(
            scheme=doc["scheme"],
            text=from_fields(TextOptions, doc["text"]),
            artifacts=tuple(from_fields(ColumnArtifact, c) for c in doc["columns"]),
        )


def _column_kind(name: str) -> str:
    try:
        return schema.FIELD_KINDS[name]
    except KeyError:
        raise UnknownAttributeError(name) from None


def _numeric_view(name: str, kind: str, values) -> np.ndarray:
    """Dates -> days since 1970-01-01; timestamps -> seconds. Missing -> NaN."""
    out = np.empty(len(values), dtype=np.float64)
    for i, value in enumerate(values):
        if value is None:
            out[i] = np.nan
            continue
        if kind == schema.KIND_DATE:
            if isinstance(value, str):
                value = schema.parse_date(value)
            if not isinstance(value, _dt.date):
                raise ContractError(f"column {name!r} expects dates, got {value!r}")
            out[i] = float((value - _EPOCH).days)
        else:
            out[i] = float(int(value))
    return out


def _text_docs(name: str, kind: str, values, text: TextOptions) -> list[list[str]]:
    if kind == schema.KIND_FREE_TEXT:
        return [text.tokens(v) if v is not None else [] for v in values]
    delims = schema.STRUCTURED_DELIMITERS.get(name, ())
    return [tokenize_structured(v, delims) if v is not None else [] for v in values]


def _fit_column(name, kind, values, scheme, text) -> ColumnArtifact:
    if kind in (schema.KIND_CATEGORICAL, schema.KIND_IP):
        encoder = CategoricalEncoder.fit(values)
        mode = "label" if scheme == LABEL_TFIDF else "onehot"
        return ColumnArtifact(name, kind, mode, categories=encoder.categories)
    if kind in (schema.KIND_FREE_TEXT, schema.KIND_STRUCTURED):
        docs = _text_docs(name, kind, values, text)
        if scheme == LABEL_TFIDF:
            vocab = fit_tfidf(docs)
            return ColumnArtifact(name, kind, "tfidf", vocabulary=vocab.vocabulary,
                                  idf=vocab.idf)
        vocab = fit_count_vectorizer(docs)
        return ColumnArtifact(name, kind, "count", vocabulary=vocab.vocabulary)
    if kind in (schema.KIND_DATE, schema.KIND_TIMESTAMP):
        numeric = _numeric_view(name, kind, values)
        observed = numeric[~np.isnan(numeric)]
        scaler = Standardizer.fit(observed)
        return ColumnArtifact(name, kind, "standardize", mean=scaler.mean,
                              stddev=scaler.stddev)
    raise ContractError(f"column {name!r} has unsupported kind {kind!r}")


def _transform_column(artifact: ColumnArtifact, values, text: TextOptions) -> np.ndarray:
    if artifact.encoder_type == "label":
        enc = CategoricalEncoder(artifact.categories)
        return enc.transform_labels(values).reshape(-1, 1)
    if artifact.encoder_type == "onehot":
        enc = CategoricalEncoder(artifact.categories)
        return enc.transform_onehot(values)
    if artifact.encoder_type == "tfidf":
        docs = _text_docs(artifact.name, artifact.kind, values, text)
        return TfidfVocab(artifact.vocabulary, artifact.idf).transform(docs)
    if artifact.encoder_type == "count":
        docs = _text_docs(artifact.name, artifact.kind, values, text)
        return CountVocab(artifact.vocabulary).transform(docs)
    numeric = _numeric_view(artifact.name, artifact.kind, values)
    numeric = np.where(np.isnan(numeric), artifact.mean, numeric)
    scaler = Standardizer(artifact.mean, artifact.stddev)
    return scaler.transform(numeric).reshape(-1, 1)


def fit_transform(
    columns,
    *,
    scheme: str,
    text: TextOptions = TextOptions(),
) -> tuple[FeatureMatrix, EncoderSpec]:
    """Fit encoders on the given columns and produce the design matrix.

    ``columns`` maps attribute name -> sequence of values; all sequences
    must have equal length.  Matrix blocks are laid out in sorted column
    name order.
    """
    if scheme not in SCHEMES:
        raise ContractError(f"unknown scheme: {scheme!r}")
    names = sorted(columns)
    if not names:
        raise ContractError("at least one column is required")
    lengths = {len(columns[n]) for n in names}
    if len(lengths) != 1:
        raise ContractError("all columns must have the same number of rows")
    artifacts = tuple(
        _fit_column(n, _column_kind(n), columns[n], scheme, text) for n in names
    )
    spec = EncoderSpec(scheme=scheme, text=text, artifacts=artifacts)
    return transform(columns, spec), spec


def transform(columns, spec: EncoderSpec) -> FeatureMatrix:
    """Replay a fitted EncoderSpec on new rows with the same column schema."""
    names = sorted(columns)
    if tuple(names) != tuple(sorted(spec.column_names)):
        raise SpecMismatchError(
            f"columns {tuple(names)} do not match fitted schema {spec.column_names}"
        )
    lengths = {len(columns[n]) for n in names}
    if len(lengths) > 1:
        raise ContractError("all columns must have the same number of rows")
    n_rows = lengths.pop() if lengths else 0

    blocks = []
    for artifact in spec.artifacts:
        block = _transform_column(artifact, columns[artifact.name], spec.text)
        if block.shape[0] != n_rows:
            raise ContractError("column transform produced a row-count mismatch")
        blocks.append(block)
    if blocks:
        values = np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]
    else:
        values = np.zeros((n_rows, 0), dtype=np.float64)
    return FeatureMatrix(values=np.ascontiguousarray(values, dtype=np.float64))
