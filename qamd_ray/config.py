"""Config surface mirroring the reference's YAML tree 1:1.

Reference: /root/reference/src/config.rs:22-31 (sections), 16-20 (Setting),
74-246 (validation bounds); default file /root/reference/default.yaml.
Semantics preserved exactly:

* every leaf is optional — an absent key silently skips its check
  (reference gates every check body on ``if let Some(ref setting) = ...``,
  e.g. src/check/variable.rs:25, src/check/post.rs:47);
* ``Setting`` couples the value with a human description used as the
  report line (src/config.rs:16-20);
* validation: list settings must be non-empty, percentage thresholds in
  1..=100 (src/config.rs:74-246).

The ``quality_filter`` section is this engine's extension (BASELINE.json
north_rule): thresholds for the source-code quality-filter pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Generic, Optional, TypeVar

import yaml

T = TypeVar("T")


@dataclass(frozen=True)
class Setting(Generic[T]):
    """A config leaf: value + description (src/config.rs:16-20)."""

    setting: T
    desc: str = ""


def _setting(node: Any) -> Optional[Setting]:
    if node is None:
        return None
    if isinstance(node, Setting):
        return node
    if isinstance(node, dict) and "setting" in node:
        return Setting(setting=node["setting"], desc=str(node.get("desc", "")))
    # bare scalar/list shorthand
    return Setting(setting=node, desc="")


@dataclass
class BasicFileChecks:
    """src/config.rs:85-88."""

    bad_filename: Optional[Setting] = None  # regex string


@dataclass
class Metadata:
    """src/config.rs:105-119."""

    primary_variable: Optional[Setting] = None  # variable name
    missing_variable_labels: Optional[Setting] = None  # bool
    value_defined_missing_no_label: Optional[Setting] = None  # bool
    variable_odd_characters: Optional[Setting] = None  # list[str]
    value_label_odd_characters: Optional[Setting] = None  # list[str]
    variable_label_max_length: Optional[Setting] = None  # int
    value_label_max_length: Optional[Setting] = None  # int
    variable_label_spellcheck: Optional[Setting] = None  # list[path]
    value_label_spellcheck: Optional[Setting] = None  # list[path]


@dataclass
class DataIntegrity:
    """src/config.rs:172-179."""

    duplicate_values: Optional[Setting] = None  # list[variable name]
    string_value_odd_characters: Optional[Setting] = None  # list[str]
    string_value_spellcheck: Optional[Setting] = None  # list[path]
    system_missing_value_threshold: Optional[Setting] = None  # int percent


@dataclass
class DisclosureRisk:
    """src/config.rs:214-222."""

    date_format: Optional[Setting] = None  # list[format specifier substring]
    regex_patterns: Optional[Setting] = None  # list[regex]
    unique_values: Optional[Setting] = None  # int occurrence threshold
    string_value_stopword: Optional[Setting] = None  # list[path]


@dataclass
class QualityFilter:
    """Engine extension for the source-code quality-filter pipeline.

    Not part of the reference config; parameters for the north-star rules
    (BASELINE.json north_rule). Every leaf optional = rule skipped,
    matching the reference's gating convention.
    """

    bad_path: Optional[Setting] = None  # regex the path must fullmatch
    path_odd_characters: Optional[Setting] = None  # list[str]
    path_max_length: Optional[Setting] = None  # int bytes
    missing_lang: Optional[Setting] = None  # bool
    content_odd_characters: Optional[Setting] = None  # list[str] substring-any (C11 exact)
    odd_char_ratio_max: Optional[Setting] = None  # float 0..1 over content
    control_char_ratio_max: Optional[Setting] = None  # float 0..1
    max_line_length: Optional[Setting] = None  # int bytes
    max_avg_line_length: Optional[Setting] = None  # float bytes
    min_content_length: Optional[Setting] = None  # int bytes
    max_content_length: Optional[Setting] = None  # int bytes
    alnum_ratio_min: Optional[Setting] = None  # float 0..1
    date_format: Optional[Setting] = None  # list[regex] flag-only
    duplicate_content: Optional[Setting] = None  # bool: drop non-first dups
    stopword_only: Optional[Setting] = None  # list[lexicon path]
    spell_unknown_ratio_max: Optional[Setting] = None  # float 0..1
    spell_dictionaries: Optional[Setting] = None  # list[path]
    langid_allowed: Optional[Setting] = None  # list[lang codes]
    langid_min_confidence: Optional[Setting] = None  # float 0..1
    perplexity_max_bits_per_char: Optional[Setting] = None  # float
    scrub_patterns: Optional[Setting] = None  # list[ {name, pattern, replace} ]
    toxicity_lexicon: Optional[Setting] = None  # list[path]


_SECTION_TYPES = {
    "basic_file_checks": BasicFileChecks,
    "metadata": Metadata,
    "data_integrity": DataIntegrity,
    "disclosure_risk": DisclosureRisk,
    "quality_filter": QualityFilter,
}


@dataclass
class Config:
    """Top-level config (src/config.rs:22-31)."""

    basic_file_checks: BasicFileChecks = field(default_factory=BasicFileChecks)
    metadata: Metadata = field(default_factory=Metadata)
    data_integrity: DataIntegrity = field(default_factory=DataIntegrity)
    disclosure_risk: DisclosureRisk = field(default_factory=DisclosureRisk)
    quality_filter: QualityFilter = field(default_factory=QualityFilter)
    metadata_only: Optional[bool] = None  # suppresses locators, not counts

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        cfg = cls()
        for name, typ in _SECTION_TYPES.items():
            node = d.get(name) or {}
            section = typ(**{f.name: _setting(node.get(f.name)) for f in fields(typ) if f.name in node})
            setattr(cfg, name, section)
        if "metadata_only" in d:
            cfg.metadata_only = bool(d["metadata_only"])
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, text: str) -> "Config":
        return cls.from_dict(yaml.safe_load(text) or {})

    @classmethod
    def from_yaml_file(cls, path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_yaml(f.read())

    # -- validation (src/config.rs:74-246) ---------------------------------

    def validate(self) -> None:
        def _nonempty_list(s: Optional[Setting], what: str) -> None:
            if s is not None and isinstance(s.setting, list) and len(s.setting) == 0:
                raise ValueError(f"{what}: list setting must be non-empty")

        def _pct(s: Optional[Setting], what: str) -> None:
            if s is not None and not (1 <= int(s.setting) <= 100):
                raise ValueError(f"{what}: threshold must be within 1..=100")

        m, di, dr = self.metadata, self.data_integrity, self.disclosure_risk
        for s, what in [
            (m.variable_odd_characters, "metadata.variable_odd_characters"),
            (m.value_label_odd_characters, "metadata.value_label_odd_characters"),
            (m.variable_label_spellcheck, "metadata.variable_label_spellcheck"),
            (m.value_label_spellcheck, "metadata.value_label_spellcheck"),
            (di.duplicate_values, "data_integrity.duplicate_values"),
            (di.string_value_odd_characters, "data_integrity.string_value_odd_characters"),
            (di.string_value_spellcheck, "data_integrity.string_value_spellcheck"),
            (dr.date_format, "disclosure_risk.date_format"),
            (dr.regex_patterns, "disclosure_risk.regex_patterns"),
            (dr.string_value_stopword, "disclosure_risk.string_value_stopword"),
        ]:
            _nonempty_list(s, what)
        _pct(di.system_missing_value_threshold, "data_integrity.system_missing_value_threshold")

        # quality_filter extension: same non-empty-list convention, plus
        # ratio bounds in [0,1] and positive lengths
        qf = self.quality_filter
        for s, what in [
            (qf.path_odd_characters, "quality_filter.path_odd_characters"),
            (qf.content_odd_characters, "quality_filter.content_odd_characters"),
            (qf.date_format, "quality_filter.date_format"),
            (qf.langid_allowed, "quality_filter.langid_allowed"),
        ]:
            _nonempty_list(s, what)
        for s, what in [
            (qf.odd_char_ratio_max, "quality_filter.odd_char_ratio_max"),
            (qf.control_char_ratio_max, "quality_filter.control_char_ratio_max"),
            (qf.alnum_ratio_min, "quality_filter.alnum_ratio_min"),
            (qf.spell_unknown_ratio_max, "quality_filter.spell_unknown_ratio_max"),
            (qf.langid_min_confidence, "quality_filter.langid_min_confidence"),
        ]:
            if s is not None and not (0.0 <= float(s.setting) <= 1.0):
                raise ValueError(f"{what}: ratio must be within 0.0..=1.0")
        for s, what in [
            (qf.path_max_length, "quality_filter.path_max_length"),
            (qf.max_line_length, "quality_filter.max_line_length"),
            (qf.max_content_length, "quality_filter.max_content_length"),
        ]:
            if s is not None and int(s.setting) <= 0:
                raise ValueError(f"{what}: length must be positive")
