"""Default / generated config emitters.

``default_yaml()`` mirrors /root/reference/default.yaml (same keys, same
defaults); ``generated_yaml()`` mirrors the fully-populated config of
/root/reference/src/bin/gen_config.rs:6-86 including its production regex
bank (simple email, UK postcode, RFC-2822 email — gen_config.rs:16-20).

CLI: ``python -m qamd_ray.gen_config [--full]`` prints YAML to stdout
(reference binary prints the generated config; K4 in SURVEY.md §2.1).
"""

from __future__ import annotations

import sys

import yaml

from .config import Config

ODD_CHARS_DEFAULT = ["&", "#", "  ", "@", "*", "ç", "ô", "ü"]  # default.yaml:45-55
ODD_CHARS_GENERATED = ["!", "#", "  ", "@", "ë", "ç", "ô", "ü"]  # gen_config.rs:7

# gen_config.rs:16-20 — the production regex bank
REGEX_EMAIL_SIMPLE = r"^([\w\.\-]+)@([\w\-]+)((\.(\w){2,4})+)$"
REGEX_UK_POSTCODE = (
    r"([Gg][Ii][Rr] 0[Aa]{2})|((([A-Za-z][0-9]{1,2})|(([A-Za-z][A-Ha-hJ-Yj-y][0-9]{1,2})"
    r"|(([A-Za-z][0-9][A-Za-z])|([A-Za-z][A-Ha-hJ-Yj-y][0-9]?[A-Za-z]))))\s?[0-9][A-Za-z]{2})"
)
REGEX_EMAIL_RFC2822 = (
    r"((([a-zA-Z0-9!#$%&'*+/=?^_`{|}~-]+(\.[a-zA-Z0-9!#$%&'*+/=?^_`{|}~-]+)*)"
    r"|(\"(([\x01-\x08\x0B\x0C\x0E-\x1F\x7F]|[\x21\x23-\x5B\x5D-\x7E])"
    r"|(\\[\x01-\x09\x0B\x0C\x0E-\x7F]))*\"))@"
    r"(([a-zA-Z0-9!#$%&'*+/=?^_`{|}~-]+(\.[a-zA-Z0-9!#$%&'*+/=?^_`{|}~-]+)*)"
    r"|(\[(([\x01-\x08\x0B\x0C\x0E-\x1F\x7F]|[\x21-\x5A\x5E-\x7E])"
    r"|(\\[\x01-\x09\x0B\x0C\x0E-\x7F]))*\])))"
)


def _default_dict() -> dict:
    return {
        "basic_file_checks": {
            "bad_filename": {
                "setting": r"^([a-zA-Z0-9]+)\.([a-zA-Z0-9]+)$",
                "desc": "File name should match the user specified pattern",
            }
        },
        "metadata": {
            "primary_variable": {
                "setting": "HouseholdID",
                "desc": "Counts the unique occurrences for the grouping variable specified",
            },
            "missing_variable_labels": {
                "setting": True,
                "desc": "Variables should have a label",
            },
            "value_defined_missing_no_label": {
                "setting": True,
                "desc": "User-defined missing values should have a label (SPSS only)",
            },
            "variable_odd_characters": {
                "setting": list(ODD_CHARS_DEFAULT),
                "desc": "Variable names and labels should not contain the specified characters",
            },
            "value_label_odd_characters": {
                "setting": list(ODD_CHARS_DEFAULT),
                "desc": "Value labels should not contain the specified characters",
            },
            "variable_label_max_length": {
                "setting": 79,
                "desc": "Variable labels should not exceed the defined number of characters",
            },
            "value_label_max_length": {
                "setting": 39,
                "desc": "Value labels should not exceed the defined number of characters",
            },
        },
        "data_integrity": {
            "duplicate_values": {
                "setting": ["Caseno"],
                "desc": "Variable should not contain duplicate/repeated values",
            },
            "string_value_odd_characters": {
                "setting": list(ODD_CHARS_DEFAULT),
                "desc": "String values should not contain the specified characters",
            },
            "system_missing_value_threshold": {
                "setting": 25,
                "desc": "Variable should not exceed the specified percentage of system missing values",
            },
        },
        "disclosure_risk": {
            "unique_values": {
                "setting": 1,
                "desc": (
                    "Variable should not contain number of observations equal to "
                    "or less than specified threshold"
                ),
            },
            "string_value_stopword": {
                "setting": ["stopword.txt"],
                "desc": "String values should not contain user defined values",
            },
        },
    }


def _generated_dict() -> dict:
    d = _default_dict()
    d["metadata"]["variable_odd_characters"]["setting"] = list(ODD_CHARS_GENERATED)
    d["metadata"]["value_label_odd_characters"]["setting"] = list(ODD_CHARS_GENERATED)
    d["data_integrity"]["string_value_odd_characters"]["setting"] = list(ODD_CHARS_GENERATED)
    d["disclosure_risk"]["regex_patterns"] = {
        "setting": [REGEX_EMAIL_SIMPLE, REGEX_UK_POSTCODE, REGEX_EMAIL_RFC2822],
        "desc": "Values matching a regex pattern fail. Can be used to find post codes and telephone numbers.",
    }
    return d


def _quality_dict() -> dict:
    """Default config for the source-code quality-filter pipeline (the
    graft's flagship; section semantics in config.QualityFilter).

    Thresholds are chosen so each planted defect class of synth.gen_corpus
    lands decisively on one side (FIXTURES.md §F2): e.g. the odd-chars
    defect drives the odd-char ratio far above 0.05, clean code sits near 0.
    """
    return {
        "quality_filter": {
            "bad_path": {
                "setting": r"[A-Za-z0-9_\-./]+",
                "desc": "Path must fully match the allowed-character pattern",
            },
            "path_odd_characters": {
                "setting": list(ODD_CHARS_DEFAULT),
                "desc": "Path should not contain the specified substrings",
            },
            "path_max_length": {"setting": 240, "desc": "Path byte length cap"},
            "missing_lang": {"setting": True, "desc": "Declared lang tag should be present"},
            "content_odd_characters": {
                # QAMD's substring-any semantics (post.rs:262-299); the
                # double-space entry of default.yaml:49 is dropped — code
                # indents with runs of spaces
                "setting": ["&#", "@@", "ç", "ô", "ü"],
                "desc": "Content should not contain the specified substrings",
            },
            "odd_char_ratio_max": {
                "setting": 0.05,
                "desc": "Max fraction of non-printable-ASCII characters in content",
            },
            "control_char_ratio_max": {
                "setting": 0.01,
                "desc": "Max fraction of C0 control characters in content",
            },
            "max_line_length": {"setting": 2000, "desc": "Longest line byte cap"},
            "max_avg_line_length": {"setting": 400.0, "desc": "Mean line byte cap"},
            "min_content_length": {"setting": 10, "desc": "Min content bytes"},
            "max_content_length": {"setting": 20000, "desc": "Max content bytes"},
            "alnum_ratio_min": {
                "setting": 0.25,
                "desc": "Min fraction of alphanumeric characters",
            },
            "date_format": {"setting": True, "desc": "Flag content embedding date literals"},
            "duplicate_content": {
                "setting": True,
                "desc": "Drop exact-duplicate content (first occurrence by (repo,path) kept)",
            },
            "stopword_only": {"setting": True, "desc": "Drop content whose tokens are all lexicon words"},
            "langid_allowed": {
                "setting": ["c", "go", "javascript", "markdown", "python", "rust"],
                "desc": "Languages the classifier may confidently predict",
            },
            "langid_min_confidence": {
                "setting": 0.9,
                "desc": "Posterior confidence needed before langid disagreement drops a row",
            },
            "perplexity_max_bits_per_char": {
                "setting": 6.0,
                "desc": "Max char-LM cross-entropy (bits/char)",
            },
            "scrub_patterns": {"setting": True, "desc": "Scrub PII/credentials with the default bank"},
            "toxicity_lexicon": {"setting": True, "desc": "Scrub lexicon tokens"},
        }
    }


def quality_yaml() -> str:
    return yaml.safe_dump(_quality_dict(), sort_keys=False, allow_unicode=True)


def quality_config() -> Config:
    return Config.from_dict(_quality_dict())


def default_yaml() -> str:
    return yaml.safe_dump(_default_dict(), sort_keys=False, allow_unicode=True)


def generated_yaml() -> str:
    return yaml.safe_dump(_generated_dict(), sort_keys=False, allow_unicode=True)


def default_config() -> Config:
    return Config.from_dict(_default_dict())


if __name__ == "__main__":
    print(generated_yaml() if "--full" in sys.argv else default_yaml())
