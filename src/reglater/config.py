"""Versioned JSON experiment configs.

Validation is fail-closed: unknown keys anywhere in the document are
rejected, and every complaint names the offending field.  A silent typo in a
rate experiment would corrupt the whole report, so nothing is guessed.
"""
from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigurationError
from .harness import ExperimentConfig
from .model import FeatureSpec, ProcessSpec
from .payoff import PayoffSpec

SCHEMA_VERSION = 1


def _require_mapping(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where}: expected an object")
    return doc


def _check_keys(doc: dict, where: str, required: set[str], optional: set[str]) -> None:
    for key in doc:
        if key not in required and key not in optional:
            raise ConfigurationError(f"{where}.{key}: unknown key (fail-closed schema)")
    for key in required:
        if key not in doc:
            raise ConfigurationError(f"{where}.{key}: missing required key")


def _number(doc: dict, where: str, key: str, default=None):
    if key not in doc:
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"{where}.{key}: expected a number")
    return v


def _integer(doc: dict, where: str, key: str, default=None):
    if key not in doc:
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"{where}.{key}: expected an integer")
    return v


def _string(doc: dict, where: str, key: str, default=None):
    if key not in doc:
        return default
    v = doc[key]
    if not isinstance(v, str):
        raise ConfigurationError(f"{where}.{key}: expected a string")
    return v


def _int_list(doc: dict, where: str, key: str):
    if key not in doc:
        return None
    v = doc[key]
    if (not isinstance(v, list) or not v
            or any(isinstance(x, bool) or not isinstance(x, int) for x in v)):
        raise ConfigurationError(f"{where}.{key}: expected a non-empty list of integers")
    return tuple(v)


def validate_config_dict(doc: dict) -> ExperimentConfig:
    """Turn a parsed JSON document into a validated ExperimentConfig."""
    _require_mapping(doc, "config")
    _check_keys(doc, "config",
                required={"schema_version", "process", "feature", "payoff", "sweep",
                          "K_list", "repetitions", "seed"},
                optional={"name", "N_rule", "N_list", "eval", "domain_epsilon"})
    version = _integer(doc, "config", "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    p = _require_mapping(doc["process"], "process")
    _check_keys(p, "process", {"kind", "horizon"}, set())
    process = ProcessSpec(kind=_string(p, "process", "kind"),
                          horizon=_number(p, "process", "horizon"))

    f = _require_mapping(doc["feature"], "feature")
    _check_keys(f, "feature", {"kind", "eval_time"}, {"intermediate_time"})
    feature = FeatureSpec(
        kind=_string(f, "feature", "kind"),
        eval_time=_number(f, "feature", "eval_time"),
        intermediate_time=_number(f, "feature", "intermediate_time"),
    )

    g = _require_mapping(doc["payoff"], "payoff")
    _check_keys(g, "payoff", {"kind"}, {"strike"})
    payoff = PayoffSpec(kind=_string(g, "payoff", "kind"), strike=_number(g, "payoff", "strike"))

    n_rule = None
    if "N_rule" in doc:
        r = _require_mapping(doc["N_rule"], "N_rule")
        _check_keys(r, "N_rule", {"c", "b"}, set())
        n_rule = (float(_number(r, "N_rule", "c")), float(_number(r, "N_rule", "b")))

    eval_method, eval_multiplier = "quadrature", 10
    if "eval" in doc:
        e = _require_mapping(doc["eval"], "eval")
        _check_keys(e, "eval", {"method"}, {"multiplier"})
        eval_method = _string(e, "eval", "method")
        eval_multiplier = _integer(e, "eval", "multiplier", 10)

    return ExperimentConfig(
        name=_string(doc, "config", "name", "experiment"),
        process=process,
        payoff=payoff,
        feature=feature,
        sweep=_string(doc, "config", "sweep"),
        K_list=_int_list(doc, "config", "K_list"),
        repetitions=_integer(doc, "config", "repetitions"),
        seed=_integer(doc, "config", "seed"),
        N_rule=n_rule,
        N_list=_int_list(doc, "config", "N_list"),
        eval_method=eval_method,
        eval_multiplier=eval_multiplier,
        domain_epsilon=float(_number(doc, "config", "domain_epsilon", 1e-4)),
    )


def load_config_dict(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"config file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file: malformed JSON ({exc})") from exc


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.path=json_value`` overrides to a config document."""
    out = json.loads(json.dumps(doc))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r}: expected key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = path.split(".")
        cursor = out
        for k in keys[:-1]:
            if not isinstance(cursor.get(k), dict):
                cursor[k] = {}
            cursor = cursor[k]
        cursor[keys[-1]] = value
    return out


def load_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    doc = load_config_dict(path)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return validate_config_dict(doc)
