"""JSON (de)serialization of the frozen config dataclasses, driven by their
fields and type hints.

Loading is strict: an unknown key, a missing required key or a value of the
wrong JSON type raises ConfigError naming its path (``train.epoch``,
``methods[0].bse``), so a typo fails at load instead of being ignored.
Values are kept as given (an integer in a float field stays an integer), so
a config echoes back unchanged.
"""

import dataclasses
import types
import typing

from .errors import ConfigError

# JSON types each scalar annotation accepts; bool is excluded from the numbers.
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _join(path: str, key) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else (f"{path}.{key}" if path else key)


def _load(tp, value, path: str = ""):
    """Build a value of annotation tp from its JSON form."""
    if dataclasses.is_dataclass(tp):
        return value if isinstance(value, tp) else tp.from_dict(value, path)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        return tuple(_load(args[0], v, _join(path, i)) for i, v in enumerate(value))
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        return _load(next(a for a in args if a is not type(None)), value, path)
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, _SCALARS[tp]):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {type(value).__name__}")
    return value


class ConfigDict:
    """to_dict/from_dict for a config dataclass, derived from its fields."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict, path: str = ""):
        if not isinstance(d, dict):
            raise ConfigError(f"{path or 'config'}: expected an object, got {type(d).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key in d:
            if key not in fields:
                raise ConfigError(f"unknown key {_join(path, key)}")
        for name, f in fields.items():
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            if required and name not in d:
                raise ConfigError(f"missing key {_join(path, name)}")
        hints = typing.get_type_hints(cls)
        return cls(**{k: _load(hints[k], v, _join(path, k)) for k, v in d.items()})
