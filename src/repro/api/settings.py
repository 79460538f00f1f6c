"""The connection settings table: one row per setting, one resolution loop.

A *connection setting* can be given four ways, in decreasing precedence:
the :func:`repro.api.connect` keyword, an environment variable, a
``repro://`` DSN query parameter, and a :class:`~repro.config.SkinnerConfig`
field.  :data:`SETTINGS` is the complete list.  A row's ``name`` is the
keyword, the DSN key, the ``hello`` handshake argument and the
:meth:`Connection.info` key at once; its one ``normalise`` function checks a
value from *any* source, so all sources accept the same values and every
rejection reads ``<where it came from> <requirement>, got <value>``.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.config import SkinnerConfig
from repro.errors import InterfaceError


def _positive_int(raw: Any, origin: str) -> int:
    value = int(raw) if isinstance(raw, str) else raw  # env and DSN values are text
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError
    return value


def _directory_path(raw: Any, origin: str) -> str:
    value = str(raw) if isinstance(raw, Path) else raw
    if not isinstance(value, str) or not value.strip():
        raise ValueError
    path = Path(value)
    if path.exists() and not path.is_dir():
        raise InterfaceError(f"{origin} {value!r} exists and is not a directory")
    return value


def _engine_name(raw: Any, origin: str) -> str:
    if not isinstance(raw, str) or not raw.strip():
        raise ValueError
    return raw.lower()  # the registry's spelling; membership is the registry's call


@dataclass(frozen=True)
class Setting:
    """One row; ``normalise(raw, origin)`` returns the canonical value or
    raises :class:`ValueError` when ``raw`` is not what ``requirement`` says."""

    name: str
    config_field: str
    env_var: str
    requirement: str
    normalise: Callable[[Any, str], Any]

    def check(self, raw: Any, origin: str) -> Any:
        """``raw`` normalised, or :class:`InterfaceError` naming ``origin``."""
        try:
            return self.normalise(raw, origin)
        except ValueError:
            raise InterfaceError(f"{origin} {self.requirement}, got {raw!r}") from None


SETTINGS: tuple[Setting, ...] = (
    Setting("workers", "parallel_workers", "REPRO_PARALLEL_WORKERS",
            "must be a positive integer", _positive_int),
    Setting("data_dir", "data_dir", "REPRO_DATA_DIR",
            "must be a non-empty path", _directory_path),
    Setting("engine", "default_engine", "REPRO_ENGINE",
            "must be a non-empty engine name", _engine_name),
)


def check_settings(raw: Mapping[str, Any], origin: str = "") -> dict[str, Any]:
    """The settings present (and not ``None``) in ``raw``, checked; ``origin``
    prefixes the name in messages (``"DSN "``).  Other keys are ignored."""
    return {
        setting.name: setting.check(raw[setting.name], origin + setting.name)
        for setting in SETTINGS
        if raw.get(setting.name) is not None
    }


def resolve_settings(
    keywords: Mapping[str, Any],
    *,
    dsn: Mapping[str, Any] | None = None,
    config: SkinnerConfig | None = None,
) -> dict[str, Any]:
    """Every setting's effective value: keyword > environment > DSN > config.

    ``dsn`` holds values :func:`repro.net.client.parse_dsn` already checked;
    an empty environment variable counts as unset; a setting no source
    provides is ``None`` (remotely the server's config fills it in).
    """
    resolved: dict[str, Any] = {}
    for setting in SETTINGS:
        name = setting.name
        if keywords.get(name) is not None:
            value = setting.check(keywords[name], name)
        elif os.environ.get(setting.env_var):
            value = setting.check(os.environ[setting.env_var], setting.env_var)
        elif dsn is not None and name in dsn:
            value = dsn[name]
        elif config is not None and getattr(config, setting.config_field) is not None:
            value = setting.check(getattr(config, setting.config_field), setting.config_field)
        else:
            value = None
        resolved[name] = value
    return resolved
