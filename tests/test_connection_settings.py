"""The connection settings, tested off the table that defines them.

Every test iterates :data:`repro.api.settings.SETTINGS`, so a setting is
covered the moment it has a row there (``test_every_setting_has_samples``
fails until it also has sample values here).  What is checked for each:

* precedence keyword > environment > DSN > config, locally (``connect(cfg)``)
  and remotely (what the client requests in the ``hello`` and what the server
  grants), with values from every source normalised the same way;
* every invalid value is an :class:`InterfaceError` at connect time whose
  message is ``<origin> <requirement>, got <value>`` — from the keyword, the
  environment variable, the DSN, the config field, and the server's own
  check of the handshake.

Setting-specific effects (a ``data_dir`` really opens durable storage, an
``engine`` must exist in the registry, ``workers`` really fans out) live
with their subsystems' tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro import InterfaceError, SkinnerConfig, connect
from repro.api.settings import SETTINGS
from repro.net.client import SocketChannel, parse_dsn
from repro.net.server import ServerThread


@dataclass(frozen=True)
class Samples:
    """Test values for one setting.

    ``valid(tmp_path)`` gives one distinct ``(raw, normalised)`` pair per
    source, in the order keyword, environment, DSN, config — environment
    and DSN values as text.
    ``invalid`` are typed bad values (keyword, config field, handshake),
    ``invalid_text`` textual ones (environment, DSN).  ``served`` is set for
    a setting the server does not grant per session but requires to *match*
    its own value (``data_dir``): it turns the server's value into three
    spellings a client may request.
    """

    valid: Callable[[Any], tuple[tuple[Any, Any], ...]]
    invalid: tuple[Any, ...]
    invalid_text: tuple[str, ...]
    served: Callable[[Any], tuple[Any, ...]] | None = None


SAMPLES = {
    "workers": Samples(
        valid=lambda tmp: ((2, 2), ("3", 3), ("4", 4), (5, 5)),
        invalid=(0, -1, 2.5, "two", True),
        invalid_text=("many", "0", "-3", "2.5"),
    ),
    "data_dir": Samples(
        valid=lambda tmp: (
            (tmp / "keyword", str(tmp / "keyword")),
            (str(tmp / "environment"), str(tmp / "environment")),
            (str(tmp / "dsn"), str(tmp / "dsn")),
            (str(tmp / "config"), str(tmp / "config")),
        ),
        invalid=("", "   ", 7, True),
        invalid_text=("   ",),
        served=lambda value: (value, value + "/", value + "/."),
    ),
    "engine": Samples(
        valid=lambda tmp: (
            ("Skinner-G", "skinner-g"),
            ("SKINNER-H", "skinner-h"),
            ("Traditional", "traditional"),
            ("Skinner_H_SQLite", "skinner_h_sqlite"),
        ),
        invalid=("", "   ", 7, True),
        invalid_text=("   ",),
    ),
}

by_setting = pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.name)


def test_every_setting_has_samples():
    assert {setting.name for setting in SETTINGS} == set(SAMPLES)


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for setting in SETTINGS:
        monkeypatch.delenv(setting.env_var, raising=False)


@pytest.fixture
def hello_requests(monkeypatch):
    """The ``hello`` arguments every remote connect of the test sent."""
    sent: list[dict[str, Any]] = []
    request = SocketChannel.request

    def spy(self, verb, **args):
        if verb == "hello":
            sent.append(args)
        return request(self, verb, **args)

    monkeypatch.setattr(SocketChannel, "request", spy)
    return sent


def effective(conn, setting) -> Any:
    """The setting's value as ``info()`` reports it; closes the connection."""
    try:
        info = conn.info()
        assert info["remote"] is conn.is_remote
        if conn.is_remote:
            assert info["engines"] is None
        else:
            assert "skinner-c" in info["engines"]
            assert getattr(conn.config, setting.config_field) == info[setting.name]
        if setting.name == "engine":
            assert conn.default_engine == info["engine"]
        return info[setting.name]
    finally:
        conn.close()


# ----------------------------------------------------------------------
# precedence and normalisation
# ----------------------------------------------------------------------
@by_setting
def test_local_precedence(setting, tmp_path, monkeypatch):
    """keyword > environment > config; every source normalised alike."""
    (keyword, keyword_n), (env, env_n), _, (configured, configured_n) = (
        SAMPLES[setting.name].valid(tmp_path)
    )
    config = SkinnerConfig(**{setting.config_field: configured})
    default = getattr(SkinnerConfig(), setting.config_field)
    assert effective(connect(SkinnerConfig()), setting) == default
    assert effective(connect(config), setting) == configured_n
    monkeypatch.setenv(setting.env_var, "")  # empty counts as unset
    assert effective(connect(config), setting) == configured_n
    monkeypatch.setenv(setting.env_var, env)
    assert effective(connect(config), setting) == env_n
    assert effective(connect(config, **{setting.name: keyword}), setting) == keyword_n


@by_setting
def test_remote_precedence(setting, tmp_path, monkeypatch, hello_requests):
    """keyword > environment > DSN > server config, through the handshake."""
    samples = SAMPLES[setting.name]
    valid = samples.valid(tmp_path)
    configured, configured_n = valid[3]
    if samples.served is not None:
        valid = tuple((raw, raw) for raw in samples.served(configured_n))
    (keyword, keyword_n), (env, env_n), (dsn, dsn_n) = valid[:3]
    with ServerThread(config=SkinnerConfig(**{setting.config_field: configured})) as live:
        with_dsn = f"{live.dsn}?{setting.name}={dsn}"
        assert parse_dsn(with_dsn)[2] == {setting.name: dsn_n}

        def check(target, requested, **keywords):
            granted = configured_n if samples.served or requested is None else requested
            assert effective(connect(target, **keywords), setting) == granted
            assert hello_requests[-1][setting.name] == requested

        check(live.dsn, None)
        check(with_dsn, dsn_n)
        monkeypatch.setenv(setting.env_var, env)
        check(with_dsn, env_n)
        check(with_dsn, keyword_n, **{setting.name: keyword})


# ----------------------------------------------------------------------
# invalid values: one message per setting, prefixed with its origin
# ----------------------------------------------------------------------
def complaint(setting, origin: str, bad: Any) -> str:
    return f"{origin} {setting.requirement}, got {bad!r}"


def assert_rejected(setting, origin: str, bad: Any, connect_call) -> None:
    with pytest.raises(InterfaceError) as caught:
        connect_call().close()
    assert str(caught.value) == complaint(setting, origin, bad)


@by_setting
def test_invalid_keyword_and_config(setting):
    for bad in SAMPLES[setting.name].invalid:
        assert_rejected(setting, setting.name, bad,
                        lambda: connect(**{setting.name: bad}))
        assert_rejected(setting, setting.name, bad,
                        lambda: connect("repro://127.0.0.1:1/", **{setting.name: bad}))
        assert_rejected(setting, setting.config_field, bad,
                        lambda: connect(SkinnerConfig(**{setting.config_field: bad})))


@by_setting
def test_invalid_environment_and_dsn(setting, monkeypatch):
    for bad in SAMPLES[setting.name].invalid_text:
        assert_rejected(setting, f"DSN {setting.name}", bad,
                        lambda: connect(f"repro://127.0.0.1:1/?{setting.name}={bad}"))
        monkeypatch.setenv(setting.env_var, bad)
        assert_rejected(setting, setting.env_var, bad, connect)
        assert_rejected(setting, setting.env_var, bad,
                        lambda: connect("repro://127.0.0.1:1/"))
        monkeypatch.delenv(setting.env_var)


@by_setting
def test_invalid_handshake_rejected_by_the_server(setting):
    """The server re-checks what a (foreign or buggy) client sends."""
    with ServerThread(config=SkinnerConfig()) as live:
        host, port, _ = parse_dsn(live.dsn)
        for bad in SAMPLES[setting.name].invalid:
            with pytest.raises(InterfaceError) as caught:
                SocketChannel(host, port, settings={setting.name: bad})
            assert str(caught.value) == complaint(setting, setting.name, bad)
        connect(live.dsn).close()  # and keeps serving


@by_setting
def test_blank_dsn_value_is_invalid_not_absent(setting):
    assert_rejected(setting, f"DSN {setting.name}", "",
                    lambda: connect(f"repro://127.0.0.1:1/?{setting.name}="))
