"""Content-addressed result cache and static configuration.

An entry's key is the canonical JSON text of (command, parameters, library
version), so stale results from older library versions are never served.  It
is stored as `<command>-<CRC-32 of the key>.json`.  The file's first line is
its head, `<CRC-32 of the payload text, 8 hex> <key text>`; the rest is the
payload text, byte for byte what the job printed, without its newline.  A read
checks the head before it parses anything: an entry whose key text differs
(two keys with one address overwrite each other but never serve each other's
payload) or whose payload text fails its CRC is a miss.  Writes are atomic
(write to a temp file, then rename).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import check_int

# The keys of each command's document, which a cached payload must carry, each
# with the type json.load gives for its schema type: the `required` lists of
# docs/schemas/{cohomology_result,validation_report,model,manifold_report}.json.
# They are held here so that a cache hit reads no schema file.
REQUIRED_KEYS = {
    "cohomology": {"kind": str, "q": int, "dims": dict, "representatives": dict,
                   "total_dim_check": int},
    "validate": {"q": int, "kind": str, "ok": bool, "per_degree": list},
    "model": {"q": int, "degree_cap": int, "generators": dict, "differentials": dict,
              "quasi_iso_check": dict, "ranks": dict},
    "manifold": {"descriptor": dict, "records": list},
}


class ConfigError(ValueError):
    """Raised for malformed configuration files or values."""


class _ConfigFields(NamedTuple):
    q_cap: int
    model_degree_cap: int


class Config(_ConfigFields):
    """The two config keys, the caps, validated; `load_config` takes their names from
    `_fields`.  A pure value, read from no environment: `ResultCache` finds the cache."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, q_cap: int = 10, model_degree_cap: int = 12):
        check_int("q_cap", q_cap, 1, ConfigError)
        check_int("model_degree_cap", model_degree_cap, 1, ConfigError)
        return super().__new__(cls, q_cap, model_degree_cap)

    to_json_obj = _ConfigFields._asdict

    def digest(self) -> str:
        return _crc(canonical_json(self.to_json_obj()).encode())


_CONFIG_BYTES = 2**20  # the largest config file read; a longer one is refused unparsed


def load_config(path: str | None) -> Config:
    if path is None:
        return Config()
    try:
        # non-blocking, so a FIFO opens at once; with nothing written it reads
        # as empty, or as None while a writer holds it open
        nonblock = getattr(os, "O_NONBLOCK", 0)
        with open(path, "rb", opener=lambda p, f: os.open(p, f | nonblock)) as fh:
            raw = fh.read(_CONFIG_BYTES + 1) or b""  # bounded, so /dev/zero cannot exhaust memory
        if len(raw) <= _CONFIG_BYTES:
            data = json.loads(raw.decode("utf-8"))
    # ValueError: bad UTF-8 or JSON, or an integer past the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if len(raw) > _CONFIG_BYTES:
        raise ConfigError(f"config file {path} is larger than {_CONFIG_BYTES} bytes")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    unknown = set(data) - set(Config._fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return Config(**data)


def canonical_json(obj) -> str:
    """Byte-deterministic JSON text (sorted keys, minimal separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _key_text(command: str, params: dict) -> str:
    return canonical_json({"command": command, "params": params, "version": __version__})


def _crc(data: bytes) -> str:
    # a zlib CRC-32, the package's one checksum: a cryptographic digest would load
    # OpenSSL's libcrypto; imported here, not at the top, as `vey` and `kappa` jobs never hash
    import zlib

    return f"{zlib.crc32(data):08x}"


def _head(command: str, params: dict, data: bytes) -> bytes:
    """The first line of the entry for (command, params) whose payload text is data."""
    return f"{_crc(data)} {_key_text(command, params)}\n".encode()


def cache_key(command: str, params: dict) -> str:
    """File name stem of the entry for (command, params); not unique, see `ResultCache.get`."""
    return f"{command}-{_crc(_key_text(command, params).encode())}"


class ResultCache:
    def __init__(self, cache_dir: str | None = None):
        """The cache in cache_dir, else in $VEYCALC_CACHE_DIR, else in ~/.cache/veycalc."""
        if cache_dir is None:
            cache_dir = os.environ.get("VEYCALC_CACHE_DIR") or Path.home() / ".cache" / "veycalc"
        self.dir = Path(cache_dir)

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def get(self, command: str, params: dict):
        """(payload, payload text) cached for (command, params, version), or None.
        A miss: an unreadable file, a head of other key or payload text, text that
        fails to parse (bad UTF-8 or JSON, digit or recursion limits), or a payload
        not an object with the command's REQUIRED_KEYS, each of its type."""
        try:
            with open(self._path(cache_key(command, params)), "rb") as fh:
                head, data = fh.readline(), fh.read()
            if head != _head(command, params, data):
                return None
            text = data.decode()
            payload = json.loads(text)
        except (OSError, ValueError, RecursionError):
            return None
        if not isinstance(payload, dict):
            return None
        # type(), not isinstance(): a JSON true is a bool, which is an int
        if any(type(payload.get(k)) is not t for k, t in REQUIRED_KEYS.get(command, {}).items()):
            return None
        return payload, text

    def put(self, command: str, params: dict, payload) -> str:
        """Store payload; return `canonical_json(payload)`, the entry's text after its head."""
        import tempfile  # only a write needs it; a cache hit skips the import

        text = canonical_json(payload)
        data = text.encode()
        self.dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_head(command, params, data))
                fh.write(data)
            os.replace(tmp, self._path(cache_key(command, params)))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return text
