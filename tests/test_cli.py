"""Tests for the CLI: exit codes, JSON determinism, caching, config."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import zlib

import pytest

from veycalc import __version__, cli
from veycalc import cache as cache_module
from veycalc.cache import (
    REQUIRED_KEYS,
    Config,
    ConfigError,
    ResultCache,
    canonical_json,
    load_config,
)

SCHEMAS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"
SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _entry(key: str, text: str) -> bytes:
    """A cache entry: its head, `<CRC-32 of text, 8 hex> <key text>`, then the text."""
    return f"{zlib.crc32(text.encode()):08x} {key}\n{text}".encode()


def _read_entry(path) -> tuple[str, str]:
    """(key text, payload text) of the entry at path, which must be well formed."""
    data = path.read_bytes()
    head, text = data.decode().split("\n", 1)
    assert data == _entry(head[9:], text)
    return head[9:], text


def test_cohomology_json(capsys, cache_dir):
    code, out, err = run(
        capsys,
        ["cohomology", "--complex", "W", "--q", "1", "--format", "json",
         "--cache-dir", cache_dir],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"0": 1, "3": 1}
    assert out not in err  # result data never goes to stderr


def test_kappa(capsys, cache_dir):
    code, out, _ = run(capsys, ["kappa", "--q", "3", "--cache-dir", cache_dir])
    assert code == 0
    assert out.strip() == "1"


def _refusal_estimate(err: str) -> int:
    """The estimate of a budget refusal, which the message states exactly once."""
    (estimate,) = re.findall(r"\(dimension estimate (\d+)\)", err)
    return int(estimate)


def test_budget_exit_code(capsys, cache_dir):
    code, out, err = run(
        capsys,
        ["cohomology", "--complex", "W", "--q", "99", "--cache-dir", cache_dir],
    )
    assert code == 3
    assert out == ""
    estimate = _refusal_estimate(err)
    assert estimate > 10**30
    assert err.count(str(estimate)) == 1  # not restated by the refusal's own message


def test_huge_estimate_is_printed_bounded(monkeypatch, capsys, cache_dir):
    # str() of an int past 4300 digits raises ValueError; the refusal must not
    from veycalc import complexes

    monkeypatch.setattr(complexes, "dimension_estimate", lambda q, kind: 10**5000)
    code, out, err = run(capsys, ["cohomology", "--complex", "W", "--q", "11",
                                  "--cache-dir", cache_dir])
    assert code == 3
    assert out == ""
    assert re.findall(r"\(dimension estimate ([^)]*)\)", err) == ["~10^5000"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("command", ["cohomology", "validate"])
def test_large_q_refusal_does_not_hang(tmp_path, command):
    # the refusal's estimate is a closed form, not a series of length ~q^2
    proc = subprocess.run(
        [sys.executable, "-m", "veycalc.cli", command, "--complex", "W", "--q", "1000",
         "--cache-dir", str(tmp_path / "cache")],
        env=_child_env(), capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert _refusal_estimate(proc.stderr) > 2**1000  # the y-subsets alone


@pytest.mark.parametrize(
    "argv, code, message",
    [(["cohomology", "--complex", "W", "--q", "99"], 3, None),
     (["validate", "--complex", "W", "--q", "99"], 3, None),
     (["model", "--q", "0", "--max-degree", "4"], 2, "invalid input: q must be positive"),
     (["model", "--q", "2", "--max-degree", "1"], 2,
      "invalid input: degree cap must be at least 2")],
    ids=["cohomology", "validate", "model-q0", "model-max-degree1"],
)
def test_refused_job_prints_only_the_refusal(capsys, cache_dir, argv, code, message):
    # no progress line for work the job never starts
    from veycalc import complexes

    if message is None:  # the W_99 budget refusal
        message = (
            "resource budget exceeded: W_99 exceeds the configured cap q <= 10 "
            f"(dimension estimate {complexes.dimension_estimate(99, 'W')})"
        )
    assert run(capsys, argv + ["--cache-dir", cache_dir]) == (code, "", f"veycalc: {message}\n")


@pytest.mark.parametrize(
    "argv, classes, seconds",
    [(["--complex", "WO", "--q", "24", "--degree", "49"], 1957, 5),  # v_24
     (["--complex", "W", "--q", "14", "--degree", "0"], 0, 2)],
    ids=["WO24-degree49", "W14-degree0"],
)
def test_vey_degree_builds_only_its_slice(tmp_path, argv, classes, seconds):
    # the whole WO_24 basis takes tens of seconds to build, and a degree with
    # no classes must cost no enumeration at all
    proc = subprocess.run(
        [sys.executable, "-m", "veycalc.cli", "vey", *argv, "--format", "json",
         "--cache-dir", str(tmp_path / "cache")],
        env=_child_env(), capture_output=True, text=True, timeout=seconds,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["classes"]) == classes
    assert ('"classes":[]' in proc.stdout) == (not classes)


# `main()` in a fresh interpreter, whose atexit hook records the number of
# objects `gc.freeze()` moved to the permanent generation
MAIN_CHILD = """
import atexit, gc, sys
from veycalc.cli import main
path = sys.argv.pop(1)
def record():
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count()))
atexit.register(record)
main()
"""

MAIN_JOBS = [
    ["cohomology", "--complex", "W", "--q", "2", "--format", "json"],
    ["manifold", "--preset", "T2", "--format", "table"],
    ["vey", "--complex", "WO", "--q", "4", "--format", "json"],  # streamed
    ["manifold", "--preset", "bogus"],  # exit 2
    ["cohomology", "--complex", "W", "--q", "99"],  # exit 3
]


@pytest.mark.parametrize("argv", MAIN_JOBS, ids=["json", "table", "vey", "exit-2", "exit-3"])
def test_main_matches_run_and_freezes_before_exit(tmp_path, capsys, argv):
    frozen = tmp_path / "frozen"
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_CHILD, str(frozen), *argv,
         "--cache-dir", str(tmp_path / "child-cache")],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    code, out, err = run(capsys, [*argv, "--cache-dir", str(tmp_path / "cache")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert int(frozen.read_text()) > 0  # the atexit hook ran, after the freeze


def test_closed_pipe_exits_1_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "veycalc.cli", "vey", "--complex", "W", "--q", "8",
         "--format", "json"],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{"classes"'
    proc.stdout.close()  # the output is about 0.7 MB, far past the pipe's buffer
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_model_budget_exit_code(capsys, cache_dir):
    code, out, err = run(
        capsys, ["model", "--q", "1", "--max-degree", "99", "--cache-dir", cache_dir]
    )
    assert code == 3
    assert out == ""
    assert "cap" in err
    assert _refusal_estimate(err) == 99


@pytest.mark.parametrize(
    "flags",
    [["--preset", "bogus"], ["--preset", "S1:junk"], ["--preset", "T3:2"],
     ["--preset", ""], ["--preset", "", "--dim", "1"]],
    ids=["unknown", "S1-argument", "T3-argument", "empty", "empty-with-dim"],
)
def test_invalid_input_exit_code(capsys, cache_dir, flags):
    code, out, err = run(capsys, ["manifold", *flags, "--cache-dir", cache_dir])
    assert code == 2
    assert out == ""
    assert "invalid input" in err
    assert not pathlib.Path(cache_dir).exists()


@pytest.mark.parametrize(
    "flags",
    [["--dim", "3"], ["--dim", "0"], ["--compact"], ["--parallelizable"],
     ["--trivialized-over-cycles"], ["--cospherical", "1:1"], ["--compact", "--parallelizable"]],
)
def test_preset_with_descriptor_flags_exit_2(capsys, cache_dir, flags):
    code, out, err = run(
        capsys, ["manifold", "--preset", "S1", *flags, "--cache-dir", cache_dir]
    )
    assert code == 2
    assert out == ""
    assert "conflicts with " + ", ".join(f for f in flags if f.startswith("--")) in err
    assert not pathlib.Path(cache_dir).exists()


@pytest.mark.parametrize("flag", ["--closed", "--non-orientable"])
def test_removed_manifold_flags_exit_2(capsys, cache_dir, flag):
    # closed is compact and orientable is true, so neither flag chose anything
    with pytest.raises(SystemExit) as exc:
        cli.run(["manifold", "--dim", "3", "--compact", flag, "--cache-dir", cache_dir])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err
    assert not pathlib.Path(cache_dir).exists()


def test_manifold_descriptor_closed_is_compact(capsys):
    for flags, compact in (["--compact"], True), ([], False):
        code, out, _ = run(capsys, ["manifold", "--dim", "3", *flags, "--format", "json",
                                    "--no-cache"])
        descriptor = json.loads(out)["descriptor"]
        assert code == 0
        assert (descriptor["compact"], descriptor["closed"], descriptor["orientable"]) == (
            compact, compact, True)


def test_repeated_cospherical_degree_exit_2(capsys, cache_dir):
    code, out, err = run(capsys, ["manifold", "--dim", "3", "--compact", "--parallelizable",
                                  "--cospherical", "1:2,1:3", "--cache-dir", cache_dir])
    assert (code, out) == (2, "")
    assert "invalid input: co-spherical degree 1 is listed twice" in err
    assert not pathlib.Path(cache_dir).exists()


def test_missing_subcommand(capsys):
    code, _, err = run(capsys, [])
    assert code == 2


def test_version(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert "veycalc" in out and "config" in out


def test_cache_cold_vs_warm_byte_identical(capsys, cache_dir):
    argv = ["cohomology", "--complex", "WO", "--q", "2", "--format", "json",
            "--cache-dir", cache_dir]
    code1, cold, _ = run(capsys, argv)
    code2, warm, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert cold == warm


def test_cache_keys_are_versioned(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put("cmd", {"a": 1}, {"x": 2})
    assert cache.get("cmd", {"a": 1}) == ({"x": 2}, '{"x":2}')
    assert cache.get("cmd", {"a": 2}) is None
    # a stale-version entry is never served: its head holds another version
    path = next(tmp_path.glob("*.json"))
    key, text = _read_entry(path)
    assert f'"version":"{__version__}"' in key
    path.write_bytes(_entry(key.replace(__version__, "0.0.0"), text))
    assert cache.get("cmd", {"a": 1}) is None


def test_colliding_addresses_never_serve_each_other(tmp_path, monkeypatch):
    # every key at one address: the entry's full key text tells them apart
    monkeypatch.setattr(cache_module, "cache_key", lambda command, params: "same")
    cache = ResultCache(str(tmp_path))
    cache.put("cmd", {"a": 1}, {"x": 1})
    assert cache.get("cmd", {"a": 2}) is None
    cache.put("cmd", {"a": 2}, {"x": 2})
    assert cache.get("cmd", {"a": 1}) is None  # overwritten: a miss, not {"x": 2}
    assert cache.get("cmd", {"a": 2}) == ({"x": 2}, '{"x":2}')
    assert [p.name for p in tmp_path.iterdir()] == ["same.json"]


@pytest.mark.parametrize("address", ["sha256", "current"])
def test_entry_of_an_earlier_format_is_never_read(capsys, cache_dir, address):
    # the JSON envelope entries of earlier versions, {created_at, key, payload,
    # version}: a wrong payload planted in that format, under the sha256 name
    # of older versions or at today's address with today's key text, is not
    # served, and the entry at today's address is rewritten with a head
    argv = ["cohomology", "--complex", "W", "--q", "1", "--format", "json"]
    params = {"q": 1, "kind": "W"}
    key_text = canonical_json({"command": "cohomology", "params": params, "version": __version__})
    if address == "sha256":
        name = key = hashlib.sha256(key_text.encode()).hexdigest()
    else:
        name, key = cache_module.cache_key("cohomology", params), key_text
    planted = {"kind": "W", "q": 1, "dims": {}, "representatives": {}, "total_dim_check": 0}
    os.makedirs(cache_dir)
    pathlib.Path(cache_dir, f"{name}.json").write_text(canonical_json(
        {"key": key, "version": __version__, "created_at": "", "payload": planted}
    ))
    code, out, _ = run(capsys, argv + ["--cache-dir", cache_dir])
    assert code == 0
    assert json.loads(out)["dims"] == {"0": 1, "3": 1}
    (path,) = pathlib.Path(cache_dir).glob("cohomology-*.json")
    assert _read_entry(path) == (key_text, out[:-1])


def test_json_round_trip_all_commands(capsys, cache_dir):
    docs = []
    for argv in (
        ["cohomology", "--complex", "W", "--q", "2"],
        ["vey", "--q", "2", "--complex", "WO"],
        ["validate", "--q", "1", "--complex", "W"],
        ["model", "--q", "2", "--max-degree", "6"],
        ["manifold", "--preset", "T2"],
        ["kappa", "--q", "7"],
    ):
        code, out, _ = run(
            capsys, argv + ["--format", "json", "--cache-dir", cache_dir]
        )
        assert code == 0
        doc = json.loads(out)
        assert canonical_json(doc) + "\n" == out  # emit-parse-emit identity
        docs.append(doc)
    # each entry is a head and a payload text, both the canonical text of what
    # they parse to, the payload a printed document
    entries = list(pathlib.Path(cache_dir).glob("*.json"))
    assert len(entries) == 4
    for path in entries:
        key, text = _read_entry(path)
        assert canonical_json(json.loads(key)) == key
        assert canonical_json(json.loads(text)) == text
        assert json.loads(text) in docs


def test_table_output_is_aligned(capsys, cache_dir):
    code, out, _ = run(
        capsys,
        ["vey", "--q", "2", "--complex", "W", "--format", "table",
         "--cache-dir", cache_dir],
    )
    assert code == 0
    lines = out.splitlines()
    assert any(set(line) <= {"-", " "} and "-" in line for line in lines)


def test_manifold_descriptor_flags(capsys, cache_dir):
    code, out, _ = run(
        capsys,
        ["manifold", "--dim", "2", "--compact", "--parallelizable",
         "--cospherical", "1:2", "--format", "json", "--cache-dir", cache_dir],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["descriptor"]["cospherical_degrees"] == [[1, 2]]


def test_config_file_and_unknown_keys(tmp_path, capsys, cache_dir):
    good = tmp_path / "cfg.json"
    good.write_text(json.dumps({"q_cap": 2}))
    code, out, err = run(
        capsys,
        ["--config", str(good), "cohomology", "--complex", "W", "--q", "3",
         "--cache-dir", cache_dir],
    )
    assert code == 3  # q 3 over the configured cap 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q_cap": 2, "colour": "red"}))
    with pytest.raises(ConfigError):
        load_config(str(bad))
    code, _, err = run(
        capsys, ["--config", str(bad), "kappa", "--q", "1", "--cache-dir", cache_dir]
    )
    assert code == 2
    assert "colour" in err


def test_default_q_cap_runs_w10_and_refuses_w11(capsys, cache_dir):
    from veycalc import complexes

    code, out, _ = run(capsys, ["cohomology", "--complex", "W", "--q", "10", "--format", "json",
                                "--cache-dir", cache_dir])
    assert code == 0
    assert json.loads(out)["q"] == 10
    code, out, err = run(capsys, ["cohomology", "--complex", "W", "--q", "11",
                                  "--cache-dir", cache_dir])
    assert (code, out) == (3, "")
    assert _refusal_estimate(err) == complexes.dimension_estimate(11, "W")
    assert "cap q <= 10" in err


def _config(tmp_path, q_cap: int) -> str:
    path = tmp_path / f"cap{q_cap}.json"
    path.write_text(json.dumps({"q_cap": q_cap}))
    return str(path)


def test_each_oracle_job_checks_its_q_cap_once(monkeypatch, capsys, cache_dir):
    # the library takes no cap: the CLI's check is the only one
    import inspect

    from veycalc import complexes, vey

    for f in (complexes.build_complex, vey.validate_vey):
        assert list(inspect.signature(f).parameters) == ["q", "kind"]
    checks = []
    real = cli._check_q_cap
    monkeypatch.setattr(cli, "_check_q_cap", lambda *a: checks.append(a) or real(*a))
    for command in ("cohomology", "validate"):
        argv = [command, "--complex", "WO", "--q", "3", "--cache-dir", cache_dir]
        assert run(capsys, argv)[0] == 0
        assert checks == [(3, "WO", 10)]
        assert run(capsys, argv)[0] == 0  # a hit checks nothing
        assert checks == [(3, "WO", 10)]
        checks.clear()


def test_cached_model_is_served_under_a_lower_cap(tmp_path, capsys, cache_dir):
    # as for cohomology and validate, the cap decides whether work starts
    cfg = tmp_path / "cap18.json"
    cfg.write_text(json.dumps({"model_degree_cap": 18}))
    argv = ["model", "--q", "1", "--max-degree", "14", "--format", "json", "--cache-dir", cache_dir]
    code, cold, err = run(capsys, ["--config", str(cfg), *argv])
    assert code == 0 and err  # computed, with its progress line
    assert run(capsys, argv) == (0, cold, "")
    code, out, err = run(capsys, [*argv, "--no-cache"])
    assert (code, out) == (3, "")
    assert "--max-degree 14 exceeds the configured cap 12" in err


@pytest.mark.parametrize("command", ["cohomology", "validate"])
def test_oracle_cache_entry_is_independent_of_q_cap(tmp_path, capsys, cache_dir, command):
    # a cap decides whether work starts, never the result: the entry cached
    # under one cap serves another, also a cap the request is over
    argv = [command, "--complex", "W", "--q", "3", "--format", "json", "--cache-dir", cache_dir]
    code, cold, err = run(capsys, ["--config", _config(tmp_path, 3), *argv])
    assert code == 0 and err  # computed, with its progress line
    for q_cap in (4, 2):
        assert run(capsys, ["--config", _config(tmp_path, q_cap), *argv]) == (0, cold, "")
    assert len(list(pathlib.Path(cache_dir).glob("*.json"))) == 1
    code, out, _ = run(capsys, ["--config", _config(tmp_path, 2), *argv[:-2], "--no-cache"])
    assert (code, out) == (3, "")  # uncached, the cap refuses


@pytest.mark.parametrize("key, value",
                         [("vey_wo_condition", "forall_odd"), ("output_format", "json")],
                         ids=["vey_wo_condition", "output_format"])
def test_config_rejects_removed_wo_condition_key(tmp_path, capsys, cache_dir, key, value):
    # removed keys: the WO condition is fixed, and --format alone decides the format
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(
        capsys, ["--config", str(cfg), "kappa", "--q", "1", "--cache-dir", cache_dir]
    )
    assert (code, out) == (2, "")
    assert f"unknown config keys: {key}" in err


@pytest.mark.parametrize("body", [b"[" * 200_000, b'{"q_cap": "\xff"}', b"[]"],
                         ids=["200000-brackets", "not-utf8", "not-an-object"])
def test_unreadable_config_file_exit_2(tmp_path, capsys, cache_dir, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(body)
    code, out, err = run(
        capsys, ["--config", str(cfg), "kappa", "--q", "1", "--cache-dir", cache_dir]
    )
    assert code == 2
    assert out == ""
    assert f"config file {cfg}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [{"q_cap": "7"}, {"model_degree_cap": None}, {"cache_dir": 5}, {"q_cap": 2.5},
     {"cache_dir": ""}],
    ids=["q_cap-string", "model_degree_cap-null", "cache_dir-number", "q_cap-float",
         "cache_dir-empty"],
)
def test_config_value_of_wrong_type_exit_2(tmp_path, capsys, cache_dir, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, _, err = run(
        capsys, ["--config", str(cfg), "kappa", "--q", "1", "--cache-dir", cache_dir]
    )
    assert code == 2
    assert "invalid input" in err


def test_empty_cache_dir_flag_exit_2(tmp_path, monkeypatch, capsys):
    # an empty --cache-dir is invalid, not a fallback to the default directory
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv("VEYCALC_CACHE_DIR", raising=False)
    code, out, err = run(capsys, ["cohomology", "--complex", "W", "--q", "1", "--cache-dir", ""])
    assert code == 2
    assert out == ""
    assert "cache_dir" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--classify", "--validate"])
def test_removed_vey_flags_exit_2(capsys, cache_dir, flag):
    with pytest.raises(SystemExit) as exc:
        cli.run(["vey", "--complex", "W", "--q", "1", flag, "--cache-dir", cache_dir])
    assert exc.value.code == 2

def test_config_defaults():
    c = Config()
    assert c.q_cap == 10
    assert c.model_degree_cap == 12
    assert list(Config.__slots__) == ["q_cap", "model_degree_cap", "cache_dir"]
    with pytest.raises(ConfigError):
        Config(q_cap=0)
    with pytest.raises(TypeError):
        Config(output_format="json")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda key, p: _entry("0" * 64, canonical_json(p)),  # stored under another key
        lambda key, p: canonical_json([key, p]).encode(),  # no head: a bare JSON array
        lambda key, p: b"00000000" + _entry(key, canonical_json(p))[8:],  # fails its CRC
        lambda key, p: _entry(key, canonical_json([p])),  # payload not an object
        lambda key, p: _entry(key, "null"),
        # payloads without the command's required keys
        lambda key, p: _entry(key, '{"kind":"W"}'),
        lambda key, p: _entry(key, "{}"),
        lambda key, p: _entry(key, canonical_json(dict(list(p.items())[1:]))),
    ],
)
def test_cache_serves_no_malformed_entry(tmp_path, corrupt):
    cache = ResultCache(str(tmp_path))
    for command, keys in REQUIRED_KEYS.items():
        payload = {k: t() for k, t in keys.items()}  # well typed: {}, [], 0, False, ""
        cache.put(command, {"a": 1}, payload)
        assert cache.get(command, {"a": 1}) == (payload, canonical_json(payload))
    for path in tmp_path.glob("*.json"):
        key, text = _read_entry(path)
        path.write_bytes(corrupt(key, json.loads(text)))
    for command in REQUIRED_KEYS:
        assert cache.get(command, {"a": 1}) is None


# (command, a required key, a value of another JSON type than its schema's)
WRONG_TYPES = [
    ("cohomology", "dims", 5),
    ("validate", "ok", 1),  # an integer is no boolean
    ("model", "q", True),  # and a boolean no integer
    ("manifold", "records", {}),
]


@pytest.mark.parametrize("command, key, value", WRONG_TYPES, ids=[c for c, _, _ in WRONG_TYPES])
def test_cache_serves_no_wrong_typed_entry(tmp_path, command, key, value):
    cache = ResultCache(str(tmp_path))
    payload = {k: t() for k, t in REQUIRED_KEYS[command].items()}
    cache.put(command, {"a": 1}, {**payload, key: value})
    assert cache.get(command, {"a": 1}) is None
    cache.put(command, {"a": 1}, payload)
    assert cache.get(command, {"a": 1}) == (payload, canonical_json(payload))


def test_required_keys_follow_the_schemas():
    schemas = {
        "cohomology": "cohomology_result",
        "validate": "validation_report",
        "model": "model",
        "manifold": "manifold_report",
    }
    json_types = {"object": dict, "array": list, "integer": int, "boolean": bool, "string": str}
    assert set(REQUIRED_KEYS) == set(schemas)
    for command, name in schemas.items():
        schema = json.loads((SCHEMAS / f"{name}.json").read_text())
        assert set(schema["required"]) == set(REQUIRED_KEYS[command])
        for key, t in REQUIRED_KEYS[command].items():
            prop = schema["properties"][key]
            if "enum" in prop:
                assert {type(v) for v in prop["enum"]} == {t}, (command, key)
            else:
                assert json_types[prop["type"]] is t, (command, key)


def test_manifold_enums_follow_the_schema():
    from veycalc import manifold

    schema = json.loads((SCHEMAS / "manifold_report.json").read_text())
    fields = schema["properties"]["records"]["items"]["properties"]
    assert fields["target"]["enum"] == list(manifold.TARGETS)
    assert fields["method"]["enum"] == list(manifold.METHODS)
    assert fields["survives_to_BDiff_delta"]["enum"] == list(manifold.SURVIVAL)


def _drop_ranks(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "ranks"}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "argv, corrupt",
    [
        (["cohomology", "--complex", "W", "--q", "1"], lambda p: {"kind": "W"}),
        (["validate", "--complex", "W", "--q", "1"], lambda p: {"kind": "W"}),
        (["model", "--q", "1", "--max-degree", "4"], lambda p: {"kind": "W"}),
        # every key but `ranks` present
        (["model", "--q", "1", "--max-degree", "4"], _drop_ranks),
        (["manifold", "--preset", "S1"], lambda p: {"kind": "W"}),
        # every key present, two of the wrong type
        (["cohomology", "--complex", "W", "--q", "3"],
         lambda p: {**p, "dims": 5, "total_dim_check": "x"}),
    ],
    ids=["cohomology", "validate", "model", "model-without-ranks", "manifold",
         "cohomology-wrong-types"],
)
def test_entry_missing_keys_is_recomputed(capsys, cache_dir, argv, corrupt, fmt):
    argv = [*argv, "--format", fmt, "--cache-dir", cache_dir]
    code, cold, _ = run(capsys, argv)
    (path,) = pathlib.Path(cache_dir).glob("*.json")
    key, text = _read_entry(path)
    path.write_bytes(_entry(key, json.dumps(corrupt(json.loads(text)))))  # under a good head
    code_again, again, _ = run(capsys, argv)
    assert code == code_again == 0
    assert again == cold
    assert _read_entry(path) == (key, text)  # rewritten


def _headed(body: bytes):
    """The entry's file replaced by body under a well-formed head: the entry's
    key text and the CRC of body, so that only parsing body can reject it."""
    return lambda data: b"%08x %s\n%s" % (zlib.crc32(body), data.split(b"\n")[0][9:], body)


NOT_UTF8 = b'{"kind":"\xff"}'
DIGITS = b'{"q":' + b"1" * 5000 + b"}"  # past int's 4300-digit limit
NESTED = b"[" * 200_000  # past the parser's recursion limit
DAMAGED = {
    "edited-byte": lambda data: data.replace(b'"total_dim_check":2', b'"total_dim_check":3'),
    "not-utf8": lambda data: NOT_UTF8,
    "not-utf8-headed": _headed(NOT_UTF8),
    "5000-digits": lambda data: DIGITS,
    "5000-digits-headed": _headed(DIGITS),
    "200000-brackets": lambda data: NESTED,
    "200000-brackets-headed": _headed(NESTED),
}


@pytest.mark.parametrize("damage", DAMAGED.values(), ids=DAMAGED)
def test_damaged_entry_is_a_miss(capsys, cache_dir, damage):
    # a damaged entry never ends the job: it is recomputed, printed as a cold
    # run prints it, and rewritten
    argv = ["cohomology", "--complex", "W", "--q", "1", "--format", "json",
            "--cache-dir", cache_dir]
    code, cold, _ = run(capsys, argv)
    (path,) = pathlib.Path(cache_dir).glob("*.json")
    data = path.read_bytes()
    damaged = damage(data)
    assert damaged != data
    path.write_bytes(damaged)
    code_again, again, _ = run(capsys, argv)
    assert code == code_again == 0
    assert again == cold
    assert path.read_bytes() == data


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--complex", "W", "--q", "2"],
        ["validate", "--complex", "W", "--q", "1"],
        ["model", "--q", "2", "--max-degree", "6"],
        ["manifold", "--preset", "T2"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_hit_prints_the_stored_text(capsys, cache_dir, monkeypatch, argv):
    json_argv = [*argv, "--format", "json", "--cache-dir", cache_dir]
    table_argv = [*argv, "--format", "table", "--cache-dir", cache_dir]
    code, cold, _ = run(capsys, json_argv)
    _, cold_table, _ = run(capsys, [*table_argv, "--no-cache"])
    encoded = []

    def counting(obj):
        encoded.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", counting)
    monkeypatch.setattr(cache_module, "canonical_json", counting)
    code_again, warm, _ = run(capsys, json_argv)
    assert code == code_again == 0
    # only the key text is encoded, to find the entry; the document is not
    assert encoded and all(set(obj) == {"command", "params", "version"} for obj in encoded)
    (path,) = pathlib.Path(cache_dir).glob("*.json")
    assert warm == _read_entry(path)[1] + "\n" == cold
    _, warm_table, _ = run(capsys, table_argv)
    assert warm_table == cold_table


@pytest.mark.parametrize(
    "name, expected",
    [("Sigma_g:x", "integer genus"), ("Rq:x", "integer dimension")],
)
def test_preset_with_bad_integer_exit_2(capsys, cache_dir, name, expected):
    code, out, err = run(capsys, ["manifold", "--preset", name, "--cache-dir", cache_dir])
    assert code == 2
    assert out == ""
    assert f"bad preset {name}" in err and expected in err
    assert "invalid literal" not in err


def test_unwritable_cache_keeps_the_result(tmp_path, capsys):
    # a cache directory under a regular file cannot be created: the run still
    # prints the result, says so on stderr and exits 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["cohomology", "--complex", "W", "--q", "1"]
    code, out, err = run(capsys, argv + ["--cache-dir", str(blocker / "cache")])
    assert code == 0
    assert "not cached" in err
    _, uncached, _ = run(capsys, argv + ["--no-cache"])
    assert out == uncached


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_subcommand_help_lists_its_flags(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.run([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag, _ in cli._SUBCOMMANDS[name].flags:
        assert flag in out


def test_subcommands_follow_the_readme():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = readme.split("- **`veycalc.cli`**", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`([a-z]+)`", bullet.split("subcommands", 1)[1])
    assert listed == list(cli._SUBCOMMANDS)


def test_vey_json_peak_memory_is_near_the_output(monkeypatch):
    # the rows go out in batches, so the peak is about the class list, not a
    # dict per class plus the whole document text (8.8x the output when so built)
    import tracemalloc

    from veycalc import gca, vey  # noqa: F401 -- imported before tracing starts

    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)
            return len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.run(["vey", "--complex", "W", "--q", "8", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 700_000
    assert peak < 3 * sink.size
