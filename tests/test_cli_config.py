"""The command line's config merge: file values, then every flag that is set,
over RunConfig's defaults.

The oracle below is the earlier merge, which restated RunConfig's defaults in
``pick`` calls; the property holds the current one to the same answers.
A config file that cannot be read is a usage error like a bad value in it.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conserva.errors import ConfigError
from conserva.harness.cli import (
    _CONFIG_KEYS,
    _build_run_config,
    _read_config_file,
    build_parser,
    main,
)
from conserva.records import RunConfig


def _oracle_build_run_config(args):
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {', '.join(unknown)}; known: {', '.join(_CONFIG_KEYS)}"
        )
    merged = {}
    for key, value in file_values.items():
        try:
            merged[key.replace("-", "_")] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"cannot parse config value {key}={value!r}") from None

    def pick(name, cli_value, default=None):
        value = cli_value if cli_value is not None else merged.get(name)
        return default if value is None else value

    case = pick("case", args.case)
    scheme = pick("scheme", args.scheme)
    if case is None or scheme is None:
        raise ConfigError("both --case and --scheme are required (flag or config file)")
    detector = True if args.detector else bool(merged.get("detector", False))
    config = RunConfig(
        case=case,
        scheme=scheme,
        nx=pick("nx", args.nx, 100),
        cfl=pick("cfl", args.cfl),
        t_end=pick("tend", args.tend),
        boundary=pick("boundary", args.boundary),
        gamma=pick("gamma", args.gamma, 1.4),
        detector=detector,
        integrator=pick("integrator", args.integrator),
        out=pick("out", args.out),
        tau_scale=merged.get("tau_scale", 1.0),
    )
    return config.validate()


# values each flag may take: every one parses, a few fail validation
FLAG_VALUES = {
    "--nx": ["16", "100", "0"],
    "--cfl": ["0.4", "0.9", "1.5"],
    "--tend": ["0.05", "0.2", "inf"],
    "--gamma": ["1.4", "1.67", "1.0"],
    "--boundary": ["periodic", "transmissive"],
    "--integrator": ["euler", "ssprk3"],
    "--out": ["a.csv"],
    "--detector": [None],
}

# config-file values, a few of them unparsable, invalid or an unknown key
FILE_VALUES = {
    "nx": ["20", "8", "abc"],
    "cfl": ["0.8", "0.3", "x"],
    "tend": ["0.1", "0.3", "nan"],
    "gamma": ["1.4", "2"],
    "boundary": ["periodic", "transmissive", "wall"],
    "detector": ["off", "off", "on", "ture"],
    "integrator": ["ssprk3", "ssprk3", "ssprk2", "rk4"],
    "tau-scale": ["1.0", "1.0", "0.5", "-1"],
    "out": ["b.csv"],
}
CASES = ["sod", "sod", "burgers-sine", "advection-sine", "burgers-riemann", "nope", ""]
SCHEMES = ["fv-rusanov", "fv-entropy-corrected", "supg", "active-flux", "nc-energy-corrected"]


def _options(table):
    return st.fixed_dictionaries(
        {}, optional={key: st.sampled_from(values) for key, values in table.items()}
    )


@st.composite
def _invocations(draw):
    """(flags, config-file values or None); case and scheme come from a flag,
    the file, both or, rarely, neither."""
    flags = draw(_options(FLAG_VALUES))
    file = draw(st.one_of(st.none(), _options(FILE_VALUES)))
    for key, values in (("case", CASES), ("scheme", SCHEMES)):
        source = draw(st.sampled_from(["flag", "file", "both", "flag", "file", "neither"]))
        if source in ("flag", "both"):
            flags[f"--{key}"] = draw(st.sampled_from(values))
        if source in ("file", "both"):
            file = {} if file is None else file
            file[key] = draw(st.sampled_from(values))
    return flags, file


def _outcome(build, args):
    try:
        return build(args)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@settings(max_examples=300, deadline=None)
@given(_invocations())
@example(({"--detector": None}, {"case": "sod", "scheme": "active-flux", "detector": "off"}))
@example(({}, {"case": "sod", "scheme": "active-flux", "detector": "off"}))
@example(({}, {"case": "sod", "scheme": "active-flux", "detector": "on"}))
@example(({"--case": "sod"}, {"nx": "20"}))
@example(({"--scheme": "supg"}, None))
@example(({"--case": "sod", "--scheme": "fv-rusanov"}, {"tau-scale": "0.5"}))
@example(({"--case": "sod", "--scheme": "supg"}, {"tau-scale": "0.5"}))
@example(({"--case": "sod", "--scheme": "supg"}, {"t_end": "0.1"}))
def test_merge_matches_the_pick_based_oracle(invocation):
    flags, file = invocation
    argv = ["run"]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    with tempfile.TemporaryDirectory() as tmp:
        if file is not None:
            path = Path(tmp) / "run.cfg"
            path.write_text("".join(f"{k}={v}\n" for k, v in file.items()), encoding="utf-8")
            argv += ["--config", str(path)]
        args = build_parser().parse_args(argv)
        got = _outcome(_build_run_config, args)
        want = _outcome(_oracle_build_run_config, args)
    assert type(got) is type(want)
    assert got == want


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_an_unreadable_config_file_is_a_usage_error(tmp_path, capsys, kind):
    # exit 2 with one error line naming the file, not a traceback and exit 1
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b"case=sod\nscheme=\xff\xfe\n")
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err
    assert not out.exists()
