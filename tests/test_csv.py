"""The column CSV writer against the per-value writer it replaced.

``_write_csv`` formats each block of up to ``CSV_BLOCK_ROWS`` rows with one
``%``: the row format (``%d`` for integer columns, ``%.17g`` otherwise)
repeated once per row, applied to the block's values in row-major order.
The oracle below formats every value on its own with
``format(float(v), ".17g")`` and takes strings as they are, as the command
line did before.  Every file must come out byte for byte the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conserva import recovery, schemes
from conserva.harness.cli import CSV_BLOCK_ROWS, _write_csv, main
from conserva.harness.runner import build_problem, run
from conserva.models import NodeKernels
from conserva.records import RunConfig


def _write_csv_per_value(path, header, rows):
    lines = [",".join(header)]
    lines.extend(
        ",".join(format(float(v), ".17g") if not isinstance(v, str) else v for v in row)
        for row in rows
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _rows(columns):
    """The mixed rows the per-value writer took: str for integers, numpy scalars else."""
    return [
        [str(int(v)) if c.dtype.kind in "iu" else v for c, v in zip(columns, row)]
        for row in zip(*columns)
    ]


_AWKWARD = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e-308, -1e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e308,
            0.1, 1.0 / 3.0, 1e16, 123456789012345680.0]


@st.composite
def _columns(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["int", "float"]), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "int":
            columns.append(draw(hnp.arrays(np.int64, n, elements=st.integers(-2**62, 2**62))))
        else:
            elements = st.one_of(st.sampled_from(_AWKWARD), st.floats(width=64))
            columns.append(draw(hnp.arrays(float, n, elements=elements)))
    return columns


@settings(max_examples=300, deadline=None)
@given(_columns())
def test_property_column_writer_matches_per_value_writer(tmp_path_factory, columns):
    tmp = tmp_path_factory.getbasetemp()
    header = [f"c{j}" for j in range(len(columns))]
    _write_csv(tmp / "new.csv", header, columns)
    _write_csv_per_value(tmp / "old.csv", header, _rows(columns))
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@pytest.mark.parametrize(
    "nrows, picked",
    [pytest.param(n, range(5), id=str(n)) for n in
     (0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1)]
    + [pytest.param(0, (), id="zero-column"),
       pytest.param(2 * CSV_BLOCK_ROWS + 1, (1,), id="one-column"),
       pytest.param(1, (3, 1), id="one-row")],
)
def test_block_writer_matches_per_value_writer_at_block_edges(tmp_path, nrows, picked):
    # every row lands once, in order, the last partial block included
    awkward = np.resize(np.array(_AWKWARD), nrows)
    table = [np.arange(nrows) - 7, awkward, np.arange(nrows, dtype=float) / 3.0,
             np.full(nrows, -2**62), awkward[::-1].copy()]
    columns = [table[j] for j in picked]
    header = [f"c{j}" for j in range(len(columns))]
    _write_csv(tmp_path / "new.csv", header, columns)
    _write_csv_per_value(tmp_path / "old.csv", header, _rows(columns))
    new = (tmp_path / "new.csv").read_bytes()
    assert new.count(b"\n") == nrows + 1
    assert new == (tmp_path / "old.csv").read_bytes()


def test_columns_of_unequal_length_are_refused_before_the_file_is_opened(tmp_path):
    path = tmp_path / "never.csv"
    with pytest.raises(ValueError, match=r"\[3, 3, 2\]"):
        _write_csv(path, ["a", "b", "c"], [np.arange(3), np.zeros(3), np.zeros(2)])
    assert not path.exists()


def _old_solution_files(path, mesh, model, record):
    state = record.final_state
    if record.averages is not None:
        state = model.from_aux(state)
    header = ["x"] + list(model.names)
    _write_csv_per_value(path, header, [[x] + list(u) for x, u in zip(mesh.dof_x, state)])
    if record.averages is not None:
        rows = [[x] + list(u) for x, u in zip(mesh.cell_centers, record.final_averages)]
        _write_csv_per_value(path.with_suffix(".averages.csv"), header, rows)
    led = record.ledger
    if len(model.names) == 3:
        header = ["step", "time", "mass", "momentum", "energy", "entropy", "alpha_max",
                  "fallback_cells"]
    else:
        header = ["step", "time", "mass", "entropy", "alpha_max", "fallback_cells"]
    rows = []
    for k in range(len(led.time)):
        row = [str(k), led.time[k]]
        row.extend(led.totals[k])
        row.extend([led.entropy[k], led.alpha_max[k], str(int(led.fallback_cells[k]))])
        rows.append(row)
    _write_csv_per_value(path.with_suffix(".ledger.csv"), header, rows)


@pytest.mark.parametrize(
    "config, suffixes",
    [
        pytest.param(
            RunConfig(case="shu-osher", scheme="active-flux", nx=60, t_end=0.2, detector=True),
            (".csv", ".averages.csv", ".ledger.csv"), id="active-flux-averages",
        ),
        pytest.param(
            RunConfig(case="sod", scheme="nc-energy-corrected", nx=60, t_end=0.05),
            (".csv", ".ledger.csv"), id="nc-energy-p3-ledger",
        ),
        pytest.param(
            RunConfig(case="burgers-sine", scheme="fv-rusanov", nx=40, t_end=0.2),
            (".csv", ".ledger.csv"), id="burgers-p1",
        ),
    ],
)
def test_run_files_match_per_value_writer(tmp_path, config, suffixes):
    args = ["run", "--case", config.case, "--scheme", config.scheme, "--nx", str(config.nx),
            "--tend", str(config.t_end), "--out", str(tmp_path / "new.csv")]
    assert main(args + (["--detector"] if config.detector else [])) == 0
    case, mesh, _ = build_problem(config)
    _old_solution_files(tmp_path / "old.csv", mesh, case.model, run(config))
    for suffix in suffixes:
        new = (tmp_path / "new.csv").with_suffix(suffix).read_bytes()
        assert new == (tmp_path / "old.csv").with_suffix(suffix).read_bytes(), suffix


def test_recover_fluxes_table_matches_per_value_writer(tmp_path):
    config = RunConfig(case="sod", scheme="supg", nx=50).validate()
    new = tmp_path / "new.csv"
    assert main(["recover-fluxes", "--case", "sod", "--scheme", "supg", "--nx", "50",
                 "--out", str(new)]) == 0
    case, mesh, u0 = build_problem(config)
    assemble = schemes.residual_assembler("supg", case.model, mesh, config.tau_scale)
    residuals = assemble(NodeKernels.of(case.model, u0), 0.0)
    _, edge_fluxes = recovery.reconstruct_scheme(mesh, u0, residuals)
    header = ["element", "dof_a", "dof_b"] + [f"fhat_{n}" for n in case.model.names]
    rows = [
        [str(k), str(int(mesh.cell_dofs[k, 0])), str(int(mesh.cell_dofs[k, 1]))] + list(f)
        for k, f in enumerate(edge_fluxes)
    ]
    _write_csv_per_value(tmp_path / "old.csv", header, rows)
    assert new.read_bytes() == (tmp_path / "old.csv").read_bytes()
