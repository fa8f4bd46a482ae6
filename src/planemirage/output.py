"""Every file a command writes, and the CSV cell rule.

emit writes sweep rows in the table of their mode, None for simulate's, as
CSV, byte-deterministic, or as SVG through planemirage.svg, loaded only
then, and counts the rows it writes with an err tag. Every file is a run
of lines that goes through one writer, which spools them to an anonymous
temporary file as they are formed and copies it into the output path, in
place, only after the last line.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, islice

from .errors import ConfigError, WriteError
from .sweep import SweepRow
from .wavecore import Mode


# The complex columns of each table, by mode (None: simulate's), carried by
# a row in the order g_act, g_tgt, rho_req, aux. Every table starts with
# freq_ghz,theta_deg and ends with err; a synthesis table puts passive before err.
_TABLES = {
    None: ("g_act", "g_tgt"),
    Mode.REFLECTIVE: ("g_act", "g_tgt", "rho_req", "eta_n"),
    Mode.TRANSMISSIVE: ("g_act", "g_tgt", "rho_req", "chi_e"),
}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _pair(value: complex | None) -> list[str]:
    if value is None:
        return ["", ""]
    return [_fmt(value.real), _fmt(value.imag)]


def _cells(values) -> list[str]:
    """The one CSV cell rule: a number is written %.17g (a bool too, as 1
    or 0), a complex value takes two cells, None is an empty cell and a
    string is written as it is. Sweep rows do not come here: _sweep_table
    writes them by its own rule, where a missing complex column is two
    empty cells, not one."""
    cells = []
    for value in values:
        if isinstance(value, complex):
            cells += _pair(value)
        elif value is None or isinstance(value, str):
            cells.append(value or "")
        else:
            cells.append(_fmt(value))
    return cells


def _sweep_table(mode: Mode | None):
    """Header line, row formatter and err row count of the sweep table of
    mode; the count is a one-item list that the formatter adds to."""
    names = _TABLES[mode]
    synthesis = mode is not None
    header = ["freq_ghz", "theta_deg"]
    for name in names:
        header += [f"{name}_re", f"{name}_im"]
    header += ["passive", "err"] if synthesis else ["err"]
    # A row with no err has every cell, so one format string writes it,
    # the passive flag as %s and the empty err as the trailing comma. The
    # freq_ghz cell is formatted once for each run of rows that share one
    # float object, as a frequency's rows from _sweep do; holding the last
    # object keeps its identity from passing to another float. Each
    # theta_deg value is formatted once and kept, but a zero never is: 0.0
    # and -0.0 are one key and two cells.
    ok = ",".join(["%s"] * 2 + ["%.17g"] * (2 * len(names)) + ["%s"] * synthesis) + ","
    f_last = f_cell = None
    theta_cells = {}
    tagged = [0]

    def row_line(r) -> str:
        nonlocal f_last, f_cell
        f, theta, a, t, rho, aux, passive, err = r
        if f is not f_last:
            f_last, f_cell = f, _fmt(f)
        t_cell = theta_cells.get(theta)
        if t_cell is None:
            t_cell = _fmt(theta)
            if theta:
                theta_cells[theta] = t_cell
        if not err:
            if not synthesis:
                return ok % (f_cell, t_cell, a.real, a.imag, t.real, t.imag)
            return ok % (
                f_cell, t_cell, a.real, a.imag, t.real, t.imag,
                rho.real, rho.imag, aux.real, aux.imag, "1" if passive else "0",
            )
        tagged[0] += 1
        out = [f_cell, t_cell]
        for value in (a, t, rho, aux)[: len(names)]:
            out += _pair(value)
        if synthesis:  # _fmt(passive), without its slow float conversion
            out.append("" if passive is None else ("1" if passive else "0"))
        out.append(err)
        return ",".join(out)

    return ",".join(header), row_line, tagged


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Every output file, tables and SVG alike: each of lines, ended by a
    newline. Any OSError of the spool or of path is a WriteError that names
    path; the lines raise none, as a sweep's own faults are GridPointFaults."""
    # Lines are taken 256 at a time, then encoded and written to an
    # anonymous temporary file, so memory holds one batch, not the file.
    # path is opened only after the last line is formed, so a sweep that
    # stops at a point leaves it as it was, and then the spool is copied
    # into it in place: a link stays a link and a file keeps its inode.
    import shutil
    import tempfile

    lines = iter(lines)
    try:
        with tempfile.TemporaryFile() as spool:
            while batch := list(islice(lines, 256)):
                batch.append("")  # the last line's newline
                spool.write("\n".join(batch).encode())
            spool.seek(0)
            with open(path, "wb") as fh:
                shutil.copyfileobj(spool, fh)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from None


def emit(rows: Iterable[SweepRow], mode: Mode | None, output_format: str, path: str) -> int:
    """Write the sweep table of mode, None for simulate's, to path as CSV
    (canonical) or SVG (presentation), and return how many rows had an err
    tag. rows are SweepRows or plain tuples in SweepRow's field order, and
    may be an iterator: a CSV table formats each row as it comes, an SVG
    plot keeps only the points it draws, and the file is written once rows
    are exhausted."""
    if mode is not None and not isinstance(mode, Mode):
        raise ConfigError(f"mode must be a Mode or None, got {mode!r}")
    if output_format == "csv":
        header, line, tagged = _sweep_table(mode)
        _write_lines(path, chain([header], map(line, rows)))
        return tagged[0]
    if output_format == "svg":
        from .svg import _svg_lines

        lines, tagged = _svg_lines(rows, mode)
        _write_lines(path, lines)
        return tagged
    raise ConfigError(f"output format must be csv or svg, got {output_format!r}")
