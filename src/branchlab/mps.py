"""Free-format MPS reader/writer for the subset this solver consumes.

Sections: NAME, ROWS (N/G/L/E), COLUMNS with INTORG/INTEND markers, RHS,
BOUNDS (LO/UP/FX/BV/MI/PL/UI/LI), ENDATA.  L and E rows are normalized to
>= form at load time, so a serialize/re-parse round trip is stable.  The
first N row is the objective; column order follows first appearance.
"""

from __future__ import annotations

import math

import numpy as np

from branchlab.model import MipProblem

INF = math.inf


class MpsParseError(Exception):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "RANGES", "ENDATA"}


def _number(text: str, line_no: int, finite: bool = True) -> float:
    """A COLUMNS, RHS or BOUNDS value: never NaN, and infinite only where
    `finite` is False (a bound)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value) or finite and math.isinf(value):
        raise MpsParseError(f"bad numeric value {text!r}", line_no)
    return value


def parse_mps(text: str) -> MipProblem:
    name = ""
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    obj_row: str | None = None
    col_order: list[str] = []
    col_entries: dict[str, dict[str, float]] = {}
    integer_cols: set[str] = set()
    rhs_values: dict[str, float] = {}
    bounds: dict[str, list[float]] = {}
    in_integer_block = False

    def col_bounds(col):
        if col not in bounds:
            bounds[col] = [0.0, INF]
        return bounds[col]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        fields = raw.split()
        if is_header:
            head = fields[0].upper()
            if head not in _SECTIONS:
                raise MpsParseError(f"unknown section {fields[0]!r}", line_no)
            if head == "RANGES":
                raise MpsParseError("RANGES section is not supported", line_no)
            section = head
            if head == "NAME":
                name = fields[1] if len(fields) > 1 else ""
            if head == "ENDATA":
                break
            continue
        if section == "ROWS":
            if len(fields) != 2:
                raise MpsParseError("ROWS entries need a type and a name",
                                    line_no)
            sense, row = fields[0].upper(), fields[1]
            if sense not in ("N", "G", "L", "E"):
                raise MpsParseError(f"unknown row type {fields[0]!r}", line_no)
            if row in row_sense:
                raise MpsParseError(f"duplicate row name {row!r}", line_no)
            row_sense[row] = sense
            if sense == "N":
                if obj_row is None:
                    obj_row = row
            else:
                row_order.append(row)
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1].upper() == "'MARKER'":
                marker = fields[2].upper().strip("'")
                if marker == "INTORG":
                    in_integer_block = True
                elif marker == "INTEND":
                    in_integer_block = False
                else:
                    raise MpsParseError(f"unknown marker {fields[2]!r}",
                                        line_no)
                continue
            if len(fields) < 3 or len(fields) % 2 == 0:
                raise MpsParseError("COLUMNS entries come in (row, value) "
                                    "pairs", line_no)
            col = fields[0]
            if col not in col_entries:
                col_entries[col] = {}
                col_order.append(col)
            if in_integer_block:
                integer_cols.add(col)
            for k in range(1, len(fields), 2):
                row = fields[k]
                if row not in row_sense:
                    raise MpsParseError(
                        f"column {col!r} references undeclared row {row!r}",
                        line_no)
                val = _number(fields[k + 1], line_no)
                col_entries[col][row] = col_entries[col].get(row, 0.0) + val
        elif section == "RHS":
            if len(fields) < 3 or len(fields) % 2 == 0:
                raise MpsParseError("RHS entries come in (row, value) pairs",
                                    line_no)
            for k in range(1, len(fields), 2):
                row = fields[k]
                if row not in row_sense:
                    raise MpsParseError(
                        f"RHS references undeclared row {row!r}", line_no)
                if row == obj_row:
                    raise MpsParseError(
                        f"an objective constant (RHS on the objective row "
                        f"{row!r}) is not supported", line_no)
                rhs_values[row] = _number(fields[k + 1], line_no)
        elif section == "BOUNDS":
            if len(fields) < 3:
                raise MpsParseError("BOUNDS entries need a type, set name "
                                    "and column", line_no)
            btype = fields[0].upper()
            col = fields[2]
            if col not in col_entries:
                raise MpsParseError(
                    f"bound on undeclared column {col!r}", line_no)
            needs_value = btype in ("LO", "UP", "FX", "UI", "LI")
            if needs_value and len(fields) < 4:
                raise MpsParseError(f"bound type {btype} needs a value",
                                    line_no)
            value = _number(fields[3], line_no, btype == "FX") \
                if needs_value else 0.0
            if value == (-INF if btype in ("UP", "UI") else INF):
                raise MpsParseError(f"bound type {btype} cannot be {value}",
                                    line_no)
            b = col_bounds(col)
            if btype in ("LO", "LI"):
                b[0] = value
            elif btype in ("UP", "UI"):
                b[1] = value
                # classic MPS quirk: a negative upper with a default lower
                # of 0 frees the lower bound
                if value < 0 and b[0] == 0.0:
                    b[0] = -INF
            elif btype == "FX":
                b[0] = b[1] = value
            elif btype == "BV":
                b[0], b[1] = 0.0, 1.0
                integer_cols.add(col)
            elif btype == "MI":
                b[0] = -INF
            elif btype == "PL":
                b[1] = INF
            else:
                raise MpsParseError(f"unknown bound type {fields[0]!r}",
                                    line_no)
        elif section in (None, "NAME"):
            raise MpsParseError("data before a section header", line_no)

    if obj_row is None:
        raise MpsParseError("no objective (N) row", 0)

    n = len(col_order)
    m = len(row_order)
    obj = np.zeros(n)
    rows = np.zeros((m, n))
    rhs = np.zeros(m)
    lower = np.zeros(n)
    upper = np.full(n, INF)
    for jc, col in enumerate(col_order):
        for row, val in col_entries[col].items():
            if row == obj_row:
                obj[jc] = val
            elif row_sense.get(row) == "N":
                continue  # spare N rows are ignored
            else:
                rows[row_order.index(row), jc] = val
        if col in bounds:
            lower[jc], upper[jc] = bounds[col]
    for i, row in enumerate(row_order):
        rhs[i] = rhs_values.get(row, 0.0)

    # normalize to >= form: L rows flip sign, E rows add the mirror row
    out_rows = []
    out_rhs = []
    out_names = []
    for i, row in enumerate(row_order):
        sense = row_sense[row]
        if sense == "G":
            out_rows.append(rows[i])
            out_rhs.append(rhs[i])
            out_names.append(row)
        elif sense == "L":
            out_rows.append(-rows[i])
            out_rhs.append(-rhs[i])
            out_names.append(row)
        else:  # E
            out_rows.append(rows[i])
            out_rhs.append(rhs[i])
            out_names.append(row)
            out_rows.append(-rows[i])
            out_rhs.append(-rhs[i])
            out_names.append(row + "__mirror")

    integer_mask = np.array([c in integer_cols for c in col_order], bool)
    return MipProblem(name=name, obj=obj,
                      rows=np.array(out_rows).reshape(len(out_rows), n),
                      rhs=np.array(out_rhs), lower=lower, upper=upper,
                      integer_mask=integer_mask, col_names=col_order,
                      row_names=out_names)


def write_mps(problem: MipProblem) -> str:
    """Serialize in the internal >= normal form (all rows type G)."""
    lines = [f"NAME {problem.name}".rstrip(), "ROWS", " N  OBJ"]
    for rname in problem.row_names:
        lines.append(f" G  {rname}")
    lines.append("COLUMNS")
    in_int = False
    for j, cname in enumerate(problem.col_names):
        if problem.integer_mask[j] and not in_int:
            lines.append("    MARKER    'MARKER' 'INTORG'")
            in_int = True
        elif not problem.integer_mask[j] and in_int:
            lines.append("    MARKER    'MARKER' 'INTEND'")
            in_int = False
        if problem.obj[j] != 0.0:
            lines.append(f"    {cname}  OBJ  {problem.obj[j]:.12g}")
        for i, rname in enumerate(problem.row_names):
            if problem.rows[i, j] != 0.0:
                lines.append(f"    {cname}  {rname}  "
                             f"{problem.rows[i, j]:.12g}")
        if problem.obj[j] == 0.0 and not problem.rows[:, j].any():
            lines.append(f"    {cname}  OBJ  0")
    if in_int:
        lines.append("    MARKER    'MARKER' 'INTEND'")
    lines.append("RHS")
    for i, rname in enumerate(problem.row_names):
        if problem.rhs[i] != 0.0:
            lines.append(f"    RHS  {rname}  {problem.rhs[i]:.12g}")
    lines.append("BOUNDS")
    for j, cname in enumerate(problem.col_names):
        lo, up = problem.lower[j], problem.upper[j]
        if lo == 0.0 and math.isinf(up):
            continue
        if math.isinf(-lo):
            lines.append(f" MI BND  {cname}")
        elif lo != 0.0:
            lines.append(f" LO BND  {cname}  {lo:.12g}")
        if not math.isinf(up):
            lines.append(f" UP BND  {cname}  {up:.12g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
