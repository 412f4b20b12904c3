"""Text forms of the reports: the one place JSON and CSV are rendered, and
the one rule that turns report values into plain Python values."""

from __future__ import annotations

import csv
import io
import json


def render_csv(header, rows):
    """CSV text with ``\\n`` line endings: `header`, then each of `rows`.

    Floats are written by ``repr`` (shortest round-trip form) and ``None``
    as an empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _plain(value):
    """`value` as built-in JSON values: a report by its ``to_dict()``, any
    other dataclass as the dict of its fields, a list or tuple as a list,
    None and strings as they are, a bool (NumPy's too) as a bool, anything
    with ``__index__`` as an int, and any other number as a float, NaN as
    None."""
    if isinstance(value, Report):
        return value.to_dict()
    if hasattr(value, "__dataclass_fields__"):
        return {name: _plain(getattr(value, name))
                for name in value.__dataclass_fields__}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    if type(value).__name__ == "bool":  # Python's bool and NumPy's
        return bool(value)
    if hasattr(value, "__index__"):
        return int(value)
    value = float(value)
    return None if value != value else value


class Report:
    """Base of every printable report, a dataclass.

    ``to_dict()`` gives its fields in field order, less those named in
    `_hidden` and followed by the properties named in `_extra`, each
    value made plain by `_plain`.  Its CSV form is one row of the
    dictionary's values under its keys, unless the subclass overrides
    ``_csv_table()``.
    """

    _hidden = ()
    _extra = ()

    def to_dict(self):
        names = [name for name in self.__dataclass_fields__
                 if name not in self._hidden]
        return {name: _plain(getattr(self, name))
                for name in names + list(self._extra)}

    def _csv_table(self):
        """``(header, rows)`` that `to_csv` renders."""
        d = self.to_dict()
        return list(d), [list(d.values())]

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self):
        return render_csv(*self._csv_table())
