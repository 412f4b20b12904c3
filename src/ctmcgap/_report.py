"""Text forms of the reports: the one place JSON and CSV are rendered."""

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


class Report:
    """Base of every printable report.

    A subclass provides ``to_dict()``.  Its CSV form is one row of the
    dictionary's values under its keys, unless the subclass overrides
    ``_csv_table()``.
    """

    def to_dict(self):
        raise NotImplementedError

    def _csv_table(self):
        """``(header, rows)`` that `to_csv` renders."""
        d = self.to_dict()
        return list(d), [list(d.values())]

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self):
        return render_csv(*self._csv_table())
