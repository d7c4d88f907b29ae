"""Frozen reference reader for record CSV files.

``read_record_oracle`` is the line-at-a-time reader that ``io.read_record``
replaced, kept so that the chunked reader can be checked against it: same
levels bit for bit, same header, or the same FormatError message. It is
verbatim but for two rules: a sample is refused by ``SampleRecord``'s level
range (NaN and infinities included), not by a finiteness check of its own,
and the error names the sample's line; and a ``kind`` header line is
ignored like any other unknown key. It is test-only code and is not part
of the library.
"""

from __future__ import annotations

from pathlib import Path

from innoise.model import DomainError, FormatError, LevelError, MeasurementMeta, SampleRecord


def read_record_oracle(path: Path | str) -> SampleRecord:
    """Parse a record CSV file into a SampleRecord.

    Raises FileNotFoundError for a missing file and FormatError (naming the
    offending line) for malformed content. A header key that is neither
    ``sample_rate_hz`` nor a meta field is ignored.
    """
    path = Path(path)
    header: dict[str, str] = {}
    levels: list[float] = []
    sample_lines: list[int] = []
    with path.open(encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        key, _, value = body.partition("=")
                        header[key.strip()] = value.strip()
                    continue
                try:
                    value = float(line)
                except ValueError:
                    raise FormatError(f"{path.name}: malformed line {lineno}: {line!r}") from None
                levels.append(value)
                sample_lines.append(lineno)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path.name}: not UTF-8 text: {exc}") from exc
    if "sample_rate_hz" not in header:
        raise FormatError(f"{path.name}: missing '# sample_rate_hz=...' header")

    def header_float(key: str) -> float | None:
        if key not in header:
            return None
        try:
            return float(header[key])
        except ValueError:
            raise FormatError(f"{path.name}: header {key}={header[key]!r} is not a number") from None

    meta = MeasurementMeta(
        frequency_khz=header_float("frequency_khz"),
        event=header.get("event", ""),
        location=header.get("location", ""),
        source=header.get("source", ""),
        started_at=header.get("started_at"),
    )
    try:
        return SampleRecord(
            levels=levels,
            sample_rate_hz=header_float("sample_rate_hz"),
            meta=meta,
        )
    except LevelError as exc:
        raise FormatError(f"{path.name}: line {sample_lines[exc.index]}: {exc.reason}") from exc
    except DomainError as exc:
        raise FormatError(f"{path.name}: {exc}") from exc
