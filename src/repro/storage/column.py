"""Typed, immutable columns backed by numpy arrays.

SkinnerDB assumes a main-memory column store so that partial tuples can be
materialized lazily from tuple-index vectors (paper §4.5).  A column stores
either 64-bit integers, 64-bit floats, or dictionary-encoded strings.  String
columns keep an integer code per row plus a dictionary of distinct values,
which makes equality predicates and hash joins on strings as cheap as on
integers.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Logical type of a column."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"


class Column:
    """An immutable typed column.

    Parameters
    ----------
    values:
        Raw values.  Integers, floats, or strings; ``None`` is not supported
        (the benchmarks in the paper do not exercise NULL semantics).
    ctype:
        Optional explicit :class:`ColumnType`.  If omitted, the type is
        inferred from the values.
    """

    __slots__ = (
        "_ctype",
        "_data",
        "_dictionary",
        "_code_of",
        "_decoded",
        "_translations",
        "_fetch",
        "_dict_fetch",
        "_length",
    )

    def __init__(self, values: Iterable[Any], ctype: ColumnType | None = None) -> None:
        values = list(values) if not isinstance(values, np.ndarray) else values
        if ctype is None:
            ctype = _infer_type(values)
        self._ctype = ctype
        self._dictionary: list[str] | None = None
        self._code_of: dict[str, int] | None = None
        self._decoded: np.ndarray | None = None
        self._translations: dict[int, tuple["Column", np.ndarray]] = {}
        self._fetch: Callable[[], np.ndarray] | None = None
        self._dict_fetch: Callable[[], list[str]] | None = None
        if ctype is ColumnType.INT:
            self._data = np.asarray(values, dtype=np.int64)
        elif ctype is ColumnType.FLOAT:
            self._data = np.asarray(values, dtype=np.float64)
        elif ctype is ColumnType.STRING:
            codes, dictionary, code_of = _encode_strings(values)
            self._data = codes
            self._dictionary = dictionary
            self._code_of = code_of
        else:  # pragma: no cover - exhaustive enum
            raise SchemaError(f"unknown column type {ctype!r}")
        self._length = int(self._data.shape[0])

    @classmethod
    def from_physical(
        cls,
        data: np.ndarray,
        ctype: ColumnType,
        dictionary: Sequence[str] | None = None,
    ) -> "Column":
        """Build a column directly from its physical representation.

        ``data`` is adopted as-is (int64/float64 values, or dictionary codes
        for strings together with the ``dictionary`` of distinct values).
        This is the unpickling path (:meth:`__reduce__`, which is how morsel
        workers receive their tables), the path of :meth:`take` for numeric
        columns, and of the result path (post-processing output, stream
        slices, decoded wire frames).  A ``list`` dictionary is adopted, not
        copied, so slices of one column share it; the value-to-code map is
        built on first use.
        """
        column = cls.__new__(cls)
        column._ctype = ctype
        column._data = data
        column._decoded = None
        column._translations = {}
        column._fetch = None
        column._dict_fetch = None
        column._length = int(data.shape[0])
        if ctype is ColumnType.STRING:
            if dictionary is None:
                raise SchemaError("string columns need a dictionary")
            column._dictionary = (
                dictionary if isinstance(dictionary, list) else list(dictionary)
            )
        else:
            if dictionary is not None:
                raise SchemaError("only string columns have a dictionary")
            column._dictionary = None
        column._code_of = None
        return column

    @classmethod
    def lazy(
        cls,
        ctype: ColumnType,
        length: int,
        fetch: Callable[[], np.ndarray],
        *,
        dictionary_fetch: Callable[[], list[str]] | None = None,
    ) -> "Column":
        """Build a column whose physical array is materialized on demand.

        ``fetch`` is called on *every* physical access and returns the
        array; the durable buffer manager routes it through its bounded
        page cache, so residency (and eviction) is governed there rather
        than pinned per column.  String columns load their dictionary once
        via ``dictionary_fetch`` (dictionaries are metadata-sized and are
        needed to plan predicates, so they stay resident).  A lazy column
        pickles like any other (:meth:`__reduce__`): by value, through
        ``fetch``.
        """
        if (dictionary_fetch is not None) != (ctype is ColumnType.STRING):
            raise SchemaError("dictionary_fetch is for (exactly) string columns")
        column = cls.__new__(cls)
        column._ctype = ctype
        column._data = None
        column._decoded = None
        column._translations = {}
        column._fetch = fetch
        column._dict_fetch = dictionary_fetch
        column._length = int(length)
        column._dictionary = None
        column._code_of = None
        return column

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def ctype(self) -> ColumnType:
        """Logical type of this column."""
        return self._ctype

    @property
    def data(self) -> np.ndarray:
        """The physical numpy array (codes for string columns).

        Lazily-materialized columns fetch it through their buffer manager
        on every access — the page cache, not the column, decides how long
        the array stays resident.
        """
        if self._data is not None:
            return self._data
        assert self._fetch is not None
        return self._fetch()

    @property
    def decoded_data(self) -> np.ndarray:
        """Decoded values as an array, cached after the first access.

        Numeric columns return the physical array itself; string columns
        return an ``object`` array of Python strings (one dictionary gather,
        shared by every vectorized consumer), so elementwise comparisons and
        sorting keep exact Python semantics.
        """
        if self._ctype is not ColumnType.STRING:
            return self.data
        if self._decoded is None:
            self._decoded = np.asarray(self.dictionary, dtype=object)[self.data]
        return self._decoded

    @property
    def dictionary(self) -> list[str]:
        """Dictionary of a string column (distinct values, indexed by code)."""
        if self._dictionary is None and self._dict_fetch is not None:
            self._dictionary = self._dict_fetch()
        if self._dictionary is None:
            raise SchemaError("only string columns have a dictionary")
        return self._dictionary

    def _code_map(self) -> dict[str, int]:
        """Value-to-code map of a string column, built on first use."""
        if self._code_of is None:
            self._code_of = {value: i for i, value in enumerate(self.dictionary)}
        return self._code_of

    def __len__(self) -> int:
        return self._length

    def __reduce__(self) -> tuple[Any, ...]:
        # By physical value: a lazy column ships what its fetch reads now,
        # and per-column caches (decoded values, code maps) stay behind.
        dictionary = self.dictionary if self._ctype is ColumnType.STRING else None
        return (Column.from_physical, (self.data, self._ctype, dictionary))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self._ctype is not other._ctype or len(self) != len(other):
            return False
        return all(self.value(i) == other.value(i) for i in range(len(self)))

    def __hash__(self) -> int:
        # Must agree with __eq__, which compares *decoded* values: integer
        # columns hash their physical bytes, but float columns go through
        # Python floats (0.0 == -0.0 yet their bytes differ) and string
        # columns through decoded values (equal columns may order their
        # dictionaries differently, giving different code arrays).
        if self._ctype is ColumnType.INT:
            return hash((self._ctype, self.data.tobytes()))
        return hash((self._ctype, tuple(self.values())))

    def __repr__(self) -> str:
        return f"Column({self._ctype.value}, n={len(self)})"

    # ------------------------------------------------------------------
    # value access
    # ------------------------------------------------------------------
    def value(self, row: int) -> Any:
        """Return the decoded value at ``row``."""
        raw = self.data[row]
        if self._ctype is ColumnType.STRING:
            return self.dictionary[int(raw)]
        if self._ctype is ColumnType.INT:
            return int(raw)
        return float(raw)

    def values(self) -> list[Any]:
        """Return all decoded values as a Python list.

        ``tolist`` yields exactly ``int`` / ``float`` / ``str`` elements;
        strings are the dictionary's own objects, taken through an object
        array — or one by one where the dictionary outgrows the column (a
        short slice of a long column must not pay for the whole dictionary).
        """
        if self._ctype is not ColumnType.STRING:
            return self.data.tolist()
        if self._decoded is not None:
            return self._decoded.tolist()
        dictionary = self.dictionary
        if len(dictionary) > self._length:
            return [dictionary[code] for code in self.data.tolist()]
        return np.asarray(dictionary, dtype=object)[self.data].tolist()

    def raw(self, row: int) -> Any:
        """Return the physical value at ``row`` (code for strings)."""
        return self.data[row]

    def encode(self, value: Any) -> Any:
        """Translate a literal into the physical domain of this column.

        For string columns this returns the dictionary code, or ``-1`` if the
        value does not occur in the column (no row can match equality then).
        Numeric columns return the value unchanged.
        """
        if self._ctype is ColumnType.STRING:
            if not isinstance(value, str):
                raise SchemaError(f"cannot compare string column with {value!r}")
            return self._code_map().get(value, -1)
        return value

    def translate_codes(self, other: "Column") -> np.ndarray:
        """Map ``other``'s dictionary codes into this column's code space.

        Returns an int64 array ``t`` such that ``t[c]`` is this column's
        dictionary code for ``other.dictionary[c]``, or ``len(self.dictionary)``
        (a sentinel no row of this column carries) when the value does not
        occur here.  The join kernel uses this to compare two dictionary-
        encoded string columns without decoding either side.

        The translation is cached per ``other`` column (both columns are
        immutable), so repeated joins over the same column pair pay the
        O(dictionary) construction only once.  The cache keeps a strong
        reference to ``other``, which pins its id and keeps the key valid.
        """
        if self._ctype is not ColumnType.STRING or other._ctype is not ColumnType.STRING:
            raise SchemaError("translate_codes requires two string columns")
        cached = self._translations.get(id(other))
        if cached is not None and cached[0] is other:
            return cached[1]
        sentinel = len(self.dictionary)
        code_of = self._code_map()
        translation = np.asarray(
            [code_of.get(value, sentinel) for value in other.dictionary],
            dtype=np.int64,
        )
        self._translations[id(other)] = (other, translation)
        return translation

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def take(self, positions: np.ndarray | Sequence[int]) -> "Column":
        """Return a new column restricted to ``positions`` (in that order)."""
        positions = np.asarray(positions, dtype=np.int64)
        data = self.data
        if self._ctype is ColumnType.STRING:
            dictionary = self.dictionary
            values = [dictionary[int(code)] for code in data[positions]]
            return Column(values, ColumnType.STRING)
        return Column.from_physical(np.asarray(data[positions]), self._ctype)

    def slice(self, start: int, stop: int | None = None) -> "Column":
        """Rows ``start:stop`` as a view: no copy, the dictionary shared."""
        return Column.from_physical(
            self.data[start:stop],
            self._ctype,
            self.dictionary if self._ctype is ColumnType.STRING else None,
        )

    @staticmethod
    def concat(parts: Sequence["Column"]) -> "Column":
        """The rows of ``parts`` in order (all of one type).

        String parts that share one dictionary object — slices of a column,
        or code gathers over one source column — concatenate their codes;
        any other mix is decoded and encoded afresh.
        """
        first = parts[0]
        if len(parts) == 1:
            return first
        if first.ctype is not ColumnType.STRING:
            return Column.from_physical(
                np.concatenate([part.data for part in parts]), first.ctype
            )
        if all(part.dictionary is first.dictionary for part in parts):
            return Column.from_physical(
                np.concatenate([part.data for part in parts]),
                ColumnType.STRING,
                first.dictionary,
            )
        return Column(
            np.concatenate([part.decoded_data for part in parts]), ColumnType.STRING
        )

    def compare(self, op: str, literal: Any) -> np.ndarray:
        """Return a boolean mask of rows satisfying ``column <op> literal``.

        ``op`` is one of ``=, !=, <, <=, >, >=``.  Ordering comparisons on
        string columns are evaluated on decoded values.
        """
        if self._ctype is ColumnType.STRING and op not in ("=", "!="):
            decoded = np.asarray(self.values(), dtype=object)
            return _apply_comparison(decoded, op, literal)
        physical = self.encode(literal) if self._ctype is ColumnType.STRING else literal
        return _apply_comparison(self.data, op, physical)

    def isin(self, literals: Iterable[Any]) -> np.ndarray:
        """Return a boolean mask of rows whose value is in ``literals``."""
        if self._ctype is ColumnType.STRING:
            codes = [self.encode(v) for v in literals]
            return np.isin(self.data, [c for c in codes if c >= 0])
        return np.isin(self.data, list(literals))

    def distinct_count(self) -> int:
        """Number of distinct values in the column."""
        if self._ctype is ColumnType.STRING:
            return len(self.dictionary)
        return int(np.unique(self.data).shape[0])

    def min_max(self) -> tuple[Any, Any]:
        """Minimum and maximum decoded value (empty columns raise)."""
        if len(self) == 0:
            raise SchemaError("min_max of empty column")
        if self._ctype is ColumnType.STRING:
            values = self.values()
            return min(values), max(values)
        data = self.data
        return self.value(int(np.argmin(data))), self.value(int(np.argmax(data)))


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
_COMPARATORS = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _apply_comparison(data: np.ndarray, op: str, literal: Any) -> np.ndarray:
    try:
        fn = _COMPARATORS[op]
    except KeyError as exc:
        raise SchemaError(f"unsupported comparison operator {op!r}") from exc
    return np.asarray(fn(data, literal), dtype=bool)


def _infer_type(values: Sequence[Any] | np.ndarray) -> ColumnType:
    if isinstance(values, np.ndarray):
        if np.issubdtype(values.dtype, np.integer):
            return ColumnType.INT
        if np.issubdtype(values.dtype, np.floating):
            return ColumnType.FLOAT
        return ColumnType.STRING
    for value in values:
        if isinstance(value, bool):
            return ColumnType.INT
        if isinstance(value, str):
            return ColumnType.STRING
        if isinstance(value, float) and not float(value).is_integer():
            return ColumnType.FLOAT
        if isinstance(value, float):
            return ColumnType.FLOAT
    return ColumnType.INT


def _encode_strings(values: Sequence[Any]) -> tuple[np.ndarray, list[str], dict[str, int]]:
    dictionary: list[str] = []
    code_of: dict[str, int] = {}
    codes = np.empty(len(values), dtype=np.int64)
    for i, value in enumerate(values):
        if not isinstance(value, str):
            value = str(value)
        code = code_of.get(value)
        if code is None:
            code = len(dictionary)
            code_of[value] = code
            dictionary.append(value)
        codes[i] = code
    return codes, dictionary, code_of
