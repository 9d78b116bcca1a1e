"""Exact integer matrices and Smith normal form with transform tracking.

Everything here is arbitrary-precision on purpose: pivot growth overflows
fixed-width integers even for small inputs.  The solver reduces A·x = b to
the diagonal case through the recorded unimodular transforms.

A matrix is factored at most once: the (U, D, V) of its Smith normal form
is kept on the immutable matrix, and every later ``smith_normal_form``,
``solve`` and ``kernel_basis`` on it answers from that one factorisation.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

# Most generators a group, and most rows or columns a matrix given to
# ``ktheory snf``, may have on input.  Each group and map costs a Smith
# normal form of a matrix with about this many rows; the point-count data
# the tools build stay under ten.
GENERATORS_CAP = 64


class IntMatrix:
    """Immutable dense integer matrix.

    Entries are a tuple of row tuples.  ``_snf`` holds the Smith normal
    form once ``smith_normal_form`` has computed it.
    """

    __slots__ = ("rows", "cols", "entries", "_snf")

    def __init__(self, entries, rows=None, cols=None):
        entries = tuple(map(tuple, entries))
        for row in entries:
            for v in row:
                if type(v) is not int:
                    raise ValueError(f"matrix entry {v!r} is not an integer")
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("ragged or mismatched matrix data")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._snf = None

    @classmethod
    def _trusted(cls, entries, rows, cols):
        """Wrap a tuple of int row tuples of the given shape, unchecked.

        For results built in this module from entries it already holds;
        outside data goes through the type- and shape-checking constructor.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._snf = None
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._trusted(((0,) * cols,) * rows, rows, cols)

    @classmethod
    def identity(cls, n):
        return cls._trusted(_identity_rows(n), n, n)

    @classmethod
    def from_columns(cls, columns, rows):
        if any(len(col) != rows for col in columns):
            raise ValueError("column length does not match the row count")
        return cls(tuple(tuple(col[i] for col in columns) for i in range(rows)),
                   rows, len(columns))

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        columns = other.transpose().entries
        return IntMatrix._trusted(
            tuple([tuple([sum(map(mul, row, col)) for col in columns])
                   for row in self.entries]),
            self.rows, other.cols)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in difference")
        return IntMatrix._trusted(
            tuple(tuple(a - b for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.entries, other.entries)),
            self.rows, self.cols)

    def transpose(self):
        # a 0 x n matrix flips to n rows of width zero, not to nothing
        return IntMatrix._trusted(tuple(zip(*self.entries)) if self.entries
                                  else ((),) * self.cols,
                                  self.cols, self.rows)

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def top(self, n):
        """The first n rows."""
        if not 0 <= n <= self.rows:
            raise ValueError("row count out of range")
        return IntMatrix._trusted(self.entries[:n], n, self.cols)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix._trusted(
            tuple(a + b for a, b in zip(self.entries, other.entries)),
            self.rows, self.cols + other.cols)

    def apply(self, vector):
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vector)) for row in self.entries)

    def diagonal(self):
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@lru_cache(maxsize=2 * GENERATORS_CAP)
def _identity_rows(n):
    # one tuple per size, shared; rows are capped but relator columns are
    # not, so the cache keeps the sizes used last
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def smith_normal_form(matrix):
    """Return (U, D, V) with U·A·V = D diagonal, d_i >= 0 and d_i | d_{i+1}.

    Classic pivoting by smallest absolute value with a divisibility repair
    step; U and V are built from the same elementary operations, so the
    identity U·A·V = D is re-checked exactly before the result is kept on
    the matrix.  Later calls on the same matrix return the kept result.
    The pivot is the first entry of least absolute value in row-major
    order; a unit is least, so the scan stops at the end of its row.
    """
    if matrix._snf is None:
        matrix._snf = _factor(matrix)
    return matrix._snf


def _factor(matrix):
    r, c = matrix.rows, matrix.cols
    m = [list(row) for row in matrix.entries]
    u = [list(row) for row in _identity_rows(r)]
    v = [list(row) for row in _identity_rows(c)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

    for t in range(min(r, c)):
        while True:
            pivot = None
            least = 0
            for i in range(t, r):
                row = m[i]
                for j in range(t, c):
                    if row[j] and (not least or abs(row[j]) < least):
                        pivot, least = (i, j), abs(row[j])
                if least == 1:
                    break
            if pivot is None:
                break
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, r):
                if m[i][t]:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if m[t][j]:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j]:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if m[i][j] % m[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if t < r and t < c and m[t][t] < 0:
            negate_row(t)

    um = IntMatrix._trusted(tuple(map(tuple, u)), r, r)
    dm = IntMatrix._trusted(tuple(map(tuple, m)), r, c)
    vm = IntMatrix._trusted(tuple(map(tuple, v)), c, c)
    if (um @ matrix) @ vm != dm:
        raise AssertionError("normal form transforms are inconsistent")
    return um, dm, vm


def solve(matrix, b):
    """One integer solution x of A·x = b as a tuple, or None.

    b is one vector of length A.rows; a caller with several right-hand
    sides solves them one by one.
    """
    u, d, v = smith_normal_form(matrix)
    diag = d.diagonal()
    y = [0] * matrix.cols
    for i, ub in enumerate(u.apply(b)):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ub != 0:
                return None
        else:
            if ub % di:
                return None
            y[i] = ub // di
    return v.apply(y)


def kernel_basis(matrix):
    """Columns generating {x : A·x = 0}, as an IntMatrix (cols x k)."""
    _, d, v = smith_normal_form(matrix)
    diag = d.diagonal()
    free = [j for j in range(matrix.cols) if j >= len(diag) or diag[j] == 0]
    return IntMatrix._trusted(tuple(tuple(row[j] for j in free)
                                    for row in v.entries),
                              matrix.cols, len(free))
