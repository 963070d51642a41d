"""Finite groups as Cayley tables, used to seed the builtin Hopf families."""

from __future__ import annotations

from itertools import permutations

from .errors import InputError


def index_in(value, size: int, where: str) -> int:
    """``value``, an int (not a bool) in 0..size-1; an InputError naming
    ``where`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where} is {value!r}, not an int")
    if not 0 <= value < size:
        raise InputError(f"{where} is {value}, outside 0..{size - 1}")
    return value


class Group:
    """A finite group given by a Cayley table of element indices."""

    def __init__(self, table, identity=None, names=None, name="group"):
        self.table = tuple(tuple(row) for row in table)
        self.size = len(self.table)
        self.name = name
        self.names = list(names) if names else [f"g{i}" for i in range(self.size)]
        if len(self.names) != self.size:
            raise InputError("names length does not match group size")
        self._validate()
        found = self._find_identity()
        self.identity = found if identity is None else index_in(identity, self.size, "identity")
        if self.identity != found:
            raise InputError(f"index {identity} is not the identity of the table")
        self._inverse = [self._find_inverse(i) for i in range(self.size)]

    def _validate(self):
        n = self.size
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise InputError("Cayley table is not square")
            for j, v in enumerate(row):
                index_in(v, n, f"Cayley entry ({i},{j})")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise InputError(f"Cayley table not associative at ({i},{j},{k})")

    def _find_identity(self):
        for e in range(self.size):
            if all(self.table[e][i] == i == self.table[i][e] for i in range(self.size)):
                return e
        raise InputError("Cayley table has no identity element")

    def _find_inverse(self, i):
        for j in range(self.size):
            if self.table[i][j] == self.identity == self.table[j][i]:
                return j
        raise InputError(f"element {i} has no inverse")

    def mul(self, i, j) -> int:
        return self.table[i][j]

    def inverse(self, i) -> int:
        return self._inverse[i]

    def __len__(self):
        return self.size


def cyclic(n: int) -> Group:
    if n < 1:
        raise InputError("cyclic group order must be >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [f"t{i}" if i > 1 else "t" for i in range(1, n)]
    return Group(table, identity=0, names=names[:n], name=f"C{n}")


def symmetric(n: int) -> Group:
    """Symmetric group on n letters; elements are permutation tuples in lex order."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # composition (p * q)(x) = p(q(x))
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    names = ["".join(str(x) for x in p) for p in perms]
    return Group(table, identity=index[tuple(range(n))], names=names, name=f"S{n}")
