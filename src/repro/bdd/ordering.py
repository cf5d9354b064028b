"""Variable numbering schemes for the symbolic fault simulator.

The MOT strategy needs two copies of the initial-state variables:
``x_i`` for the fault-free machine and ``y_i`` for the faulty machine
(Section IV).  With the **interleaved** numbering

    x_0, y_0, x_1, y_1, ...

the rename ``x_i -> y_i`` is monotone in the variable order, so the
compose step of the MOT strategy reduces to a linear-time rename, and
the equivalence terms ``o(x) == o^f(y)`` stay small when good and
faulty functions are structurally similar.

The **blocked** numbering ``x_0..x_{m-1}, y_0..y_{m-1}`` is provided for
the variable-order ablation benchmark.
"""


class StateVariables:
    """Maps memory-element positions to BDD variable indices."""

    def __init__(self, num_dffs, scheme="interleaved"):
        if scheme not in ("interleaved", "blocked"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.num_dffs = num_dffs
        self.scheme = scheme

    def x(self, i):
        """Variable index of the fault-free initial-state bit *i*."""
        self._check(i)
        if self.scheme == "interleaved":
            return 2 * i
        return i

    def y(self, i):
        """Variable index of the faulty initial-state bit *i*."""
        self._check(i)
        if self.scheme == "interleaved":
            return 2 * i + 1
        return self.num_dffs + i

    def x_vars(self):
        return [self.x(i) for i in range(self.num_dffs)]

    def y_vars(self):
        return [self.y(i) for i in range(self.num_dffs)]

    def x_to_y(self):
        """The rename mapping used by the MOT compose step."""
        return {self.x(i): self.y(i) for i in range(self.num_dffs)}

    @property
    def num_vars(self):
        return 2 * self.num_dffs

    def _check(self, i):
        if not 0 <= i < self.num_dffs:
            raise IndexError(f"state bit {i} out of range 0..{self.num_dffs - 1}")
