"""RL014 true positives: iterators bound once, shared by every run."""

import itertools
import itertools as it
from itertools import count

_ids = itertools.count()                    # line 7: module-level counter

_turns = it.cycle((0, 1))                   # line 9: aliased module

_seq = count(1)                             # line 11: imported name


class Allocator:
    _next = itertools.count()               # line 15: class-level iterator
