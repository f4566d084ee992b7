"""Clean: frozen module state, per-instance containers and iterators."""

import itertools

MENU = (1, 2, 3)

PAIRS = tuple(itertools.combinations(MENU, 2))  # consumed at import

LIMIT = 8


class PerRun:
    def __init__(self):
        self.items = []
        self.ids = itertools.count()

    def add(self, item):
        self.items.append(item)
