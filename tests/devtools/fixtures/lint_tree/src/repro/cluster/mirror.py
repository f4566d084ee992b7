"""RL001 allowed idiom: the owner module writes its own state."""


class AvailabilityMirror:
    def allocate(self, i, copy):
        self.resident.setdefault(i, set()).add(copy)
        self.alloc_cpu[i] += copy.task.demand.cpu
        self.avail_cpu[i] = self.class_cpu[self.class_of[i]] - self.alloc_cpu[i]
