"""RL001 true positives: server state written outside the owner."""


def corrupt_state(mirror, copy):
    mirror.resident[0].add(copy)            # line 5: resident-map mutator
    mirror.up = None                        # line 6: attribute store


def corrupt_mirror(mirror):
    mirror.avail_cpu[3] = 0.0               # line 10: mirror array store
    mirror.alloc_mem[0] -= 1.0              # line 11: augmented array store
    del mirror.resident[2]                  # line 12: resident-map delete
    mirror.brownout[4] = 2.0                # line 13: brownout-map store
    mirror.class_cpu[0] = 1.0               # line 14: class-table store
