"""RL013 true positives: capacity state escaping its owner modules."""


def drain(mirror):
    arr = mirror.avail_cpu
    arr[0] = 0.0                            # line 6: write through alias
    arr.clear()                             # line 7: mutator through alias


def zero_out(buf):
    buf[0] = 0.0


def scrub(values):
    zero_out(values)


def reset(mirror):
    scrub(mirror.avail_cpu)                 # line 19: escapes into mutator


def evict(mirror, copy):
    hosted = mirror.resident
    hosted[0].discard(copy)                 # line 24: mutator on an alias item
