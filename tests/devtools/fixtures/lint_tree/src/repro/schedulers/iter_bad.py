"""RL006 true positives: unordered iteration in decision loops."""


def schedule(active_jobs):
    for job in active_jobs.values():        # line 5: dict-view order
        launch(job)
    urgent = [t for t in set(collect())]    # line 7: bare set()
    return urgent


def launch(job):
    return job


def collect():
    return []
