"""RL006 allowed idioms: explicit sort keys, or an ordered collection,
fix the iteration order."""


def schedule(active_jobs, server, weights):
    for job in sorted(active_jobs.values(), key=lambda j: j.job_id):
        launch(job)
    for copy in server.running_copies:  # a tuple in launch order
        maybe_clone(copy)
    for w in weights:  # a list: ordered, no sort needed
        launch(w)


def launch(job):
    return job


def maybe_clone(copy):
    return copy
