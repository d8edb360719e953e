"""Second claimant of the shared name, plus an opaque stream name."""


def setup(registry, suffix):
    jitter = registry.stream("shared/jitter")
    hidden = registry.stream("comp_b/" + suffix)  # listed under "<opaque>"
    return jitter, hidden
