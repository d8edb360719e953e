"""First claimant of the shared stream name, plus a template name."""


def setup(registry, chain_id):
    jitter = registry.stream("shared/jitter")
    private = registry.stream(f"comp_a/gas/{chain_id}")
    return jitter, private
