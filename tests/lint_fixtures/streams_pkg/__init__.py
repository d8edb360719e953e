"""Stream-inventory fixture: two modules claiming one stream name, a
template name and an opaque dynamically-built name.  Parsed by repro.lint
tests, never executed."""
