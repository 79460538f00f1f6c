"""Wall-clock end-to-end benchmark of the repro engines (see README.md)."""
