"""The benchmark's Python half: load generation, checks and reporting."""
