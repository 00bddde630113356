"""Tests of the repository tools under ``tools/``."""
