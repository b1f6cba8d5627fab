"""e2ebench: the repo's end-to-end benchmark (see README.md)."""
